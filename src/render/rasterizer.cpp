#include "render/rasterizer.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"

namespace insitu::render {

namespace {
struct ScreenVert {
  double x = 0.0, y = 0.0, depth = 0.0, scalar = 0.0;
};
}  // namespace

std::int64_t rasterize(const analysis::TriangleMesh& mesh,
                       const RenderConfig& config, Image& target) {
  const int w = config.width;
  const int h = config.height;
  const double aspect = static_cast<double>(w) / h;
  std::int64_t fragments = 0;

  // A blank target gets its planes only when there is geometry to draw,
  // and drops them again below if no fragment lands. Materializing ahead
  // of the projection scratch keeps a dense target's heap order: placing
  // the framebuffer after that scratch raised peak RSS by ~3 MiB with two
  // 960x540 ranks.
  const bool was_blank = target.blank();
  if (was_blank) {
    if (mesh.triangles.empty()) return 0;
    target.materialize();
  }

  // Project all vertices once.
  std::vector<ScreenVert> screen(mesh.vertices.size());
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    const auto [nx, ny, depth] = config.camera.project(mesh.vertices[i]);
    // Normalized [-1,1] -> pixel coordinates; x shares the y scale so
    // geometry is not stretched on non-square images.
    screen[i].x = (nx / aspect * 0.5 + 0.5) * w;
    screen[i].y = (0.5 - ny * 0.5) * h;
    screen[i].depth = depth;
    screen[i].scalar = mesh.scalars[i];
  }

  // One scanline pass: every triangle in submission order, so each
  // pixel's depth-test outcomes follow that order. Span scratch holds
  // coverage, depth, scalar, and mapped colors for one framebuffer row at
  // a time.
  std::vector<float> span_depth(static_cast<std::size_t>(w));
  std::vector<double> span_scalar(static_cast<std::size_t>(w));
  std::vector<std::uint8_t> span_inside(static_cast<std::size_t>(w));
  std::vector<Rgba> span_color(static_cast<std::size_t>(w));
  for (const auto& tri : mesh.triangles) {
    const ScreenVert& a = screen[static_cast<std::size_t>(tri[0])];
    const ScreenVert& b = screen[static_cast<std::size_t>(tri[1])];
    const ScreenVert& c = screen[static_cast<std::size_t>(tri[2])];

    const double area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
    if (area == 0.0) continue;  // degenerate

    const int x0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))));
    const int x1 = std::min(
        w - 1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))));
    const int y0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))));
    const int y1 = std::min(
        h - 1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))));
    if (x1 < x0) continue;

    kernels::RasterTri rt;
    rt.ax = a.x; rt.ay = a.y; rt.adepth = a.depth; rt.ascalar = a.scalar;
    rt.bx = b.x; rt.by = b.y; rt.bdepth = b.depth; rt.bscalar = b.scalar;
    rt.cx = c.x; rt.cy = c.y; rt.cdepth = c.depth; rt.cscalar = c.scalar;
    rt.inv_area = 1.0 / area;
    const std::int64_t span = x1 - x0 + 1;
    for (int y = y0; y <= y1; ++y) {
      // Evaluate coverage/depth/scalar for the whole span, colormap the
      // span in one call, then depth-write only the covered pixels.
      // Within a row every pixel is distinct, so batching the writes is
      // identical to the interleaved per-pixel loop.
      float* row_depth = &target.depth(x0, y);
      kernels::raster_span(rt, y + 0.5, x0, span, row_depth, span_depth.data(),
                           span_scalar.data(), span_inside.data());
      config.colormap.map_array(span_scalar.data(), span, span_color.data());
      fragments += kernels::masked_store_span(
          reinterpret_cast<std::uint8_t*>(&target.pixel(x0, y)), row_depth,
          reinterpret_cast<const std::uint8_t*>(span_color.data()),
          span_depth.data(), span_inside.data(), span);
    }
  }
  if (was_blank && fragments == 0) target.make_blank();
  return fragments;
}

Image render_mesh(const analysis::TriangleMesh& mesh,
                  const RenderConfig& config) {
  Image img(config.width, config.height, config.background);
  rasterize(mesh, config, img);
  return img;
}

Camera default_slice_camera(const data::Bounds& global_bounds) {
  const data::Vec3 center = global_bounds.center();
  const data::Vec3 extent = global_bounds.extent();
  const double radius =
      0.5 * std::max({extent.x, extent.y, extent.z, 1e-9});
  Camera cam = Camera::look_at(
      center + data::Vec3{0, 0, 4.0 * radius}, center, data::Vec3{0, 1, 0},
      Camera::Projection::kOrthographic);
  cam.set_ortho_half_height(1.05 * radius);
  return cam;
}

}  // namespace insitu::render
