#include "render/rasterizer.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"
#include "pal/buffer_pool.hpp"

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
  // 960x540 ranks. Both come from the rank's pool, so after the first
  // step neither touches the heap.
  const bool was_blank = target.blank();
  if (was_blank) {
    if (mesh.triangles.empty()) return 0;
    target.materialize();
  }

  // Project all vertices once, into scratch leased from the rank's pool.
  pal::PooledBuffer scratch(mesh.vertices.size() * sizeof(ScreenVert));
  scratch.bytes().resize(mesh.vertices.size() * sizeof(ScreenVert));
  auto* screen = reinterpret_cast<ScreenVert*>(scratch.bytes().data());
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    const auto [nx, ny, depth] = config.camera.project(mesh.vertices[i]);
    // Normalized [-1,1] -> pixel coordinates; x shares the y scale so
    // geometry is not stretched on non-square images.
    screen[i].x = (nx / aspect * 0.5 + 0.5) * w;
    screen[i].y = (0.5 - ny * 0.5) * h;
    screen[i].depth = depth;
    screen[i].scalar = mesh.scalars[i];
  }

  // One pass over the triangles in submission order, so each pixel's
  // depth-test outcomes follow that order. One kernel call per triangle
  // tests its pixel box and colors only the pixels it covers; the boxes
  // of the triangles that wrote a fragment make up the drawn box.
  const kernels::ColorRamp ramp = config.colormap.ramp();
  const Image::Canvas canvas = target.canvas();
  auto* color = reinterpret_cast<std::uint8_t*>(canvas.colors);
  float* depth = canvas.depths;
  PixelBox drawn;
  for (const auto& tri : mesh.triangles) {
    const ScreenVert& a = screen[static_cast<std::size_t>(tri[0])];
    const ScreenVert& b = screen[static_cast<std::size_t>(tri[1])];
    const ScreenVert& c = screen[static_cast<std::size_t>(tri[2])];

    const double area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
    if (area == 0.0) continue;  // degenerate

    kernels::RasterTri rt;
    rt.x0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))));
    rt.x1 = std::min(
        w - 1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))));
    rt.y0 = std::max(
        0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))));
    rt.y1 = std::min(
        h - 1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))));
    if (rt.x1 < rt.x0 || rt.y1 < rt.y0) continue;
    rt.ax = a.x; rt.ay = a.y; rt.adepth = a.depth; rt.ascalar = a.scalar;
    rt.bx = b.x; rt.by = b.y; rt.bdepth = b.depth; rt.bscalar = b.scalar;
    rt.cx = c.x; rt.cy = c.y; rt.cdepth = c.depth; rt.cscalar = c.scalar;
    rt.inv_area = 1.0 / area;
    const std::int64_t written =
        kernels::raster_triangle(rt, ramp, color, depth, w);
    if (written == 0) continue;
    fragments += written;
    drawn = drawn.united({rt.x0, rt.x1 + 1, rt.y0, rt.y1 + 1});
  }
  canvas.grow(drawn);
  if (was_blank && fragments == 0) target.make_blank();
  return fragments;
}

Image render_mesh(const analysis::TriangleMesh& mesh,
                  const RenderConfig& config) {
  Image img(config.width, config.height, config.background);
  rasterize(mesh, config, img);
  return img;
}

Camera default_slice_camera(const data::Bounds& global_bounds, int axis) {
  const data::Vec3 center = global_bounds.center();
  const data::Vec3 extent = global_bounds.extent();
  const double radius =
      0.5 * std::max({extent.x, extent.y, extent.z, 1e-9});
  const double d = 4.0 * radius;
  const data::Vec3 offset = axis == 0   ? data::Vec3{d, 0, 0}
                            : axis == 1 ? data::Vec3{0, d, 0}
                                        : data::Vec3{0, 0, d};
  const data::Vec3 up = axis == 2 ? data::Vec3{0, 1, 0} : data::Vec3{0, 0, 1};
  Camera cam = Camera::look_at(center + offset, center, up,
                               Camera::Projection::kOrthographic);
  cam.set_ortho_half_height(1.05 * radius);
  return cam;
}

}  // namespace insitu::render
