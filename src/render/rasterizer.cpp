#include "render/rasterizer.hpp"

#include <algorithm>

#include "kernels/kernels.hpp"
#include "pal/buffer_pool.hpp"

namespace insitu::render {

std::int64_t rasterize(const analysis::TriangleMesh& mesh,
                       const RenderConfig& config, Image& target) {
  if (mesh.triangles.empty()) return 0;
  const int w = config.width;
  const int h = config.height;
  const double aspect = static_cast<double>(w) / h;

  // A blank target gets its planes only when there is geometry to draw,
  // and drops them again below if no fragment lands. Materializing ahead
  // of the projection scratch keeps a dense target's heap order: placing
  // the framebuffer after that scratch raised peak RSS by ~3 MiB with two
  // 960x540 ranks. Both come from the rank's pool, so after the first
  // step neither touches the heap.
  const bool was_blank = target.blank();
  if (was_blank) target.materialize();

  // Project all vertices once, into scratch leased from the rank's pool.
  using kernels::ScreenVertex;
  pal::PooledBuffer scratch(mesh.vertices.size() * sizeof(ScreenVertex));
  scratch.bytes().resize(mesh.vertices.size() * sizeof(ScreenVertex));
  auto* screen = reinterpret_cast<ScreenVertex*>(scratch.bytes().data());
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    const auto [nx, ny, depth] = config.camera.project(mesh.vertices[i]);
    // Normalized [-1,1] -> pixel coordinates; x shares the y scale so
    // geometry is not stretched on non-square images.
    screen[i].x = (nx / aspect * 0.5 + 0.5) * w;
    screen[i].y = (0.5 - ny * 0.5) * h;
    screen[i].depth = depth;
    screen[i].scalar = mesh.scalars[i];
  }

  // One kernel call draws the triangles in submission order, so each
  // pixel's depth-test outcomes follow that order, and reports the box
  // it drew into.
  const Image::Canvas canvas = target.canvas();
  const kernels::RasterFrame frame{
      reinterpret_cast<std::uint8_t*>(canvas.colors), canvas.depths, w, h};
  const kernels::RasterResult drawn = kernels::raster_mesh(
      screen, mesh.triangles.data(),
      static_cast<std::int64_t>(mesh.triangles.size()), frame,
      config.colormap.ramp());
  canvas.grow({drawn.x0, drawn.x1, drawn.y0, drawn.y1});
  if (was_blank && drawn.fragments == 0) target.make_blank();
  return drawn.fragments;
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
