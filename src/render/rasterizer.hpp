#pragma once

// Software rasterizer: pseudocolored triangle meshes into a z-buffered
// framebuffer. Each rank renders only its local geometry; the distributed
// image is then merged by a compositor (compositor.hpp) — the two-stage
// render process §4.1.3 describes.

#include "analysis/geometry.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "render/image.hpp"

namespace insitu::render {

struct RenderConfig {
  int width = 1920;
  int height = 1080;
  Camera camera;
  ColorMap colormap = ColorMap::cool_warm(0.0, 1.0);
  Rgba background{0, 0, 0, 0};  ///< alpha 0 marks empty pixels
};

/// Rasterize `mesh` into `target`, which must already be sized for
/// `config`. A blank target is materialized only if the mesh has
/// triangles, and is made blank again if no fragment lands. Returns the
/// number of fragments written (used for cost modeling).
std::int64_t rasterize(const analysis::TriangleMesh& mesh,
                       const RenderConfig& config, Image& target);

/// Camera framing for a global domain viewed down the normal of an
/// axis-aligned slice (axis 0/1/2: down -x/-y/-z), the slice studies'
/// view: the whole bounds fit in the image. Axis 2 has +y up; axes 0 and
/// 1 have +z up.
Camera default_slice_camera(const data::Bounds& global_bounds, int axis = 2);

}  // namespace insitu::render
