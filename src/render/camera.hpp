#pragma once

// Minimal look-at camera with orthographic or perspective projection,
// mapping world-space points to (screen x, screen y, depth).

#include <array>
#include <cmath>

#include "data/types.hpp"

namespace insitu::render {

class Camera {
 public:
  enum class Projection { kOrthographic, kPerspective };

  Camera() = default;

  static Camera look_at(data::Vec3 eye, data::Vec3 target, data::Vec3 up,
                        Projection projection = Projection::kOrthographic) {
    Camera cam;
    cam.eye_ = eye;
    cam.forward_ = (target - eye).normalized();
    cam.right_ = cam.forward_.cross(up).normalized();
    cam.up_ = cam.right_.cross(cam.forward_);
    cam.projection_ = projection;
    return cam;
  }

  /// Half-height of the orthographic view volume (world units).
  void set_ortho_half_height(double h) { ortho_half_height_ = h; }

  /// Project a world point. Returns {sx, sy, depth} with sx, sy in
  /// normalized [-1, 1] image coordinates (x scaled by aspect outside) and
  /// depth = distance along the view direction (larger = farther).
  std::array<double, 3> project(const data::Vec3& p) const {
    const data::Vec3 rel = p - eye_;
    const double depth = rel.dot(forward_);
    const double x = rel.dot(right_);
    const double y = rel.dot(up_);
    if (projection_ == Projection::kOrthographic) {
      return {x / ortho_half_height_, y / ortho_half_height_, depth};
    }
    const double safe_depth = depth > 1e-9 ? depth : 1e-9;
    const double scale = std::tan(fov_ * 0.5) * safe_depth;
    return {x / scale, y / scale, depth};
  }

  data::Vec3 eye() const { return eye_; }
  data::Vec3 forward() const { return forward_; }

 private:
  data::Vec3 eye_{0, 0, 10};
  data::Vec3 forward_{0, 0, -1};
  data::Vec3 right_{1, 0, 0};
  data::Vec3 up_{0, 1, 0};
  Projection projection_ = Projection::kOrthographic;
  double ortho_half_height_ = 1.0;
  double fov_ = 1.0471975511965976;  // 60 degrees
};

}  // namespace insitu::render
