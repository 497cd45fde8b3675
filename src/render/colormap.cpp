#include "render/colormap.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.hpp"

namespace insitu::render {

ColorMap::ColorMap(std::vector<Rgba> controls, double lo, double hi)
    : controls_(std::move(controls)), lo_(lo), hi_(hi) {
  if (controls_.empty()) controls_.push_back(Rgba{0, 0, 0, 255});
  if (controls_.size() == 1) controls_.push_back(controls_[0]);
}

ColorMap ColorMap::cool_warm(double lo, double hi) {
  return ColorMap({Rgba{59, 76, 192, 255}, Rgba{221, 221, 221, 255},
                   Rgba{180, 4, 38, 255}},
                  lo, hi);
}

ColorMap ColorMap::heat(double lo, double hi) {
  return ColorMap({Rgba{0, 0, 0, 255}, Rgba{200, 30, 0, 255},
                   Rgba{255, 210, 0, 255}, Rgba{255, 255, 255, 255}},
                  lo, hi);
}

ColorMap ColorMap::grayscale(double lo, double hi) {
  return ColorMap({Rgba{0, 0, 0, 255}, Rgba{255, 255, 255, 255}}, lo, hi);
}

ColorMap ColorMap::by_name(const std::string& name, double lo, double hi) {
  if (name == "heat") return heat(lo, hi);
  if (name == "grayscale") return grayscale(lo, hi);
  return cool_warm(lo, hi);
}

Rgba ColorMap::map(double value) const {
  const kernels::ColorRamp r = ramp();
  Rgba out;
  kernels::colormap_apply(&value, 1, r.lo, r.hi, r.controls, r.ncontrols,
                          reinterpret_cast<std::uint8_t*>(&out));
  return out;
}

}  // namespace insitu::render
