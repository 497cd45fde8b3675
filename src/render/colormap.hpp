#pragma once

// Scalar -> color transfer functions for pseudocolor ("heatmap") rendering,
// the technique both slice configurations in §4.1.3 use.

#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "render/image.hpp"

namespace insitu::render {

class ColorMap {
 public:
  /// Piecewise-linear map over control colors, domain [lo, hi].
  ColorMap(std::vector<Rgba> controls, double lo, double hi);

  /// Presets.
  static ColorMap cool_warm(double lo, double hi);   // blue-white-red
  static ColorMap heat(double lo, double hi);        // black-red-yellow-white
  static ColorMap grayscale(double lo, double hi);
  static ColorMap by_name(const std::string& name, double lo, double hi);

  /// One scalar's color through the dispatch kernel. NaN maps to the low
  /// end of the ramp.
  Rgba map(double value) const;

  /// The control colors and domain, as the kernels read them: Rgba is
  /// four uint8 channels, so the controls are already that byte layout.
  kernels::ColorRamp ramp() const {
    return {reinterpret_cast<const std::uint8_t*>(controls_.data()),
            static_cast<int>(controls_.size()), lo_, hi_};
  }

  double lo() const { return lo_; }
  double hi() const { return hi_; }

 private:
  std::vector<Rgba> controls_;
  double lo_;
  double hi_;
};

}  // namespace insitu::render
