#pragma once

// Internal: the single-element expressions both variants share. The
// generic variant is a plain loop over these; simd re-expresses the
// same operation sequence on vector lanes and falls back to these for
// tails. Keeping the expressions in one place
// is what makes the per-element kernels bit-identical across variants.

#include <cmath>
#include <cstdint>
#include <cstring>

#include "kernels/kernels.hpp"

namespace insitu::kernels::detail {

/// Histogram bin index; see kernels.hpp for the semantics contract.
inline int bin_index(double v, double min_value, double width,
                     int num_bins) {
  const double nb = static_cast<double>(num_bins);
  const double scaled = (v - min_value) / width * nb;
  if (scaled >= 0.0) {
    if (scaled < nb) return static_cast<int>(scaled);
    return num_bins - 1;
  }
  return 0;  // negative or NaN
}

/// One colormap lookup; writes 4 bytes.
inline void colormap_one(double s, double lo, double hi,
                         const std::uint8_t* controls, int ncontrols,
                         std::uint8_t* out) {
  double t = hi > lo ? (s - lo) / (hi - lo) : 0.5;
  if (!(t >= 0.0)) t = 0.0;  // clamps -inf and defines NaN
  if (t > 1.0) t = 1.0;
  const double scaled = t * static_cast<double>(ncontrols - 1);
  int idx = static_cast<int>(scaled);
  if (idx > ncontrols - 2) idx = ncontrols - 2;
  const double frac = scaled - static_cast<double>(idx);
  const std::uint8_t* a = controls + 4 * idx;
  const std::uint8_t* b = a + 4;
  for (int ch = 0; ch < 4; ++ch) {
    out[ch] = static_cast<std::uint8_t>(std::lround(
        a[ch] + frac * (static_cast<double>(b[ch]) - a[ch])));
  }
}

/// One raster pixel: fills depth/scalar and returns the inside flag.
inline std::uint8_t raster_one(const RasterTri& t, double px, double py,
                               float dst_depth, float* out_depth,
                               double* out_scalar) {
  const double w0 =
      ((t.bx - px) * (t.cy - py) - (t.cx - px) * (t.by - py)) * t.inv_area;
  const double w1 =
      ((t.cx - px) * (t.ay - py) - (t.ax - px) * (t.cy - py)) * t.inv_area;
  const double w2 = 1.0 - w0 - w1;
  const bool outside = w0 < 0.0 || w1 < 0.0 || w2 < 0.0;
  const float depth = static_cast<float>(
      w0 * t.adepth + w1 * t.bdepth + w2 * t.cdepth);
  *out_depth = depth;
  *out_scalar = w0 * t.ascalar + w1 * t.bscalar + w2 * t.cscalar;
  const bool rejected = depth >= dst_depth || depth <= 0.0f;
  return static_cast<std::uint8_t>(!outside && !rejected);
}

inline std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof v);
}

inline std::uint64_t double_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

inline double double_from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// One quantizer code; see kernels.hpp for the semantics contract
/// (round-to-nearest, saturate to [0, 65535], NaN/negative -> 0).
inline std::uint16_t quantize_one(double v, double lo, double inv_step) {
  const double t = (v - lo) * inv_step + 0.5;
  if (t >= 0.0) {
    if (t < 65536.0) return static_cast<std::uint16_t>(t);
    return 65535;
  }
  return 0;  // negative or NaN
}

}  // namespace insitu::kernels::detail
