#pragma once

// Internal: the single-element expressions both variants share. The
// generic variant is a plain loop over these; simd re-expresses the
// same operation sequence on vector lanes and falls back to these for
// tails. Keeping the expressions in one place
// is what makes the per-element kernels bit-identical across variants.

#include <algorithm>
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

/// A triangle after setup: screen coords, per-vertex depth and scalar,
/// the signed inverse area, and the pixel box [x0, x1] x [y0, y1] to
/// scan, clipped to the frame.
struct RasterTri {
  double ax, ay, adepth, ascalar;
  double bx, by, bdepth, bscalar;
  double cx, cy, cdepth, cscalar;
  double inv_area;
  int x0, x1, y0, y1;
};

/// Triangle setup, as kernels.hpp raster_mesh describes it. Returns
/// false for a triangle that draws nothing: zero area or an empty box.
/// Always inlined: an out-of-line copy would be one symbol shared by
/// both variants' TUs, and the linker could hand the baseline-ISA
/// variant the copy built for AVX2.
__attribute__((always_inline)) inline bool setup_triangle(
    const ScreenVertex& a, const ScreenVertex& b, const ScreenVertex& c,
    int width, int height, RasterTri* t) {
  const double area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
  if (area == 0.0) return false;
  t->x0 = std::max(0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))));
  t->x1 = std::min(width - 1,
                   static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))));
  t->y0 = std::max(0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))));
  t->y1 = std::min(height - 1,
                   static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))));
  if (t->x1 < t->x0 || t->y1 < t->y0) return false;
  t->ax = a.x; t->ay = a.y; t->adepth = a.depth; t->ascalar = a.scalar;
  t->bx = b.x; t->by = b.y; t->bdepth = b.depth; t->bscalar = b.scalar;
  t->cx = c.x; t->cy = c.y; t->cdepth = c.depth; t->cscalar = c.scalar;
  t->inv_area = 1.0 / area;
  return true;
}

/// Accounts one set-up triangle that wrote `written` fragments: its box
/// pixels count as tested, and a box that drew joins the drawn box.
__attribute__((always_inline)) inline void account_triangle(
    const RasterTri& t, std::int64_t written, RasterResult* r) {
  r->tested += static_cast<std::int64_t>(t.x1 - t.x0 + 1) * (t.y1 - t.y0 + 1);
  if (written == 0) return;
  if (r->fragments == 0) {
    r->x0 = t.x0; r->x1 = t.x1 + 1; r->y0 = t.y0; r->y1 = t.y1 + 1;
  } else {
    r->x0 = std::min(r->x0, t.x0);
    r->x1 = std::max(r->x1, t.x1 + 1);
    r->y0 = std::min(r->y0, t.y0);
    r->y1 = std::max(r->y1, t.y1 + 1);
  }
  r->fragments += written;
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
