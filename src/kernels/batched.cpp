// The auto-vectorized variant: the same per-element expressions as the
// generic reference, restructured into branch-free strip-mined loops
// the compiler vectorizes at -O2/-O3. No intrinsics, no vector types —
// portability is the compiler's problem here; simd.cpp is the explicit
// fallback-proof variant.

#include <cmath>
#include <limits>

#include "kernels/detail.hpp"
#include "kernels/table.hpp"
#include "kernels/vmath.hpp"

namespace insitu::kernels::detail {

namespace {

constexpr std::int64_t kStrip = 512;

Moments b_reduce_moments(const double* x, std::int64_t n,
                         const std::uint8_t* skip) {
  Moments m{std::numeric_limits<double>::max(),
            std::numeric_limits<double>::lowest(), 0.0, 0.0, 0};
  if (skip != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (skip[i] != 0) continue;
      const double v = x[i];
      m.min = v < m.min ? v : m.min;
      m.max = m.max < v ? v : m.max;
      m.sum += v;
      m.sum_sq += v * v;
      ++m.count;
    }
    return m;
  }
  // Four parallel accumulators (lane l sees i = l mod 4), merged in lane
  // order — the same association the simd variant uses.
  double mn[4], mx[4], sum[4], ssq[4];
  for (int l = 0; l < 4; ++l) {
    mn[l] = std::numeric_limits<double>::max();
    mx[l] = std::numeric_limits<double>::lowest();
    sum[l] = 0.0;
    ssq[l] = 0.0;
  }
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double v = x[i + l];
      mn[l] = v < mn[l] ? v : mn[l];
      mx[l] = mx[l] < v ? v : mx[l];
      sum[l] += v;
      ssq[l] += v * v;
    }
  }
  for (int l = 0; l < 4; ++l) {
    m.min = mn[l] < m.min ? mn[l] : m.min;
    m.max = m.max < mx[l] ? mx[l] : m.max;
    m.sum += sum[l];
    m.sum_sq += ssq[l];
  }
  for (; i < n; ++i) {
    const double v = x[i];
    m.min = v < m.min ? v : m.min;
    m.max = m.max < v ? v : m.max;
    m.sum += v;
    m.sum_sq += v * v;
  }
  m.count = n;
  return m;
}

void b_histogram_bin(const double* x, std::int64_t n,
                     const std::uint8_t* skip, double min_value,
                     double width, int num_bins, std::int64_t* bins) {
  if (skip != nullptr) {
    for (std::int64_t i = 0; i < n; ++i) {
      if (skip[i] != 0) continue;
      ++bins[bin_index(x[i], min_value, width, num_bins)];
    }
    return;
  }
  // Vectorizable index computation into a strip, scalar scatter after.
  const double nb = static_cast<double>(num_bins);
  const double nbm1 = static_cast<double>(num_bins - 1);
  std::int32_t idx[kStrip];
  for (std::int64_t base = 0; base < n; base += kStrip) {
    const std::int64_t len = n - base < kStrip ? n - base : kStrip;
    for (std::int64_t i = 0; i < len; ++i) {
      const double t = (x[base + i] - min_value) / width * nb;
      const double oob = t >= nb ? nbm1 : 0.0;
      const double safe = t >= 0.0 && t < nb ? t : oob;  // NaN -> 0
      idx[i] = static_cast<std::int32_t>(safe);
    }
    for (std::int64_t i = 0; i < len; ++i) ++bins[idx[i]];
  }
}

void b_accumulate_i64(std::int64_t* dst, const std::int64_t* src,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

double b_dot(const double* a, const double* b, std::int64_t n) {
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) sum[l] += a[i + l] * b[i + l];
  }
  double total = ((sum[0] + sum[1]) + sum[2]) + sum[3];
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

void b_fma_accumulate(double* dst, const double* a, const double* b,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void b_saxpy(double* dst, double a, const double* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void b_lerp(double* dst, const double* a, const double* b, double t,
            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = a[i] + (b[i] - a[i]) * t;
}

void b_colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                      const std::uint8_t* controls, int ncontrols,
                      std::uint8_t* out) {
  // Vectorizable scaled computation; the lround channel lerp stays
  // scalar (libm call).
  const double range = hi - lo;
  const double span = static_cast<double>(ncontrols - 1);
  double scaled[kStrip];
  for (std::int64_t base = 0; base < n; base += kStrip) {
    const std::int64_t len = n - base < kStrip ? n - base : kStrip;
    if (hi > lo) {
      for (std::int64_t i = 0; i < len; ++i) {
        double t = (s[base + i] - lo) / range;
        t = t >= 0.0 ? t : 0.0;  // NaN -> 0
        t = t > 1.0 ? 1.0 : t;
        scaled[i] = t * span;
      }
    } else {
      for (std::int64_t i = 0; i < len; ++i) scaled[i] = 0.5 * span;
    }
    for (std::int64_t i = 0; i < len; ++i) {
      int idx = static_cast<int>(scaled[i]);
      if (idx > ncontrols - 2) idx = ncontrols - 2;
      const double frac = scaled[i] - static_cast<double>(idx);
      const std::uint8_t* a = controls + 4 * idx;
      const std::uint8_t* b = a + 4;
      std::uint8_t* o = out + 4 * (base + i);
      for (int ch = 0; ch < 4; ++ch) {
        o[ch] = static_cast<std::uint8_t>(std::lround(
            a[ch] + frac * (static_cast<double>(b[ch]) - a[ch])));
      }
    }
  }
}

void b_depth_composite(std::uint8_t* dst_color, float* dst_depth,
                       const std::uint8_t* src_color, const float* src_depth,
                       std::int64_t n) {
  // Branchless select with unconditional stores: if-convertible, so the
  // compiler can vectorize. NaN src depth compares false and keeps dst.
  for (std::int64_t i = 0; i < n; ++i) {
    const bool take = src_depth[i] < dst_depth[i];
    const std::uint32_t m = take ? 0xffffffffu : 0u;
    const std::uint32_t sc = load_u32(src_color + 4 * i);
    const std::uint32_t dc = load_u32(dst_color + 4 * i);
    store_u32(dst_color + 4 * i, (sc & m) | (dc & ~m));
    dst_depth[i] = take ? src_depth[i] : dst_depth[i];
  }
}

void b_raster_span(const RasterTri& t, double py, int x0, std::int64_t n,
                   const float* dst_depth, float* depth, double* scalar,
                   std::uint8_t* inside) {
  // Branchless form of raster_one: | over int comparisons preserves the
  // reference's NaN behavior (NaN weights are not outside, NaN depth is
  // not rejected).
  for (std::int64_t i = 0; i < n; ++i) {
    const double px = static_cast<double>(x0 + i) + 0.5;
    const double w0 =
        ((t.bx - px) * (t.cy - py) - (t.cx - px) * (t.by - py)) * t.inv_area;
    const double w1 =
        ((t.cx - px) * (t.ay - py) - (t.ax - px) * (t.cy - py)) * t.inv_area;
    const double w2 = 1.0 - w0 - w1;
    const int outside = (w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0);
    const float d = static_cast<float>(
        w0 * t.adepth + w1 * t.bdepth + w2 * t.cdepth);
    depth[i] = d;
    scalar[i] = w0 * t.ascalar + w1 * t.bscalar + w2 * t.cscalar;
    const int rejected = (d >= dst_depth[i]) | (d <= 0.0f);
    inside[i] = static_cast<std::uint8_t>((outside | rejected) ^ 1);
  }
}

std::int64_t b_masked_store_span(std::uint8_t* dst_color, float* dst_depth,
                                 const std::uint8_t* colors,
                                 const float* depth,
                                 const std::uint8_t* inside,
                                 std::int64_t n) {
  std::int64_t stored = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::uint32_t m = inside[i] != 0 ? 0xffffffffu : 0u;
    const std::uint32_t sc = load_u32(colors + 4 * i);
    const std::uint32_t dc = load_u32(dst_color + 4 * i);
    store_u32(dst_color + 4 * i, (sc & m) | (dc & ~m));
    dst_depth[i] = inside[i] != 0 ? depth[i] : dst_depth[i];
    stored += inside[i] != 0;
  }
  return stored;
}

void b_plane_distance(const double* x, const double* y, const double* z,
                      std::int64_t n, double ox, double oy, double oz,
                      double nx, double ny, double nz, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = (x[i] - ox) * nx + (y[i] - oy) * ny + (z[i] - oz) * nz;
  }
}

void b_magnitude3(const double* u, std::int64_t su, const double* v,
                  std::int64_t sv, const double* w, std::int64_t sw,
                  std::int64_t n, double* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = u[i * su];
    const double b = v[i * sv];
    const double c = w[i * sw];
    dst[i] = std::sqrt(a * a + b * b + c * c);
  }
}

void b_oscillator_accumulate(double* dst, std::int64_t n, double ox,
                             double sx, std::int64_t i0, double dyy,
                             double dzz, double cx, double denom,
                             double tf) {
  // Vectorizable argument strip; the (bit-identity-mandated) libm exp
  // stays scalar.
  double arg[kStrip];
  for (std::int64_t base = 0; base < n; base += kStrip) {
    const std::int64_t len = n - base < kStrip ? n - base : kStrip;
    for (std::int64_t i = 0; i < len; ++i) {
      const double px = ox + sx * static_cast<double>(i0 + base + i);
      const double dx = px - cx;
      const double r2 = dx * dx + dyy + dzz;
      arg[i] = -r2 / denom;
    }
    for (std::int64_t i = 0; i < len; ++i) {
      dst[base + i] += std::exp(arg[i]) * tf;
    }
  }
}

void b_vexp(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = exp_core<ScalarOps>(x[i]);
}

void b_vsin(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = sin_core<ScalarOps>(x[i]);
}

void b_vcos(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = cos_core<ScalarOps>(x[i]);
}

void b_quantize_encode(const double* x, std::int64_t n, double lo,
                       double inv_step, std::uint16_t* out) {
  // Branchless select chain (same shape as b_histogram_bin's index
  // computation) so the whole loop is if-convertible.
  for (std::int64_t i = 0; i < n; ++i) {
    const double t = (x[i] - lo) * inv_step + 0.5;
    const double oob = t >= 65536.0 ? 65535.0 : 0.0;
    const double safe = t >= 0.0 && t < 65536.0 ? t : oob;  // NaN -> 0
    out[i] = static_cast<std::uint16_t>(safe);
  }
}

void b_quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                       double step, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = lo + static_cast<double>(q[i]) * step;
  }
}

void b_delta_encode(const double* x, const double* prev, std::int64_t n,
                    std::uint64_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = double_bits(x[i]) ^ double_bits(prev[i]);
  }
}

void b_delta_decode(const std::uint64_t* delta, const double* prev,
                    std::int64_t n, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = double_from_bits(delta[i] ^ double_bits(prev[i]));
  }
}

std::int64_t b_subsample_gather(const double* x, std::int64_t n_tuples,
                                int components, int stride, double* out) {
  if (stride == 1) {
    if (n_tuples > 0) {  // memcpy needs valid pointers even for 0 bytes
      std::memcpy(out, x,
                  static_cast<std::size_t>(n_tuples) *
                      static_cast<std::size_t>(components) * sizeof(double));
    }
    return n_tuples;
  }
  std::int64_t kept = 0;
  for (std::int64_t t = 0; t < n_tuples; t += stride, ++kept) {
    for (int c = 0; c < components; ++c) {
      out[kept * components + c] = x[t * components + c];
    }
  }
  return kept;
}

void b_subsample_expand(const double* kept, std::int64_t n_tuples,
                        int components, int stride, double* out) {
  if (stride == 1) {
    if (n_tuples > 0) {  // memcpy needs valid pointers even for 0 bytes
      std::memcpy(out, kept,
                  static_cast<std::size_t>(n_tuples) *
                      static_cast<std::size_t>(components) * sizeof(double));
    }
    return;
  }
  for (std::int64_t t = 0; t < n_tuples; ++t) {
    const std::int64_t k = t / stride;
    for (int c = 0; c < components; ++c) {
      out[t * components + c] = kept[k * components + c];
    }
  }
}

}  // namespace

const KernelTable kBatchedTable = {
    b_reduce_moments, b_histogram_bin, b_accumulate_i64,
    b_dot,            b_fma_accumulate, b_saxpy,
    b_lerp,           b_colormap_apply, b_depth_composite,
    b_raster_span,    b_masked_store_span, b_plane_distance,
    b_magnitude3,     b_oscillator_accumulate, b_vexp,
    b_vsin,           b_vcos,           b_quantize_encode,
    b_quantize_decode, b_delta_encode,  b_delta_decode,
    b_subsample_gather, b_subsample_expand,
};

}  // namespace insitu::kernels::detail
