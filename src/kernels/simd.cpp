// The explicit-SIMD variant: 4x double / 8x float / 4x int64 lanes via
// the compiler's portable vector extensions (__attribute__((vector_size)));
// no intrinsics headers, so this builds for any target GCC/Clang can
// lower vectors on (baseline x86-64 lowers the 32-byte types to SSE2
// pairs). Scalar tails reuse the per-element helpers from detail.hpp,
// and element-dependent fallbacks (skip masks) call through the generic
// table, so results match the reference bit-for-bit wherever
// kernels.hpp promises it.

#include <cmath>
#include <cstring>
#include <limits>

#include "kernels/detail.hpp"
#include "kernels/table.hpp"
#include "kernels/vmath.hpp"

namespace insitu::kernels::detail {

namespace {

typedef double d4 __attribute__((vector_size(32)));
typedef std::int64_t i64x4 __attribute__((vector_size(32)));
typedef float f4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef float f8 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));

template <class V>
V load(const void* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class V>
void store(void* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

inline d4 bcast4(double v) { return d4{v, v, v, v}; }

inline i64x4 dbits(d4 x) { return load<i64x4>(&x); }
inline d4 dfrom(i64x4 x) { return load<d4>(&x); }

inline d4 sel(i64x4 m, d4 t, d4 f) {
  return dfrom((m & dbits(t)) | (~m & dbits(f)));
}

struct VecOps {
  using D = d4;
  using I = i64x4;
  static D bcast(double v) { return bcast4(v); }
  static I ibcast(std::int64_t v) { return i64x4{v, v, v, v}; }
  static I bits(D x) { return dbits(x); }
  static D from_bits(I x) { return dfrom(x); }
  static I cmp_gt(D a, D b) { return a > b; }
  static I cmp_lt(D a, D b) { return a < b; }
  static I cmp_ieq(I a, I b) { return a == b; }
  static D sel(I m, D t, D f) { return detail::sel(m, t, f); }
};

Moments s_reduce_moments(const double* x, std::int64_t n,
                         const std::uint8_t* skip) {
  if (skip != nullptr) return kGenericTable.reduce_moments(x, n, skip);
  Moments m{std::numeric_limits<double>::max(),
            std::numeric_limits<double>::lowest(), 0.0, 0.0, n};
  d4 vmin = bcast4(m.min), vmax = bcast4(m.max);
  d4 vsum = bcast4(0.0), vssq = bcast4(0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 v = load<d4>(x + i);
    vmin = sel(v < vmin, v, vmin);
    vmax = sel(vmax < v, v, vmax);
    vsum += v;
    vssq += v * v;
  }
  for (int l = 0; l < 4; ++l) {
    m.min = vmin[l] < m.min ? vmin[l] : m.min;
    m.max = m.max < vmax[l] ? vmax[l] : m.max;
    m.sum += vsum[l];
    m.sum_sq += vssq[l];
  }
  for (; i < n; ++i) {
    const double v = x[i];
    m.min = v < m.min ? v : m.min;
    m.max = m.max < v ? v : m.max;
    m.sum += v;
    m.sum_sq += v * v;
  }
  return m;
}

void s_histogram_bin(const double* x, std::int64_t n,
                     const std::uint8_t* skip, double min_value,
                     double width, int num_bins, std::int64_t* bins) {
  if (skip != nullptr) {
    kGenericTable.histogram_bin(x, n, skip, min_value, width, num_bins,
                                bins);
    return;
  }
  const d4 vmin = bcast4(min_value);
  const d4 vw = bcast4(width);
  const d4 vnb = bcast4(static_cast<double>(num_bins));
  const d4 vnbm1 = bcast4(static_cast<double>(num_bins - 1));
  const d4 vzero = bcast4(0.0);

  // Smooth fields put neighboring elements in the same bin, so direct
  // `++bins[idx]` serializes on the store-to-load dependency of one
  // counter. Four lane-private rows give four independent chains; the
  // deterministic row merge (integer adds) keeps results bit-identical.
  constexpr int kMaxPrivateBins = 512;
  std::int64_t rows[4 * kMaxPrivateBins];
  const bool use_rows =
      num_bins <= kMaxPrivateBins &&
      n >= 8 * static_cast<std::int64_t>(num_bins);
  std::int64_t* lane_bins[4] = {bins, bins, bins, bins};
  if (use_rows) {
    std::memset(rows, 0,
                4 * static_cast<std::size_t>(num_bins) * sizeof(rows[0]));
    for (int l = 0; l < 4; ++l) lane_bins[l] = rows + l * num_bins;
  }

  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 v = load<d4>(x + i);
    const d4 t = (v - vmin) / vw * vnb;
    const d4 oob = sel(t >= vnb, vnbm1, vzero);
    const d4 safe = sel((t >= vzero) & (t < vnb), t, oob);  // NaN -> 0
    const i64x4 idx = __builtin_convertvector(safe, i64x4);
    ++lane_bins[0][idx[0]];
    ++lane_bins[1][idx[1]];
    ++lane_bins[2][idx[2]];
    ++lane_bins[3][idx[3]];
  }
  for (; i < n; ++i) {
    ++bins[bin_index(x[i], min_value, width, num_bins)];
  }
  if (use_rows) {
    for (int b = 0; b < num_bins; ++b) {
      bins[b] += ((rows[b] + rows[num_bins + b]) + rows[2 * num_bins + b]) +
                 rows[3 * num_bins + b];
    }
  }
}

void s_accumulate_i64(std::int64_t* dst, const std::int64_t* src,
                      std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<i64x4>(dst + i, load<i64x4>(dst + i) + load<i64x4>(src + i));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

double s_dot(const double* a, const double* b, std::int64_t n) {
  d4 vsum = bcast4(0.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vsum += load<d4>(a + i) * load<d4>(b + i);
  }
  double total = ((vsum[0] + vsum[1]) + vsum[2]) + vsum[3];
  for (; i < n; ++i) total += a[i] * b[i];
  return total;
}

void s_fma_accumulate(double* dst, const double* a, const double* b,
                      std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(dst + i,
              load<d4>(dst + i) + load<d4>(a + i) * load<d4>(b + i));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
}

void s_saxpy(double* dst, double a, const double* x, std::int64_t n) {
  const d4 va = bcast4(a);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(dst + i, load<d4>(dst + i) + va * load<d4>(x + i));
  }
  for (; i < n; ++i) dst[i] += a * x[i];
}

void s_lerp(double* dst, const double* a, const double* b, double t,
            std::int64_t n) {
  const d4 vt = bcast4(t);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 va = load<d4>(a + i);
    store<d4>(dst + i, va + (load<d4>(b + i) - va) * vt);
  }
  for (; i < n; ++i) dst[i] = a[i] + (b[i] - a[i]) * t;
}

void s_colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                      const std::uint8_t* controls, int ncontrols,
                      std::uint8_t* out) {
  constexpr std::int64_t kStrip = 256;
  const double span = static_cast<double>(ncontrols - 1);
  double scaled[kStrip];
  const d4 vlo = bcast4(lo);
  const d4 vrange = bcast4(hi - lo);
  const d4 vone = bcast4(1.0);
  const d4 vzero = bcast4(0.0);
  const d4 vspan = bcast4(span);
  for (std::int64_t base = 0; base < n; base += kStrip) {
    const std::int64_t len = n - base < kStrip ? n - base : kStrip;
    if (hi > lo) {
      std::int64_t i = 0;
      for (; i + 4 <= len; i += 4) {
        d4 t = (load<d4>(s + base + i) - vlo) / vrange;
        t = sel(t >= vzero, t, vzero);  // NaN -> 0
        t = sel(t > vone, vone, t);
        store<d4>(scaled + i, t * vspan);
      }
      for (; i < len; ++i) {
        double t = (s[base + i] - lo) / (hi - lo);
        if (!(t >= 0.0)) t = 0.0;
        if (t > 1.0) t = 1.0;
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

void s_depth_composite(std::uint8_t* dst_color, float* dst_depth,
                       const std::uint8_t* src_color, const float* src_depth,
                       std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const f8 sd = load<f8>(src_depth + i);
    const f8 dd = load<f8>(dst_depth + i);
    const i32x8 m = sd < dd;  // NaN src never wins
    const u32x8 um = load<u32x8>(&m);
    const u32x8 sc = load<u32x8>(src_color + 4 * i);
    const u32x8 dc = load<u32x8>(dst_color + 4 * i);
    store<u32x8>(dst_color + 4 * i, (sc & um) | (dc & ~um));
    const u32x8 sdb = load<u32x8>(&sd);
    const u32x8 ddb = load<u32x8>(&dd);
    const u32x8 out = (sdb & um) | (ddb & ~um);
    store<u32x8>(dst_depth + i, out);
  }
  for (; i < n; ++i) {
    if (src_depth[i] < dst_depth[i]) {
      store_u32(dst_color + 4 * i, load_u32(src_color + 4 * i));
      dst_depth[i] = src_depth[i];
    }
  }
}

void s_raster_span(const RasterTri& t, double py, int x0, std::int64_t n,
                   const float* dst_depth, float* depth, double* scalar,
                   std::uint8_t* inside) {
  const d4 vpy = bcast4(py);
  const d4 vinv = bcast4(t.inv_area);
  const d4 vzero = bcast4(0.0);
  const d4 vone = bcast4(1.0);
  const d4 vax = bcast4(t.ax), vay = bcast4(t.ay);
  const d4 vbx = bcast4(t.bx), vby = bcast4(t.by);
  const d4 vcx = bcast4(t.cx), vcy = bcast4(t.cy);
  const f4 fzero = f4{0.0f, 0.0f, 0.0f, 0.0f};
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double xb = static_cast<double>(x0 + i);
    const d4 px = d4{xb, xb + 1.0, xb + 2.0, xb + 3.0} + bcast4(0.5);
    const d4 w0 =
        ((vbx - px) * (vcy - vpy) - (vcx - px) * (vby - vpy)) * vinv;
    const d4 w1 =
        ((vcx - px) * (vay - vpy) - (vax - px) * (vcy - vpy)) * vinv;
    const d4 w2 = vone - w0 - w1;
    const i64x4 outside = (w0 < vzero) | (w1 < vzero) | (w2 < vzero);
    const d4 dd = w0 * bcast4(t.adepth) + w1 * bcast4(t.bdepth) +
                  w2 * bcast4(t.cdepth);
    const f4 df = __builtin_convertvector(dd, f4);
    store<f4>(depth + i, df);
    store<d4>(scalar + i, w0 * bcast4(t.ascalar) + w1 * bcast4(t.bscalar) +
                              w2 * bcast4(t.cscalar));
    const f4 dst = load<f4>(dst_depth + i);
    const i32x4 rejected = (df >= dst) | (df <= fzero);
    const i32x4 out32 = __builtin_convertvector(outside, i32x4) | rejected;
    for (int l = 0; l < 4; ++l) {
      inside[i + l] = static_cast<std::uint8_t>(out32[l] == 0);
    }
  }
  for (; i < n; ++i) {
    const double px = static_cast<double>(x0 + i) + 0.5;
    inside[i] = raster_one(t, px, py, dst_depth[i], depth + i, scalar + i);
  }
}

std::int64_t s_masked_store_span(std::uint8_t* dst_color, float* dst_depth,
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

void s_plane_distance(const double* x, const double* y, const double* z,
                      std::int64_t n, double ox, double oy, double oz,
                      double nx, double ny, double nz, double* out) {
  const d4 vox = bcast4(ox), voy = bcast4(oy), voz = bcast4(oz);
  const d4 vnx = bcast4(nx), vny = bcast4(ny), vnz = bcast4(nz);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 d = (load<d4>(x + i) - vox) * vnx +
                 (load<d4>(y + i) - voy) * vny +
                 (load<d4>(z + i) - voz) * vnz;
    store<d4>(out + i, d);
  }
  for (; i < n; ++i) {
    out[i] = (x[i] - ox) * nx + (y[i] - oy) * ny + (z[i] - oz) * nz;
  }
}

void s_magnitude3(const double* u, std::int64_t su, const double* v,
                  std::int64_t sv, const double* w, std::int64_t sw,
                  std::int64_t n, double* dst) {
  // sqrt is correctly rounded, so the compiler may vectorize this loop
  // freely; the strided gathers keep it simple either way.
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = u[i * su];
    const double b = v[i * sv];
    const double c = w[i * sw];
    dst[i] = std::sqrt(a * a + b * b + c * c);
  }
}

void s_oscillator_accumulate(double* dst, std::int64_t n, double ox,
                             double sx, std::int64_t i0, double dyy,
                             double dzz, double cx, double denom,
                             double tf) {
  const d4 vox = bcast4(ox), vsx = bcast4(sx), vcx = bcast4(cx);
  const d4 vyz0 = bcast4(dyy), vyz1 = bcast4(dzz);
  const d4 vden = bcast4(denom);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double ib = static_cast<double>(i0 + i);
    const d4 idx = d4{ib, ib + 1.0, ib + 2.0, ib + 3.0};
    const d4 px = vox + vsx * idx;
    const d4 dx = px - vcx;
    const d4 r2 = dx * dx + vyz0 + vyz1;
    const d4 arg = -r2 / vden;
    // The exp itself must stay libm-scalar for cross-variant
    // bit-identity of the simulated field.
    dst[i] += std::exp(arg[0]) * tf;
    dst[i + 1] += std::exp(arg[1]) * tf;
    dst[i + 2] += std::exp(arg[2]) * tf;
    dst[i + 3] += std::exp(arg[3]) * tf;
  }
  for (; i < n; ++i) {
    const double px = ox + sx * static_cast<double>(i0 + i);
    const double dx = px - cx;
    const double r2 = dx * dx + dyy + dzz;
    dst[i] += std::exp(-r2 / denom) * tf;
  }
}

void s_vexp(const double* x, double* out, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(out + i, exp_core<VecOps>(load<d4>(x + i)));
  }
  for (; i < n; ++i) out[i] = exp_core<ScalarOps>(x[i]);
}

void s_vsin(const double* x, double* out, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(out + i, sin_core<VecOps>(load<d4>(x + i)));
  }
  for (; i < n; ++i) out[i] = sin_core<ScalarOps>(x[i]);
}

void s_vcos(const double* x, double* out, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(out + i, cos_core<VecOps>(load<d4>(x + i)));
  }
  for (; i < n; ++i) out[i] = cos_core<ScalarOps>(x[i]);
}

typedef std::uint16_t u16x4 __attribute__((vector_size(8)));

void s_quantize_encode(const double* x, std::int64_t n, double lo,
                       double inv_step, std::uint16_t* out) {
  const d4 vlo = bcast4(lo);
  const d4 vinv = bcast4(inv_step);
  const d4 vhalf = bcast4(0.5);
  const d4 vzero = bcast4(0.0);
  const d4 vrange = bcast4(65536.0);
  const d4 vtop = bcast4(65535.0);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 t = (load<d4>(x + i) - vlo) * vinv + vhalf;
    const d4 oob = sel(t >= vrange, vtop, vzero);
    const d4 safe = sel((t >= vzero) & (t < vrange), t, oob);  // NaN -> 0
    const i64x4 code = __builtin_convertvector(safe, i64x4);
    const u16x4 packed = __builtin_convertvector(code, u16x4);
    store<u16x4>(out + i, packed);
  }
  for (; i < n; ++i) out[i] = quantize_one(x[i], lo, inv_step);
}

void s_quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                       double step, double* out) {
  const d4 vlo = bcast4(lo);
  const d4 vstep = bcast4(step);
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const d4 v = __builtin_convertvector(load<u16x4>(q + i), d4);
    store<d4>(out + i, vlo + v * vstep);
  }
  for (; i < n; ++i) out[i] = lo + static_cast<double>(q[i]) * step;
}

void s_delta_encode(const double* x, const double* prev, std::int64_t n,
                    std::uint64_t* out) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<i64x4>(out + i, load<i64x4>(x + i) ^ load<i64x4>(prev + i));
  }
  for (; i < n; ++i) out[i] = double_bits(x[i]) ^ double_bits(prev[i]);
}

void s_delta_decode(const std::uint64_t* delta, const double* prev,
                    std::int64_t n, double* out) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<i64x4>(out + i, load<i64x4>(delta + i) ^ load<i64x4>(prev + i));
  }
  for (; i < n; ++i) {
    out[i] = double_from_bits(delta[i] ^ double_bits(prev[i]));
  }
}

std::int64_t s_subsample_gather(const double* x, std::int64_t n_tuples,
                                int components, int stride, double* out) {
  // Pure copies; the memcpy fast paths match the scalar reference
  // bit-for-bit by construction.
  if (stride == 1) {
    if (n_tuples > 0) {  // memcpy needs valid pointers even for 0 bytes
      std::memcpy(out, x,
                  static_cast<std::size_t>(n_tuples) *
                      static_cast<std::size_t>(components) * sizeof(double));
    }
    return n_tuples;
  }
  const std::size_t tuple_bytes =
      static_cast<std::size_t>(components) * sizeof(double);
  std::int64_t kept = 0;
  for (std::int64_t t = 0; t < n_tuples; t += stride, ++kept) {
    std::memcpy(out + kept * components, x + t * components, tuple_bytes);
  }
  return kept;
}

void s_subsample_expand(const double* kept, std::int64_t n_tuples,
                        int components, int stride, double* out) {
  if (stride == 1) {
    if (n_tuples > 0) {  // memcpy needs valid pointers even for 0 bytes
      std::memcpy(out, kept,
                  static_cast<std::size_t>(n_tuples) *
                      static_cast<std::size_t>(components) * sizeof(double));
    }
    return;
  }
  const std::size_t tuple_bytes =
      static_cast<std::size_t>(components) * sizeof(double);
  for (std::int64_t t = 0; t < n_tuples; ++t) {
    std::memcpy(out + t * components, kept + (t / stride) * components,
                tuple_bytes);
  }
}

}  // namespace

const KernelTable kSimdTable = {
    s_reduce_moments, s_histogram_bin, s_accumulate_i64,
    s_dot,            s_fma_accumulate, s_saxpy,
    s_lerp,           s_colormap_apply, s_depth_composite,
    s_raster_span,    s_masked_store_span, s_plane_distance,
    s_magnitude3,     s_oscillator_accumulate, s_vexp,
    s_vsin,           s_vcos,           s_quantize_encode,
    s_quantize_decode, s_delta_encode,  s_delta_decode,
    s_subsample_gather, s_subsample_expand,
};

}  // namespace insitu::kernels::detail
