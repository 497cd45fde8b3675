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

void s_fma_accumulate(double* dst, const double* a, const double* b,
                      std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<d4>(dst + i,
              load<d4>(dst + i) + load<d4>(a + i) * load<d4>(b + i));
  }
  for (; i < n; ++i) dst[i] += a[i] * b[i];
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

typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

/// A ColorRamp unpacked for d4 lanes: per segment, the low control's
/// channels and the step to the next control, as doubles. Ramps longer
/// than kMaxSegments stay packed and are mapped one element at a time.
struct LaneRamp {
  static constexpr int kMaxSegments = 8;

  explicit LaneRamp(const ColorRamp& r)
      : ramp(r), segments(r.ncontrols - 1), ranged(r.hi > r.lo) {
    if (segments > kMaxSegments) return;
    for (int k = 0; k < segments; ++k) {
      for (int ch = 0; ch < 4; ++ch) {
        const std::uint8_t* a = r.controls + 4 * k + ch;
        base[k][ch] = a[0];
        step[k][ch] = static_cast<double>(a[4]) - a[0];
      }
    }
  }

  ColorRamp ramp;
  int segments;
  bool ranged;
  double base[kMaxSegments][4];
  double step[kMaxSegments][4];
};

/// floor(v) for lanes in [0, 2^31): one round instruction where the
/// target has one, else truncation through int32, which is the same on
/// that range.
inline d4 floor_nonneg(d4 v) {
#if defined(__AVX__)
  return __builtin_ia32_roundpd256(v, 0x09);  // floor, no exceptions
#else
  return __builtin_convertvector(__builtin_convertvector(v, i32x4), d4);
#endif
}

/// The packed RGBA8 colors of four scalars, each as colormap_one maps
/// it. The channel blend a + frac * (b - a) lies between two control
/// bytes, so it is never negative, and t + (v - t >= 0.5) with
/// t = floor(v) is exactly lround(v): v - t is exact.
__attribute__((always_inline)) inline u32x4 ramp_colors(const LaneRamp& lr,
                                                       d4 s) {
  const ColorRamp& r = lr.ramp;
  if (lr.segments > LaneRamp::kMaxSegments) {
    u32x4 out;
    for (int l = 0; l < 4; ++l) {
      std::uint8_t rgba[4];
      colormap_one(s[l], r.lo, r.hi, r.controls, r.ncontrols, rgba);
      out[l] = load_u32(rgba);
    }
    return out;
  }
  const d4 vzero = bcast4(0.0);
  const d4 vone = bcast4(1.0);
  const double span = static_cast<double>(lr.segments);
  d4 scaled = bcast4(0.5 * span);
  if (lr.ranged) {
    d4 t = (s - bcast4(r.lo)) / bcast4(r.hi - r.lo);
    t = sel(t >= vzero, t, vzero);  // NaN -> 0
    t = sel(t > vone, vone, t);
    scaled = t * bcast4(span);
  }
  // scaled is in [0, segments].
  const d4 whole = floor_nonneg(scaled);
  const d4 last = bcast4(span - 1.0);
  const d4 idx = sel(whole > last, last, whole);
  const d4 frac = scaled - idx;
  d4 a[4], d[4];
#pragma GCC unroll 4
  for (int ch = 0; ch < 4; ++ch) {
    a[ch] = bcast4(lr.base[0][ch]);
    d[ch] = bcast4(lr.step[0][ch]);
  }
  for (int k = 1; k < lr.segments; ++k) {
    const i64x4 at = idx == bcast4(static_cast<double>(k));
#pragma GCC unroll 4
    for (int ch = 0; ch < 4; ++ch) {
      a[ch] = sel(at, bcast4(lr.base[k][ch]), a[ch]);
      d[ch] = sel(at, bcast4(lr.step[k][ch]), d[ch]);
    }
  }
  const i64x4 one_bits = dbits(vone);
  i32x4 packed = {0, 0, 0, 0};
#pragma GCC unroll 4
  for (int ch = 0; ch < 4; ++ch) {
    const d4 v = a[ch] + frac * d[ch];
    const d4 t = floor_nonneg(v);
    const d4 rounded = t + dfrom((v - t >= bcast4(0.5)) & one_bits);
    packed |= __builtin_convertvector(rounded, i32x4) << (8 * ch);
  }
  return load<u32x4>(&packed);
}

void s_colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                      const std::uint8_t* controls, int ncontrols,
                      std::uint8_t* out) {
  const LaneRamp lr({controls, ncontrols, lo, hi});
  std::int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store<u32x4>(out + 4 * i, ramp_colors(lr, load<d4>(s + i)));
  }
  if (i < n) {  // a short tail, padded with zeros that are not stored
    const auto rest = static_cast<std::size_t>(n - i);
    d4 tail = bcast4(0.0);
    std::memcpy(&tail, s + i, rest * sizeof(double));
    const u32x4 c = ramp_colors(lr, tail);
    std::memcpy(out + 4 * i, &c, rest * 4);
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

/// Fragments waiting for their colors: each covered pixel's index and
/// interpolated scalar, in submission order. Coloring them four at a
/// time keeps every ramp_colors lane busy, where a partly covered chunk
/// would fill only some. The batch is small because it lives on the
/// caller's stack, which is a fiber's under sched=mn.
class FragmentBatch {
 public:
  FragmentBatch(const ColorRamp& ramp, std::uint8_t* color)
      : ramp_(ramp), color_(color) {}

  /// Appends the covered lanes of a 4-pixel chunk starting at `pixel`,
  /// branch-free: it writes four slots and advances past the covered
  /// ones only. Coloring the batch first whenever fewer than four slots
  /// are free keeps every write inside it.
  void append(std::uint32_t pixel, d4 scalar, i32x4 covered) {
    if (size_ > kCapacity - 4) flush();
#pragma GCC unroll 4
    for (int l = 0; l < 4; ++l) {
      scalar_[size_] = scalar[l];
      pixel_[size_] = pixel + static_cast<std::uint32_t>(l);
      size_ -= covered[l];  // covered lanes are -1
    }
  }

  /// Colors and stores every waiting fragment, in submission order, so a
  /// pixel drawn twice keeps the later fragment's color.
  void flush() {
    int i = 0;
    for (; i + 4 <= size_; i += 4) {
      const u32x4 c = ramp_colors(ramp_, load<d4>(scalar_ + i));
#pragma GCC unroll 4
      for (int l = 0; l < 4; ++l) {
        store_u32(color_ + 4 * static_cast<std::size_t>(pixel_[i + l]), c[l]);
      }
    }
    if (i < size_) {  // a short tail, padded with zeros that are not stored
      d4 tail = bcast4(0.0);
      std::memcpy(&tail, scalar_ + i,
                  static_cast<std::size_t>(size_ - i) * sizeof(double));
      const u32x4 c = ramp_colors(ramp_, tail);
      for (int l = 0; i + l < size_; ++l) {
        store_u32(color_ + 4 * static_cast<std::size_t>(pixel_[i + l]), c[l]);
      }
    }
    size_ = 0;
  }

 private:
  static constexpr int kCapacity = 256;

  LaneRamp ramp_;
  std::uint8_t* color_;
  int size_ = 0;
  double scalar_[kCapacity];
  std::uint32_t pixel_[kCapacity];
};

RasterResult s_raster_mesh(const ScreenVertex* vertices,
                           const std::array<std::int32_t, 3>* triangles,
                           std::int64_t ntriangles, const RasterFrame& frame,
                           const ColorRamp& ramp) {
  RasterResult result;
  FragmentBatch batch(ramp, frame.color);
  const d4 vzero = bcast4(0.0);
  const d4 vone = bcast4(1.0);
  const f4 fzero = f4{0.0f, 0.0f, 0.0f, 0.0f};
  const i32x4 lane = i32x4{0, 1, 2, 3};
  for (std::int64_t i = 0; i < ntriangles; ++i) {
    const std::array<std::int32_t, 3>& tri = triangles[i];
    RasterTri t;
    if (!setup_triangle(vertices[tri[0]], vertices[tri[1]], vertices[tri[2]],
                        frame.width, frame.height, &t)) {
      continue;
    }
    const d4 vinv = bcast4(t.inv_area);
    const d4 vax = bcast4(t.ax), vay = bcast4(t.ay);
    const d4 vbx = bcast4(t.bx), vby = bcast4(t.by);
    const d4 vcx = bcast4(t.cx), vcy = bcast4(t.cy);
    std::int64_t written = 0;
    for (int y = t.y0; y <= t.y1; ++y) {
      const d4 vpy = bcast4(y + 0.5);
      const std::uint32_t row = static_cast<std::uint32_t>(y) *
                                static_cast<std::uint32_t>(frame.width);
      float* row_depth = frame.depth + row;
      // Four pixels at a time; lanes past x1 are masked off, so a short
      // chunk reads and writes only pixels inside the box.
      for (int x = t.x0; x <= t.x1; x += 4) {
        const int lanes = t.x1 - x + 1 < 4 ? t.x1 - x + 1 : 4;
        const double xb = static_cast<double>(x);
        const d4 px = d4{xb, xb + 1.0, xb + 2.0, xb + 3.0} + bcast4(0.5);
        const d4 w0 =
            ((vbx - px) * (vcy - vpy) - (vcx - px) * (vby - vpy)) * vinv;
        const d4 w1 =
            ((vcx - px) * (vay - vpy) - (vax - px) * (vcy - vpy)) * vinv;
        const d4 w2 = vone - w0 - w1;
        const i64x4 outside = (w0 < vzero) | (w1 < vzero) | (w2 < vzero);
        const f4 df = __builtin_convertvector(
            w0 * bcast4(t.adepth) + w1 * bcast4(t.bdepth) +
                w2 * bcast4(t.cdepth),
            f4);
        f4 dst = fzero;
        if (lanes == 4) {
          dst = load<f4>(row_depth + x);
        } else {
          std::memcpy(&dst, row_depth + x,
                      static_cast<std::size_t>(lanes) * 4);
        }
        const i32x4 covered =
            ~(__builtin_convertvector(outside, i32x4) | (df >= dst) |
              (df <= fzero) | (lane >= lanes));
        if ((covered[0] | covered[1] | covered[2] | covered[3]) == 0) continue;
        written -= ((covered[0] + covered[1]) + covered[2]) + covered[3];
        if (lanes == 4) {
          // Rewriting an uncovered pixel's depth with its own bits
          // changes nothing.
          const u32x4 m = load<u32x4>(&covered);
          const u32x4 d_new = load<u32x4>(&df);
          const u32x4 d_old = load<u32x4>(&dst);
          store<u32x4>(row_depth + x, (d_new & m) | (d_old & ~m));
        } else {
          for (int l = 0; l < lanes; ++l) {
            if (covered[l] != 0) row_depth[x + l] = df[l];
          }
        }
        batch.append(row + static_cast<std::uint32_t>(x),
                     w0 * bcast4(t.ascalar) + w1 * bcast4(t.bscalar) +
                         w2 * bcast4(t.cscalar),
                     covered);
      }
    }
    account_triangle(t, written, &result);
  }
  batch.flush();
  return result;
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

void s_oscillator_accumulate(double* dst, const GridBlock& b,
                             const OscillatorTerm* terms,
                             std::int64_t nterms) {
  const d4 vox = bcast4(b.ox), vsx = bcast4(b.sx);
  for (std::int64_t k = 0; k < b.nz; ++k) {
    const double z = b.oz + b.sz * static_cast<double>(b.k0 + k);
    for (std::int64_t j = 0; j < b.ny; ++j) {
      const double y = b.oy + b.sy * static_cast<double>(b.j0 + j);
      double* row = dst + (k * b.ny + j) * b.nx;
      for (std::int64_t o = 0; o < nterms; ++o) {
        const OscillatorTerm& osc = terms[o];
        const double dy = y - osc.cy;
        const double dz = z - osc.cz;
        const double dyy = dy * dy;
        const double dzz = dz * dz;
        const d4 vcx = bcast4(osc.cx);
        const d4 vyz0 = bcast4(dyy), vyz1 = bcast4(dzz);
        const d4 vden = bcast4(osc.denom);
        const double tf = osc.tf;
        std::int64_t i = 0;
        for (; i + 4 <= b.nx; i += 4) {
          const double ib = static_cast<double>(b.i0 + i);
          const d4 idx = d4{ib, ib + 1.0, ib + 2.0, ib + 3.0};
          const d4 px = vox + vsx * idx;
          const d4 dx = px - vcx;
          const d4 r2 = dx * dx + vyz0 + vyz1;
          const d4 arg = -r2 / vden;
          // The exp itself must stay libm-scalar for cross-variant
          // bit-identity of the simulated field.
          row[i] += std::exp(arg[0]) * tf;
          row[i + 1] += std::exp(arg[1]) * tf;
          row[i + 2] += std::exp(arg[2]) * tf;
          row[i + 3] += std::exp(arg[3]) * tf;
        }
        for (; i < b.nx; ++i) {
          const double px = b.ox + b.sx * static_cast<double>(b.i0 + i);
          const double dx = px - osc.cx;
          const double r2 = dx * dx + dyy + dzz;
          row[i] += std::exp(-r2 / osc.denom) * tf;
        }
      }
    }
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
    s_reduce_moments,  s_histogram_bin,         s_fma_accumulate,
    s_lerp,
    s_colormap_apply,  s_depth_composite,       s_raster_mesh,
    s_plane_distance,  s_magnitude3,            s_oscillator_accumulate,
    s_vexp,            s_vsin,                  s_vcos,
    s_quantize_encode, s_quantize_decode,       s_delta_encode,
    s_delta_decode,    s_subsample_gather,      s_subsample_expand,
};

}  // namespace insitu::kernels::detail
