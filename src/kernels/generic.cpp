// The scalar reference variant. Compiled with auto-vectorization
// disabled (see CMakeLists.txt) so "INSITU_KERNELS=generic" really is
// the element-at-a-time semantics contract the simd variant is
// golden-tested against.

#include <cmath>
#include <limits>

#include "kernels/detail.hpp"
#include "kernels/table.hpp"
#include "kernels/vmath.hpp"

namespace insitu::kernels::detail {

namespace {

Moments g_reduce_moments(const double* x, std::int64_t n,
                         const std::uint8_t* skip) {
  Moments m{std::numeric_limits<double>::max(),
            std::numeric_limits<double>::lowest(), 0.0, 0.0, 0};
  for (std::int64_t i = 0; i < n; ++i) {
    if (skip != nullptr && skip[i] != 0) continue;
    const double v = x[i];
    m.min = v < m.min ? v : m.min;
    m.max = m.max < v ? v : m.max;
    m.sum += v;
    m.sum_sq += v * v;
    ++m.count;
  }
  return m;
}

void g_histogram_bin(const double* x, std::int64_t n,
                     const std::uint8_t* skip, double min_value,
                     double width, int num_bins, std::int64_t* bins) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (skip != nullptr && skip[i] != 0) continue;
    ++bins[bin_index(x[i], min_value, width, num_bins)];
  }
}

double g_dot(const double* a, const double* b, std::int64_t n) {
  double sum = 0.0;
  for (std::int64_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

void g_fma_accumulate(double* dst, const double* a, const double* b,
                      std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a[i] * b[i];
}

void g_saxpy(double* dst, double a, const double* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void g_lerp(double* dst, const double* a, const double* b, double t,
            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = a[i] + (b[i] - a[i]) * t;
}

void g_colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                      const std::uint8_t* controls, int ncontrols,
                      std::uint8_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    colormap_one(s[i], lo, hi, controls, ncontrols, out + 4 * i);
  }
}

void g_depth_composite(std::uint8_t* dst_color, float* dst_depth,
                       const std::uint8_t* src_color, const float* src_depth,
                       std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (src_depth[i] < dst_depth[i]) {
      store_u32(dst_color + 4 * i, load_u32(src_color + 4 * i));
      dst_depth[i] = src_depth[i];
    }
  }
}

RasterResult g_raster_mesh(const ScreenVertex* vertices,
                           const std::array<std::int32_t, 3>* triangles,
                           std::int64_t ntriangles, const RasterFrame& frame,
                           const ColorRamp& ramp) {
  RasterResult result;
  for (std::int64_t i = 0; i < ntriangles; ++i) {
    const std::array<std::int32_t, 3>& tri = triangles[i];
    RasterTri t;
    if (!setup_triangle(vertices[tri[0]], vertices[tri[1]], vertices[tri[2]],
                        frame.width, frame.height, &t)) {
      continue;
    }
    std::int64_t written = 0;
    for (int y = t.y0; y <= t.y1; ++y) {
      const double py = y + 0.5;
      const std::int64_t row = static_cast<std::int64_t>(y) * frame.width;
      std::uint8_t* row_color = frame.color + 4 * row;
      float* row_depth = frame.depth + row;
      for (int x = t.x0; x <= t.x1; ++x) {
        float d;
        double s;
        if (raster_one(t, static_cast<double>(x) + 0.5, py, row_depth[x], &d,
                       &s) != 0) {
          colormap_one(s, ramp.lo, ramp.hi, ramp.controls, ramp.ncontrols,
                       row_color + 4 * x);
          row_depth[x] = d;
          ++written;
        }
      }
    }
    account_triangle(t, written, &result);
  }
  return result;
}

void g_plane_distance(const double* x, const double* y, const double* z,
                      std::int64_t n, double ox, double oy, double oz,
                      double nx, double ny, double nz, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = (x[i] - ox) * nx + (y[i] - oy) * ny + (z[i] - oz) * nz;
  }
}

void g_magnitude3(const double* u, std::int64_t su, const double* v,
                  std::int64_t sv, const double* w, std::int64_t sw,
                  std::int64_t n, double* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = u[i * su];
    const double b = v[i * sv];
    const double c = w[i * sw];
    dst[i] = std::sqrt(a * a + b * b + c * c);
  }
}

void g_oscillator_accumulate(double* dst, const GridBlock& b,
                             const OscillatorTerm* terms,
                             std::int64_t nterms) {
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
        for (std::int64_t i = 0; i < b.nx; ++i) {
          const double px = b.ox + b.sx * static_cast<double>(b.i0 + i);
          const double dx = px - osc.cx;
          const double r2 = dx * dx + dyy + dzz;
          row[i] += std::exp(-r2 / osc.denom) * osc.tf;
        }
      }
    }
  }
}

void g_vexp(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = exp_core<ScalarOps>(x[i]);
}

void g_vsin(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = sin_core<ScalarOps>(x[i]);
}

void g_vcos(const double* x, double* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = cos_core<ScalarOps>(x[i]);
}

void g_quantize_encode(const double* x, std::int64_t n, double lo,
                       double inv_step, std::uint16_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = quantize_one(x[i], lo, inv_step);
  }
}

void g_quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                       double step, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = lo + static_cast<double>(q[i]) * step;
  }
}

void g_delta_encode(const double* x, const double* prev, std::int64_t n,
                    std::uint64_t* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = double_bits(x[i]) ^ double_bits(prev[i]);
  }
}

void g_delta_decode(const std::uint64_t* delta, const double* prev,
                    std::int64_t n, double* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = double_from_bits(delta[i] ^ double_bits(prev[i]));
  }
}

std::int64_t g_subsample_gather(const double* x, std::int64_t n_tuples,
                                int components, int stride, double* out) {
  std::int64_t kept = 0;
  for (std::int64_t t = 0; t < n_tuples; t += stride, ++kept) {
    for (int c = 0; c < components; ++c) {
      out[kept * components + c] = x[t * components + c];
    }
  }
  return kept;
}

void g_subsample_expand(const double* kept, std::int64_t n_tuples,
                        int components, int stride, double* out) {
  for (std::int64_t t = 0; t < n_tuples; ++t) {
    const std::int64_t k = t / stride;
    for (int c = 0; c < components; ++c) {
      out[t * components + c] = kept[k * components + c];
    }
  }
}

}  // namespace

const KernelTable kGenericTable = {
    g_reduce_moments,  g_histogram_bin,         g_dot,
    g_fma_accumulate,  g_saxpy,                 g_lerp,
    g_colormap_apply,  g_depth_composite,       g_raster_mesh,
    g_plane_distance,  g_magnitude3,            g_oscillator_accumulate,
    g_vexp,            g_vsin,                  g_vcos,
    g_quantize_encode, g_quantize_decode,       g_delta_encode,
    g_delta_decode,    g_subsample_gather,      g_subsample_expand,
};

}  // namespace insitu::kernels::detail
