#pragma once

// kernels:: — SIMD-friendly compute primitives behind runtime dispatch.
//
// Every inner loop that dominates a per-step in situ cost (histogram
// binning, moment reduction, lag products, pseudocolor lookup, depth
// compositing, triangle rasterization, oscillator field evaluation) is
// expressed once here as a primitive with two interchangeable
// implementations:
//
//   * generic — the scalar reference, compiled with auto-vectorization
//     disabled. This is the semantics contract the simd variant is
//     tested against (tests/kernels_test.cpp), and the fallback on CPUs
//     without AVX2.
//   * simd    — explicit 4x double / 8x float lanes via the compiler's
//     portable vector extensions (no intrinsics headers), plus scalar
//     tails.
//
// The active variant is process-global: the INSITU_KERNELS environment
// variable ("generic" | "simd") sets the default, the bench binaries'
// `kernels=` option calls set_variant() (through bench_common's
// ObsSession; the examples select a variant only through
// INSITU_KERNELS), and nothing else may change it mid-run. Dispatch is
// one relaxed atomic load + indirect call per call, and callers pass
// whole blocks, rows or meshes, so its cost is noise.
//
// Determinism contract (docs/PERFORMANCE.md "Kernel dispatch"):
//   * Kernels never touch the virtual clock; call sites charge the same
//     modeled cost regardless of variant, so virtual times are
//     byte-identical across variants.
//   * Per-element-independent kernels (binning index math, colormap,
//     interpolation, depth test, plane distance, oscillator field) use
//     the same per-element operation order in every variant and the
//     library is built with -ffp-contract=off, so their results are
//     bit-identical across variants.
//   * Reductions (sum / sum-of-squares) reassociate across lanes;
//     only min/max/count are exact. Callers that need cross-variant
//     bit-identity must not depend on the sum bits (they may depend on
//     values derived from exact-integer sums).
//   * vexp/vsin/vcos are this library's own polynomial approximations —
//     bit-identical across variants, within the documented ULP bounds of
//     libm (kVexpMaxUlp etc.) over the documented domains.
//
// Layering: kernels depends on nothing but the C++ standard library; it
// sits below pal so every layer (miniapp, analysis, render, comm) can
// call it. Because it cannot see obs, it keeps process-global relaxed
// atomic counters per (kernel, variant); comm::Runtime::run snapshots
// them around each run and publishes the delta as kernels.* metrics.

#include <array>
#include <cstdint>
#include <string_view>

namespace insitu::kernels {

// ---- dispatch ----

enum class Variant : int {
  kGeneric = 0,  ///< scalar reference (no auto-vectorization)
  kSimd = 1,     ///< explicit compiler-vector lanes
};

inline constexpr int kNumVariants = 2;

/// The variant all primitives dispatch to. First use reads
/// INSITU_KERNELS from the environment; unset/unknown values select
/// kSimd (the fastest variant is the default, the reference is opt-in).
Variant active_variant();

void set_variant(Variant v);

/// Parse "generic" / "simd" and install it.
/// Returns false (and changes nothing) for unknown names.
bool set_variant(std::string_view name);

std::string_view variant_name(Variant v);

// ---- per-(kernel, variant) counters ----

enum class KernelId : int {
  kReduceMoments = 0,
  kHistogramBin,
  kFmaAccumulate,
  kLerp,
  kColormap,
  kDepthComposite,
  kRasterSpan,  ///< raster_mesh: pixels tested (the triangles' boxes)
  kPlaneDistance,
  kMagnitude3,
  kOscillator,
  kVexp,
  kVsin,
  kVcos,
  kQuantizeEncode,
  kQuantizeDecode,
  kDeltaEncode,
  kDeltaDecode,
  kSubsampleGather,
  kSubsampleExpand,
  kCount,
};

inline constexpr int kNumKernels = static_cast<int>(KernelId::kCount);

const char* kernel_name(KernelId id);

struct KernelStats {
  std::uint64_t calls = 0;
  std::uint64_t elements = 0;  ///< elements processed
  std::uint64_t bytes = 0;     ///< bytes read + written (modeled)
};

/// Snapshot of the process-global counters, indexed
/// [kernel][variant]. Publish deltas between two snapshots, never the
/// absolute values (the process accumulates across runs).
struct StatsSnapshot {
  KernelStats s[kNumKernels][kNumVariants];
};

StatsSnapshot stats_snapshot();

// ---- primitives ----

/// Fused min/max/sum/sum-of-squares reduction.
struct Moments {
  double min;    ///< +max() when count == 0
  double max;    ///< lowest() when count == 0
  double sum;
  double sum_sq;
  std::int64_t count;
};

/// Reduce over x[0..n). `skip` (nullable) marks elements to ignore
/// (skip[i] != 0). Min/max use the select `v < mn ? v : mn` — NaN
/// elements never replace the accumulator — and are exact across
/// variants; sum/sum_sq reassociate.
Moments reduce_moments(const double* x, std::int64_t n,
                       const std::uint8_t* skip);

/// Histogram binning: for each unskipped element,
///   scaled = (x[i] - min_value) / width * num_bins
///   bin    = scaled in [0, num_bins) ? trunc(scaled)
///            : scaled >= num_bins    ? num_bins - 1 : 0   (NaN -> 0)
///   ++bins[bin]
/// Matches the historical cast-then-clamp for every input where that
/// cast was defined, and is defined (bin 0) for NaN. Bit-identical
/// across variants. `bins` is accumulated into, not cleared.
void histogram_bin(const double* x, std::int64_t n, const std::uint8_t* skip,
                   double min_value, double width, int num_bins,
                   std::int64_t* bins);

/// dst[i] += a[i] * b[i] (lag/correlation products). Per-element
/// independent: bit-identical across variants.
void fma_accumulate(double* dst, const double* a, const double* b,
                    std::int64_t n);

/// dst[i] = a[i] + (b[i] - a[i]) * t — linear edge interpolation / blend.
/// Bit-identical across variants.
void lerp(double* dst, const double* a, const double* b, double t,
          std::int64_t n);

/// One-element lerp with the exact kernel expression; for call sites
/// (contour edge cuts) that interpolate single values.
inline double lerp1(double a, double b, double t) { return a + (b - a) * t; }

/// Piecewise-linear colormap lookup over `ncontrols >= 2` RGBA8 control
/// colors (4 bytes each), domain [lo, hi]:
///   t = hi > lo ? (s - lo) / (hi - lo) : 0.5, clamped to [0, 1]
///   (NaN s maps like t = 0; the historical code was undefined there)
///   scaled = t * (ncontrols - 1); idx = min(trunc(scaled), ncontrols-2)
///   channel = lround(a + (scaled - idx) * (b - a))
/// `out` receives 4 * n bytes. Bit-identical across variants, for any
/// ramp length and for lo >= hi (every s then maps like t = 0.5).
void colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                    const std::uint8_t* controls, int ncontrols,
                    std::uint8_t* out);

/// Z-buffer composite: where src_d[i] < dst_d[i], copy the RGBA8 pixel
/// and the depth. Colors are raw 4-byte pixels. NaN src depth never
/// wins. Bit-identical across variants.
void depth_composite(std::uint8_t* dst_color, float* dst_depth,
                     const std::uint8_t* src_color, const float* src_depth,
                     std::int64_t n);

/// A mesh vertex projected to the screen: pixel coordinates, depth and
/// the scalar the ramp colors.
struct ScreenVertex {
  double x, y, depth, scalar;
};

/// The colormap_apply ramp: `ncontrols >= 2` RGBA8 control colors (4
/// bytes each) over the domain [lo, hi].
struct ColorRamp {
  const std::uint8_t* controls;
  int ncontrols;
  double lo, hi;
};

/// A row-major framebuffer, `width` pixels per row: `color` holds 4
/// bytes per pixel, `depth` one float. Fewer than 2^32 pixels.
struct RasterFrame {
  std::uint8_t* color;
  float* depth;
  int width, height;
};

/// What raster_mesh drew.
struct RasterResult {
  std::int64_t fragments = 0;  ///< pixels written
  std::int64_t tested = 0;     ///< box pixels tested
  /// The drawn box [x0, x1) x [y0, y1): the union of the clipped boxes
  /// of the triangles that wrote a fragment; empty when none did.
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
};

/// Rasterize a triangle mesh into `frame`, one triangle after another in
/// submission order. `triangles` index `vertices`.
///
/// Setup: a triangle with zero signed area
///   (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
/// draws nothing; otherwise its box is [floor(min x), ceil(max x)] x
/// [floor(min y), ceil(max y)] clipped to the frame, and an empty box
/// draws nothing.
///
/// Each pixel (x, y) of the box is tested at its center (x + 0.5,
/// y + 0.5) for coverage (barycentrics w0, w1, w2 all >= 0; NaN accepts)
/// and depth: the interpolated float depth must pass
/// !(depth >= dst_depth || depth <= 0), so a NaN depth passes too. A
/// pixel that passes both gets its depth and the colormap_apply color of
/// its interpolated scalar; only those pixels are written. A pixel drawn
/// twice in one call keeps the color of the last fragment that passed.
///
/// The simd variant writes depths as it tests and colors the covered
/// pixels later, four at a time, from a 256-fragment batch on the
/// caller's stack (~3.6 KiB with the unpacked ramp), which it empties in
/// submission order when full and before returning. Neither variant
/// allocates.
///
/// Counted once per call: tested box pixels as raster_span elements,
/// fragments as colormap elements. Bit-identical across variants: bytes,
/// fragments and drawn box.
RasterResult raster_mesh(const ScreenVertex* vertices,
                         const std::array<std::int32_t, 3>* triangles,
                         std::int64_t ntriangles, const RasterFrame& frame,
                         const ColorRamp& ramp);

/// out[i] = ((x[i]-ox)*nx + (y[i]-oy)*ny) + (z[i]-oz)*nz — signed
/// distance to the plane through (ox,oy,oz) with normal (nx,ny,nz),
/// matching Vec3::dot's association. Bit-identical across variants.
void plane_distance(const double* x, const double* y, const double* z,
                    std::int64_t n, double ox, double oy, double oz,
                    double nx, double ny, double nz, double* out);

/// dst[i] = sqrt((u*u + v*v) + w*w) over strided component streams
/// (u[i * su] etc.; stride 1 = contiguous). Bit-identical across
/// variants (sqrt is correctly rounded).
void magnitude3(const double* u, std::int64_t su, const double* v,
                std::int64_t sv, const double* w, std::int64_t sw,
                std::int64_t n, double* dst);

/// One oscillator's terms, hoisted out of the grid loop: its center,
/// denom = (2 * radius) * radius and its time factor tf.
struct OscillatorTerm {
  double cx, cy, cz, denom, tf;
};

/// A uniform grid block of nx * ny * nz points, x fastest: point
/// (i, j, k) sits at origin + spacing * (offset + (i, j, k)).
struct GridBlock {
  std::int64_t nx, ny, nz;
  double ox, oy, oz;
  double sx, sy, sz;
  std::int64_t i0, j0, k0;
};

/// Oscillator field accumulation over a whole block: for each point,
/// in deck order over `terms`,
///   x  = ox + sx * (double)(i0 + i)          (likewise y, z)
///   r2 = ((x-cx)^2 + (y-cy)^2) + (z-cz)^2
///   dst[i + nx * (j + ny * k)] += exp(-r2 / denom) * tf
/// All variants call scalar std::exp so the field is bit-identical
/// across variants; only the coordinate/argument math is vectorized.
/// Counted as points * nterms elements.
void oscillator_accumulate(double* dst, const GridBlock& block,
                           const OscillatorTerm* terms, std::int64_t nterms);

// ---- vectorized transcendentals ----
//
// The library's own polynomial approximations: bit-identical across
// variants (same operation order everywhere, -ffp-contract=off), with
// accuracy measured against libm. Bounds checked by tests/kernels_test
// and bench/ablation_kernels on every run.

/// Max ULP error of vexp vs std::exp over [-708, 708] (inputs outside
/// are clamped; NaN propagates).
inline constexpr double kVexpMaxUlp = 4.0;
/// Max ULP error of vsin/vcos vs std::sin/std::cos over |x| <= 2^20.
inline constexpr double kVsinMaxUlp = 4.0;
inline constexpr double kVcosMaxUlp = 4.0;

void vexp(const double* x, double* out, std::int64_t n);
void vsin(const double* x, double* out, std::int64_t n);
void vcos(const double* x, double* out, std::int64_t n);

// ---- data-reduction primitives (io::ReductionPipeline) ----
//
// The in transit reduction stage (docs/PERFORMANCE.md "In transit data
// reduction") is built from these. All of them are per-element
// independent and bit-identical across variants: the quantizer is pure
// compare/convert arithmetic, delta is integer XOR, subsample is copies.

/// Fixed-rate 16-bit quantizer, encode direction. For each element:
///   t    = (x[i] - lo) * inv_step + 0.5
///   code = t in [0, 65536) ? trunc(t) : t >= 65536 ? 65535 : 0
/// i.e. round-to-nearest with saturation; negative-out-of-range and NaN
/// map to code 0. With inv_step = 1/step and step = (max-min)/65535 the
/// reconstruction error is bounded by step/2 for all finite in-range
/// inputs (io::reduction.hpp documents the block framing that picks
/// lo/step). Bit-identical across variants.
void quantize_encode(const double* x, std::int64_t n, double lo,
                     double inv_step, std::uint16_t* out);

/// Quantizer decode: out[i] = lo + q[i] * step. Bit-identical across
/// variants.
void quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                     double step, double* out);

/// Delta-vs-previous-step encode: out[i] = bits(x[i]) XOR bits(prev[i])
/// (raw IEEE-754 bit patterns). Lossless: delta_decode reconstructs x
/// bit-exactly for every input including NaN payloads, denormals and
/// signed zeros. Bit-identical across variants.
void delta_encode(const double* x, const double* prev, std::int64_t n,
                  std::uint64_t* out);

/// Inverse of delta_encode: out[i] = from_bits(delta[i] XOR
/// bits(prev[i])). Bit-identical across variants.
void delta_decode(const std::uint64_t* delta, const double* prev,
                  std::int64_t n, double* out);

/// Stride-decimation gather over `n_tuples` tuples of `components`
/// doubles: keeps tuples 0, stride, 2*stride, … writing them
/// contiguously to `out`. Returns the kept-tuple count,
/// (n_tuples + stride - 1) / stride. Bit-identical across variants
/// (pure copies).
std::int64_t subsample_gather(const double* x, std::int64_t n_tuples,
                              int components, int stride, double* out);

/// Inverse expansion: out tuple t = kept tuple t / stride (nearest
/// previous kept tuple — piecewise-constant reconstruction). Bit-identical
/// across variants.
void subsample_expand(const double* kept, std::int64_t n_tuples,
                      int components, int stride, double* out);

}  // namespace insitu::kernels
