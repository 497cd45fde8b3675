#include "kernels/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "kernels/table.hpp"

namespace insitu::kernels {

namespace {

const detail::KernelTable* table_for(Variant v) {
  switch (v) {
    case Variant::kGeneric: return &detail::kGenericTable;
    case Variant::kSimd: return &detail::kSimdTable;
  }
  return &detail::kGenericTable;
}

/// -1 until the first active_variant() call folds in INSITU_KERNELS.
std::atomic<int> g_variant{-1};

/// True when the explicit-SIMD TU's code can run on this CPU. The build
/// may compile simd.cpp for x86-64-v3 (AVX2 + FMA); dispatching there on
/// an older core would be an illegal instruction, so variant selection
/// downgrades kSimd to the scalar reference when the CPU lacks the ISA.
bool simd_supported() {
#if defined(INSITU_KERNELS_SIMD_NEEDS_AVX2)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return true;
#endif
}

Variant clamp_supported(Variant v) {
  return v == Variant::kSimd && !simd_supported() ? Variant::kGeneric : v;
}

bool parse_variant(std::string_view name, Variant* out) {
  if (name == "generic") {
    *out = Variant::kGeneric;
    return true;
  }
  if (name == "simd") {
    *out = Variant::kSimd;
    return true;
  }
  return false;
}

struct StatCell {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> elements{0};
  std::atomic<std::uint64_t> bytes{0};
};

StatCell g_stats[kNumKernels][kNumVariants];

/// Relaxed counters: cheap enough to bump on every call, race-free
/// under TSan, and snapshot consistency is not required (deltas are
/// read after rank threads join).
inline void bump(KernelId id, Variant v, std::int64_t elements,
                 std::int64_t bytes) {
  StatCell& c = g_stats[static_cast<int>(id)][static_cast<int>(v)];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.elements.fetch_add(static_cast<std::uint64_t>(elements),
                       std::memory_order_relaxed);
  c.bytes.fetch_add(static_cast<std::uint64_t>(bytes),
                    std::memory_order_relaxed);
}

}  // namespace

Variant active_variant() {
  int v = g_variant.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Variant>(v);
  Variant from_env = Variant::kSimd;
  if (const char* env = std::getenv("INSITU_KERNELS")) {
    (void)parse_variant(env, &from_env);  // unknown values keep the default
  }
  from_env = clamp_supported(from_env);
  int expected = -1;
  g_variant.compare_exchange_strong(expected, static_cast<int>(from_env),
                                    std::memory_order_relaxed);
  return static_cast<Variant>(g_variant.load(std::memory_order_relaxed));
}

void set_variant(Variant v) {
  g_variant.store(static_cast<int>(clamp_supported(v)),
                  std::memory_order_relaxed);
}

bool set_variant(std::string_view name) {
  Variant v;
  if (!parse_variant(name, &v)) return false;
  set_variant(v);
  return true;
}

std::string_view variant_name(Variant v) {
  switch (v) {
    case Variant::kGeneric: return "generic";
    case Variant::kSimd: return "simd";
  }
  return "?";
}

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kReduceMoments: return "reduce_moments";
    case KernelId::kHistogramBin: return "histogram_bin";
    case KernelId::kFmaAccumulate: return "fma_accumulate";
    case KernelId::kLerp: return "lerp";
    case KernelId::kColormap: return "colormap";
    case KernelId::kDepthComposite: return "depth_composite";
    case KernelId::kRasterSpan: return "raster_span";
    case KernelId::kPlaneDistance: return "plane_distance";
    case KernelId::kMagnitude3: return "magnitude3";
    case KernelId::kOscillator: return "oscillator";
    case KernelId::kVexp: return "vexp";
    case KernelId::kVsin: return "vsin";
    case KernelId::kVcos: return "vcos";
    case KernelId::kQuantizeEncode: return "quantize_encode";
    case KernelId::kQuantizeDecode: return "quantize_decode";
    case KernelId::kDeltaEncode: return "delta_encode";
    case KernelId::kDeltaDecode: return "delta_decode";
    case KernelId::kSubsampleGather: return "subsample_gather";
    case KernelId::kSubsampleExpand: return "subsample_expand";
    case KernelId::kCount: break;
  }
  return "?";
}

StatsSnapshot stats_snapshot() {
  StatsSnapshot snap;
  for (int k = 0; k < kNumKernels; ++k) {
    for (int v = 0; v < kNumVariants; ++v) {
      const StatCell& c = g_stats[k][v];
      snap.s[k][v].calls = c.calls.load(std::memory_order_relaxed);
      snap.s[k][v].elements = c.elements.load(std::memory_order_relaxed);
      snap.s[k][v].bytes = c.bytes.load(std::memory_order_relaxed);
    }
  }
  return snap;
}

// ---- dispatching wrappers ----

Moments reduce_moments(const double* x, std::int64_t n,
                       const std::uint8_t* skip) {
  const Variant v = active_variant();
  bump(KernelId::kReduceMoments, v, n, n * (skip != nullptr ? 9 : 8));
  return table_for(v)->reduce_moments(x, n, skip);
}

void histogram_bin(const double* x, std::int64_t n, const std::uint8_t* skip,
                   double min_value, double width, int num_bins,
                   std::int64_t* bins) {
  const Variant v = active_variant();
  bump(KernelId::kHistogramBin, v, n,
       n * (skip != nullptr ? 9 : 8) + static_cast<std::int64_t>(num_bins) * 8);
  table_for(v)->histogram_bin(x, n, skip, min_value, width, num_bins, bins);
}

void fma_accumulate(double* dst, const double* a, const double* b,
                    std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kFmaAccumulate, v, n, n * 32);
  table_for(v)->fma_accumulate(dst, a, b, n);
}

void lerp(double* dst, const double* a, const double* b, double t,
          std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kLerp, v, n, n * 24);
  table_for(v)->lerp(dst, a, b, t, n);
}

void colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                    const std::uint8_t* controls, int ncontrols,
                    std::uint8_t* out) {
  const Variant v = active_variant();
  bump(KernelId::kColormap, v, n, n * 12);
  table_for(v)->colormap_apply(s, n, lo, hi, controls, ncontrols, out);
}

void depth_composite(std::uint8_t* dst_color, float* dst_depth,
                     const std::uint8_t* src_color, const float* src_depth,
                     std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kDepthComposite, v, n, n * 24);
  table_for(v)->depth_composite(dst_color, dst_depth, src_color, src_depth,
                                n);
}

RasterResult raster_mesh(const ScreenVertex* vertices,
                         const std::array<std::int32_t, 3>* triangles,
                         std::int64_t ntriangles, const RasterFrame& frame,
                         const ColorRamp& ramp) {
  const Variant v = active_variant();
  const RasterResult r = table_for(v)->raster_mesh(vertices, triangles,
                                                   ntriangles, frame, ramp);
  // Every tested pixel reads its depth; every fragment writes color + depth.
  bump(KernelId::kRasterSpan, v, r.tested, r.tested * 4);
  bump(KernelId::kColormap, v, r.fragments, r.fragments * 8);
  return r;
}

void plane_distance(const double* x, const double* y, const double* z,
                    std::int64_t n, double ox, double oy, double oz,
                    double nx, double ny, double nz, double* out) {
  const Variant v = active_variant();
  bump(KernelId::kPlaneDistance, v, n, n * 32);
  table_for(v)->plane_distance(x, y, z, n, ox, oy, oz, nx, ny, nz, out);
}

void magnitude3(const double* u, std::int64_t su, const double* v,
                std::int64_t sv, const double* w, std::int64_t sw,
                std::int64_t n, double* dst) {
  const Variant var = active_variant();
  bump(KernelId::kMagnitude3, var, n, n * 32);
  table_for(var)->magnitude3(u, su, v, sv, w, sw, n, dst);
}

void oscillator_accumulate(double* dst, const GridBlock& block,
                           const OscillatorTerm* terms, std::int64_t nterms) {
  const Variant v = active_variant();
  const std::int64_t n = block.nx * block.ny * block.nz * nterms;
  bump(KernelId::kOscillator, v, n, n * 16);
  table_for(v)->oscillator_accumulate(dst, block, terms, nterms);
}

void vexp(const double* x, double* out, std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kVexp, v, n, n * 16);
  table_for(v)->vexp(x, out, n);
}

void vsin(const double* x, double* out, std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kVsin, v, n, n * 16);
  table_for(v)->vsin(x, out, n);
}

void vcos(const double* x, double* out, std::int64_t n) {
  const Variant v = active_variant();
  bump(KernelId::kVcos, v, n, n * 16);
  table_for(v)->vcos(x, out, n);
}

void quantize_encode(const double* x, std::int64_t n, double lo,
                     double inv_step, std::uint16_t* out) {
  const Variant v = active_variant();
  bump(KernelId::kQuantizeEncode, v, n, n * 10);
  table_for(v)->quantize_encode(x, n, lo, inv_step, out);
}

void quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                     double step, double* out) {
  const Variant v = active_variant();
  bump(KernelId::kQuantizeDecode, v, n, n * 10);
  table_for(v)->quantize_decode(q, n, lo, step, out);
}

void delta_encode(const double* x, const double* prev, std::int64_t n,
                  std::uint64_t* out) {
  const Variant v = active_variant();
  bump(KernelId::kDeltaEncode, v, n, n * 24);
  table_for(v)->delta_encode(x, prev, n, out);
}

void delta_decode(const std::uint64_t* delta, const double* prev,
                  std::int64_t n, double* out) {
  const Variant v = active_variant();
  bump(KernelId::kDeltaDecode, v, n, n * 24);
  table_for(v)->delta_decode(delta, prev, n, out);
}

std::int64_t subsample_gather(const double* x, std::int64_t n_tuples,
                              int components, int stride, double* out) {
  const Variant v = active_variant();
  const std::int64_t kept =
      stride > 0 ? (n_tuples + stride - 1) / stride : n_tuples;
  bump(KernelId::kSubsampleGather, v, n_tuples * components,
       (n_tuples + kept) * components * 8);
  return table_for(v)->subsample_gather(x, n_tuples, components, stride, out);
}

void subsample_expand(const double* kept, std::int64_t n_tuples,
                      int components, int stride, double* out) {
  const Variant v = active_variant();
  const std::int64_t nk =
      stride > 0 ? (n_tuples + stride - 1) / stride : n_tuples;
  bump(KernelId::kSubsampleExpand, v, n_tuples * components,
       (n_tuples + nk) * components * 8);
  table_for(v)->subsample_expand(kept, n_tuples, components, stride, out);
}

}  // namespace insitu::kernels
