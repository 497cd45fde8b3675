// Ablation: kernel dispatch variants (generic / simd).
//
// The kernels:: library promises two things (docs/PERFORMANCE.md "Kernel
// dispatch"): switching variants never changes *what* is computed — the
// virtual clock, histogram contents, and rendered images are identical —
// and the vectorized variant is genuinely faster in wall-clock terms
// on the primitives that dominate per-step in situ cost. This bench
// checks both:
//
//  * Arms: the executed gate pipeline (bench_common: oscillator +
//    histogram + Catalyst slice) runs once per variant. Per-rank virtual
//    times, histogram bins and image hashes must be bit-identical.
//  * Wall clock: each primitive is timed per variant (best-of-reps);
//    simd must beat generic by >= 1.2x on histogram binning and depth
//    compositing (the two named gates), other primitives report only.
//  * Accuracy: vexp/vsin/vcos are spot-checked against libm within their
//    documented ULP bounds.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kRanks = 4;

// Wall-clock ratios only mean something in optimized, uninstrumented
// builds; under sanitizers (the TSan CI job runs this bench) or -O0 the
// speedup rows print but do not gate. Virtual-time identity, histogram
// and image equality, and the ULP bounds always gate.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_THREAD__) && \
    !defined(__SANITIZE_ADDRESS__)
constexpr bool kEnforceWallGates = true;
#else
constexpr bool kEnforceWallGates = false;
#endif

constexpr kernels::Variant kArms[] = {kernels::Variant::kGeneric,
                                      kernels::Variant::kSimd};
constexpr int kGenericIdx = static_cast<int>(kernels::Variant::kGeneric);
constexpr int kSimdIdx = static_cast<int>(kernels::Variant::kSimd);

// ---- wall-clock primitive timings ----

constexpr std::int64_t kN = 1 << 16;
constexpr int kReps = 9;

std::vector<double> make_input(std::int64_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.001 * static_cast<double>(i));
  }
  return v;
}

/// Best-of-kReps wall seconds per `body()` call under each variant, into
/// `seconds` (indexed by variant). The variants take turns rep by rep, so
/// a burst of host noise lands on both arms alike. `iters` calls per rep
/// keep each measurement well above timer resolution.
void time_variants(int iters, const std::function<void()>& body,
                   double* seconds) {
  for (const kernels::Variant v : kArms) {
    kernels::set_variant(v);
    body();  // warm caches + dispatch
    seconds[static_cast<int>(v)] = std::numeric_limits<double>::infinity();
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (const kernels::Variant v : kArms) {
      kernels::set_variant(v);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) body();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      double& best = seconds[static_cast<int>(v)];
      best = std::min(best, dt.count() / iters);
    }
  }
}

struct PrimitiveTiming {
  const char* name = "";
  bool gated = false;  ///< simd/generic >= 1.2x required
  double seconds[kernels::kNumVariants] = {};

  double speedup() const {
    return seconds[kSimdIdx] > 0.0
               ? seconds[kGenericIdx] / seconds[kSimdIdx]
               : 0.0;
  }
};

std::vector<PrimitiveTiming> time_primitives() {
  std::vector<PrimitiveTiming> out;
  const std::vector<double> x = make_input(kN);
  const std::vector<double> y(x.rbegin(), x.rend());
  std::vector<double> dst(x.size(), 0.0);
  std::vector<std::int64_t> bins(64, 0);
  const std::uint8_t controls[8] = {0, 0, 255, 255, 255, 0, 0, 255};
  std::vector<std::uint8_t> rgba(4 * x.size());
  std::vector<float> src_d(x.size()), dst_d(x.size());
  std::vector<std::uint8_t> src_c(4 * x.size(), 0x7F);
  std::vector<std::uint8_t> dst_c(4 * x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    src_d[i] = static_cast<float>(i % 3);
    dst_d[i] = static_cast<float>((i + 1) % 3);
  }

  const auto measure = [&out](const char* name, bool gated, int iters,
                              const std::function<void()>& body) {
    PrimitiveTiming t;
    t.name = name;
    t.gated = gated;
    time_variants(iters, body, t.seconds);
    out.push_back(t);
  };

  measure("reduce_moments", false, 64, [&] {
    const kernels::Moments m = kernels::reduce_moments(x.data(), kN, nullptr);
    volatile double sink = m.sum;
    (void)sink;
  });
  measure("histogram_bin", true, 64, [&] {
    kernels::histogram_bin(x.data(), kN, nullptr, -1.0, 2.0, 64,
                           bins.data());
  });
  measure("lerp", false, 64, [&] {
    kernels::lerp(dst.data(), x.data(), y.data(), 0.37, kN);
  });
  measure("colormap", false, 32, [&] {
    kernels::colormap_apply(x.data(), kN, -1.0, 1.0, controls, 2,
                            rgba.data());
  });
  measure("depth_composite", true, 64, [&] {
    kernels::depth_composite(dst_c.data(), dst_d.data(), src_c.data(),
                             src_d.data(), kN);
  });
  measure("oscillator", false, 16, [&] {
    // One row of kN points; the oscillator sits 2 and 3 off its y and z.
    const kernels::GridBlock row{kN, 1, 1, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                                 0, 0, 0};
    const kernels::OscillatorTerm osc{100.0, 2.0, 3.0, 50.0, 0.8};
    kernels::oscillator_accumulate(dst.data(), row, &osc, 1);
  });
  measure("vexp", false, 16, [&] {
    kernels::vexp(x.data(), dst.data(), kN);
  });
  return out;
}

// ---- ULP spot check ----

double ulp_diff(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return (std::isnan(a) && std::isnan(b)) ? 0.0 : 1e30;
  if (a == b) return 0.0;
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, 8);
  std::memcpy(&ib, &b, 8);
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return std::abs(static_cast<double>(ia - ib));
}

double worst_ulp(void (*kernel)(const double*, double*, std::int64_t),
                 double (*ref)(double), double lo, double hi, int samples) {
  std::vector<double> x(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    x[static_cast<std::size_t>(i)] =
        lo + (hi - lo) * static_cast<double>(i) / (samples - 1);
  }
  std::vector<double> got(x.size());
  kernel(x.data(), got.data(), samples);
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    worst = std::max(worst, ulp_diff(got[static_cast<std::size_t>(i)],
                                     ref(x[static_cast<std::size_t>(i)])));
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  const kernels::Variant entry_variant = kernels::active_variant();
  std::printf("=== bench: ablation — kernel dispatch variants ===\n");
  int rc = 0;

  // ---- arm runs: identical results across variants ----
  bench::GateOutputs arms[kernels::kNumVariants];
  pal::TablePrinter pipeline(
      "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
      std::to_string(kRanks) + " ranks, " +
      std::to_string(bench::kGateSteps) + " steps)");
  pipeline.set_header({"variant", "end-to-end (s)", "histogram total",
                       "image hash"});
  for (const kernels::Variant v : kArms) {
    const int i = static_cast<int>(v);
    kernels::set_variant(v);
    arms[i] = bench::run_gate_pipeline(
        std::string("pipeline/") + std::string(kernels::variant_name(v)) +
            "/p" + std::to_string(kRanks),
        kRanks, bench::run_options());
    pipeline.add_row({std::string(kernels::variant_name(v)),
                      pal::TablePrinter::num(arms[i].total, 7),
                      std::to_string(arms[i].histogram_total()),
                      arms[i].hash_hex()});
  }
  pipeline.add_note("dispatch must be invisible: identical virtual times, "
                    "histograms, and images across variants");
  pipeline.print();
  if (!bench::same_outputs(arms[kGenericIdx], "generic", arms[kSimdIdx],
                           "simd", kRanks)) {
    rc = 1;
  }

  // ---- wall-clock primitive table ----
  const std::vector<PrimitiveTiming> timings = time_primitives();
  pal::TablePrinter wall("Primitive wall clock (" + std::to_string(kN) +
                         " elements, best of " + std::to_string(kReps) +
                         ")");
  wall.set_header({"kernel", "generic (us)", "simd (us)", "simd speedup",
                   "gate"});
  for (const PrimitiveTiming& t : timings) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", t.speedup());
    wall.add_row({t.name,
                  pal::TablePrinter::num(t.seconds[kGenericIdx] * 1e6, 2),
                  pal::TablePrinter::num(t.seconds[kSimdIdx] * 1e6, 2),
                  speedup, t.gated ? ">= 1.20x" : "report"});
    if (kEnforceWallGates && t.gated && t.speedup() < 1.2) {
      std::fprintf(stderr,
                   "FAIL: %s simd speedup %.2fx below the 1.2x floor\n",
                   t.name, t.speedup());
      rc = 1;
    }
  }
  wall.add_note(kEnforceWallGates
                    ? "wall clock is host-dependent; only the two gated rows "
                      "fail the bench, the rest document the machine"
                    : "unoptimized or sanitized build: wall-clock rows are "
                      "informational, gates skipped");
  wall.print();

  // ---- transcendental accuracy ----
  pal::TablePrinter ulp("Vectorized transcendentals vs libm (worst ULP)");
  ulp.set_header({"kernel", "domain", "worst ULP", "bound"});
  struct UlpCase {
    const char* name;
    void (*kernel)(const double*, double*, std::int64_t);
    double (*ref)(double);
    double lo, hi, bound;
  };
  const UlpCase cases[] = {
      {"vexp", kernels::vexp, std::exp, -700.0, 700.0, kernels::kVexpMaxUlp},
      {"vsin", kernels::vsin, std::sin, -1e6, 1e6, kernels::kVsinMaxUlp},
      {"vcos", kernels::vcos, std::cos, -1e6, 1e6, kernels::kVcosMaxUlp},
  };
  for (const UlpCase& c : cases) {
    double worst = 0.0;
    for (const kernels::Variant v : kArms) {
      kernels::set_variant(v);
      worst = std::max(worst, worst_ulp(c.kernel, c.ref, c.lo, c.hi, 4001));
    }
    char domain[48];
    std::snprintf(domain, sizeof domain, "[%g, %g]", c.lo, c.hi);
    ulp.add_row({c.name, domain, pal::TablePrinter::num(worst, 2),
                 pal::TablePrinter::num(c.bound, 0)});
    if (worst > c.bound) {
      std::fprintf(stderr, "FAIL: %s worst ULP %.2f exceeds bound %.0f\n",
                   c.name, worst, c.bound);
      rc = 1;
    }
  }
  ulp.print();

  kernels::set_variant(entry_variant);
  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
