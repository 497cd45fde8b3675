#pragma once

// Perf-regression baselines (`bench/baselines/*.json`, schema
// "insitu-bench-baseline/1"): per-run virtual-time phase breakdowns plus
// the run metadata needed to tell apples from oranges (tool, config,
// ranks, seed). Benches write them via `--baseline <path>`;
// `tools/perf_report --check <path>` re-derives the same numbers from a
// fresh trace and flags per-phase regressions beyond tolerance.
//
// Baselines compare *virtual* seconds only, so checks are deterministic:
// a regression means the modeled cost changed, never that CI was slow.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/analyze/analyze.hpp"
#include "obs/analyze/json.hpp"
#include "obs/export_meta.hpp"
#include "pal/status.hpp"

namespace insitu::obs::analyze {

inline constexpr const char* kBaselineSchema = "insitu-bench-baseline/1";

/// One benchmark configuration's recorded numbers.
struct BaselineRun {
  std::string label;       ///< the trace run label, e.g. "Histogram/sync/p4"
  int nranks = 0;
  std::uint64_t steps = 0;
  std::uint64_t seed = 0;
  /// Mean per-rank-per-step virtual seconds by phase (self time); the sum
  /// equals the bench-reported step time (sim + analysis per step).
  std::array<double, kCategoryCount> phase_s{};
  double total_s = 0.0;       ///< sum of phase_s
  double end_to_end_s = 0.0;  ///< last span end across all tracks
  /// False for a run recorded with tracing off: its trace holds no span,
  /// so it has no phases. Written as `"traced": false` with no phases or
  /// totals; check_baseline notes it and compares none of its numbers.
  bool traced = true;

  /// Buffer-pool summary for the run (the `pool.*` counters of its ranks'
  /// pools, summed by the bench session). Optional: baselines written before the pool
  /// existed parse with has_pool=false and are never pool-checked.
  bool has_pool = false;
  double pool_hit_rate = 0.0;         ///< hits / (hits + misses), 0..1
  double pool_bytes_allocated = 0.0;  ///< fresh bytes allocated (misses)
  double pool_bytes_reused = 0.0;     ///< request bytes served by the free list

  /// Kernel-dispatch summary (insitu::kernels counter deltas captured by
  /// the bench session). Optional like the pool block; informational only
  /// in check_baseline — element-count or variant drift produces notes,
  /// never regressions (virtual time already gates the result).
  bool has_kernels = false;
  std::string kernels_variant;  ///< active dispatch variant for the run
  std::vector<std::pair<std::string, double>> kernels_elements;
};

struct Baseline {
  std::string tool;    ///< bench binary name
  std::string config;  ///< full command line the numbers came from
  std::uint64_t seed = 0;
  std::vector<BaselineRun> runs;
};

/// Distill one analyzed run into a baseline entry.
BaselineRun baseline_run_from_analysis(const std::string& label,
                                       const TraceAnalysis& analysis,
                                       std::uint64_t seed);

std::string write_baseline(const Baseline& baseline);
Status write_baseline_file(const std::string& path, const Baseline& baseline);

StatusOr<Baseline> read_baseline(std::string_view text);
StatusOr<Baseline> read_baseline_file(const std::string& path);

/// True when the (already parsed) JSON document is a baseline file, used
/// by perf_report to auto-detect its input kind.
bool is_baseline_json(const Json& root);

struct CheckOptions {
  /// Allowed relative growth per phase before flagging (0.10 = +10%).
  double tolerance = 0.10;
  /// Phases smaller than this in the baseline are never flagged (noise
  /// floor for near-zero phases).
  double min_phase_s = 1e-9;
};

struct Regression {
  std::string run;    ///< baseline run label
  std::string phase;  ///< category name, "total", or "end_to_end"
  double baseline_s = 0.0;
  double current_s = 0.0;

  double ratio() const {
    return baseline_s <= 0.0 ? 0.0 : current_s / baseline_s;
  }
};

struct CheckResult {
  std::vector<Regression> regressions;
  /// Structural mismatches (runs missing on either side, step-count or
  /// rank-count drift); these fail the check like regressions do.
  std::vector<std::string> mismatches;
  /// Informational lines (improvements, skipped near-zero phases).
  std::vector<std::string> notes;

  bool ok() const { return regressions.empty() && mismatches.empty(); }
};

/// Compare `current` against `base`, run-by-run (matched on label).
CheckResult check_baseline(const Baseline& base, const Baseline& current,
                           const CheckOptions& options = {});

}  // namespace insitu::obs::analyze
