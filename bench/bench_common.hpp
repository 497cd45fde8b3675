#pragma once

// Shared harness for the per-figure bench binaries.
//
// Every bench prints two kinds of rows (DESIGN.md §2):
//  * EXECUTED rows: the full pipeline really runs on N rank-threads with
//    real (small) data; times are the deterministic virtual clock.
//  * PAPER-SCALE rows: the same cost functions evaluated analytically at
//    the paper's rank counts and workloads (src/perfmodel).

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/autocorrelation.hpp"
#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "backends/libsim.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "kernels/kernels.hpp"
#include "miniapp/adaptor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_io.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/table.hpp"
#include "perfmodel/paper_model.hpp"

namespace insitu::bench {

/// Per-binary observability sink. Construct once at the top of main();
/// it parses `--trace out.json` / `--metrics out.csv` (or `.json`) /
/// `--baseline out.json` from the command line and installs itself as the
/// process-wide session. run_miniapp_config() records every executed run
/// into the current session under the label "<config>/p<ranks>"; binaries
/// that drive comm::Runtime directly call record() themselves. finish()
/// writes the requested files and returns a process exit code
/// contribution (0 = ok).
///
/// `--baseline <path>` distills the recorded traces into a perf baseline
/// (schema insitu-bench-baseline/1, see docs/PERFORMANCE.md) that
/// `tools/perf_report --check` gates against. Trace and metrics exports
/// carry a run-metadata header (tool, full config string, threads, seed)
/// so perf_report output is self-describing.
///
/// When no flag is given the session is inert: tracing stays off in
/// Runtime::Options (so instrumented runs cost nothing beyond the atomic
/// metric updates) and finish() writes nothing.
class ObsSession {
 public:
  ObsSession(int argc, const char* const* argv);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// The installed session, or nullptr outside an ObsSession's lifetime.
  static ObsSession* current();

  /// Baselines are derived from traces, so --baseline implies tracing.
  bool trace_enabled() const {
    return !trace_path_.empty() || !baseline_path_.empty();
  }
  bool metrics_enabled() const { return !metrics_path_.empty(); }
  bool baseline_enabled() const { return !baseline_path_.empty(); }
  /// Kernel-dispatch variant requested via `kernels=NAME` /
  /// `--kernels NAME`; empty when running the process default.
  const std::string& kernels_variant() const { return kernels_; }
  /// Scheduler backend requested via `sched=NAME` / `--sched NAME`;
  /// empty when running the process default (INSITU_SCHED or threads).
  /// An explicit request also becomes the process default, so every
  /// Runtime::Options constructed afterwards picks it up.
  const std::string& sched_backend_name() const { return sched_; }
  /// Carrier workers for the mn backend (`sched_workers=N`); 0 = one per
  /// hardware thread.
  int sched_workers() const { return sched_workers_; }
  /// Executed rank counts requested via `ranks=N[,M...]` / `--ranks ...`;
  /// empty when the bench should use its own defaults. Values are
  /// validated at parse time (positive, no overflow) — an invalid list
  /// exits the process with a clear error rather than silently clamping.
  const std::vector<int>& ranks_override() const { return ranks_; }

  /// Capture one run's trace + metrics under `label`.
  void record(const std::string& label, const comm::RunReport& report);

  const std::vector<obs::TraceRun>& traces() const { return traces_; }
  const std::vector<obs::MetricsRun>& metrics_runs() const {
    return metrics_;
  }
  /// Metadata stamped into every export (tool, config, seed; threads is
  /// always 1).
  obs::ExportMeta export_meta() const;

  /// Write the requested trace/metrics/baseline files. Returns 0 on
  /// success.
  int finish();

 private:
  std::string tool_;
  std::string config_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string baseline_path_;
  std::vector<obs::TraceRun> traces_;
  std::vector<obs::MetricsRun> metrics_;
  std::vector<std::uint64_t> seeds_;  ///< per recorded trace run
  /// Per recorded trace run: the run's merged metrics, whose pool.* and
  /// kernels.* series become the baseline's "pool" and "kernels" blocks.
  std::vector<obs::MetricsSnapshot> run_counters_;
  std::string kernels_;  ///< requested dispatch variant ("" = default)
  std::string sched_;    ///< requested scheduler backend ("" = default)
  int sched_workers_ = 0;
  std::vector<int> ranks_;  ///< executed-rank override (empty = default)
  bool finished_ = false;
};

/// Parse a comma-separated list of executed rank counts ("8" or
/// "4,8,16"). Every element must be a positive integer that fits an int;
/// empty elements, trailing garbage, zero, negatives, and overflow all
/// fail with a message in *error. Used by the `ranks=`/`--ranks` flag and
/// covered by tests/sched_test.
std::optional<std::vector<int>> parse_ranks_list(std::string_view text,
                                                 std::string* error);

/// The miniapp in situ configurations of §4.1.1.
enum class MiniappConfig {
  kOriginal,         // no SENSEI; analysis (if any) by subroutine call
  kBaseline,         // SENSEI enabled, no analysis
  kHistogram,        // SENSEI -> histogram (no infrastructure)
  kAutocorrelation,  // SENSEI -> autocorrelation (no infrastructure)
  kCatalystSlice,    // SENSEI -> Catalyst-like slice render
  kLibsimSlice,      // SENSEI -> Libsim-like slice render
};

inline const char* to_string(MiniappConfig config) {
  switch (config) {
    case MiniappConfig::kOriginal: return "Original";
    case MiniappConfig::kBaseline: return "Baseline";
    case MiniappConfig::kHistogram: return "Histogram";
    case MiniappConfig::kAutocorrelation: return "Autocorrelation";
    case MiniappConfig::kCatalystSlice: return "Catalyst-slice";
    case MiniappConfig::kLibsimSlice: return "Libsim-slice";
  }
  return "?";
}

struct RunResult {
  int ranks = 0;
  double sim_init = 0.0;
  double analysis_init = 0.0;
  double per_step_sim = 0.0;       // mean, virtual seconds
  double per_step_analysis = 0.0;  // mean, virtual seconds
  double finalize = 0.0;
  double total = 0.0;              // job virtual time-to-solution
  std::size_t mem_startup = 0;     // tracked bytes after sim init (sum)
  std::size_t mem_high_water = 0;  // tracked bytes HWM (sum over ranks)
};

struct MiniappBenchParams {
  int ranks = 8;
  std::int64_t cells_per_axis = 16;  // executed global grid
  int steps = 10;
  int histogram_bins = 64;
  int window = 10;
  int top_k = 3;
  int image_w = 256;
  int image_h = 144;
  comm::MachineModel machine = comm::cori_haswell();
};

/// Run one miniapp configuration end-to-end at executed scale.
RunResult run_miniapp_config(MiniappConfig config,
                             const MiniappBenchParams& params);

/// Standard ablation-bench Runtime options: Cori Haswell machine,
/// seed 7, tracing wired to the current ObsSession (off when no session
/// is installed or no --trace/--baseline flag was given).
comm::Runtime::Options ablation_options();

/// The standard single-source ablation workload: one periodic
/// oscillator (omega = 2*pi) of the given radius at the center of an
/// n^3 grid, dt = 0.05.
miniapp::OscillatorConfig ablation_oscillator_config(
    std::int64_t cells_per_axis, double radius);

/// What the gate pipeline produces on one arm. same_outputs() compares
/// every field except the wall clock bit for bit.
struct GateOutputs {
  std::vector<double> rank_times;  ///< per-rank virtual seconds
  double total = 0.0;              ///< end-to-end virtual seconds
  std::vector<std::int64_t> bins;  ///< final histogram (root)
  std::uint64_t image_hash = 0;    ///< final slice image (root)
  double wall_seconds = 0.0;       ///< host wall clock; never gates

  std::int64_t histogram_total() const;
  /// image_hash as 16 hex digits, for table rows.
  std::string hash_hex() const;
};

inline constexpr int kGateSteps = 10;

/// The executed pipeline the ablation gates compare across arms:
/// ablation_oscillator_config(16, 3.0) + a 64-bin histogram + a 256x144
/// Catalyst slice on `ranks` ranks for `steps` steps, run under
/// `options` (start from ablation_options()). The report is recorded
/// into the current ObsSession under `label`.
GateOutputs run_gate_pipeline(int ranks, const comm::Runtime::Options& options,
                              const std::string& label,
                              int steps = kGateSteps);

/// True when `arm` matches `ref` bit for bit: per-rank virtual times,
/// the virtual total, histogram bins and image hash. Prints one `FAIL:`
/// line to stderr per differing field.
bool same_outputs(const GateOutputs& ref, std::string_view ref_name,
                  const GateOutputs& arm, std::string_view arm_name,
                  int ranks);

/// Executed-scale rank counts for the weak-scaling tables: the session's
/// `ranks=` override when one was given, else {4, 8, 16}.
std::vector<int> executed_ranks();

/// Paper-scale specs (812 / 6496 / 45440 on Cori).
inline std::vector<perfmodel::MiniappScale> paper_scales() {
  return {perfmodel::cori_1k(), perfmodel::cori_6k(), perfmodel::cori_45k()};
}

}  // namespace insitu::bench
