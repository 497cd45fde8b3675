#pragma once

// The benchmark's four workloads (see README.md for why each exists).
// A workload is run as a sequence of *instances*: one complete execution
// from launch to teardown on inputs fixed by the seed. Every instance of
// a run computes the same outputs, which is what the output checks rely
// on.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Plan {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;  ///< self-test size: seconds, not minutes
  int nproc = 4;      ///< threads doing work at once, at most
};

struct Instance {
  double setup_s = 0.0;  ///< workload start -> every rank ready for step 0
  double total_s = 0.0;  ///< workload start -> last teardown returned
  double cpu_s = 0.0;    ///< process CPU over the instance
  std::vector<double> step_s;      ///< steady-state step samples
  std::vector<double> delivery_s;  ///< data handed over -> result done
  long attempted = 0;
  long failed = 0;
  /// One entry per checked output, in a fixed order; every instance of a
  /// run must produce the same vector.
  std::vector<std::uint64_t> digest;
  std::vector<std::string> problems;  ///< failed checks, human-readable
  /// Per-instance layer values (counters, exec.*, service.*, ...).
  std::map<std::string, double> layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Execute one instance. With `traced`, per-rank spans are recorded
  /// and folded into `stats`; `spans_path` (may be empty) receives the
  /// rank-0 spans.
  virtual Instance run(bool traced, SpanStats* stats,
                       const std::string& spans_path, int run_id) = 0;
  /// Extra set-up samples taken once per process (service_mix times
  /// several manager constructions); empty for the others.
  virtual std::vector<double> extra_setup_samples() { return {}; }
  /// "backend/workers" for the host fingerprint.
  virtual std::string sched() const = 0;
};

/// Null for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Plan& plan);

/// Baseline peak RSS (MiB) captured before the first instance, for the
/// per-rank footprint.
void set_rss_baseline_mb(double mb);

}  // namespace perfbench
