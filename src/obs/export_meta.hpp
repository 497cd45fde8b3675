#pragma once

// Run-metadata header embedded in trace and metrics exports so the files
// are self-describing inputs for offline analysis (tools/perf_report).
//
// Schema strings are versioned independently per format:
//   chrome trace  -> "insitu-trace/1"    (top-level "metadata" object)
//   metrics CSV   -> "insitu-metrics/1"  (leading `# ...` comment line)
//   metrics JSON  -> "insitu-metrics/1"  ({"schema","meta","series"} object)
//   baselines     -> "insitu-bench-baseline/1" (obs/analyze/baseline.hpp)

#include <cstdint>
#include <string>

namespace insitu::obs {

inline constexpr const char* kTraceSchema = "insitu-trace/1";
inline constexpr const char* kMetricsSchema = "insitu-metrics/1";

struct ExportMeta {
  std::string tool;    ///< producing binary, e.g. "fig03_04_sensei_overhead"
  std::string config;  ///< the run's command line / config string
  int threads = 1;     ///< always 1: a rank is the unit of parallelism
  std::uint64_t seed = 0;  ///< RNG seed of the recorded runs (0 = unknown)
};

}  // namespace insitu::obs
