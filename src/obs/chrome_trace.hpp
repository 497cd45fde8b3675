#pragma once

// Chrome-trace (chrome://tracing / Perfetto "Trace Event Format") export.
//
// Layout contract (docs/OBSERVABILITY.md): one *process* per recorded run
// (pid = run index + 1, named with the run label) and one *thread track
// per simulated rank* (tid = rank, named "rank N"). Span timestamps come
// from the selected timeline — virtual (modeled cluster seconds, the
// default: it is what reproduces the paper's figures) or wall. Each span
// carries its counterpart times as args so both are always inspectable.

#include <ostream>
#include <span>
#include <string>

#include "obs/export_meta.hpp"
#include "obs/trace.hpp"
#include "pal/status.hpp"

namespace insitu::obs {

/// One run's spans plus the label shown as the Chrome process name.
struct TraceRun {
  std::string label;
  TraceLog log;
};

struct ChromeTraceOptions {
  enum class Timeline { kVirtual, kWall };
  Timeline timeline = Timeline::kVirtual;
  /// Emit span args (bytes annotations, cross-timeline times, and the
  /// nesting depth tools/perf_report uses for exact self-time
  /// attribution). Golden tests disable this together with the wall
  /// timeline to get bit-deterministic output.
  bool include_args = true;
  /// When set, a top-level "metadata" object makes the file a
  /// self-describing perf_report input (docs/PERFORMANCE.md).
  const ExportMeta* meta = nullptr;
};

/// Serialize runs as a JSON object with a `traceEvents` array.
void write_chrome_trace(std::ostream& out, std::span<const TraceRun> runs,
                        const ChromeTraceOptions& options = {});

Status write_chrome_trace_file(const std::string& path,
                                    std::span<const TraceRun> runs,
                                    const ChromeTraceOptions& options = {});

Status write_chrome_trace_file(const std::string& path,
                                    const TraceLog& log,
                                    const ChromeTraceOptions& options = {});

/// The one number format of every obs export (`%.9g`): trace args,
/// metrics dumps, live frames and baselines. Parsing its output and
/// formatting again reproduces the same text, which the metrics importer
/// relies on to re-serialize a dump byte for byte.
std::string format_num(double value);

/// JSON string escaping (exposed for the metrics exporters and tests).
std::string json_escape(std::string_view text);

}  // namespace insitu::obs
