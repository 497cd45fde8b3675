#pragma once

// Importers for the obs exports, making tools/perf_report a pure offline
// consumer: a Chrome-trace JSON written by write_chrome_trace() round-trips
// back into TraceRun logs, and a metrics CSV/JSON dump round-trips into a
// flat row table. Only files produced by this repo's exporters are
// supported (docs/OBSERVABILITY.md documents the formats).

#include <string>
#include <string_view>
#include <vector>

#include "obs/analyze/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export_meta.hpp"
#include "obs/metrics_io.hpp"
#include "pal/status.hpp"

namespace insitu::obs::analyze {

/// A parsed trace export: the recorded runs plus the embedded metadata
/// header (zero-valued when the file predates self-describing exports).
struct ImportedTrace {
  std::vector<TraceRun> runs;
  ExportMeta meta;
  bool has_meta = false;
};

StatusOr<ImportedTrace> import_chrome_trace(std::string_view text);
StatusOr<ImportedTrace> import_chrome_trace_file(const std::string& path);

struct MetricsTable {
  std::vector<MetricsRow> rows;
  ExportMeta meta;
  bool has_meta = false;
};

/// Parse a metrics dump; the format (CSV vs JSON) is auto-detected from
/// the first non-space character.
StatusOr<MetricsTable> import_metrics(std::string_view text);
StatusOr<MetricsTable> import_metrics_file(const std::string& path);

/// The exporter's rows (metrics_rows) after one trip through format_num,
/// for round-trip comparisons: exporting `runs` and importing the bytes
/// yields exactly rows_from_runs(runs).
std::vector<MetricsRow> rows_from_runs(std::span<const MetricsRun> runs);

/// Re-serialize a parsed table with the exporter's CSV writer; importing a
/// CSV dump and re-emitting it reproduces the input byte-for-byte.
std::string metrics_table_to_csv(const MetricsTable& table);

}  // namespace insitu::obs::analyze
