#pragma once

// Flat metrics dumps: CSV (one row per series) and JSON (one object per
// series). The `run` column labels which recorded run a series belongs to
// so a single file can hold a whole bench sweep; the bench binaries use
// "<config>/p<ranks>" labels.
//
// CSV columns:
//   run,metric,kind,value,count,sum,mean,min,max,p50,p90,p99
// `value` is the counter total / gauge value (empty for histograms);
// count..p99 are histogram statistics (empty for counters and gauges).
//
// With an ExportMeta the files become self-describing perf_report inputs:
// the CSV gains a leading `# insitu-metrics/1 ...` comment line and the
// JSON form becomes an object {"schema","meta","series"} instead of the
// bare series array.

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "obs/export_meta.hpp"
#include "obs/metrics.hpp"
#include "pal/status.hpp"

namespace insitu::obs {

/// One labeled snapshot (typically one Runtime::run's merged metrics).
struct MetricsRun {
  std::string label;
  MetricsSnapshot snapshot;
};

/// One series as exported: histogram rows carry count..p99, counter/gauge
/// rows carry `value` only (mirrors the CSV columns). The importer
/// (obs/analyze/import.hpp) parses dumps back into the same rows.
struct MetricsRow {
  std::string run;
  std::string metric;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;

  bool operator==(const MetricsRow&) const = default;
};

/// One row per sample, in run order: the one place export quantiles are
/// estimated (histogram_quantile at 0.5, 0.9 and 0.99).
std::vector<MetricsRow> metrics_rows(std::span<const MetricsRun> runs);

/// The CSV layout: the `# insitu-metrics/1` line when `meta` is set, the
/// header, then one line per row.
void write_metrics_csv_rows(std::ostream& out,
                            std::span<const MetricsRow> rows,
                            const ExportMeta* meta = nullptr);

void write_metrics_csv(std::ostream& out, std::span<const MetricsRun> runs,
                       const ExportMeta* meta = nullptr);
void write_metrics_csv(std::ostream& out, const MetricsSnapshot& snapshot);

Status write_metrics_csv_file(const std::string& path,
                              std::span<const MetricsRun> runs,
                              const ExportMeta* meta = nullptr);
Status write_metrics_csv_file(const std::string& path,
                              const MetricsSnapshot& snapshot);

void write_metrics_json(std::ostream& out, std::span<const MetricsRun> runs,
                        const ExportMeta* meta = nullptr);

Status write_metrics_json_file(const std::string& path,
                               std::span<const MetricsRun> runs,
                               const ExportMeta* meta = nullptr);

}  // namespace insitu::obs
