#pragma once

// Text rendering for trace analyses: the paper-style breakdown tables
// (pal/table format, same as the bench binaries print) built from
// obs/analyze results. Used by tools/perf_report and by the benches'
// --baseline writers.
//
// Default output is deterministic: only virtual-time quantities are
// printed, so a report is byte-identical across hosts and `sched=`
// backends. ReportOptions::wall adds wall-clock columns for profiling
// this implementation itself.

#include <span>
#include <string>
#include <vector>

#include "obs/analyze/analyze.hpp"
#include "obs/analyze/import.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/export_meta.hpp"

namespace insitu::obs::analyze {

/// One run, fully analyzed: aggregation, overlap rows, critical path.
struct AnalyzedRun {
  std::string label;
  TraceAnalysis analysis;
  std::vector<RankOverlap> overlaps;  ///< empty for sync runs
  CriticalPath critical;
};

AnalyzedRun analyze_run(const TraceRun& run);
std::vector<AnalyzedRun> analyze_runs(std::span<const TraceRun> runs);

struct ReportOptions {
  bool spans = true;     ///< per-span aggregation section
  bool overlap = true;   ///< overlap + critical path for async runs
  bool wall = false;     ///< add wall-clock columns (nondeterministic)
  std::size_t top_spans = 0;  ///< span rows per run, 0 = all
};

/// Paper-style table: one row per run/configuration, per-step virtual
/// milliseconds split by phase; "total" reproduces the bench-reported
/// step time (per-step sim + per-step analysis).
std::string render_breakdown_table(std::span<const AnalyzedRun> runs,
                                   const ReportOptions& options = {});

/// Per-span aggregation for one run: self/total virtual time, counts,
/// and the dominant parent. Rows sorted by self time (desc), then name.
std::string render_span_table(const AnalyzedRun& run,
                              const ReportOptions& options = {});

/// Sim/worker overlap per rank plus the aggregated critical-path walk.
std::string render_overlap_report(const AnalyzedRun& run,
                                  const ReportOptions& options = {});

/// Buffer-pool summary distilled from `pool.*` metric rows, one line per
/// run (hit rate, allocation traffic, evictions). Returns the empty
/// string when the dump carries no pool metrics, so callers can append it
/// unconditionally.
std::string render_pool_table(const MetricsTable& metrics);

/// Kernel-dispatch summary distilled from the labeled
/// `kernels.{calls,elements,bytes}{kernel=...,variant=...}` counter rows:
/// one line per (run, kernel, variant) series that was actually called.
/// Returns the empty string when the dump carries no kernel metrics, so
/// callers can append it unconditionally.
std::string render_kernel_table(const MetricsTable& metrics);

/// Per-tenant summary distilled from `tenant=`-labeled rows (the
/// multi-tenant service stamps the label on every session metric):
/// admission outcomes, session terminal states, executed steps, p99 step
/// latency, and the tenant memory high-water gauge. One line per
/// (run, tenant). Returns the empty string when the dump carries no
/// tenant-labeled metrics, so callers can append it unconditionally.
std::string render_tenant_table(const MetricsTable& metrics);

/// Collective summary distilled from the
/// `comm.collective.{calls,wait.seconds,contended}{op=...}` series the
/// communicator records: one line per (run, op) with
/// call counts, contributed bytes (joined from the run's
/// `comm.bytes_sent{op=}` counters), wall seconds parked at the
/// rendezvous, and contended slot-lock acquisitions. Returns the empty
/// string when the dump carries no collective metrics, so callers can
/// append it unconditionally.
std::string render_collectives_table(const MetricsTable& metrics);

/// In transit reduction summary distilled from the `io.reduction.*`
/// series the ReductionPipeline publishes: one line per
/// (run, backend, variable) with the last-applied level, bytes in/out,
/// the compression ratio, and the backend's encode-time p99 plus
/// adaptive raise/lower transition counts. Returns the empty string
/// when the dump carries no reduction metrics, so callers can append it
/// unconditionally.
std::string render_reduction_table(const MetricsTable& metrics);

/// Full report: metadata header, breakdown table, then per-run sections.
std::string render_report(std::span<const AnalyzedRun> runs,
                          const ExportMeta* meta = nullptr,
                          const ReportOptions& options = {});

}  // namespace insitu::obs::analyze
