// Tests for the obs/analyze subsystem: exact span-forest aggregation,
// paper-style step breakdowns, overlap / critical-path extraction, and
// the bench baseline round trip + regression check.

#include "obs/analyze/analyze.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/analyze/baseline.hpp"
#include "obs/analyze/import.hpp"
#include "obs/analyze/report.hpp"
#include "test_temp_dir.hpp"

namespace insitu::obs::analyze {
namespace {

TraceEvent make_event(const char* name, Category cat, int rank, int depth,
                      double begin_s, double dur_s) {
  TraceEvent e;
  e.name = name;
  e.category = cat;
  e.rank = rank;
  e.depth = depth;
  e.virt_begin_s = begin_s;
  e.virt_dur_s = dur_s;
  return e;
}

/// One rank's step: a bridge.execute tree (backend with a nested
/// allreduce) followed by the miniapp.step span, in recording
/// (destruction) order.
TraceLog synthetic_log() {
  TraceLog log;
  log.nranks = 1;
  log.events = {
      make_event("comm.allreduce", Category::kComm, 0, 2, 0.10, 0.05),
      make_event("backend.execute:h", Category::kBackend, 0, 1, 0.10, 0.20),
      make_event("bridge.execute", Category::kBridge, 0, 0, 0.10, 0.25),
      make_event("miniapp.step", Category::kSim, 0, 0, 0.35, 0.40),
  };
  return log;
}

const SpanStat* find_span(const TraceAnalysis& a, const std::string& name) {
  for (const SpanStat& s : a.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(AnalyzeTrace, RecoversSpanForestExactly) {
  const TraceAnalysis a = analyze_trace(synthetic_log());

  const SpanStat* backend = find_span(a, "backend.execute:h");
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->count, 1u);
  EXPECT_DOUBLE_EQ(backend->total_virt_s, 0.20);
  EXPECT_DOUBLE_EQ(backend->self_virt_s, 0.15);  // minus the allreduce
  ASSERT_EQ(backend->parents.size(), 1u);
  EXPECT_EQ(backend->parents[0].parent, "bridge.execute");

  const SpanStat* bridge = find_span(a, "bridge.execute");
  ASSERT_NE(bridge, nullptr);
  EXPECT_DOUBLE_EQ(bridge->self_virt_s, 0.05);
  ASSERT_EQ(bridge->parents.size(), 1u);
  EXPECT_EQ(bridge->parents[0].parent, "-");  // top level

  const SpanStat* comm = find_span(a, "comm.allreduce");
  ASSERT_NE(comm, nullptr);
  EXPECT_DOUBLE_EQ(comm->self_virt_s, 0.05);
  ASSERT_EQ(comm->parents.size(), 1u);
  EXPECT_EQ(comm->parents[0].parent, "backend.execute:h");

  // Self times partition the traced time: their sum equals the sum of
  // top-level span durations.
  double self_sum = 0.0;
  for (const SpanStat& s : a.spans) self_sum += s.self_virt_s;
  EXPECT_DOUBLE_EQ(self_sum, 0.25 + 0.40);
  ASSERT_EQ(a.tracks.size(), 1u);
  EXPECT_DOUBLE_EQ(a.tracks[0].traced_virt_s, 0.25 + 0.40);
}

TEST(AnalyzeTrace, StepBreakdownSplitsPhases) {
  const TraceAnalysis a = analyze_trace(synthetic_log());
  EXPECT_EQ(a.step.steps, 1u);
  const auto& p = a.step.per_step_s;
  EXPECT_DOUBLE_EQ(p[static_cast<int>(Category::kSim)], 0.40);
  EXPECT_DOUBLE_EQ(p[static_cast<int>(Category::kBridge)], 0.05);
  EXPECT_DOUBLE_EQ(p[static_cast<int>(Category::kBackend)], 0.15);
  EXPECT_DOUBLE_EQ(p[static_cast<int>(Category::kComm)], 0.05);
  // Phase rows sum to the step time: per-step sim + per-step analysis.
  EXPECT_DOUBLE_EQ(a.step.total(), 0.40 + 0.25);
}

TEST(AnalyzeTrace, ZeroDurationSiblingsDoNotNest) {
  // Two zero-duration spans at the same instant and depth must stay
  // siblings — depth-based recovery cannot confuse them with children.
  TraceLog log;
  log.nranks = 1;
  log.events = {
      make_event("a", Category::kOther, 0, 1, 0.5, 0.0),
      make_event("b", Category::kOther, 0, 1, 0.5, 0.0),
      make_event("parent", Category::kOther, 0, 0, 0.5, 0.0),
  };
  const TraceAnalysis a = analyze_trace(log);
  const SpanStat* pa = find_span(a, "a");
  const SpanStat* pb = find_span(a, "b");
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pa->parents[0].parent, "parent");
  EXPECT_EQ(pb->parents[0].parent, "parent");
  EXPECT_EQ(find_span(a, "parent")->parents[0].parent, "-");
}

TEST(CriticalPath, SegmentsPartitionTheRun) {
  TraceLog log;
  log.nranks = 1;
  const int worker = kWorkerTrackOffset;
  log.events = {
      make_event("miniapp.step", Category::kSim, 0, 0, 0.0, 1.0),
      make_event("miniapp.step", Category::kSim, 0, 0, 2.0, 1.0),
      make_event("exec.job", Category::kBridge, worker, 0, 0.5, 2.0),
  };
  const CriticalPath cp = critical_path(log);
  EXPECT_EQ(cp.rank, 0);
  EXPECT_DOUBLE_EQ(cp.end_s, 3.0);

  double total = 0.0;
  for (const CriticalSegment& seg : cp.segments) total += seg.virt_s;
  EXPECT_DOUBLE_EQ(total, cp.end_s);

  // Worker span wins where both planes are busy: [0.5, 2.5] goes to
  // exec.job, the step spans keep [0, 0.5] and [2.5, 3.0].
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].name, "exec.job");
  EXPECT_TRUE(cp.segments[0].worker);
  EXPECT_DOUBLE_EQ(cp.segments[0].virt_s, 2.0);
  EXPECT_EQ(cp.segments[1].name, "miniapp.step");
  EXPECT_FALSE(cp.segments[1].worker);
  EXPECT_DOUBLE_EQ(cp.segments[1].virt_s, 1.0);
}

TEST(RankOverlaps, MeasuresHiddenAnalysisTime) {
  TraceLog log;
  log.nranks = 1;
  const int worker = kWorkerTrackOffset;
  log.events = {
      make_event("miniapp.step", Category::kSim, 0, 0, 0.0, 1.0),
      make_event("miniapp.step", Category::kSim, 0, 0, 2.0, 1.0),
      make_event("exec.job", Category::kBridge, worker, 0, 0.5, 2.0),
  };
  const std::vector<RankOverlap> overlaps = rank_overlaps(log);
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0].rank, 0);
  EXPECT_DOUBLE_EQ(overlaps[0].sim_busy_s, 2.0);
  EXPECT_DOUBLE_EQ(overlaps[0].worker_busy_s, 2.0);
  // Worker is hidden on [0.5, 1.0] and [2.0, 2.5].
  EXPECT_DOUBLE_EQ(overlaps[0].overlap_s, 1.0);
  EXPECT_DOUBLE_EQ(overlaps[0].overlap_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(overlaps[0].end_s, 3.0);
}

// ---------------------------------------------------------------------------
// End-to-end against the real pipeline (the fig03_04 acceptance check).

class MiniappTraceTest : public ::testing::Test {
 protected:
  /// Run one configuration with tracing on and return (trace, result).
  std::pair<TraceRun, bench::RunResult> run_traced(
      bench::MiniappConfig config) {
    const test_util::TempDir tmp;
    const std::string trace_path = tmp.file("trace.json");
    const char* argv[] = {"obs_analyze_test", "--trace", trace_path.c_str()};
    bench::ObsSession session(3, argv);
    bench::MiniappBenchParams params;
    params.ranks = 4;
    params.steps = 5;
    const bench::RunResult result = bench::run_miniapp_config(config, params);
    EXPECT_EQ(session.traces().size(), 1u);
    TraceRun run = session.traces().empty() ? TraceRun{}
                                            : session.traces().front();
    return {std::move(run), result};
  }
};

TEST_F(MiniappTraceTest, BreakdownTotalEqualsBenchStepTime) {
  const auto [run, result] = run_traced(bench::MiniappConfig::kHistogram);
  const TraceAnalysis a = analyze_trace(run.log);
  EXPECT_EQ(a.nranks, 4);
  EXPECT_EQ(a.step.steps, 5u);
  // The miniapp.step span covers exactly the bench's sim timer and
  // bridge.execute exactly the analysis timer, so the phase rows must sum
  // to the bench-reported step time.
  EXPECT_NEAR(a.step.total(), result.per_step_sim + result.per_step_analysis,
              1e-12);
}

// ---------------------------------------------------------------------------
// Baselines.

Baseline sample_baseline() {
  Baseline base;
  base.tool = "obs_analyze_test";
  base.config = "--trace t.json";
  base.threads = 2;
  base.seed = 7;
  BaselineRun run;
  run.label = "Histogram/p4";
  run.nranks = 4;
  run.steps = 10;
  run.seed = 7;
  run.phase_s[static_cast<int>(Category::kSim)] = 0.5;
  run.phase_s[static_cast<int>(Category::kBackend)] = 0.125;
  run.total_s = 0.625;
  run.end_to_end_s = 6.5;
  base.runs.push_back(run);
  return base;
}

TEST(Baseline, WriteReadRoundTrip) {
  const Baseline base = sample_baseline();
  const StatusOr<Baseline> read = read_baseline(write_baseline(base));
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->tool, base.tool);
  EXPECT_EQ(read->config, base.config);
  EXPECT_EQ(read->threads, base.threads);
  EXPECT_EQ(read->seed, base.seed);
  ASSERT_EQ(read->runs.size(), 1u);
  EXPECT_EQ(read->runs[0].label, "Histogram/p4");
  EXPECT_EQ(read->runs[0].nranks, 4);
  EXPECT_EQ(read->runs[0].steps, 10u);
  for (int c = 0; c < kCategoryCount; ++c) {
    EXPECT_DOUBLE_EQ(read->runs[0].phase_s[c], base.runs[0].phase_s[c]);
  }
  EXPECT_DOUBLE_EQ(read->runs[0].total_s, base.runs[0].total_s);
  EXPECT_DOUBLE_EQ(read->runs[0].end_to_end_s, base.runs[0].end_to_end_s);
}

TEST(Baseline, RejectsNonBaselineJson) {
  EXPECT_FALSE(read_baseline("{\"traceEvents\":[]}").ok());
  EXPECT_FALSE(read_baseline("not json").ok());
}

TEST(BaselineCheck, PassesWhenUnchanged) {
  const Baseline base = sample_baseline();
  const CheckResult result = check_baseline(base, base);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.regressions.empty());
}

TEST(BaselineCheck, FlagsInjectedSlowdown) {
  const Baseline base = sample_baseline();
  Baseline slow = base;
  slow.runs[0].phase_s[static_cast<int>(Category::kBackend)] *= 1.25;
  slow.runs[0].total_s = 0.5 + 0.125 * 1.25;

  const CheckResult result = check_baseline(base, slow);  // default +10%
  EXPECT_FALSE(result.ok());
  // The per-phase gate trips on backend (+25%) even though the total only
  // moved +5% — within tolerance, so no second regression for "total".
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].phase, "backend");
  EXPECT_EQ(result.regressions[0].run, "Histogram/p4");
  EXPECT_NEAR(result.regressions[0].ratio(), 1.25, 1e-12);

  CheckOptions loose;
  loose.tolerance = 0.30;
  EXPECT_TRUE(check_baseline(base, slow, loose).ok());
}

TEST(BaselineCheck, FlagsStructuralMismatches) {
  const Baseline base = sample_baseline();

  Baseline renamed = base;
  renamed.runs[0].label = "Histogram/p8";
  const CheckResult missing = check_baseline(base, renamed);
  EXPECT_FALSE(missing.ok());
  ASSERT_EQ(missing.mismatches.size(), 1u);

  Baseline fewer_steps = base;
  fewer_steps.runs[0].steps = 5;
  EXPECT_FALSE(check_baseline(base, fewer_steps).ok());
}

// A versioned dump from a different tool generation must fail loudly
// with FailedPrecondition (perf_report maps it to exit 2), never parse
// into an empty table or a zeroed baseline.
TEST(SchemaVersion, BaselineMismatchIsFailedPrecondition) {
  const std::string text =
      "{\"schema\": \"insitu-bench-baseline/9\", \"runs\": []}";
  const StatusOr<Baseline> got = read_baseline(text);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().to_string().find("insitu-bench-baseline/9"),
            std::string::npos);
  EXPECT_NE(got.status().to_string().find(kBaselineSchema),
            std::string::npos);
}

TEST(SchemaVersion, MetricsCsvMismatchIsFailedPrecondition) {
  const std::string text =
      "# insitu-metrics/9 tool=x threads=1 seed=0\n"
      "run,metric,kind,value,count,sum,mean,min,max,p50,p90,p99\n";
  const StatusOr<MetricsTable> got = import_metrics(text);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(got.status().to_string().find("insitu-metrics/9"),
            std::string::npos);
}

TEST(SchemaVersion, MetricsJsonMismatchIsFailedPrecondition) {
  const std::string text =
      "{\"schema\": \"insitu-metrics/9\", \"series\": []}";
  const StatusOr<MetricsTable> got = import_metrics(text);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SchemaVersion, TraceMismatchIsFailedPrecondition) {
  const std::string text =
      "{\"metadata\": {\"schema\": \"insitu-trace/9\"},"
      " \"traceEvents\": []}";
  const StatusOr<ImportedTrace> got = import_chrome_trace(text);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SchemaVersion, MatchingVersionsStillParse) {
  EXPECT_TRUE(import_metrics("{\"schema\": \"insitu-metrics/1\","
                             " \"series\": []}")
                  .ok());
  EXPECT_TRUE(import_chrome_trace("{\"metadata\": {\"schema\":"
                                  " \"insitu-trace/1\"},"
                                  " \"traceEvents\": []}")
                  .ok());
}

TEST(BaselineCheck, FromAnalysisMatchesStepBreakdown) {
  const TraceAnalysis a = analyze_trace(synthetic_log());
  const BaselineRun run = baseline_run_from_analysis("r", a, 3);
  EXPECT_EQ(run.label, "r");
  EXPECT_EQ(run.seed, 3u);
  EXPECT_EQ(run.steps, 1u);
  EXPECT_DOUBLE_EQ(run.total_s, a.step.total());
  EXPECT_DOUBLE_EQ(run.end_to_end_s, 0.75);
}

/// Whitespace-split rows of a rendered table whose first cell is `run`.
std::vector<std::vector<std::string>> table_rows(const std::string& table,
                                                 const std::string& run) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream cells(line);
    std::vector<std::string> row;
    for (std::string cell; cells >> cell;) row.push_back(cell);
    if (!row.empty() && row[0] == run) rows.push_back(std::move(row));
  }
  return rows;
}

TEST(CollectivesTable, OneRowPerRunAndOp) {
  const auto row = [](const std::string& metric, MetricKind kind,
                      double value) {
    MetricsRow r;
    r.run = "pipeline/p4";
    r.metric = metric;
    r.kind = kind;
    r.value = value;
    return r;
  };
  constexpr double kMiB = 1024.0 * 1024.0;
  MetricsTable metrics;
  metrics.rows = {
      row("comm.collective.calls{op=allgather}", MetricKind::kCounter, 3),
      row("comm.collective.calls{op=reduce}", MetricKind::kCounter, 5),
      row("comm.collective.contended{op=reduce}", MetricKind::kCounter, 2),
      row("comm.bytes_sent{op=allreduce}", MetricKind::kCounter, kMiB),
      row("comm.bytes_sent{op=reduce}", MetricKind::kCounter, kMiB),
      row("comm.bytes_sent{op=allgather}", MetricKind::kCounter, kMiB / 2),
      row("comm.bytes_sent{op=p2p}", MetricKind::kCounter, 64 * kMiB),
  };
  MetricsRow wait = row("comm.collective.wait.seconds{op=reduce}",
                        MetricKind::kHistogram, 0.0);
  wait.count = 4;
  wait.sum = 0.5;
  wait.p99 = 0.25;
  metrics.rows.push_back(wait);

  const std::string table = render_collectives_table(metrics);
  ASSERT_NE(table.find("== collectives =="), std::string::npos) << table;
  const auto rows = table_rows(table, "pipeline/p4");
  ASSERT_EQ(rows.size(), 2u) << table;
  // run, op, calls, MiB sent, waits, wait s, wait p99 ms, contended
  const std::vector<std::string> allgather = {"pipeline/p4", "allgather", "3",
                                              "0.5", "0", "0", "0", "0"};
  const std::vector<std::string> reduce = {"pipeline/p4", "reduce", "5", "2",
                                           "4", "0.5", "250", "2"};
  EXPECT_EQ(rows[0], allgather) << table;
  EXPECT_EQ(rows[1], reduce) << table;
}

}  // namespace
}  // namespace insitu::obs::analyze
