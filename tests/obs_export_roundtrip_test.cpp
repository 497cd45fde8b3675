// Round-trip tests for the obs exports: metrics CSV/JSON and Chrome-trace
// JSON written by the exporters must parse back (obs/analyze/import) into
// exactly what was exported — including histogram quantile fields and the
// run-metadata headers that make the files self-describing.

#include "obs/analyze/import.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/analyze/baseline.hpp"
#include "obs/analyze/report.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_io.hpp"

namespace insitu::obs::analyze {
namespace {

ExportMeta sample_meta() {
  ExportMeta meta;
  meta.tool = "roundtrip_test";
  meta.config = "--trace out.json, quoted";  // comma forces CSV quoting
  meta.seed = 1234;
  return meta;
}

std::vector<MetricsRun> sample_metrics_runs() {
  static MetricsRegistry reg_a;
  static MetricsRegistry reg_b;
  static bool filled = false;
  if (!filled) {
    filled = true;
    reg_a.counter("io.bytes_written", {{"writer", "vtk"}}).add(123456);
    reg_a.gauge("queue.depth").set(3.0);
    Histogram& h = reg_a.histogram("backend.execute.seconds",
                                   {{"backend", "histogram"}});
    h.record(0.001);
    h.record(0.004);
    h.record(0.016);
    h.record(0.25);
    reg_b.counter("io.bytes_read", {{"reader", "posthoc"}}).add(99);
    reg_b.histogram("io.read_step.seconds", {{"reader", "posthoc"}})
        .record(2.5);
  }
  return {{"Histogram/p4", reg_a.snapshot()},
          {"posthoc/p1", reg_b.snapshot()}};
}

TEST(MetricsRoundTrip, CsvExportImportsToSameRows) {
  const std::vector<MetricsRun> runs = sample_metrics_runs();
  const ExportMeta meta = sample_meta();
  std::ostringstream out;
  write_metrics_csv(out, runs, &meta);

  const StatusOr<MetricsTable> table = import_metrics(out.str());
  ASSERT_TRUE(table.ok()) << table.status().to_string();

  // Metadata header round-trips.
  EXPECT_TRUE(table->has_meta);
  EXPECT_EQ(table->meta.tool, meta.tool);
  EXPECT_EQ(table->meta.config, meta.config);
  EXPECT_EQ(table->meta.seed, meta.seed);

  // Rows (including histogram count/sum/mean/min/max/p50/p90/p99) equal
  // the exporter-side view after one trip through %.9g formatting.
  const std::vector<MetricsRow> expected = rows_from_runs(runs);
  ASSERT_EQ(table->rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table->rows[i], expected[i]) << "row " << i << ": "
                                           << expected[i].metric;
  }

  // Quantiles are real values, not defaults.
  const MetricsRow& hist = table->rows[0];  // backend.execute.seconds
  EXPECT_EQ(hist.kind, MetricKind::kHistogram);
  EXPECT_EQ(hist.count, 4u);
  EXPECT_GT(hist.p50, 0.0);
  EXPECT_LE(hist.p50, hist.p90);
  EXPECT_LE(hist.p90, hist.p99);
}

TEST(MetricsRoundTrip, CsvReserializesByteIdentically) {
  const std::vector<MetricsRun> runs = sample_metrics_runs();
  const ExportMeta meta = sample_meta();
  std::ostringstream out;
  write_metrics_csv(out, runs, &meta);

  const StatusOr<MetricsTable> table = import_metrics(out.str());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(metrics_table_to_csv(*table), out.str());
}

TEST(MetricsRoundTrip, CsvWithoutMetaStaysBare) {
  const std::vector<MetricsRun> runs = sample_metrics_runs();
  std::ostringstream out;
  write_metrics_csv(out, runs);  // no meta header

  const StatusOr<MetricsTable> table = import_metrics(out.str());
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->has_meta);
  EXPECT_EQ(metrics_table_to_csv(*table), out.str());
}

TEST(MetricsRoundTrip, JsonExportMatchesCsvRows) {
  const std::vector<MetricsRun> runs = sample_metrics_runs();
  const ExportMeta meta = sample_meta();
  std::ostringstream json;
  write_metrics_json(json, runs, &meta);

  const StatusOr<MetricsTable> table = import_metrics(json.str());
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  EXPECT_TRUE(table->has_meta);
  EXPECT_EQ(table->meta.tool, meta.tool);
  EXPECT_EQ(table->meta.seed, meta.seed);

  const std::vector<MetricsRow> expected = rows_from_runs(runs);
  ASSERT_EQ(table->rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(table->rows[i], expected[i]) << "row " << i;
  }
}

TEST(MetricsRoundTrip, QuotedLabelValuesSurviveCsv) {
  // Regression: a label value containing the `{k=v,...}` grammar's own
  // delimiters used to split the CSV row (and the key) apart. The key
  // serializer now quotes such values, and both the CSV layer and
  // parse_metric_key round-trip them.
  MetricsRegistry reg;
  reg.counter("io.bytes_written",
              {{"path", "a,b"}, {"note", "say \"hi\"={x}"}})
      .add(42);
  const std::vector<MetricsRun> runs = {{"run/p1", reg.snapshot()}};

  std::ostringstream out;
  write_metrics_csv(out, runs);
  const StatusOr<MetricsTable> table = import_metrics(out.str());
  ASSERT_TRUE(table.ok()) << table.status().to_string();
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0].metric,
            metric_key("io.bytes_written",
                       {{"path", "a,b"}, {"note", "say \"hi\"={x}"}}));

  // The imported key parses back to the original label values.
  std::string name;
  Labels labels;
  ASSERT_TRUE(parse_metric_key(table->rows[0].metric, name, labels));
  EXPECT_EQ(name, "io.bytes_written");
  ASSERT_EQ(labels.size(), 2u);
  EXPECT_EQ(labels[0].first, "note");
  EXPECT_EQ(labels[0].second, "say \"hi\"={x}");
  EXPECT_EQ(labels[1].first, "path");
  EXPECT_EQ(labels[1].second, "a,b");

  // And the CSV re-serializes byte-identically.
  EXPECT_EQ(metrics_table_to_csv(*table), out.str());
}

TEST(MetricsRoundTrip, BareJsonArrayStillParses) {
  const std::vector<MetricsRun> runs = sample_metrics_runs();
  std::ostringstream json;
  write_metrics_json(json, runs);  // legacy bare-array form

  const StatusOr<MetricsTable> table = import_metrics(json.str());
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->has_meta);
  EXPECT_EQ(table->rows.size(), rows_from_runs(runs).size());
}

// ---------------------------------------------------------------------------
// Chrome trace round trip.

TraceEvent make_event(const char* name, Category cat, int rank, int depth,
                      double begin_s, double dur_s) {
  TraceEvent e;
  e.name = name;
  e.category = cat;
  e.rank = rank;
  e.depth = depth;
  e.virt_begin_s = begin_s;
  e.virt_dur_s = dur_s;
  e.wall_begin_ns = static_cast<std::int64_t>(begin_s * 2e9);
  e.wall_dur_ns = static_cast<std::int64_t>(dur_s * 2e9);
  return e;
}

std::vector<TraceRun> sample_trace_runs() {
  TraceLog log;
  log.nranks = 2;
  TraceEvent with_arg =
      make_event("io.write_step:vtk", Category::kIo, 1, 1, 0.001, 0.002);
  with_arg.args.push_back({"bytes", 4096.0});
  log.events = {
      make_event("comm.allreduce", Category::kComm, 0, 2, 0.0001, 0.0005),
      make_event("backend.execute:h", Category::kBackend, 0, 1, 0.0001,
                 0.002),
      make_event("bridge.execute", Category::kBridge, 0, 0, 0.0001, 0.0025),
      make_event("miniapp.step", Category::kSim, 0, 0, 0.0026, 0.004),
      with_arg,
      make_event("bridge.execute", Category::kBridge, 1, 0, 0.0005, 0.003),
      // A worker track (async analysis plane).
      make_event("exec.job", Category::kBridge, kWorkerTrackOffset, 0,
                 0.0030, 0.0015),
  };
  return {{"run-a", log}};
}

TEST(TraceRoundTrip, ExportImportPreservesStructure) {
  const std::vector<TraceRun> runs = sample_trace_runs();
  const ExportMeta meta = sample_meta();
  ChromeTraceOptions options;
  options.meta = &meta;
  std::ostringstream out;
  write_chrome_trace(out, runs, options);

  const StatusOr<ImportedTrace> imported = import_chrome_trace(out.str());
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  EXPECT_TRUE(imported->has_meta);
  EXPECT_EQ(imported->meta.tool, meta.tool);
  EXPECT_EQ(imported->meta.config, meta.config);
  EXPECT_EQ(imported->meta.seed, meta.seed);

  ASSERT_EQ(imported->runs.size(), 1u);
  const TraceRun& got = imported->runs[0];
  EXPECT_EQ(got.label, "run-a");
  EXPECT_EQ(got.log.nranks, 2);
  ASSERT_EQ(got.log.events.size(), runs[0].log.events.size());
  for (std::size_t i = 0; i < got.log.events.size(); ++i) {
    const TraceEvent& e = got.log.events[i];
    const TraceEvent& want = runs[0].log.events[i];
    EXPECT_EQ(e.name, want.name) << "event " << i;
    EXPECT_EQ(e.category, want.category) << "event " << i;
    EXPECT_EQ(e.rank, want.rank) << "event " << i;
    EXPECT_EQ(e.depth, want.depth) << "event " << i;
    // Times come from the full-precision args (%.9g), not the rounded
    // ts/dur fields.
    EXPECT_NEAR(e.virt_begin_s, want.virt_begin_s,
                1e-9 * (1.0 + std::abs(want.virt_begin_s)));
    EXPECT_NEAR(e.virt_dur_s, want.virt_dur_s,
                1e-9 * (1.0 + std::abs(want.virt_dur_s)));
  }

  // The bytes annotation survives as an extra arg.
  const TraceEvent& io_event = got.log.events[4];
  ASSERT_EQ(io_event.args.size(), 1u);
  EXPECT_EQ(io_event.args[0].key, "bytes");
  EXPECT_DOUBLE_EQ(io_event.args[0].value, 4096.0);
}

TEST(TraceRoundTrip, AnalysisIdenticalAfterRoundTrip) {
  const std::vector<TraceRun> runs = sample_trace_runs();
  const ExportMeta meta = sample_meta();
  ChromeTraceOptions options;
  options.meta = &meta;
  std::ostringstream out;
  write_chrome_trace(out, runs, options);

  const StatusOr<ImportedTrace> imported = import_chrome_trace(out.str());
  ASSERT_TRUE(imported.ok());
  // The rendered report (6-digit formatting) is insensitive to the %.9g
  // round trip, so it must reproduce byte-identically.
  EXPECT_EQ(render_report(analyze_runs(runs)),
            render_report(analyze_runs(imported->runs)));
}

TEST(TraceRoundTrip, DepthsReconstructedWithoutArgs) {
  // Golden-mode exports (include_args=false) drop the depth args; the
  // importer falls back to begin-time containment over the post-ordered
  // stream, which recovers the exact depths (even with shared begins).
  const std::vector<TraceRun> runs = sample_trace_runs();
  ChromeTraceOptions options;
  options.include_args = false;
  std::ostringstream out;
  write_chrome_trace(out, runs, options);

  const StatusOr<ImportedTrace> imported = import_chrome_trace(out.str());
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  ASSERT_EQ(imported->runs.size(), 1u);
  EXPECT_FALSE(imported->has_meta);
  const auto& events = imported->runs[0].log.events;
  ASSERT_EQ(events.size(), runs[0].log.events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].depth, runs[0].log.events[i].depth)
        << "event " << i << " (" << events[i].name << ")";
  }
}

// ---------------------------------------------------------------------------
// Older exports carry a `threads` field (always 1). No writer emits it any
// more; every importer still accepts it and ignores it.

/// `text` with `insert` spliced in front of the first `before`.
std::string splice(std::string text, const std::string& before,
                   const std::string& insert) {
  const std::size_t at = text.find(before);
  EXPECT_NE(at, std::string::npos) << before;
  if (at != std::string::npos) text.insert(at, insert);
  return text;
}

TEST(ExportMeta, ThreadsFieldOfOlderExportsIsIgnored) {
  const ExportMeta meta = sample_meta();
  const std::vector<MetricsRun> runs = sample_metrics_runs();

  std::ostringstream csv;
  write_metrics_csv(csv, runs, &meta);
  EXPECT_EQ(csv.str().find("threads"), std::string::npos);
  std::ostringstream json;
  write_metrics_json(json, runs, &meta);
  EXPECT_EQ(json.str().find("threads"), std::string::npos);
  for (const std::string& old :
       {splice(csv.str(), "seed=", "threads=4 "),
        splice(json.str(), "\"seed\"", "\"threads\":4,")}) {
    const StatusOr<MetricsTable> table = import_metrics(old);
    ASSERT_TRUE(table.ok()) << table.status().to_string();
    EXPECT_EQ(table->meta.tool, meta.tool);
    EXPECT_EQ(table->meta.config, meta.config);
    EXPECT_EQ(table->meta.seed, meta.seed);
    EXPECT_EQ(table->rows.size(), rows_from_runs(runs).size());
  }

  ChromeTraceOptions options;
  options.meta = &meta;
  std::ostringstream trace;
  write_chrome_trace(trace, sample_trace_runs(), options);
  EXPECT_EQ(trace.str().find("threads"), std::string::npos);
  const StatusOr<ImportedTrace> imported = import_chrome_trace(
      splice(trace.str(), "\"seed\"", "\"threads\":4,"));
  ASSERT_TRUE(imported.ok()) << imported.status().to_string();
  EXPECT_EQ(imported->meta.tool, meta.tool);
  EXPECT_EQ(imported->meta.seed, meta.seed);
  EXPECT_EQ(imported->runs.size(), 1u);

  Baseline base;
  base.tool = meta.tool;
  base.seed = meta.seed;
  const std::string written = write_baseline(base);
  EXPECT_EQ(written.find("threads"), std::string::npos);
  const StatusOr<Baseline> read =
      read_baseline(splice(written, "\"seed\"", "\"threads\": 1,\n  "));
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->tool, base.tool);
  EXPECT_EQ(read->seed, base.seed);
}

}  // namespace
}  // namespace insitu::obs::analyze
