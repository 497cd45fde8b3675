#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics_io.hpp"

namespace insitu::obs {
namespace {

TEST(MetricKey, SerializesNameAndLabels) {
  EXPECT_EQ(metric_key("comm.bytes_sent", {}), "comm.bytes_sent");
  EXPECT_EQ(metric_key("backend.execute.seconds",
                       {{"backend", "catalyst"}, {"phase", "render"}}),
            "backend.execute.seconds{backend=catalyst,phase=render}");
}

TEST(MetricKey, LabelOrderIsCanonical) {
  // Labels serialize sorted by key, so insertion order never creates a
  // distinct series.
  EXPECT_EQ(metric_key("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(metric_key("m", {{"a", "1"}, {"b", "2"}}),
            metric_key("m", {{"b", "2"}, {"a", "1"}}));

  MetricsRegistry reg;
  Counter& a = reg.counter("m", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricKeyWithLabel, InsertsIntoBareAndLabeledKeys) {
  EXPECT_EQ(metric_key_with_label("pool.hits", "tenant", "t0"),
            "pool.hits{tenant=t0}");
  EXPECT_EQ(metric_key_with_label("x{b=1}", "a", "0"), "x{a=0,b=1}");
  EXPECT_EQ(metric_key_with_label("x{a=1}", "b", "2"), "x{a=1,b=2}");
  // Insertion keeps the canonical sorted form even mid-set.
  EXPECT_EQ(metric_key_with_label("x{a=1,c=3}", "b", "2"), "x{a=1,b=2,c=3}");
}

TEST(MetricKeyWithLabel, ExistingLabelWins) {
  // A series that already names its tenant keeps it — re-stamping must
  // not clobber or duplicate.
  EXPECT_EQ(metric_key_with_label("x{tenant=t0}", "tenant", "t9"),
            "x{tenant=t0}");
  EXPECT_EQ(metric_key_with_label("x{a=1,tenant=t0}", "tenant", "t9"),
            "x{a=1,tenant=t0}");
}

TEST(MetricKey, QuotesValuesThatUseGrammarDelimiters) {
  EXPECT_EQ(metric_key("m", {{"k", "a,b"}}), "m{k=\"a,b\"}");
  EXPECT_EQ(metric_key("m", {{"k", "x=y"}}), "m{k=\"x=y\"}");
  EXPECT_EQ(metric_key("m", {{"k", "he said \"hi\""}}),
            "m{k=\"he said \\\"hi\\\"\"}");
  EXPECT_EQ(metric_key("m", {{"k", "back\\slash"}}),
            "m{k=\"back\\\\slash\"}");
  // Plain values stay unquoted so existing keys are unchanged.
  EXPECT_EQ(metric_key("m", {{"k", "plain-value_1"}}), "m{k=plain-value_1}");
}

TEST(ParseMetricKey, RoundTripsQuotedAndPlainValues) {
  const Labels original = {{"note", "say \"hi\"={x}"},
                           {"path", "a,b"},
                           {"plain", "v"}};
  const std::string key = metric_key("io.bytes", original);
  std::string name;
  Labels labels;
  ASSERT_TRUE(parse_metric_key(key, name, labels));
  EXPECT_EQ(name, "io.bytes");
  EXPECT_EQ(labels, original);
  // Re-serializing the parse is a fixed point.
  EXPECT_EQ(metric_key(name, labels), key);
}

TEST(ParseMetricKey, RejectsMalformedSuffixes) {
  std::string name;
  Labels labels;
  EXPECT_TRUE(parse_metric_key("bare.name", name, labels));
  EXPECT_TRUE(labels.empty());
  EXPECT_FALSE(parse_metric_key("m{unterminated", name, labels));
  EXPECT_FALSE(parse_metric_key("m{novalue}", name, labels));
  EXPECT_FALSE(parse_metric_key("m{k=\"open}", name, labels));
}

TEST(MetricKeyWithLabel, PreservesQuotedValuesInOtherLabels) {
  // Stamping a tenant onto a key whose existing label needed quoting
  // must not corrupt that label.
  const std::string key = metric_key("io.bytes", {{"path", "a,b"}});
  EXPECT_EQ(metric_key_with_label(key, "tenant", "t0"),
            metric_key("io.bytes", {{"path", "a,b"}, {"tenant", "t0"}}));
}

TEST(MetricKeyWithLabel, MatchesMetricKeySerialization) {
  EXPECT_EQ(metric_key_with_label("bridge.execute.seconds", "tenant", "t1"),
            metric_key("bridge.execute.seconds", {{"tenant", "t1"}}));
  EXPECT_EQ(
      metric_key_with_label(
          metric_key("backend.execute.seconds", {{"backend", "histogram"}}),
          "tenant", "t1"),
      metric_key("backend.execute.seconds",
                 {{"backend", "histogram"}, {"tenant", "t1"}}));
}

TEST(MetricsRegistry, SameKeyReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x", {{"k", "v"}});
  Counter& b = reg.counter("x", {{"k", "v"}});
  Counter& c = reg.counter("x", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
}

TEST(MetricsRegistry, ConcurrentCountersOnSharedRegistryAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      Counter& counter = reg.counter("work.items");
      Histogram& hist = reg.histogram("work.seconds");
      for (int i = 0; i < kIters; ++i) {
        counter.add(1);
        hist.record(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // snapshot() sorts by key: "work.items" < "work.seconds".
  EXPECT_EQ(snap[0].key, "work.items");
  EXPECT_DOUBLE_EQ(snap[0].value, kThreads * kIters);
  EXPECT_EQ(snap[1].key, "work.seconds");
  EXPECT_EQ(snap[1].count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(snap[1].sum, kThreads * kIters * 0.5);
  EXPECT_DOUBLE_EQ(snap[1].min, 0.5);
  EXPECT_DOUBLE_EQ(snap[1].max, 0.5);
}

TEST(MetricsRegistry, PerRankRegistriesMergeLikeTheRuntime) {
  // The SPMD Runtime's arrangement: each rank thread owns a private
  // registry installed via its RankLocal block; snapshots merge after join.
  constexpr int kRanks = 6;
  constexpr int kSteps = 100;
  std::vector<MetricsSnapshot> per_rank(kRanks);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([r, &per_rank] {
      MetricsRegistry reg;
      pal::RankLocal block;
      block.rank = r;
      block.metrics = &reg;
      pal::ScopedRankLocal install(&block);
      for (int s = 0; s < kSteps; ++s) {
        metrics().counter("comm.bytes_sent", {{"op", "p2p"}}).add(64);
        metrics().histogram("bridge.execute.seconds").record(0.001 * (r + 1));
      }
      per_rank[static_cast<std::size_t>(r)] = reg.snapshot();
    });
  }
  for (std::thread& t : threads) t.join();

  MetricsSnapshot merged;
  for (const MetricsSnapshot& snap : per_rank) merge_into(merged, snap);

  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "bridge.execute.seconds");
  EXPECT_EQ(merged[0].count, static_cast<std::uint64_t>(kRanks) * kSteps);
  EXPECT_NEAR(merged[0].min, 0.001, 1e-12);
  EXPECT_NEAR(merged[0].max, 0.001 * kRanks, 1e-12);
  EXPECT_EQ(merged[1].key, "comm.bytes_sent{op=p2p}");
  EXPECT_DOUBLE_EQ(merged[1].value, 64.0 * kRanks * kSteps);
}

TEST(Gauge, MergeKeepsMax) {
  MetricsRegistry a, b;
  a.gauge("queue.depth").set(3.0);
  b.gauge("queue.depth").set(7.0);
  MetricsSnapshot merged = a.snapshot();
  merge_into(merged, b.snapshot());
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].value, 7.0);
}

TEST(Histogram, EmptyStatsAreZero) {
  MetricsRegistry reg;
  (void)reg.histogram("h");
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 0u);
  EXPECT_DOUBLE_EQ(snap[0].min, 0.0);
  EXPECT_DOUBLE_EQ(snap[0].max, 0.0);
  EXPECT_DOUBLE_EQ(snap[0].mean(), 0.0);
}

TEST(Histogram, SingleValueQuantilesClampToThatValue) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  for (int i = 0; i < 100; ++i) h.record(0.125);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap[0], 0.5), 0.125);
  EXPECT_DOUBLE_EQ(histogram_quantile(snap[0], 0.99), 0.125);
}

TEST(Histogram, QuantilesLandInTheRightBucket) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_DOUBLE_EQ(snap[0].min, 1.0);
  EXPECT_DOUBLE_EQ(snap[0].max, 1000.0);
  EXPECT_NEAR(snap[0].mean(), 500.5, 1e-9);
  // Buckets are powers of two, so estimates are exact only at bucket
  // boundaries; the median of 1..1000 (500.5) lies in (256, 512].
  const double p50 = histogram_quantile(snap[0], 0.5);
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  const double p99 = histogram_quantile(snap[0], 0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  // Quantiles are monotone and bounded by the exact extremes.
  EXPECT_LE(histogram_quantile(snap[0], 0.0), p50);
  EXPECT_LE(p99, histogram_quantile(snap[0], 1.0));
  EXPECT_DOUBLE_EQ(histogram_quantile(snap[0], 1.0), 1000.0);
}

TEST(Histogram, ZeroAndNegativeSamplesAreTracked) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h");
  h.record(0.0);
  h.record(-2.5);
  h.record(1.0);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 3u);
  EXPECT_DOUBLE_EQ(snap[0].min, -2.5);
  EXPECT_DOUBLE_EQ(snap[0].max, 1.0);
  // Quantiles stay clamped inside the exact [min, max] envelope.
  EXPECT_GE(histogram_quantile(snap[0], 0.1), -2.5);
  EXPECT_LE(histogram_quantile(snap[0], 0.9), 1.0);
}

TEST(MergeInto, DisjointKeysConcatenateSorted) {
  MetricsRegistry a, b;
  a.counter("z.last").add(1);
  b.counter("a.first").add(2);
  MetricsSnapshot merged = a.snapshot();
  merge_into(merged, b.snapshot());
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].key, "a.first");
  EXPECT_EQ(merged[1].key, "z.last");
}

// Bucket-wise merge must equal one histogram fed every value: the hub's
// per-rank and per-tenant series rely on it.
void expect_same_histogram(const MetricSample& got, const MetricSample& want) {
  EXPECT_EQ(got.kind, MetricKind::kHistogram);
  EXPECT_EQ(got.buckets, want.buckets);
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_EQ(histogram_quantile(got, 0.5), histogram_quantile(want, 0.5));
  EXPECT_EQ(histogram_quantile(got, 0.99), histogram_quantile(want, 0.99));
}

TEST(MergeInto, HistogramEqualsOneRegistry) {
  MetricsRegistry a, b, all, empty;
  for (int i = 0; i < 50; ++i) {
    const double v = 1e-4 * (i + 1);
    a.histogram("h").record(v);
    all.histogram("h").record(v);
  }
  for (int i = 0; i < 50; ++i) {
    const double v = 1e-2 * (i + 1);
    b.histogram("h").record(v);
    all.histogram("h").record(v);
  }
  (void)empty.histogram("h");  // present with count 0

  MetricsSnapshot merged = a.snapshot();
  merge_into(merged, b.snapshot());
  ASSERT_EQ(merged.size(), 1u);
  expect_same_histogram(merged[0], all.snapshot()[0]);

  // Empty into non-empty keeps dst's min/max.
  MetricsSnapshot into_full = a.snapshot();
  merge_into(into_full, empty.snapshot());
  ASSERT_EQ(into_full.size(), 1u);
  expect_same_histogram(into_full[0], a.snapshot()[0]);

  // Non-empty into empty takes src's min/max, not the empty 0.0s.
  MetricsSnapshot into_empty = empty.snapshot();
  merge_into(into_empty, a.snapshot());
  ASSERT_EQ(into_empty.size(), 1u);
  expect_same_histogram(into_empty[0], a.snapshot()[0]);
}

TEST(MetricsCsv, QuotesKeysContainingCommas) {
  MetricsRegistry reg;
  reg.counter("io.bytes_written", {{"writer", "file"}, {"tier", "burst"}})
      .add(4096);
  std::ostringstream out;
  write_metrics_csv(out, reg.snapshot());
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "run,metric,kind,value,count,sum,mean,min,max,p50,p90,p99");
  // The label set contains a comma, so the field must be quoted (labels
  // serialize in canonical sorted order).
  EXPECT_NE(
      text.find("\"io.bytes_written{tier=burst,writer=file}\""),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("counter,4096"), std::string::npos) << text;
}

TEST(FallbackMetrics, UsedWhenNoContextInstalled) {
  const double before =
      fallback_metrics().counter("test.fallback.hits").value();
  metrics().counter("test.fallback.hits").add(1);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(fallback_metrics().counter("test.fallback.hits").value()),
      before + 1);
}

}  // namespace
}  // namespace insitu::obs
