#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "comm/runtime.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/context.hpp"

namespace insitu::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough to guarantee the export
// is loadable by chrome://tracing (objects, arrays, strings, numbers,
// true/false/null; no trailing commas).

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view want) {
    if (text_.substr(pos_, want.size()) != want) return false;
    pos_ += want.size();
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Deterministic virtual clock for span tests: a double advanced by hand.
double read_fake_clock(const void* clock) {
  return *static_cast<const double*>(clock);
}

TEST(TraceScope, NoopWithoutRecorder) {
  ASSERT_EQ(tracer(), nullptr);
  TraceScope span(Category::kBridge, "bridge.execute");
  EXPECT_FALSE(span.active());
  span.arg("bytes", 42.0);  // must not crash
}

TEST(TraceScope, RecordsNestedSpansWithVirtualDurations) {
  TraceRecorder recorder(/*rank=*/3);
  double clock = 10.0;
  pal::RankLocal block;
  block.rank = 3;
  block.trace = &recorder;
  block.virtual_now_fn = &read_fake_clock;
  block.virtual_clock = &clock;
  pal::ScopedRankLocal install(&block);

  {
    TraceScope outer(Category::kBridge, "bridge.execute");
    clock += 1.0;
    {
      TraceScope inner(Category::kBackend, "backend.execute:histogram");
      inner.arg("bytes", 64.0);
      clock += 2.0;
    }
    clock += 0.5;
  }

  const auto& events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  // Scopes close inner-first, so the inner span is recorded first.
  EXPECT_EQ(events[0].name, "backend.execute:histogram");
  EXPECT_EQ(events[0].rank, 3);
  EXPECT_DOUBLE_EQ(events[0].virt_begin_s, 11.0);
  EXPECT_DOUBLE_EQ(events[0].virt_dur_s, 2.0);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].key, "bytes");
  EXPECT_EQ(events[1].name, "bridge.execute");
  EXPECT_DOUBLE_EQ(events[1].virt_begin_s, 10.0);
  EXPECT_DOUBLE_EQ(events[1].virt_dur_s, 3.5);
  // The outer span fully contains the inner one — correct nesting for the
  // Chrome "X" (complete event) representation.
  EXPECT_LE(events[1].virt_begin_s, events[0].virt_begin_s);
  EXPECT_GE(events[1].virt_begin_s + events[1].virt_dur_s,
            events[0].virt_begin_s + events[0].virt_dur_s);
}

TEST(ChromeTrace, GoldenDeterministicExport) {
  TraceLog log;
  log.nranks = 2;
  TraceEvent outer;
  outer.name = "bridge.execute";
  outer.category = Category::kBridge;
  outer.rank = 0;
  outer.virt_begin_s = 1.0;
  outer.virt_dur_s = 0.5;
  TraceEvent inner;
  inner.name = "backend.execute:histogram";
  inner.category = Category::kBackend;
  inner.rank = 1;
  inner.virt_begin_s = 1.25;
  inner.virt_dur_s = 0.125;
  log.events = {outer, inner};

  ChromeTraceOptions options;
  options.timeline = ChromeTraceOptions::Timeline::kVirtual;
  options.include_args = false;
  std::ostringstream out;
  const TraceRun run{"insitu", log};
  write_chrome_trace(out, {&run, 1}, options);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"insitu\"}},\n"
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"rank 0\"}},\n"
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"rank 1\"}},\n"
      "  {\"name\":\"bridge.execute\",\"cat\":\"bridge\",\"ph\":\"X\","
      "\"pid\":1,\"tid\":0,\"ts\":1000000.000,\"dur\":500000.000},\n"
      "  {\"name\":\"backend.execute:histogram\",\"cat\":\"backend\","
      "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1250000.000,"
      "\"dur\":125000.000}\n"
      "]}\n";
  EXPECT_EQ(out.str(), expected);
  EXPECT_TRUE(JsonChecker(out.str()).valid());
}

TEST(ChromeTrace, ArgsAndEscapingProduceValidJson) {
  TraceLog log;
  log.nranks = 1;
  TraceEvent e;
  e.name = "odd \"name\"\twith\nescapes\\";
  e.category = Category::kIo;
  e.virt_begin_s = 0.25;
  e.virt_dur_s = 0.25;
  e.args = {{"bytes", 4096.0}, {"ratio", 0.333333333}};
  log.events = {e};

  std::ostringstream out;
  const TraceRun run{"insitu", log};
  write_chrome_trace(out, {&run, 1});  // defaults include args
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
  EXPECT_NE(out.str().find("\"bytes\":4096"), std::string::npos);
}

TEST(ChromeTrace, RuntimeRunProducesOneTrackPerRank) {
  comm::Runtime::Options options;
  options.observe.trace = true;
  const comm::RunReport report =
      comm::Runtime::run(3, options, [](comm::Communicator& comm) {
        TraceScope span(Category::kSim, "test.body");
        comm.barrier();
      });

  EXPECT_EQ(report.trace.nranks, 3);
  int body_spans = 0;
  int barrier_spans = 0;
  bool ranks_seen[3] = {false, false, false};
  for (const TraceEvent& e : report.trace.events) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, 3);
    ranks_seen[e.rank] = true;
    if (e.name == "test.body") ++body_spans;
    if (e.name == "comm.barrier") ++barrier_spans;
  }
  EXPECT_EQ(body_spans, 3);
  EXPECT_EQ(barrier_spans, 3);
  EXPECT_TRUE(ranks_seen[0] && ranks_seen[1] && ranks_seen[2]);

  // The export carries one thread_name track per rank.
  std::ostringstream out;
  const TraceRun run{"insitu", report.trace};
  write_chrome_trace(out, {&run, 1});
  EXPECT_TRUE(JsonChecker(out.str()).valid());
  for (int r = 0; r < 3; ++r) {
    EXPECT_NE(out.str().find("\"name\":\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  }
}

TEST(ChromeTrace, TracingOffMeansNoEvents) {
  comm::Runtime::Options options;
  options.observe.trace = false;
  const comm::RunReport report =
      comm::Runtime::run(2, options, [](comm::Communicator& comm) {
        TraceScope span(Category::kSim, "test.body");
        comm.barrier();
      });
  EXPECT_TRUE(report.trace.events.empty());
}

}  // namespace
}  // namespace insitu::obs
