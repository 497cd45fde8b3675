#pragma once

// Outside-in measurement for the wall-clock benchmark.
//
// Nothing here reaches into the libraries: every number comes from a
// timestamp taken around a public call (a span), from the counters the
// libraries already publish (RunReport.metrics, kernels::stats_snapshot,
// the buffer pools), or from the process itself (getrusage, VmHWM).
//
// Spans live in memory, one single-writer SpanLog per rank (fibers
// migrate between carriers under sched=mn, so the log travels by pointer,
// never through thread-local storage). A traced instance folds its logs
// into per-layer samples when it ends; the rank-0 spans are also written
// out as JSON for inspection.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/analysis_adaptor.hpp"
#include "core/data_adaptor.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Seconds on the steady clock since process start.
double wall_now();
/// Process user + system CPU seconds (all threads).
double process_cpu_s();
/// Process peak resident set (VmHWM), MiB; 0 if unavailable.
double peak_rss_mb();

// ---- spans ----

enum SpanName : std::uint8_t {
  kRankBody,
  kStep,
  kProxyInit,
  kProxyStep,
  kMiniappInit,
  kMiniappStep,
  kAdaptor,
  kCoreInitialize,
  kCoreExecute,
  kCoreFinalize,
  kHistogram,
  kAutocorrelation,
  kAutocorrelationFinalize,
  kCatalystSlice,
  kFlexpathWrite,
  kFlexpathEndpoint,
  kNumSpanNames,
};

const char* span_name(SpanName name);

struct Span {
  double t0 = 0.0;
  double t1 = 0.0;
  std::int32_t parent = -1;  ///< index in the same log; -1 = rank body root
  SpanName name = kRankBody;
};

/// One rank's spans in open order (a pre-order walk of its span tree).
/// Single writer; a null log turns every scope into a no-op, which is how
/// untraced instances run the same code.
class SpanLog {
 public:
  int open(SpanName name);
  void close(int index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
 public:
  Scope(SpanLog* log, SpanName name)
      : log_(log), index_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-layer samples accumulated over every traced instance of a run.
/// A span's time counts toward the step that encloses it; spans outside
/// any step (init, finalize) count once per rank. `self` is the span's
/// duration minus the time its children cover.
class SpanStats {
 public:
  /// Fold one instance's logs. `root_rank` is the rank that owns rooted
  /// results (the final composite); its slice time is also kept apart.
  void add(const std::vector<SpanLog>& logs, int root_rank);

  /// Median over (rank, step) groups of the per-group total; 0 if unseen.
  double median_total(SpanName name) const;
  double median_self(SpanName name) const;
  double median_root_total(SpanName name) const;

 private:
  std::vector<float> total_[kNumSpanNames];
  std::vector<float> self_[kNumSpanNames];
  std::vector<float> root_total_[kNumSpanNames];
};

/// Write the rank-0 spans of one traced instance plus the run id as JSON.
void write_spans_json(const std::string& path, const std::string& workload,
                      int run_id, const SpanLog& rank0);

// ---- taps ----

/// Wraps an analysis so each call is a span, with optional hooks around
/// execute (used to timestamp deliveries and endpoint waits).
class AnalysisTap final : public insitu::core::AnalysisAdaptor {
 public:
  using Hook = std::function<void(long step)>;

  AnalysisTap(insitu::core::AnalysisAdaptorPtr inner, SpanLog* log,
              SpanName execute_name, SpanName finalize_name = kNumSpanNames)
      : inner_(std::move(inner)),
        log_(log),
        execute_name_(execute_name),
        finalize_name_(finalize_name) {}

  std::string name() const override { return inner_->name(); }
  insitu::Status initialize(insitu::comm::Communicator& comm) override {
    return inner_->initialize(comm);
  }
  insitu::StatusOr<bool> execute(insitu::core::DataAdaptor& data) override;
  insitu::Status finalize(insitu::comm::Communicator& comm) override;

  Hook before;  ///< called on execute entry, before the span opens
  Hook after;   ///< called after the span closes

 private:
  insitu::core::AnalysisAdaptorPtr inner_;
  SpanLog* log_;
  SpanName execute_name_;
  SpanName finalize_name_;
};

/// DataAdaptor decorator that times mesh() and add_array().
class TimedAdaptor final : public insitu::core::DataAdaptor {
 public:
  TimedAdaptor(insitu::core::DataAdaptor& inner, SpanLog* log)
      : inner_(&inner), log_(log) {}

  insitu::StatusOr<insitu::data::MultiBlockPtr> mesh(
      bool structure_only) override;
  insitu::Status add_array(insitu::data::MultiBlockDataSet& mesh,
                           insitu::data::Association association,
                           const std::string& name) override;
  std::vector<std::string> available_arrays(
      insitu::data::Association association) const override {
    return inner_->available_arrays(association);
  }
  insitu::Status release_data() override { return inner_->release_data(); }

 private:
  void sync();

  insitu::core::DataAdaptor* inner_;
  SpanLog* log_;
};

// ---- statistics and digests ----

double median(std::vector<double> values);
/// Linearly interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);

/// FNV-1a over raw bytes, chainable.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL);

/// Sum of every series whose bare name is `name` (all label sets); for a
/// histogram series, the sum of its samples.
double sum_metric(const insitu::obs::MetricsSnapshot& snapshot,
                  const std::string& name);
/// Sample-count-weighted mean of every histogram series named `name`.
double mean_metric(const insitu::obs::MetricsSnapshot& snapshot,
                   const std::string& name);

}  // namespace perfbench
