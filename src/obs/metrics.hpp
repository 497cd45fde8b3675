#pragma once

// Metrics registry: named counters, gauges, and histograms with labels.
//
// Contract (docs/OBSERVABILITY.md): metric names are dotted lowercase
// paths, `<module>.<what>[.<unit>]`, e.g. `bridge.execute.seconds` or
// `comm.bytes_sent`. Labels qualify a series without changing its name:
// `backend.execute.seconds{backend=catalyst-slice}`. The serialized
// `name{k=v,...}` form — produced by metric_key() — is the identity of a
// series everywhere (registry keys, snapshots, CSV/JSON dumps).
//
// Concurrency model: instrument objects (Counter / Gauge / Histogram) are
// lock-free — every update is a relaxed atomic, so rank threads may share
// one registry or (the SPMD Runtime's arrangement) each own a private
// registry that is merged after join. Creating or looking up a series
// takes a mutex; hot paths should fetch the instrument reference once and
// reuse it (references are stable for the registry's lifetime).

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace insitu::obs {

/// Label set for one series. Serialization sorts by label key, so the
/// order here never affects a series' identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Serialized series identity: `name` or `name{k=v,k2=v2}` with labels in
/// canonical (sorted) order regardless of insertion order. Label values
/// containing metachars (`,` `=` `{` `}` `"` `\`) are double-quoted with
/// backslash escapes — `name{k="a,b"}` — so keys always re-parse.
std::string metric_key(std::string_view name, const Labels& labels);

/// Inverse of metric_key(): split `name{k=v,...}` into the bare name and
/// its label pairs (quoted values are unescaped). Plain keys yield empty
/// labels. Returns false on malformed label syntax (the name is still
/// filled with the text before `{`).
bool parse_metric_key(std::string_view key, std::string& name,
                      Labels& labels);

/// Insert one label into an already-serialized key, keeping the result
/// canonical (`pool.hits` -> `pool.hits{tenant=t0}`, `x{b=1}` ->
/// `x{a=0,b=1}`). If the key already carries `label`, the existing value
/// wins and the key is returned unchanged. The multi-tenant service uses
/// this to stamp `tenant=` onto every series a session produced.
std::string metric_key_with_label(std::string_view key, std::string_view label,
                                  std::string_view value);

/// Monotonically increasing integer (bytes moved, messages sent, ...).
class Counter {
 public:
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written double (queue depth, current bytes, ...). merge keeps max.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histograms bucket |value| into powers of two: bucket i covers
/// (2^(i-1+kMinExp), 2^(i+kMinExp)] with kMinExp = -34, so seconds from
/// ~58 ps to ~2^29 s and byte counts up to half a GiB land in distinct
/// buckets; bucket 0 additionally absorbs zero and negative samples.
inline constexpr int kHistogramBuckets = 64;
inline constexpr int kHistogramMinExp = -34;

/// Lock-free streaming histogram with exact count/sum/min/max.
class Histogram {
 public:
  void record(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0.0 when empty (same convention as pal::PhaseTimer).
  double min() const;
  double max() const;
  double mean() const;
  std::array<std::uint64_t, kHistogramBuckets> bucket_counts() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

/// Plain-value copy of one series, the unit of merge/export. `key` is the
/// metric_key() serialization.
struct MetricSample {
  std::string key;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;      // counter total or gauge value
  std::uint64_t count = 0; // histogram samples
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Snapshot of a whole registry, sorted by key.
using MetricsSnapshot = std::vector<MetricSample>;

/// Estimated value at quantile q in [0, 1] from the bucket counts
/// (linear interpolation inside the hit bucket, clamped to [min, max]).
/// The one quantile estimator: live frames, health rules, flight dumps
/// and the metrics exports all report through it.
double histogram_quantile(const MetricSample& sample, double q);

/// Merge `src` into `dst` by key: counters and histogram stats add,
/// gauges keep the max, min/max widen. Kind mismatches keep dst's kind.
void merge_into(MetricsSnapshot& dst, const MetricsSnapshot& src);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels = {});

  MetricsSnapshot snapshot() const;

 private:
  template <typename T>
  T& intern(std::map<std::string, std::unique_ptr<T>>& into,
            std::string_view name, const Labels& labels);

  mutable std::mutex mutex_;  // guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace insitu::obs
