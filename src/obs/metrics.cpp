#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace insitu::obs {

namespace {

/// Bucket index for a sample value; 0 absorbs non-positive values.
int bucket_index(double value) {
  if (!(value > 0.0)) return 0;
  const int exp = static_cast<int>(std::ceil(std::log2(value)));
  return std::clamp(exp - kHistogramMinExp, 0, kHistogramBuckets - 1);
}

/// Upper bound of bucket i (lower bound is the previous bucket's upper).
double bucket_upper(int i) { return std::ldexp(1.0, i + kHistogramMinExp); }

void atomic_update_min(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value < cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void atomic_update_max(std::atomic<double>& slot, double value) {
  double cur = slot.load(std::memory_order_relaxed);
  while (value > cur &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace {

/// A label value needs quoting whenever it contains a character the
/// `{k=v,...}` grammar assigns meaning to (or quote/escape chars).
bool value_needs_quoting(std::string_view value) {
  return value.find_first_of(",={}\"\\") != std::string_view::npos;
}

void append_label_value(std::string& key, std::string_view value) {
  if (!value_needs_quoting(value)) {
    key += value;
    return;
  }
  key += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') key += '\\';
    key += c;
  }
  key += '"';
}

}  // namespace

std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  // Canonical (sorted) label order: the same label set always serializes
  // to the same key, so series identities in baselines and reports are
  // stable no matter the insertion order at the call site.
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    append_label_value(key, sorted[i].second);
  }
  key += '}';
  return key;
}

bool parse_metric_key(std::string_view key, std::string& name,
                      Labels& labels) {
  labels.clear();
  const std::size_t brace = key.find('{');
  name.assign(key.substr(0, brace == std::string_view::npos ? key.size()
                                                            : brace));
  if (brace == std::string_view::npos) return true;
  std::string_view body = key.substr(brace + 1);
  if (body.empty() || body.back() != '}') return false;
  body.remove_suffix(1);
  while (!body.empty()) {
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) return false;
    std::string k(body.substr(0, eq));
    body.remove_prefix(eq + 1);
    std::string v;
    if (!body.empty() && body.front() == '"') {
      // Quoted value: scan to the closing quote honoring backslash
      // escapes, then expect a comma or end-of-body.
      body.remove_prefix(1);
      bool closed = false;
      while (!body.empty()) {
        const char c = body.front();
        body.remove_prefix(1);
        if (c == '\\') {
          if (body.empty()) return false;
          v += body.front();
          body.remove_prefix(1);
        } else if (c == '"') {
          closed = true;
          break;
        } else {
          v += c;
        }
      }
      if (!closed) return false;
      if (!body.empty()) {
        if (body.front() != ',') return false;
        body.remove_prefix(1);
      }
    } else {
      const std::size_t comma = std::min(body.find(','), body.size());
      v.assign(body.substr(0, comma));
      body.remove_prefix(comma == body.size() ? comma : comma + 1);
    }
    labels.emplace_back(std::move(k), std::move(v));
  }
  return true;
}

std::string metric_key_with_label(std::string_view key, std::string_view label,
                                  std::string_view value) {
  const std::size_t brace = key.find('{');
  if (brace == std::string_view::npos) {
    return metric_key(key, {{std::string(label), std::string(value)}});
  }
  // Parse the existing canonical "{k=v,...}" suffix back into labels,
  // add ours (existing wins on collision), and re-serialize so the
  // result is canonical again.
  std::string name;
  Labels labels;
  if (!parse_metric_key(key, name, labels)) {
    // Malformed suffix: leave the key untouched rather than guess.
    return std::string(key);
  }
  for (const auto& [k, v] : labels) {
    if (k == label) return std::string(key);  // caller's label loses
  }
  labels.emplace_back(std::string(label), std::string(value));
  return metric_key(name, labels);
}

void Histogram::record(double value) {
  // First sample initializes min/max; "count 0 -> 1" transition is the
  // publication point, so racing first samples both run the CAS loops.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    double expected = 0.0;
    if (!min_.compare_exchange_strong(expected, value,
                                      std::memory_order_relaxed)) {
      atomic_update_min(min_, value);
    }
  } else {
    atomic_update_min(min_, value);
  }
  atomic_update_max(max_, value);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return max_.load(std::memory_order_relaxed);
}

std::array<std::uint64_t, kHistogramBuckets> Histogram::bucket_counts() const {
  std::array<std::uint64_t, kHistogramBuckets> out{};
  for (int i = 0; i < kHistogramBuckets; ++i) {
    out[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

double histogram_quantile(const MetricSample& sample, double q) {
  if (sample.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(sample.count);
  std::uint64_t seen = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const std::uint64_t in_bucket = sample.buckets[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation between the bucket bounds.
      const double hi = bucket_upper(i);
      const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double est = lo + (hi - lo) * frac;
      return std::clamp(est, sample.min, sample.max);
    }
    seen += in_bucket;
  }
  return sample.max;
}

void merge_into(MetricsSnapshot& dst, const MetricsSnapshot& src) {
  for (const MetricSample& s : src) {
    auto it = std::lower_bound(
        dst.begin(), dst.end(), s,
        [](const MetricSample& a, const MetricSample& b) {
          return a.key < b.key;
        });
    if (it == dst.end() || it->key != s.key) {
      dst.insert(it, s);
      continue;
    }
    MetricSample& d = *it;
    switch (d.kind) {
      case MetricKind::kCounter:
        d.value += s.value;
        break;
      case MetricKind::kGauge:
        d.value = std::max(d.value, s.value);
        break;
      case MetricKind::kHistogram: {
        const bool d_empty = d.count == 0;
        const bool s_empty = s.count == 0;
        d.count += s.count;
        d.sum += s.sum;
        if (d_empty) {
          d.min = s.min;
          d.max = s.max;
        } else if (!s_empty) {
          d.min = std::min(d.min, s.min);
          d.max = std::max(d.max, s.max);
        }
        for (int i = 0; i < kHistogramBuckets; ++i) {
          d.buckets[static_cast<std::size_t>(i)] +=
              s.buckets[static_cast<std::size_t>(i)];
        }
        break;
      }
    }
  }
}

template <typename T>
T& MetricsRegistry::intern(std::map<std::string, std::unique_ptr<T>>& into,
                           std::string_view name, const Labels& labels) {
  std::string key = metric_key(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = into.find(key);
  if (it == into.end()) {
    it = into.emplace(std::move(key), std::make_unique<T>()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, const Labels& labels) {
  return intern(counters_, name, labels);
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return intern(gauges_, name, labels);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const Labels& labels) {
  return intern(histograms_, name, labels);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, c] : counters_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<double>(c->value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricKind::kGauge;
    s.value = g->value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    MetricSample s;
    s.key = key;
    s.kind = MetricKind::kHistogram;
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    s.buckets = h->bucket_counts();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.key < b.key;
            });
  return out;
}

}  // namespace insitu::obs
