#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

namespace {

const auto kEpoch = std::chrono::steady_clock::now();

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::string bare_name(const std::string& key) {
  return key.substr(0, key.find('{'));
}

}  // namespace

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return tv_seconds(usage.ru_utime) + tv_seconds(usage.ru_stime);
}

double peak_rss_mb() {
  // VmHWM rather than getrusage's ru_maxrss: the latter keeps the
  // high-water mark of the image this process was exec'd from, so a
  // small workload would report its launcher's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kNumSpanNames> kNames = {
      "rank",           "step",
      "proxy.init",     "proxy.step",
      "miniapp.init",   "miniapp.step",
      "adaptor",        "core.initialize",
      "core.execute",   "core.finalize",
      "analysis.histogram", "analysis.autocorrelation",
      "analysis.autocorrelation_finalize", "backends.catalyst_slice",
      "backends.flexpath_write", "backends.flexpath_endpoint",
  };
  return name < kNumSpanNames ? kNames[name] : "?";
}

int SpanLog::open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.t0 = wall_now();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].t1 = wall_now();
  stack_.pop_back();
}

void SpanStats::add(const std::vector<SpanLog>& logs, int root_rank) {
  struct Acc {
    std::array<double, kNumSpanNames> total{};
    std::array<double, kNumSpanNames> self{};
    std::array<bool, kNumSpanNames> seen{};
  };
  const auto flush = [&](Acc& acc, bool root) {
    for (int n = 0; n < kNumSpanNames; ++n) {
      if (!acc.seen[n]) continue;
      total_[n].push_back(static_cast<float>(acc.total[n]));
      self_[n].push_back(static_cast<float>(acc.self[n]));
      if (root) root_total_[n].push_back(static_cast<float>(acc.total[n]));
    }
    acc = Acc{};
  };
  std::vector<int> group;
  std::vector<double> child;
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const std::vector<Span>& spans = logs[r].spans();
    const bool root = static_cast<int>(r) == root_rank;
    group.assign(spans.size(), -1);
    child.assign(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.name == kStep) {
        group[i] = static_cast<int>(i);
      } else if (s.parent >= 0) {
        group[i] = group[static_cast<std::size_t>(s.parent)];
      }
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
      }
    }
    // Descendants of a step are contiguous in open order, so a change of
    // group closes the previous step.
    Acc rank_acc;
    Acc step_acc;
    int current = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int g = group[i];
      Acc* acc = &rank_acc;
      if (g >= 0) {
        if (g != current) {
          flush(step_acc, root);
          current = g;
        }
        acc = &step_acc;
      }
      acc->total[s.name] += s.t1 - s.t0;
      acc->self[s.name] += s.t1 - s.t0 - child[i];
      acc->seen[s.name] = true;
    }
    flush(step_acc, root);
    flush(rank_acc, root);
  }
}

double SpanStats::median_total(SpanName name) const {
  return median({total_[name].begin(), total_[name].end()});
}
double SpanStats::median_self(SpanName name) const {
  return median({self_[name].begin(), self_[name].end()});
}
double SpanStats::median_root_total(SpanName name) const {
  return median({root_total_[name].begin(), root_total_[name].end()});
}

void write_spans_json(const std::string& path, const std::string& workload,
                      int run_id, const SpanLog& rank0) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"workload\": \"" << workload << "\", \"run\": " << run_id
      << ", \"rank\": 0, \"spans\": [\n";
  const std::vector<Span>& spans = rank0.spans();
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"t0\": %.9f, \"t1\": %.9f}%s\n",
                  i, s.parent, span_name(s.name), s.t0, s.t1,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

insitu::StatusOr<bool> AnalysisTap::execute(insitu::core::DataAdaptor& data) {
  const long step = data.time_step();
  if (before) before(step);
  insitu::StatusOr<bool> result = [&] {
    Scope span(log_, execute_name_);
    return inner_->execute(data);
  }();
  if (after) after(step);
  return result;
}

insitu::Status AnalysisTap::finalize(insitu::comm::Communicator& comm) {
  if (finalize_name_ == kNumSpanNames) return inner_->finalize(comm);
  Scope span(log_, finalize_name_);
  return inner_->finalize(comm);
}

void TimedAdaptor::sync() {
  inner_->set_communicator(communicator());
  inner_->set_time(time(), time_step());
}

insitu::StatusOr<insitu::data::MultiBlockPtr> TimedAdaptor::mesh(
    bool structure_only) {
  Scope span(log_, kAdaptor);
  sync();
  return inner_->mesh(structure_only);
}

insitu::Status TimedAdaptor::add_array(insitu::data::MultiBlockDataSet& mesh,
                                       insitu::data::Association association,
                                       const std::string& name) {
  Scope span(log_, kAdaptor);
  sync();
  return inner_->add_array(mesh, association, name);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

double sum_metric(const insitu::obs::MetricsSnapshot& snapshot,
                  const std::string& name) {
  double total = 0.0;
  for (const insitu::obs::MetricSample& sample : snapshot) {
    if (bare_name(sample.key) != name) continue;
    total += sample.kind == insitu::obs::MetricKind::kHistogram ? sample.sum
                                                                 : sample.value;
  }
  return total;
}

double mean_metric(const insitu::obs::MetricsSnapshot& snapshot,
                   const std::string& name) {
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const insitu::obs::MetricSample& sample : snapshot) {
    if (sample.kind != insitu::obs::MetricKind::kHistogram ||
        bare_name(sample.key) != name) {
      continue;
    }
    sum += sample.sum;
    count += sample.count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace perfbench
