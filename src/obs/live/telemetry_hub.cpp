#include "obs/live/telemetry_hub.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <ctime>
#include <sstream>

#include "obs/chrome_trace.hpp"

namespace insitu::obs::live {

namespace {

/// Process-wide hub for the best-effort fatal-signal dump path.
std::atomic<TelemetryHub*> g_signal_hub{nullptr};

extern "C" void telemetry_signal_handler(int sig) {
  // Best-effort crash path: dump_flight allocates and locks, neither of
  // which is async-signal-safe. On a genuinely corrupted heap this can
  // hang or re-fault; the re-raise below still terminates the process
  // with the original signal either way (docs/OBSERVABILITY.md).
  TelemetryHub* hub = g_signal_hub.exchange(nullptr);
  if (hub != nullptr) {
    (void)hub->dump_flight("signal");
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void atomic_add_double(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// CPU seconds consumed by the calling thread. Overhead self-accounting
/// uses CPU time, not wall time: a ticker thread preempted mid-tick by a
/// saturated carrier pool has done no extra telemetry work, and the
/// <= 2% budget gate should not charge it for the descheduling.
double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

Status parse_telemetry_config(const pal::Config& config,
                              TelemetryOptions& options) {
  options.interval_ms = static_cast<int>(
      config.get_int_or("health.interval_ms", options.interval_ms));
  if (options.interval_ms < 0) {
    return Status::InvalidArgument("health.interval_ms must be >= 0");
  }
  options.stream_path =
      config.get_string_or("health.stream", options.stream_path);
  options.dump_path = config.get_string_or("health.dump", options.dump_path);
  const std::int64_t flight_events = config.get_int_or(
      "health.flight_events",
      static_cast<std::int64_t>(options.flight_events));
  if (flight_events <= 0) {
    return Status::InvalidArgument("health.flight_events must be > 0");
  }
  options.flight_events = static_cast<std::size_t>(flight_events);
  return parse_health_rules(config, options.rules);
}

TelemetryHub::TelemetryHub(TelemetryOptions options)
    : options_(std::move(options)) {}

TelemetryHub::~TelemetryHub() { stop(); }

Status TelemetryHub::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return Status::FailedPrecondition("hub already started");
  if (!options_.stream_path.empty()) {
    stream_.open(options_.stream_path, std::ios::trunc);
    if (!stream_) {
      return Status::Internal("cannot open telemetry stream " +
                              options_.stream_path);
    }
  }
  if (options_.install_signal_handler) {
    TelemetryHub* expected = nullptr;
    if (g_signal_hub.compare_exchange_strong(expected, this)) {
      std::signal(SIGSEGV, telemetry_signal_handler);
      std::signal(SIGBUS, telemetry_signal_handler);
      std::signal(SIGABRT, telemetry_signal_handler);
    }
  }
  started_ = true;
  if (options_.interval_ms > 0) {
    ticker_ = std::thread([this] { ticker_main(); });
  }
  return Status::Ok();
}

void TelemetryHub::stop() {
  {
    std::lock_guard<std::mutex> lock(ticker_mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  ticker_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  TelemetryHub* expected = this;
  g_signal_hub.compare_exchange_strong(expected, nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) tick_locked(/*final_frame=*/true);
  if (stream_.is_open()) stream_.close();
}

int TelemetryHub::register_source(int rank, std::string tenant,
                                  const MetricsRegistry* metrics,
                                  FlightRecorder* flight) {
  std::lock_guard<std::mutex> lock(mutex_);
  Source src;
  src.id = next_source_id_++;
  src.rank = rank;
  src.tenant = std::move(tenant);
  src.metrics = metrics;
  src.flight = flight;
  sources_.push_back(std::move(src));
  return sources_.back().id;
}

void TelemetryHub::unregister_source(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = std::find_if(sources_.begin(), sources_.end(),
                         [id](const Source& s) { return s.id == id; });
  if (it == sources_.end()) return;
  if (it->flight != nullptr) {
    FlightSnapshot retired;
    retired.rank = it->rank;
    retired.tenant = it->tenant;
    retired.total_recorded = it->flight->total_recorded();
    retired.events = it->flight->snapshot();
    retired_.push_back(std::move(retired));
    while (retired_.size() > options_.retired_rings) retired_.pop_front();
  }
  sources_.erase(it);
}

void TelemetryHub::set_alert_sink(AlertSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void TelemetryHub::tick_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  tick_locked(/*final_frame=*/false);
}

MetricsSnapshot TelemetryHub::aggregate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aggregate_locked();
}

std::uint64_t TelemetryHub::frames_written() const {
  return frames_.load(std::memory_order_relaxed);
}

std::uint64_t TelemetryHub::alerts_fired() const {
  return alerts_.load(std::memory_order_relaxed);
}

std::uint64_t TelemetryHub::flight_dumps() const {
  return dumps_.load(std::memory_order_relaxed);
}

double TelemetryHub::busy_seconds() const {
  return busy_seconds_.load(std::memory_order_relaxed);
}

MetricsSnapshot TelemetryHub::aggregate_locked() const {
  MetricsSnapshot merged;
  for (const Source& src : sources_) {
    if (src.metrics == nullptr) continue;
    MetricsSnapshot snap = src.metrics->snapshot();
    if (!src.tenant.empty()) {
      for (MetricSample& sample : snap) {
        sample.key = metric_key_with_label(sample.key, "tenant", src.tenant);
      }
      std::sort(snap.begin(), snap.end(),
                [](const MetricSample& a, const MetricSample& b) {
                  return a.key < b.key;
                });
    }
    merge_into(merged, snap);
  }
  merge_into(merged, self_metrics_.snapshot());
  return merged;
}

std::vector<HealthAlert> TelemetryHub::evaluate_rules_locked(
    const MetricsSnapshot& merged) {
  std::vector<HealthAlert> fired;
  for (const HealthRule& rule : options_.rules) {
    for (const MetricSample& sample : merged) {
      if (!rule_matches_key(rule, sample.key)) continue;
      std::string stat;
      const double observed = rule_observed(rule, sample, &stat);
      const bool cond = rule_condition(rule, observed);
      bool& latch = latched_[{rule.name, sample.key}];
      if (!cond) {
        latch = false;  // re-arm
        continue;
      }
      if (latch) continue;  // already fired for this excursion
      latch = true;
      HealthAlert alert;
      alert.rule = rule.name;
      alert.key = sample.key;
      alert.stat = stat;
      alert.observed = observed;
      alert.threshold = rule.threshold;
      alert.action = rule.action;
      std::string name;
      Labels labels;
      if (parse_metric_key(sample.key, name, labels)) {
        for (const auto& [k, v] : labels) {
          if (k == "tenant") alert.tenant = v;
        }
      }
      fired.push_back(std::move(alert));
    }
  }
  return fired;
}

void TelemetryHub::append_frame_locked(const MetricsSnapshot& merged,
                                       const std::vector<HealthAlert>& alerts,
                                       bool final_frame) {
  if (!stream_.is_open()) return;
  std::ostringstream line;
  line << "{\"schema\":\"insitu-live/1\",\"frame\":" << frame_index_;
  if (final_frame) line << ",\"final\":true";
  line << ",\"series\":[";
  bool first = true;
  for (const MetricSample& s : merged) {
    if (!first) line << ',';
    first = false;
    line << "{\"key\":\"" << json_escape(s.key) << "\",\"kind\":\""
         << to_string(s.kind) << "\"";
    if (s.kind == MetricKind::kHistogram) {
      line << ",\"count\":" << s.count << ",\"sum\":" << format_num(s.sum)
           << ",\"min\":" << format_num(s.min)
           << ",\"max\":" << format_num(s.max)
           << ",\"p50\":" << format_num(histogram_quantile(s, 0.50))
           << ",\"p99\":" << format_num(histogram_quantile(s, 0.99));
    } else {
      line << ",\"value\":" << format_num(s.value);
    }
    line << '}';
  }
  line << "],\"alerts\":[";
  first = true;
  for (const HealthAlert& a : alerts) {
    if (!first) line << ',';
    first = false;
    line << "{\"rule\":\"" << json_escape(a.rule) << "\",\"tenant\":\""
         << json_escape(a.tenant) << "\",\"key\":\"" << json_escape(a.key)
         << "\",\"stat\":\"" << a.stat
         << "\",\"observed\":" << format_num(a.observed)
         << ",\"threshold\":" << format_num(a.threshold)
         << ",\"action\":\"" << to_string(a.action) << "\"}";
  }
  line << "],\"overhead\":{\"busy_seconds\":"
       << format_num(busy_seconds_.load(std::memory_order_relaxed))
       << ",\"frames\":" << frames_.load(std::memory_order_relaxed)
       << ",\"sources\":" << sources_.size() << "}}\n";
  const std::string text = line.str();
  stream_ << text;
  stream_.flush();
  ++frame_index_;
  frames_.fetch_add(1, std::memory_order_relaxed);
  self_metrics_.counter("obs.overhead.frames").add(1);
  self_metrics_.counter("obs.overhead.bytes_written")
      .add(static_cast<std::int64_t>(text.size()));
}

void TelemetryHub::tick_locked(bool final_frame) {
  const double cpu0 = thread_cpu_seconds();
  self_metrics_.gauge("obs.overhead.sources")
      .set(static_cast<double>(sources_.size()));
  const MetricsSnapshot merged = aggregate_locked();
  const std::vector<HealthAlert> alerts = evaluate_rules_locked(merged);
  for (const HealthAlert& alert : alerts) {
    self_metrics_
        .counter("obs.health.alert",
                 {{"rule", alert.rule}, {"tenant", alert.tenant}})
        .add(1);
    alerts_.fetch_add(1, std::memory_order_relaxed);
    if (sink_) sink_(alert);
  }
  append_frame_locked(merged, alerts, final_frame);
  const double dt = thread_cpu_seconds() - cpu0;
  self_metrics_.histogram("obs.overhead.tick.seconds").record(dt);
  atomic_add_double(busy_seconds_, dt);
}

StatusOr<std::string> TelemetryHub::dump_flight(std::string_view reason) {
  const double cpu0 = thread_cpu_seconds();
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FlightSnapshot> rings;
    for (const Source& src : sources_) {
      if (src.flight == nullptr) continue;
      FlightSnapshot ring;
      ring.rank = src.rank;
      ring.tenant = src.tenant;
      ring.total_recorded = src.flight->total_recorded();
      ring.events = src.flight->snapshot();
      rings.push_back(std::move(ring));
    }
    for (const FlightSnapshot& retired : retired_) rings.push_back(retired);
    text = format_flight_dump(reason, rings, aggregate_locked());
    self_metrics_.counter("obs.flight.dumps").add(1);
    dumps_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!options_.dump_path.empty()) {
    std::ofstream out(options_.dump_path, std::ios::app);
    if (!out) {
      return Status::Internal("cannot open flight dump " +
                              options_.dump_path);
    }
    out << text;
  }
  atomic_add_double(busy_seconds_, thread_cpu_seconds() - cpu0);
  return text;
}

void TelemetryHub::ticker_main() {
  std::unique_lock<std::mutex> lock(ticker_mutex_);
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  while (!stop_requested_) {
    ticker_cv_.wait_for(lock, interval,
                        [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    tick_now();
    lock.lock();
  }
}

}  // namespace insitu::obs::live
