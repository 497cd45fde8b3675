#include "service/session_manager.hpp"

#include <algorithm>
#include <string>

namespace insitu::service {

namespace {

/// Modeled service time of one session on the admission timeline, in
/// arrival slots. Arrivals tick one slot per submit, so a value > 1
/// makes a sustained burst deepen the modeled queue — exactly the
/// backpressure signal admission control reacts to.
constexpr double kServiceSlots = 2.0;

}  // namespace

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kReject: return "reject";
    case AdmissionPolicy::kQueue: return "queue";
    case AdmissionPolicy::kDegrade: return "degrade";
  }
  return "unknown";
}

StatusOr<AdmissionPolicy> parse_admission_policy(std::string_view name) {
  if (name == "reject") return AdmissionPolicy::kReject;
  if (name == "queue") return AdmissionPolicy::kQueue;
  if (name == "degrade") return AdmissionPolicy::kDegrade;
  return Status::InvalidArgument("unknown admission policy '" +
                                 std::string(name) +
                                 "' (reject|queue|degrade)");
}

const char* to_string(SessionState state) {
  switch (state) {
    case SessionState::kQueued: return "queued";
    case SessionState::kRunning: return "running";
    case SessionState::kCompleted: return "completed";
    case SessionState::kFailed: return "failed";
    case SessionState::kCancelled: return "cancelled";
    case SessionState::kRejected: return "rejected";
  }
  return "unknown";
}

SessionManager::SessionManager(ServiceOptions options)
    : options_(options) {
  if (options_.runners < 1) options_.runners = 1;
  if (options_.tenant_queue_capacity < 1) options_.tenant_queue_capacity = 1;
  if (options_.sched_workers < 1) options_.sched_workers = 1;
  runner_pool_ = std::make_unique<exec::TaskPool>(options_.runners);
}

SessionManager::~SessionManager() {
  wait_all();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  runner_pool_->shutdown();
  // Detach from the hub last: service_metrics_ must stay registered
  // until no hub tick can read it.
  if (hub_ != nullptr) {
    hub_->set_alert_sink(nullptr);
    hub_->unregister_source(hub_source_);
  }
}

void SessionManager::attach_telemetry(obs::live::TelemetryHub* hub) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (hub_ != nullptr) {
    hub_->set_alert_sink(nullptr);
    hub_->unregister_source(hub_source_);
    hub_source_ = 0;
  }
  hub_ = hub;
  if (hub_ == nullptr) return;
  // The service registry becomes an (unlabeled) hub source so [health]
  // rules can watch service.admission / service.quota.* series; its
  // admission counters already carry tenant= labels.
  hub_source_ = hub_->register_source(/*rank=*/-1, /*tenant=*/"",
                                      &service_metrics_);
  // The sink runs on the hub's ticking thread with the hub lock held;
  // it only touches degrade_mutex_-guarded state (see header).
  hub_->set_alert_sink([this](const obs::live::HealthAlert& alert) {
    std::lock_guard<std::mutex> dlock(degrade_mutex_);
    if (alert.action == obs::live::HealthAction::kDegrade &&
        !alert.tenant.empty()) {
      degrade_requested_.insert(alert.tenant);
    } else if (alert.action == obs::live::HealthAction::kDump) {
      std::string reason = "health rule " + alert.rule;
      if (!alert.tenant.empty()) reason += " tenant=" + alert.tenant;
      pending_dumps_.push_back(std::move(reason));
    }
  });
}

std::vector<std::string> SessionManager::degrade_requested_tenants() const {
  std::lock_guard<std::mutex> lock(degrade_mutex_);
  return {degrade_requested_.begin(), degrade_requested_.end()};
}

SessionManager::TenantState& SessionManager::tenant_locked(
    const SessionSpec& spec) {
  auto it = tenants_.find(spec.tenant);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(spec.tenant,
                      std::make_unique<TenantState>(
                          spec.tenant, options_.tenant_queue_capacity))
             .first;
  }
  return *it->second;
}

void SessionManager::record_admission_locked(const std::string& tenant,
                                             const char* outcome) {
  service_metrics_
      .counter("service.admission", {{"outcome", outcome}, {"tenant", tenant}})
      .add(1);
}

StatusOr<SessionId> SessionManager::submit(const pal::Config& config) {
  INSITU_ASSIGN_OR_RETURN(SessionSpec spec, SessionSpec::parse(config));
  return submit(spec);
}

StatusOr<SessionId> SessionManager::submit(const SessionSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_) {
    return Status::FailedPrecondition("service is shutting down");
  }

  TenantState& tenant = tenant_locked(spec);
  scheduler_.set_weight(spec.tenant, spec.weight);
  const std::size_t quota = spec.quota_bytes != 0
                                ? spec.quota_bytes
                                : options_.default_quota_bytes;
  tenant.tracker.set_limit(quota);

  const SessionId id = next_id_++;
  auto session = std::make_unique<Session>();
  session->id = id;
  session->spec = spec;

  const auto reject = [&](const std::string& why) -> StatusOr<SessionId> {
    session->state = SessionState::kRejected;
    session->message = why;
    sessions_.emplace(id, std::move(session));
    record_admission_locked(tenant.name, "rejected");
    cv_.notify_all();
    return Status::ResourceExhausted(why);
  };

  const std::size_t estimate = estimate_session_bytes(spec);
  if (quota != 0 && estimate > quota) {
    // Can never fit, under any policy: queueing would hold it forever
    // and degrading does not shrink the estimate.
    return reject("session '" + spec.name + "' estimate (" +
                  std::to_string(estimate) + " bytes) exceeds tenant '" +
                  spec.tenant + "' quota (" + std::to_string(quota) +
                  " bytes)");
  }
  const bool over_commit =
      quota != 0 && tenant.tracker.current_bytes() + estimate > quota;

  // Replay this arrival on the tenant's virtual admission timeline. The
  // ledger is pure arithmetic (the finish hook models a fixed service
  // time), so identical submit sequences always make identical
  // decisions; a positive stall means the modeled queue is full.
  const long seq = tenant.arrival_seq++;
  comm::OverlapQueueModel::Hooks hooks;
  hooks.finish = [&tenant](long step) {
    double enqueue = 0.0;
    auto it = tenant.ledger_enqueue.find(step);
    if (it != tenant.ledger_enqueue.end()) {
      enqueue = it->second;
      tenant.ledger_enqueue.erase(it);
    }
    return std::max(enqueue, tenant.admission.last_retired_finish()) +
           kServiceSlots;
  };
  const comm::OverlapQueueModel::Admission adm =
      tenant.admission.submit(seq, tenant.arrivals, hooks);
  tenant.ledger_enqueue[seq] = adm.enqueue_time;
  tenant.arrivals += 1.0;
  const bool pressured = adm.stall_seconds > 0.0;
  if (pressured) {
    service_metrics_
        .histogram("service.admission.stall_slots", {{"tenant", tenant.name}})
        .record(adm.stall_seconds);
  }

  const char* outcome = "admitted";
  if (over_commit || pressured) {
    switch (options_.policy) {
      case AdmissionPolicy::kReject:
        return reject("tenant '" + spec.tenant + "' " +
                      (over_commit ? "would exceed its memory quota"
                                   : "admission queue is full"));
      case AdmissionPolicy::kQueue:
        session->held_for_quota = over_commit;
        outcome = "queued";
        break;
      case AdmissionPolicy::kDegrade:
        session->degraded = true;
        outcome = "degraded";
        break;
    }
  }
  if (!session->degraded) {
    // A standing health-rule degrade request (action=degrade) demotes
    // the tenant's new sessions regardless of the admission policy.
    bool degrade_requested = false;
    {
      std::lock_guard<std::mutex> dlock(degrade_mutex_);
      degrade_requested = degrade_requested_.count(spec.tenant) > 0;
    }
    if (degrade_requested) {
      session->degraded = true;
      outcome = "degraded";
    }
  }

  sessions_.emplace(id, std::move(session));
  queue_.push_back(id);
  ++tenant.queued;
  record_admission_locked(tenant.name, outcome);
  pump_locked();
  cv_.notify_all();
  return id;
}

bool SessionManager::dispatchable_locked(const Session& session,
                                         const TenantState& tenant) const {
  if (!session.held_for_quota) return true;
  const std::size_t quota = tenant.tracker.limit_bytes();
  if (quota == 0) return true;
  if (tenant.tracker.current_bytes() + estimate_session_bytes(session.spec) <=
      quota) {
    return true;
  }
  // Progress guarantee: with nothing of this tenant's running, waiting
  // cannot free anything — run it (the quota stays soft at runtime).
  return tenant.running == 0;
}

void SessionManager::pump_locked() {
  while (active_runners_ < options_.runners) {
    std::vector<std::string> eligible;
    for (const auto& [name, tenant] : tenants_) {
      for (const SessionId id : queue_) {
        const Session& session = *sessions_.at(id);
        if (session.spec.tenant == name &&
            dispatchable_locked(session, *tenant)) {
          eligible.push_back(name);
          break;
        }
      }
    }
    const auto picked = scheduler_.pick(eligible);
    if (!picked.has_value()) return;

    auto slot = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      const Session& session = *sessions_.at(*it);
      if (session.spec.tenant == *picked &&
          dispatchable_locked(session, *tenants_.at(*picked))) {
        slot = it;
        break;
      }
    }
    if (slot == queue_.end()) return;  // unreachable: picked was eligible

    const SessionId id = *slot;
    queue_.erase(slot);
    Session& session = *sessions_.at(id);
    TenantState& tenant = *tenants_.at(*picked);
    session.state = SessionState::kRunning;
    --tenant.queued;
    ++tenant.running;
    ++active_runners_;
    (void)runner_pool_->submit([this, id] { run_session(id); });
  }
}

void SessionManager::run_session(SessionId id) {
  SessionSpec spec;
  SessionRunContext context;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Session& session = *sessions_.at(id);
    TenantState& tenant = *tenants_.at(session.spec.tenant);
    spec = session.spec;
    context.tenant_label = spec.tenant;
    context.tenant_tracker = &tenant.tracker;
    context.pooling = !session.degraded;
    context.sched = options_.sched;
    context.sched_workers = options_.sched_workers;
    context.telemetry = hub_;
  }

  auto result = run_session_pipeline(spec, context);

  obs::live::TelemetryHub* hub = nullptr;
  bool overage = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Session& session = *sessions_.at(id);
    TenantState& tenant = *tenants_.at(spec.tenant);
    --tenant.running;
    --active_runners_;
    if (result.ok()) {
      session.state = SessionState::kCompleted;
      session.result = std::move(*result);
      obs::merge_into(finished_metrics_, session.result.report.metrics);
    } else {
      session.state = SessionState::kFailed;
      session.message = result.status().to_string();
    }
    service_metrics_
        .counter("service.sessions",
                 {{"state", to_string(session.state)}, {"tenant", spec.tenant}})
        .add(1);
    if (tenant.tracker.over_limit()) {
      // A runtime overage is never fatal (the limit is soft); it is
      // recorded so the operator — and the admission policy via queued
      // over-commit checks — can react.
      service_metrics_
          .counter("service.quota.overage_runs", {{"tenant", spec.tenant}})
          .add(1);
      if (!session.message.empty()) session.message += "; ";
      session.message += "tenant exceeded its memory quota during the run";
      tenant.tracker.clear_over_limit();
      overage = true;
    }
    service_metrics_
        .gauge("service.tenant.mem_high_water_bytes", {{"tenant", spec.tenant}})
        .set(static_cast<double>(tenant.tracker.high_water_bytes()));
    hub = hub_;
    pump_locked();
    cv_.notify_all();
  }

  if (hub != nullptr) {
    // Publish the just-updated service.* counters promptly so watermark
    // rules fire this tick, not a polling interval later. The synchronous
    // tick also routes any action=dump alerts through the sink before the
    // pending-dump drain below. All of this happens outside mutex_.
    hub->tick_now();
    if (overage) {
      (void)hub->dump_flight("quota_breach tenant=" + spec.tenant +
                             " session=" + std::to_string(id));
    }
    std::vector<std::string> dumps;
    {
      std::lock_guard<std::mutex> dlock(degrade_mutex_);
      dumps.swap(pending_dumps_);
    }
    for (const std::string& reason : dumps) {
      (void)hub->dump_flight(reason);
    }
  }
}

SessionStatus SessionManager::status_locked(const Session& session) const {
  SessionStatus out;
  out.id = session.id;
  out.tenant = session.spec.tenant;
  out.name = session.spec.name;
  out.state = session.state;
  out.degraded = session.degraded;
  out.message = session.message;
  out.steps_executed = session.result.steps_executed;
  out.p99_step_seconds = session.result.p99_step_seconds;
  out.virtual_seconds = session.result.report.max_virtual_seconds();
  out.mem_high_water = session.result.report.total_high_water_bytes();
  out.rank_virtual_seconds.reserve(session.result.report.ranks.size());
  for (const comm::RankStats& rank : session.result.report.ranks) {
    out.rank_virtual_seconds.push_back(rank.virtual_seconds);
  }
  return out;
}

StatusOr<SessionStatus> SessionManager::query(SessionId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  return status_locked(*it->second);
}

StatusOr<TenantStatus> SessionManager::tenant(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("no tenant '" + name + "'");
  }
  const TenantState& tenant = *it->second;
  TenantStatus out;
  out.tenant = name;
  out.quota_bytes = tenant.tracker.limit_bytes();
  out.current_bytes = tenant.tracker.current_bytes();
  out.high_water_bytes = tenant.tracker.high_water_bytes();
  out.overage_events = tenant.tracker.overage_events();
  out.queued = tenant.queued;
  out.running = tenant.running;
  return out;
}

Status SessionManager::cancel(SessionId id) {
  obs::live::TelemetryHub* hub = nullptr;
  std::string tenant_name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no session " + std::to_string(id));
    }
    Session& session = *it->second;
    if (session.state != SessionState::kQueued) {
      return Status::FailedPrecondition(
          "session " + std::to_string(id) + " is " +
          to_string(session.state) +
          "; only queued sessions can be cancelled");
    }
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    session.state = SessionState::kCancelled;
    tenant_name = session.spec.tenant;
    --tenants_.at(tenant_name)->queued;
    service_metrics_
        .counter("service.sessions",
                 {{"state", "cancelled"}, {"tenant", tenant_name}})
        .add(1);
    hub = hub_;
    cv_.notify_all();
  }
  if (hub != nullptr) {
    // A cancel is an operator-visible anomaly: leave a flight dump with
    // whatever span/metric state the service has accumulated.
    (void)hub->dump_flight("session_cancel tenant=" + tenant_name +
                           " session=" + std::to_string(id));
  }
  return Status::Ok();
}

StatusOr<SessionStatus> SessionManager::wait(SessionId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  Session& session = *it->second;
  cv_.wait(lock, [&session] {
    return session.state != SessionState::kQueued &&
           session.state != SessionState::kRunning;
  });
  return status_locked(session);
}

void SessionManager::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return queue_.empty() && active_runners_ == 0; });
}

obs::MetricsSnapshot SessionManager::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  obs::MetricsSnapshot out = service_metrics_.snapshot();
  obs::merge_into(out, finished_metrics_);
  return out;
}

}  // namespace insitu::service
