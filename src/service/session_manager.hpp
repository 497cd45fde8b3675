#pragma once

// SessionManager: the long-lived multi-tenant in situ service.
//
// The paper's shared-infrastructure premise (§6: one in situ stack
// serving simulation, analysis, and "heavy traffic" of consumers)
// needs more than the one-shot bench drivers: something must admit,
// schedule, meter, and isolate many concurrent pipeline sessions. The
// SessionManager is that layer:
//
//   * lifecycle  — submit (parse + admission) / query / cancel (queued
//     only) / wait; every session ends Completed, Failed, Cancelled, or
//     Rejected.
//   * fairness   — a StrideScheduler picks which tenant's session each
//     free runner slot takes, proportional to tenant weight; runner
//     slots are a shared exec::TaskPool, and each session's virtual
//     ranks run under the configured comm scheduler backend (threads or
//     the PR 6 M:N fibers), so 100 sessions do not mean 100 * ranks OS
//     threads.
//   * quotas     — each tenant owns a MemoryTracker that every rank
//     tracker of its sessions rolls up into. Every rank allocates through
//     its own buffer pool, whose parked bytes are the pool's and never a
//     tracker's, so a tenant's usage is pooling-invariant and one
//     session's pool counters never include another's. Quotas are soft
//     at the allocator (never an abort) and hard at admission.
//   * admission  — a per-tenant comm::OverlapQueueModel ledger replays
//     session arrivals on a virtual timeline; when the modeled queue
//     deepens (stall > 0) or the quota would be over-committed, the
//     AdmissionPolicy decides: reject, queue, or degrade (run with
//     pooling off — pooling is result-invariant, so a degraded session
//     computes the same numbers with a smaller footprint).
//
// Every admission decision is a labeled metric:
// `service.admission{outcome=...,tenant=...}`; session metrics carry
// `tenant=` end to end. See docs/SERVICE.md.
//
// Determinism: nothing the manager does (fair ordering, quotas,
// degradation, concurrency) changes what a session computes — per-rank
// virtual times are bit-identical to running the session alone
// (bench/service_throughput gates this at >= 32 concurrent sessions).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <set>
#include <string>
#include <vector>

#include "comm/overlap.hpp"
#include "comm/sched.hpp"
#include "exec/task_pool.hpp"
#include "obs/live/telemetry_hub.hpp"
#include "obs/metrics.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace insitu::service {

/// What to do with a session the tenant cannot currently afford (quota
/// over-commit or a deepening admission queue).
enum class AdmissionPolicy {
  kReject,   ///< refuse it outright (ResourceExhausted)
  kQueue,    ///< admit it but hold it until the tenant fits again
  kDegrade,  ///< run it now with pooling off
};

const char* to_string(AdmissionPolicy policy);
StatusOr<AdmissionPolicy> parse_admission_policy(std::string_view name);

enum class SessionState {
  kQueued,
  kRunning,
  kCompleted,
  kFailed,
  kCancelled,
  kRejected,
};

const char* to_string(SessionState state);

struct ServiceOptions {
  /// Concurrent session runner slots (the shared TaskPool's width).
  int runners = 4;
  /// Per-tenant outstanding sessions (queued + running) before the
  /// admission ledger reports backpressure.
  int tenant_queue_capacity = 8;
  AdmissionPolicy policy = AdmissionPolicy::kQueue;
  /// Scheduler backend for each session's virtual ranks.
  comm::SchedBackend sched = comm::default_sched_backend();
  /// mn only: carrier workers per session. Deliberately small — the
  /// service multiplies it by concurrent sessions.
  int sched_workers = 2;
  /// Tenant quota when a spec does not set quota_mb; 0 = unlimited.
  std::size_t default_quota_bytes = 0;
};

using SessionId = std::uint64_t;

struct SessionStatus {
  SessionId id = 0;
  std::string tenant;
  std::string name;
  SessionState state = SessionState::kQueued;
  bool degraded = false;
  std::string message;           ///< failure / rejection reason
  long steps_executed = 0;
  double p99_step_seconds = 0.0; ///< p99 of bridge.execute.seconds
  double virtual_seconds = 0.0;  ///< slowest rank's virtual clock
  std::size_t mem_high_water = 0; ///< sum of rank high-water marks
  /// Per-rank virtual clocks at exit, in rank order (the bit-identity
  /// surface service_throughput compares solo vs concurrent).
  std::vector<double> rank_virtual_seconds;
};

/// Point-in-time view of one tenant's resource position.
struct TenantStatus {
  std::string tenant;
  std::size_t quota_bytes = 0;     ///< 0 = unlimited
  std::size_t current_bytes = 0;   ///< live rolled-up usage
  std::size_t high_water_bytes = 0;
  std::uint64_t overage_events = 0;
  int queued = 0;
  int running = 0;
};

class SessionManager {
 public:
  explicit SessionManager(ServiceOptions options = {});
  /// Blocks until every admitted session reaches a terminal state.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admit a session. Returns its id, or the admission error (a spec
  /// whose estimate can never fit its quota, policy kReject under
  /// pressure, ...). Rejections are also recorded as Rejected sessions
  /// so they stay queryable.
  StatusOr<SessionId> submit(const SessionSpec& spec);
  /// Parse + submit a [session] config (see SessionSpec::parse).
  StatusOr<SessionId> submit(const pal::Config& config);

  StatusOr<SessionStatus> query(SessionId id) const;
  StatusOr<TenantStatus> tenant(const std::string& name) const;

  /// Cancel a queued session. Running sessions cannot be cancelled:
  /// stopping mid-run would desynchronize the session's collectives and
  /// break the bit-identity guarantee, so cancel returns
  /// FailedPrecondition once a session started.
  Status cancel(SessionId id);

  /// Block until the session is terminal; returns its final status.
  StatusOr<SessionStatus> wait(SessionId id);
  /// Block until every session is terminal.
  void wait_all();

  /// Service metrics (service.admission, service.sessions, ...) merged
  /// with the tenant-labeled metrics of every finished session.
  obs::MetricsSnapshot metrics() const;

  /// Attach a live telemetry hub (src/obs/live): the service registry
  /// becomes a hub source (so `[health]` rules can watch service.*
  /// series), every session's ranks register with the hub for their
  /// run, and the hub's alerts feed back into the service —
  /// action=degrade marks the tenant so its next submissions run
  /// degraded, action=dump requests a flight-recorder dump. The service
  /// additionally dumps on quota breach and session cancel. Pass null to
  /// detach. The hub must outlive the manager or be detached first.
  void attach_telemetry(obs::live::TelemetryHub* hub);

  /// Tenants with a standing degrade request from a health rule
  /// (`action=degrade`). Sticky for the manager's lifetime so a
  /// misbehaving tenant does not oscillate; exposed for tests/reports.
  std::vector<std::string> degrade_requested_tenants() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct TenantState {
    std::string name;
    pal::MemoryTracker tracker;  // roll-up target; limit = quota
    comm::OverlapQueueModel admission;
    std::map<long, double> ledger_enqueue;  // admission arrival times
    double arrivals = 0.0;   // virtual admission timeline (slots)
    long arrival_seq = 0;
    int queued = 0;
    int running = 0;

    explicit TenantState(std::string tenant_name, int capacity)
        : name(std::move(tenant_name)),
          admission(comm::BackpressurePolicy::kBlock, capacity) {}
  };

  struct Session {
    SessionId id = 0;
    SessionSpec spec;
    SessionState state = SessionState::kQueued;
    bool degraded = false;
    bool held_for_quota = false;  // kQueue: wait until the tenant fits
    std::string message;
    SessionResult result;
  };

  TenantState& tenant_locked(const SessionSpec& spec);
  bool dispatchable_locked(const Session& session,
                           const TenantState& tenant) const;
  void pump_locked();
  void run_session(SessionId id);
  void record_admission_locked(const std::string& tenant,
                               const char* outcome);
  SessionStatus status_locked(const Session& session) const;

  ServiceOptions options_;

  /// Telemetry feedback state. Lives under its own mutex so the hub's
  /// alert sink (invoked with the hub's lock held) never needs mutex_ —
  /// the lock order is always mutex_ -> hub lock -> degrade_mutex_,
  /// never a cycle (docs/OBSERVABILITY.md).
  mutable std::mutex degrade_mutex_;
  std::set<std::string> degrade_requested_;
  std::vector<std::string> pending_dumps_;  // reasons from action=dump

  obs::live::TelemetryHub* hub_ = nullptr;  // set once via attach_telemetry
  int hub_source_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  std::vector<SessionId> queue_;  // admission order (FIFO within tenant)
  StrideScheduler scheduler_;
  obs::MetricsRegistry service_metrics_;
  obs::MetricsSnapshot finished_metrics_;  // merged session reports
  int active_runners_ = 0;
  SessionId next_id_ = 1;
  bool shutdown_ = false;

  std::unique_ptr<exec::TaskPool> runner_pool_;
};

}  // namespace insitu::service
