#pragma once

// Session: one tenant-owned in situ pipeline run, declared as data.
//
// A session spec is a pal::Config with a [session] section (who runs,
// how big, how heavy) plus any combination of backends/configurable
// analysis sections. Parsing is strict both ways: unknown [session] keys
// are an error here, unknown analysis sections/keys are an error in
// configure_analyses. The service (session_manager.hpp) admits specs,
// schedules them fairly across tenants, and runs them through
// run_session_pipeline — the same oscillator + bridge + configured
// analyses pipeline the one-shot drivers use, so a session computes
// bit-identical virtual-time results whether it runs alone or among 100
// co-tenants (docs/SERVICE.md).

#include <cstddef>
#include <cstdint>
#include <string>

#include "comm/runtime.hpp"
#include "pal/config.hpp"
#include "pal/status.hpp"

namespace insitu::service {

/// Declarative description of one pipeline session.
struct SessionSpec {
  /// Tenant identity: quota, fair-share weight, and the `tenant=` metric
  /// label are all per-tenant, shared by every session the tenant owns.
  std::string tenant = "default";
  /// Display name (defaults to the tenant).
  std::string name;
  /// Executed SPMD ranks for this session.
  int ranks = 4;
  /// Oscillator miniapp cells per axis (global grid is cubic).
  std::int64_t grid = 16;
  /// Simulation steps to execute.
  int steps = 8;
  /// Fair-share weight of the owning tenant (stride scheduling); the
  /// last submitted spec for a tenant sets its weight.
  double weight = 1.0;
  /// Tenant byte quota; 0 inherits ServiceOptions::default_quota_bytes.
  std::size_t quota_bytes = 0;
  /// Virtual-randomness seed (deterministic per session).
  std::uint64_t seed = 7;
  /// Machine model name (comm::machine_by_name): cori|mira|titan|local.
  std::string machine = "cori";

  /// The analysis sections of the originating config, handed verbatim to
  /// backends::configure_analyses (with [session] ignored).
  pal::Config analyses;

  /// Parse a spec from a config with a [session] section. Unknown
  /// [session] keys and invalid values are InvalidArgument; the analysis
  /// sections are validated too (so a typo fails at submit, not at run).
  static StatusOr<SessionSpec> parse(const pal::Config& config);
};

/// Deterministic upper-bound estimate of the session's tracked bytes
/// (sim field + snapshot + analysis state across all ranks). Admission
/// compares this against the tenant's remaining quota before the
/// session is allowed to allocate anything.
std::size_t estimate_session_bytes(const SessionSpec& spec);

/// What one executed session produced.
struct SessionResult {
  comm::RunReport report;
  long steps_executed = 0;
  /// p99 of `bridge.execute.seconds` (virtual seconds per in situ step).
  double p99_step_seconds = 0.0;
};

/// Tenant execution context run_session_pipeline stamps onto the run.
struct SessionRunContext {
  /// `tenant=` label for every metric (empty: unlabeled).
  std::string tenant_label;
  /// Tenant roll-up tracker (rank trackers chain into it); optional.
  pal::MemoryTracker* tenant_tracker = nullptr;
  /// Runtime::Options::pooling. A degraded session runs with pooling off
  /// (allocate-and-free, no parking) — pooling is result-invariant, so
  /// degradation never changes what it computes.
  bool pooling = true;
  comm::SchedBackend sched = comm::SchedBackend::kThreads;
  /// mn only: carrier workers per session (small: sessions are many).
  int sched_workers = 2;
  /// Buffer every span (bench baselines); off inside the service.
  bool trace = false;
  /// Live telemetry hub to register the session's ranks with (optional).
  obs::live::TelemetryHub* telemetry = nullptr;
};

/// Run the session's pipeline to completion (blocking) and report.
/// Fails only on configuration errors surfaced by the analysis builder
/// or a rank failure inside the run.
StatusOr<SessionResult> run_session_pipeline(const SessionSpec& spec,
                                             const SessionRunContext& context);

}  // namespace insitu::service
