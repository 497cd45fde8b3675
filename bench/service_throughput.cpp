// service_throughput: the multi-tenant service under concurrent load.
//
// Drives src/service with N concurrent sessions spread across M tenants
// and measures what the paper's shared-infrastructure story needs
// measured: sustained session throughput, p99 in situ step latency per
// tenant, and — the property everything else rests on — that fairness,
// quotas, and co-tenancy never change what a session computes. The
// bench re-runs every session solo and exits 1 unless each rank's
// virtual clock matches the concurrent run bit for bit. It also gates
// the quota path: an over-quota session must end rejected (or degraded
// under policy=degrade) with a `service.admission{outcome=}` metric,
// never an abort.
//
//   service_throughput [sessions=32] [tenants=4] [runners=8] [steps=6]
//                      [grid=12] [session_ranks=2] [policy=queue]
//                      [sched=threads|mn] [live=stream.jsonl]
//                      [--metrics F] [--baseline F] [--trace F]
//
// `live=<path>` runs an extra phase with a TelemetryHub attached to the
// service: frames stream to <path> (tail with `perf_report --follow`), a
// health rule watches the quota-overage counter, and a seeded runtime
// breach must fire >= 1 obs.health.alert, leave a parseable flight dump
// at <path>.flight, and degrade the breaching tenant's next session.
//
// Exit codes: 0 ok, 1 gate failure (lost session, identity mismatch,
// missing admission metric, missing alert/dump), 2 usage error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/live/telemetry_hub.hpp"
#include "service/session_manager.hpp"

namespace insitu::bench {
namespace {

service::SessionSpec make_spec(int index, int tenants, int ranks,
                               std::int64_t grid, int steps) {
  service::SessionSpec spec;
  spec.tenant = "t" + std::to_string(index % tenants);
  spec.name = spec.tenant + "/s" + std::to_string(index / tenants);
  spec.ranks = ranks;
  spec.grid = grid;
  spec.steps = steps;
  // Distinct weights exercise the stride scheduler; distinct seeds make
  // every session compute distinct results (a shared seed could mask
  // cross-session state leaks in the identity gate).
  spec.weight = 1.0 + static_cast<double>(index % tenants);
  spec.seed = 1000 + static_cast<std::uint64_t>(index);
  spec.machine = "cori";
  spec.analyses.set("histogram.enabled", "true");
  spec.analyses.set("histogram.bins", "32");
  spec.analyses.set("statistics.enabled", "true");
  return spec;
}

int run(int argc, const char* const* argv) {
  ObsSession obs(argc, argv);
  const pal::Config args = pal::Config::from_args(argc, argv);

  const int sessions = static_cast<int>(args.get_int_or("sessions", 32));
  const int tenants = static_cast<int>(args.get_int_or("tenants", 4));
  const int runners = static_cast<int>(args.get_int_or("runners", 8));
  const int steps = static_cast<int>(args.get_int_or("steps", 6));
  const std::int64_t grid = args.get_int_or("grid", 12);
  const int ranks = static_cast<int>(args.get_int_or("session_ranks", 2));
  if (sessions < 1 || tenants < 1 || runners < 1 || steps < 1 || grid < 2 ||
      ranks < 1) {
    std::fprintf(stderr, "error: all sizing knobs must be positive\n");
    return 2;
  }
  const std::string policy_name = args.get_string_or("policy", "queue");
  const auto policy = service::parse_admission_policy(policy_name);
  if (!policy.ok()) {
    std::fprintf(stderr, "error: %s\n", policy.status().to_string().c_str());
    return 2;
  }

  service::ServiceOptions options;
  options.runners = runners;
  options.policy = *policy;
  options.sched = comm::default_sched_backend();  // sched= already applied
  options.sched_workers = 2;

  // ---- concurrent phase ----
  std::vector<service::SessionId> ids;
  const auto wall_start = std::chrono::steady_clock::now();
  service::SessionManager manager(options);
  for (int i = 0; i < sessions; ++i) {
    auto id = manager.submit(make_spec(i, tenants, ranks, grid, steps));
    if (!id.ok()) {
      std::fprintf(stderr, "submit %d failed: %s\n", i,
                   id.status().to_string().c_str());
      return 1;
    }
    ids.push_back(*id);
  }
  manager.wait_all();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  int completed = 0;
  double worst_p99 = 0.0;
  std::vector<service::SessionStatus> final_status;
  for (const service::SessionId id : ids) {
    auto status = manager.query(id);
    if (!status.ok() ||
        status->state != service::SessionState::kCompleted) {
      std::fprintf(stderr, "session %llu did not complete: %s\n",
                   static_cast<unsigned long long>(id),
                   status.ok() ? to_string(status->state)
                               : status.status().to_string().c_str());
      return 1;
    }
    ++completed;
    if (status->p99_step_seconds > worst_p99) {
      worst_p99 = status->p99_step_seconds;
    }
    final_status.push_back(std::move(*status));
  }

  // ---- solo identity gate ----
  // Every session re-runs alone, against fresh tenant state, and must
  // reproduce the concurrent run's per-rank virtual clocks exactly.
  int identity_checked = 0;
  for (int i = 0; i < sessions; ++i) {
    const service::SessionSpec spec =
        make_spec(i, tenants, ranks, grid, steps);
    pal::MemoryTracker solo_tracker;
    service::SessionRunContext context;
    context.tenant_label = spec.tenant;
    context.tenant_tracker = &solo_tracker;
    context.sched = options.sched;
    context.sched_workers = options.sched_workers;
    context.trace = obs.trace_enabled() && i < tenants;
    auto solo = service::run_session_pipeline(spec, context);
    if (!solo.ok()) {
      std::fprintf(stderr, "solo rerun %d failed: %s\n", i,
                   solo.status().to_string().c_str());
      return 1;
    }
    const std::vector<double>& concurrent =
        final_status[static_cast<std::size_t>(i)].rank_virtual_seconds;
    if (concurrent.size() != solo->report.ranks.size()) {
      std::fprintf(stderr, "identity: rank count mismatch on session %d\n",
                   i);
      return 1;
    }
    for (std::size_t r = 0; r < concurrent.size(); ++r) {
      if (concurrent[r] != solo->report.ranks[r].virtual_seconds) {
        std::fprintf(stderr,
                     "identity: session %d rank %zu diverged "
                     "(concurrent %.17g != solo %.17g)\n",
                     i, r, concurrent[r],
                     solo->report.ranks[r].virtual_seconds);
        return 1;
      }
    }
    ++identity_checked;
    // One traced solo run per tenant anchors the committed baseline.
    if (i < tenants) {
      obs.record("solo/" + spec.tenant + "/p" + std::to_string(spec.ranks),
                 solo->report);
    }
  }

  // ---- quota admission gate ----
  // A session whose estimate can never fit its quota must be turned away
  // (rejected, or degraded under policy=degrade once the tenant is over
  // committed) with a labeled admission metric — never an abort.
  service::SessionSpec greedy = make_spec(0, 1, ranks, 64, 1);
  greedy.tenant = "greedy";
  greedy.name = "greedy/overquota";
  greedy.quota_bytes = std::size_t{1} << 20;  // 1 MiB << 64^3 doubles
  const auto greedy_id = manager.submit(greedy);
  if (greedy_id.ok()) {
    std::fprintf(stderr, "quota gate: over-quota session was admitted\n");
    return 1;
  }
  const std::string rejected_key = obs::metric_key(
      "service.admission", {{"outcome", "rejected"}, {"tenant", "greedy"}});
  bool saw_rejection = false;
  for (const obs::MetricSample& sample : manager.metrics()) {
    if (sample.key == rejected_key && sample.value >= 1.0) {
      saw_rejection = true;
      break;
    }
  }
  if (!saw_rejection) {
    std::fprintf(stderr, "quota gate: no %s metric\n", rejected_key.c_str());
    return 1;
  }

  // ---- live telemetry phase ----
  // A second, smaller service run with a TelemetryHub attached. The
  // breach session passes admission (the estimate ignores analysis
  // config) but its autocorrelation windows allocate several MiB of
  // tracked history against a 1 MiB quota, so the runtime overage is
  // deterministic: service.quota.overage_runs fires the health rule,
  // the service dumps the flight recorder, and the rule's
  // action=degrade demotes the tenant's next session.
  const std::string live_path = args.get_string_or("live", "");
  if (!live_path.empty()) {
    const std::string dump_path = live_path + ".flight";
    pal::Config health;
    health.set("health.interval_ms",
               std::to_string(args.get_int_or("live_interval_ms", 5)));
    health.set("health.stream", live_path);
    health.set("health.dump", dump_path);
    health.set("health.rule.overage",
               "service.quota.overage_runs > 0 action=degrade");
    obs::live::TelemetryOptions live_options;
    if (const Status parsed =
            obs::live::parse_telemetry_config(health, live_options);
        !parsed.ok()) {
      std::fprintf(stderr, "live: %s\n", parsed.to_string().c_str());
      return 2;
    }
    obs::live::TelemetryHub hub(live_options);
    if (const Status started = hub.start(); !started.ok()) {
      std::fprintf(stderr, "live: %s\n", started.to_string().c_str());
      return 1;
    }

    comm::RunReport live_report;
    live_report.seed = 7;
    {
      service::ServiceOptions live_service = options;
      live_service.runners = 2;
      service::SessionManager live_manager(live_service);
      live_manager.attach_telemetry(&hub);

      service::SessionSpec breach = make_spec(0, 1, ranks, grid, 2);
      breach.tenant = "hog";
      breach.name = "hog/breach";
      breach.quota_bytes = std::size_t{1} << 20;  // 1 MiB
      breach.analyses.set("autocorrelation.enabled", "true");
      breach.analyses.set("autocorrelation.window", "64");
      breach.analyses.set("autocorrelation.k", "1");
      const auto breach_id = live_manager.submit(breach);
      if (!breach_id.ok()) {
        std::fprintf(stderr, "live: breach submit failed: %s\n",
                     breach_id.status().to_string().c_str());
        return 1;
      }
      auto breach_status = live_manager.wait(*breach_id);
      if (!breach_status.ok() ||
          breach_status->state != service::SessionState::kCompleted) {
        std::fprintf(stderr, "live: breach session did not complete\n");
        return 1;
      }
      // The overage counter is updated before wait() returns; a
      // synchronous tick makes the rule firing deterministic (the
      // per-(rule,key) edge latch keeps a double tick harmless).
      hub.tick_now();
      if (hub.alerts_fired() < 1) {
        std::fprintf(stderr, "live: quota breach fired no health alert\n");
        return 1;
      }
      const std::vector<std::string> degraded =
          live_manager.degrade_requested_tenants();
      if (std::find(degraded.begin(), degraded.end(), "hog") ==
          degraded.end()) {
        std::fprintf(stderr,
                     "live: action=degrade left no standing request\n");
        return 1;
      }
      service::SessionSpec after = make_spec(0, 1, ranks, grid, 2);
      after.tenant = "hog";
      after.name = "hog/after-breach";
      const auto after_id = live_manager.submit(after);
      if (!after_id.ok()) {
        std::fprintf(stderr, "live: post-breach submit failed\n");
        return 1;
      }
      auto after_status = live_manager.wait(*after_id);
      if (!after_status.ok() || !after_status->degraded) {
        std::fprintf(stderr,
                     "live: post-breach session was not degraded\n");
        return 1;
      }
      live_manager.wait_all();
      live_report.metrics = live_manager.metrics();
    }  // manager dtor joins runners: the quota-breach dump is on disk
    hub.stop();  // final frame

    if (hub.flight_dumps() < 1) {
      std::fprintf(stderr, "live: no flight-recorder dump was written\n");
      return 1;
    }
    std::ifstream dump(dump_path);
    std::string dump_head;
    std::getline(dump, dump_head);
    if (dump_head.rfind("# insitu-flight/1", 0) != 0) {
      std::fprintf(stderr, "live: dump %s missing insitu-flight/1 header\n",
                   dump_path.c_str());
      return 1;
    }
    std::ifstream stream(live_path);
    std::string line;
    std::string last;
    std::size_t frames = 0;
    while (std::getline(stream, line)) {
      if (!line.empty()) {
        ++frames;
        last = line;
      }
    }
    if (frames < 1 || last.find("\"final\":true") == std::string::npos) {
      std::fprintf(stderr, "live: stream %s has no final frame\n",
                   live_path.c_str());
      return 1;
    }
    // Hub self-accounting + alert counters ride along in the recorded
    // metrics so --metrics dumps (and CI greps) see obs.health.alert.
    obs::merge_into(live_report.metrics, hub.hub_metrics());
    obs.record("live/breach", live_report);
    std::printf(
        "live: %zu frame(s) -> %s, %llu alert(s), %llu dump(s) -> %s, "
        "hub busy %.6fs\n",
        frames, live_path.c_str(),
        static_cast<unsigned long long>(hub.alerts_fired()),
        static_cast<unsigned long long>(hub.flight_dumps()),
        dump_path.c_str(), hub.busy_seconds());
  }

  // ---- report ----
  std::printf(
      "service_throughput: %d sessions x %d tenants, %d runners, "
      "policy=%s\n",
      sessions, tenants, runners, to_string(options.policy));
  std::printf("%-8s %10s %10s %14s %12s\n", "tenant", "sessions", "steps",
              "p99 step ms", "HW MiB");
  for (int t = 0; t < tenants; ++t) {
    const std::string tenant = "t" + std::to_string(t);
    int count = 0;
    long tenant_steps = 0;
    double p99 = 0.0;
    for (const service::SessionStatus& status : final_status) {
      if (status.tenant != tenant) continue;
      ++count;
      tenant_steps += status.steps_executed;
      if (status.p99_step_seconds > p99) p99 = status.p99_step_seconds;
    }
    const auto info = manager.tenant(tenant);
    std::printf("%-8s %10d %10ld %14.3f %12.3f\n", tenant.c_str(), count,
                tenant_steps, p99 * 1000.0,
                info.ok() ? static_cast<double>(info->high_water_bytes) /
                                (1024.0 * 1024.0)
                          : 0.0);
  }
  std::printf(
      "completed %d/%d sessions in %.2fs wall (%.1f sessions/s), "
      "identity-checked %d, worst p99 step %.3f ms\n",
      completed, sessions, wall_seconds,
      wall_seconds > 0.0 ? completed / wall_seconds : 0.0, identity_checked,
      worst_p99 * 1000.0);

  // The service-wide metrics snapshot (admission outcomes, per-tenant
  // series, merged session metrics) is its own recorded "run" so
  // --metrics dumps feed perf_report's tenant table.
  comm::RunReport service_report;
  service_report.seed = 7;
  service_report.metrics = manager.metrics();
  obs.record("service/n" + std::to_string(sessions), service_report);

  return obs.finish();
}

}  // namespace
}  // namespace insitu::bench

int main(int argc, char** argv) { return insitu::bench::run(argc, argv); }
