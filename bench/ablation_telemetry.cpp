// Ablation: live telemetry on/off (src/obs/live, docs/OBSERVABILITY.md).
//
// The TelemetryHub's contract is "always-on and invisible": sampling the
// rank registries mid-run must not change what any rank computes, and
// the sampling itself must stay a rounding error next to the pipeline.
// This bench runs the executed gate pipeline (bench_common: oscillator +
// histogram + Catalyst slice) under both scheduler backends with
// telemetry off and on, and gates:
//
//   1. bit-identical per-rank virtual clocks, histograms and images with
//      the hub off vs on (per backend, at every rank count),
//   2. hub overhead <= 2% of the telemetry-on arm's wall time
//      (busy_seconds() self-accounting vs measured wall),
//   3. a live stream with >= 1 frame and a final frame,
//   4. a seeded quota breach through the multi-tenant service (the
//      admission estimate ignores analysis config; autocorrelation
//      windows then allocate past a 1 MiB quota) firing >= 1
//      obs.health.alert and writing a parseable flight-recorder dump —
//      under sched=threads AND sched=mn.
//
// Exit codes: 0 ok, 1 gate failure, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "comm/sched.hpp"
#include "obs/live/telemetry_hub.hpp"
#include "pal/table.hpp"
#include "service/session_manager.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kSteps = 20;
constexpr double kOverheadBudget = 0.02;  // hub busy / wall ceiling

struct Backend {
  const char* name;
  comm::SchedBackend backend;
};

constexpr Backend kBackends[] = {
    {"threads", comm::SchedBackend::kThreads},
    {"mn", comm::SchedBackend::kMn},
};

/// Count JSONL frames and check the last one is marked final.
bool stream_has_final_frame(const std::string& path, std::size_t* frames) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  *frames = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++*frames;
    last = line;
  }
  return *frames > 0 && last.find("\"final\":true") != std::string::npos;
}

/// Quota-breach arm: run one over-allocating session through the service
/// with a hub + health rule attached; gate alert + parseable dump.
int run_breach_arm(const Backend& backend, const std::string& file_prefix) {
  const std::string stream_path = file_prefix + ".jsonl";
  const std::string dump_path = file_prefix + ".flight";
  std::remove(stream_path.c_str());
  std::remove(dump_path.c_str());

  pal::Config health;
  health.set("health.interval_ms", "5");
  health.set("health.stream", stream_path);
  health.set("health.dump", dump_path);
  health.set("health.rule.overage",
             "service.quota.overage_runs > 0 action=dump");
  obs::live::TelemetryOptions live_options;
  if (const Status parsed =
          obs::live::parse_telemetry_config(health, live_options);
      !parsed.ok()) {
    std::fprintf(stderr, "FAIL: [health] parse: %s\n",
                 parsed.to_string().c_str());
    return 1;
  }
  obs::live::TelemetryHub hub(live_options);
  if (const Status started = hub.start(); !started.ok()) {
    std::fprintf(stderr, "FAIL: hub start: %s\n",
                 started.to_string().c_str());
    return 1;
  }
  {
    service::ServiceOptions options;
    options.runners = 1;
    options.sched = backend.backend;
    options.sched_workers = 2;
    service::SessionManager manager(options);
    manager.attach_telemetry(&hub);

    service::SessionSpec breach;
    breach.tenant = "hog";
    breach.name = std::string("hog/breach-") + backend.name;
    breach.ranks = 2;
    breach.grid = 12;
    breach.steps = 2;
    breach.seed = 7;
    breach.quota_bytes = std::size_t{1} << 20;  // 1 MiB
    breach.analyses.set("autocorrelation.enabled", "true");
    breach.analyses.set("autocorrelation.window", "64");
    breach.analyses.set("autocorrelation.k", "1");
    const auto id = manager.submit(breach);
    if (!id.ok()) {
      std::fprintf(stderr, "FAIL: %s breach submit: %s\n", backend.name,
                   id.status().to_string().c_str());
      return 1;
    }
    const auto status = manager.wait(*id);
    if (!status.ok() ||
        status->state != service::SessionState::kCompleted) {
      std::fprintf(stderr, "FAIL: %s breach session did not complete\n",
                   backend.name);
      return 1;
    }
    hub.tick_now();  // deterministic rule firing (edge latch dedups)
  }  // manager dtor joins runners; the quota-breach dump is on disk
  hub.stop();

  if (hub.alerts_fired() < 1) {
    std::fprintf(stderr, "FAIL: %s quota breach fired no health alert\n",
                 backend.name);
    return 1;
  }
  if (hub.flight_dumps() < 1) {
    std::fprintf(stderr, "FAIL: %s breach produced no flight dump\n",
                 backend.name);
    return 1;
  }
  std::ifstream dump(dump_path);
  std::string head;
  std::getline(dump, head);
  if (head.rfind("# insitu-flight/1", 0) != 0) {
    std::fprintf(stderr, "FAIL: %s dump missing insitu-flight/1 header\n",
                 backend.name);
    return 1;
  }
  bool saw_ring = false;
  for (std::string line; std::getline(dump, line);) {
    if (line.rfind("== rank", 0) == 0) {
      saw_ring = true;
      break;
    }
  }
  if (!saw_ring) {
    std::fprintf(stderr, "FAIL: %s dump has no rank ring section\n",
                 backend.name);
    return 1;
  }
  std::size_t frames = 0;
  if (!stream_has_final_frame(stream_path, &frames)) {
    std::fprintf(stderr, "FAIL: %s breach stream has no final frame\n",
                 backend.name);
    return 1;
  }
  std::printf("breach/%s: alert fired, dump + %zu frame(s) ok\n",
              backend.name, frames);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  const pal::Config args = pal::Config::from_args(argc, argv);
  std::printf("=== bench: ablation — live telemetry on/off ===\n");
  int rc = 0;

  // Sanitizer CI raises the budget (overhead_budget=1): instrumentation
  // inflates the hub's CPU cost, and those runs gate races and
  // determinism, not performance.
  const double overhead_budget =
      args.get_double_or("overhead_budget", kOverheadBudget);

  std::vector<int> rank_counts = {4, 16};
  if (!obs.ranks_override().empty()) rank_counts = obs.ranks_override();

  pal::TablePrinter table(
      "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
      std::to_string(kSteps) + " steps)");
  table.set_header({"ranks", "backend", "telemetry", "virt (s)", "wall (s)",
                    "frames", "hub busy (s)", "busy/wall"});

  for (const Backend& backend : kBackends) {
    for (const int ranks : rank_counts) {
      const std::string tag =
          std::string(backend.name) + "/p" + std::to_string(ranks);
      comm::Runtime::Options options = bench::ablation_options();
      options.sched.backend = backend.backend;
      const bench::GateOutputs off = bench::run_gate_pipeline(
          ranks, options, "telemetry/off/" + tag, kSteps);
      table.add_row({std::to_string(ranks), backend.name, "off",
                     pal::TablePrinter::num(off.total, 7),
                     pal::TablePrinter::num(off.wall_seconds, 3), "-", "-",
                     "-"});

      const std::string stream_path =
          "ablation_telemetry_" + std::string(backend.name) + "_p" +
          std::to_string(ranks) + ".jsonl";
      std::remove(stream_path.c_str());
      obs::live::TelemetryOptions live_options;
      live_options.interval_ms = 10;
      live_options.stream_path = stream_path;
      obs::live::TelemetryHub hub(live_options);
      if (const Status started = hub.start(); !started.ok()) {
        std::fprintf(stderr, "FAIL: hub start: %s\n",
                     started.to_string().c_str());
        return 1;
      }
      options.observe.telemetry = &hub;
      const bench::GateOutputs on = bench::run_gate_pipeline(
          ranks, options, "telemetry/on/" + tag, kSteps);
      hub.stop();
      const double ratio =
          on.wall_seconds > 0.0 ? hub.busy_seconds() / on.wall_seconds : 0.0;
      table.add_row({std::to_string(ranks), backend.name, "on",
                     pal::TablePrinter::num(on.total, 7),
                     pal::TablePrinter::num(on.wall_seconds, 3),
                     std::to_string(hub.frames_written()),
                     pal::TablePrinter::num(hub.busy_seconds(), 6),
                     pal::TablePrinter::num(ratio, 4)});

      if (!bench::same_outputs(off, std::string(backend.name) + "/off", on,
                               std::string(backend.name) + "/on", ranks)) {
        rc = 1;
      }
      if (ratio > overhead_budget) {
        std::fprintf(stderr,
                     "FAIL: hub overhead %.4f of wall exceeds %.2f "
                     "(%s, %d ranks: busy %.6fs, wall %.6fs)\n",
                     ratio, overhead_budget, backend.name, ranks,
                     hub.busy_seconds(), on.wall_seconds);
        rc = 1;
      }
      std::size_t frames = 0;
      if (!stream_has_final_frame(stream_path, &frames)) {
        std::fprintf(stderr, "FAIL: %s stream has no final frame\n",
                     stream_path.c_str());
        rc = 1;
      }
    }
  }
  table.add_note("gates: on == off per-rank virtual clocks, histograms "
                 "and images; hub busy <= " +
                 pal::TablePrinter::num(overhead_budget * 100, 0) +
                 "% of wall; stream ends with a final frame");
  table.add_note("wall seconds are host-dependent; only the busy/wall "
                 "ratio gates");
  table.print();

  for (const Backend& backend : kBackends) {
    const int breach_rc = run_breach_arm(
        backend, std::string("ablation_telemetry_breach_") + backend.name);
    if (breach_rc != 0) rc = breach_rc;
  }

  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
