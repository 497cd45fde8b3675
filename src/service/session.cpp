#include "service/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "backends/configurable.hpp"
#include "comm/machine_model.hpp"
#include "core/bridge.hpp"
#include "miniapp/adaptor.hpp"
#include "miniapp/oscillator.hpp"

namespace insitu::service {

namespace {

constexpr const char* kSessionKeys[] = {"tenant", "name",     "ranks",
                                        "grid",   "steps",    "weight",
                                        "quota_mb", "seed",   "machine"};

Status unknown_session_key(const std::string& key) {
  std::string valid;
  for (const char* k : kSessionKeys) {
    if (!valid.empty()) valid += ", ";
    valid += k;
  }
  return Status::InvalidArgument("unknown key 'session." + key +
                                 "'; valid keys: " + valid);
}

}  // namespace

StatusOr<SessionSpec> SessionSpec::parse(const pal::Config& config) {
  for (const std::string& key : config.keys_in_section("session")) {
    const bool known =
        std::any_of(std::begin(kSessionKeys), std::end(kSessionKeys),
                    [&key](const char* k) { return key == k; });
    if (!known) return unknown_session_key(key);
  }

  SessionSpec spec;
  spec.tenant = config.get_string_or("session.tenant", spec.tenant);
  if (spec.tenant.empty()) {
    return Status::InvalidArgument("session.tenant must be non-empty");
  }
  spec.name = config.get_string_or("session.name", spec.tenant);
  spec.ranks =
      static_cast<int>(config.get_int_or("session.ranks", spec.ranks));
  if (spec.ranks < 1) {
    return Status::InvalidArgument("session.ranks must be >= 1");
  }
  spec.grid = config.get_int_or("session.grid", spec.grid);
  if (spec.grid < 2) {
    return Status::InvalidArgument("session.grid must be >= 2");
  }
  spec.steps =
      static_cast<int>(config.get_int_or("session.steps", spec.steps));
  if (spec.steps < 1) {
    return Status::InvalidArgument("session.steps must be >= 1");
  }
  spec.weight = config.get_double_or("session.weight", spec.weight);
  if (!(spec.weight > 0.0)) {
    return Status::InvalidArgument("session.weight must be > 0");
  }
  const std::int64_t quota_mb = config.get_int_or("session.quota_mb", 0);
  if (quota_mb < 0) {
    return Status::InvalidArgument("session.quota_mb must be >= 0");
  }
  spec.quota_bytes = static_cast<std::size_t>(quota_mb) << 20;
  spec.seed = static_cast<std::uint64_t>(
      config.get_int_or("session.seed", static_cast<std::int64_t>(spec.seed)));
  spec.machine = config.get_string_or("session.machine", spec.machine);

  // The analysis sections travel with the spec; validate now so a typo'd
  // section is a submit-time error, not a mid-run surprise.
  spec.analyses = config;
  backends::ConfigurableOptions opts;
  opts.ignore_sections = {"session"};
  INSITU_ASSIGN_OR_RETURN(auto analyses,
                          backends::configure_analyses(spec.analyses, opts));
  (void)analyses;
  return spec;
}

std::size_t estimate_session_bytes(const SessionSpec& spec) {
  // The dominant tracked allocations are per-rank field portions and
  // their snapshots: grid^3 doubles globally, roughly doubled again by
  // snapshot + serialization + analysis state. Deliberately an upper
  // bound — admission prefers rejecting a borderline session over
  // OOMing a co-tenant.
  const std::size_t cells = static_cast<std::size_t>(spec.grid) *
                            static_cast<std::size_t>(spec.grid) *
                            static_cast<std::size_t>(spec.grid);
  const std::size_t field_bytes = cells * sizeof(double);
  const std::size_t per_rank_overhead = 64 * 1024;  // comm + adaptor state
  return 4 * field_bytes +
         static_cast<std::size_t>(spec.ranks) * per_rank_overhead;
}

StatusOr<SessionResult> run_session_pipeline(const SessionSpec& spec,
                                             const SessionRunContext& context) {
  backends::ConfigurableOptions configurable;
  configurable.ignore_sections = {"session"};
  {
    // Validate the analysis config before the run starts so a bad spec
    // is a clean error here, not a mid-run failure on every rank.
    INSITU_ASSIGN_OR_RETURN(
        auto probe, backends::configure_analyses(spec.analyses, configurable));
    (void)probe;
  }

  comm::Runtime::Options options;
  options.machine = comm::machine_by_name(spec.machine);
  options.seed = spec.seed;
  options.sched.backend = context.sched;
  options.sched.workers = context.sched_workers;
  options.observe.trace = context.trace;
  options.observe.telemetry = context.telemetry;
  options.tenant.label = context.tenant_label;
  options.tenant.tracker = context.tenant_tracker;
  options.pooling = context.pooling;

  SessionResult result;
  // Written by rank 0 only, read after the run joins every rank.
  long steps_executed = 0;

  result.report = comm::Runtime::run(
      spec.ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorConfig cfg;
        cfg.global_cells = {spec.grid, spec.grid, spec.grid};
        cfg.dt = 0.05;
        const double c = static_cast<double>(spec.grid) / 2.0;
        cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                            {c, c, c},
                            static_cast<double>(spec.grid) / 5.0,
                            2.0 * M_PI,
                            0.0},
                           {miniapp::Oscillator::Kind::kDamped,
                            {c / 2.0, c, c},
                            static_cast<double>(spec.grid) / 7.0,
                            3.0,
                            0.1}};
        miniapp::OscillatorSim sim(comm, cfg);
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        // Each rank builds its own analysis instances. Stateful adaptors
        // (autocorrelation history, rendering state) keep per-rank data
        // charged to the rank's memory tracker, so one shared instance
        // would both race across ranks and outlive the trackers its
        // buffers are pinned to.
        auto analyses =
            backends::configure_analyses(spec.analyses, configurable);
        if (!analyses.ok()) {
          throw std::runtime_error(analyses.status().to_string());
        }
        core::InSituBridge bridge(&comm);
        for (const auto& analysis : *analyses) bridge.add_analysis(analysis);
        if (!bridge.initialize().ok()) {
          throw std::runtime_error("bridge initialize failed");
        }
        int executed = 0;
        for (int s = 0; s < spec.steps; ++s) {
          auto keep = bridge.execute(adaptor, sim.time(), s);
          if (!keep.ok()) throw std::runtime_error(keep.status().to_string());
          ++executed;
          if (!*keep) break;
          sim.step();
        }
        (void)bridge.finalize();
        if (comm.rank() == 0) steps_executed = executed;
      });
  result.steps_executed = steps_executed;

  if (result.report.failed) {
    return Status::Internal("session '" + spec.name +
                            "' failed: " + result.report.failure_message);
  }

  // p99 step latency from the bridge's per-step histogram (the key
  // carries the tenant label when one was set).
  const std::string key = context.tenant_label.empty()
                              ? std::string("bridge.execute.seconds")
                              : obs::metric_key_with_label(
                                    "bridge.execute.seconds", "tenant",
                                    context.tenant_label);
  for (const obs::MetricSample& sample : result.report.metrics) {
    if (sample.key == key) {
      result.p99_step_seconds = obs::histogram_quantile(sample, 0.99);
      break;
    }
  }
  return result;
}

}  // namespace insitu::service
