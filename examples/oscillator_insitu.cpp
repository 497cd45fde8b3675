// The full oscillator miniapplication driver (§3.3 / §4.1): a CLI tool
// that runs the miniapp under any combination of in situ analyses, chosen
// entirely by configuration — the "write once, use anywhere" workflow.
//
//   ./examples/oscillator_insitu ranks=8 grid=32 steps=20
//       histogram.enabled=true histogram.bins=64
//       autocorrelation.enabled=true autocorrelation.window=10
//       catalyst.enabled=true catalyst.width=320 catalyst.height=180
//       catalyst.output=/tmp/osc_frames deck=examples/sample.osc
//   (all on one command line)
//
// Any [histogram]/[autocorrelation]/[statistics]/[catalyst]/[libsim]
// option accepted by ConfigurableAnalysis works on the command line.
//
// Observability (docs/OBSERVABILITY.md): `--trace run.json` records every
// instrumented span and writes a chrome://tracing file with one thread
// track per simulated rank; `--metrics run.csv` (or `.json`) dumps the
// merged bridge/backend/comm/io metric series.
//
// Execution engine (docs/OBSERVABILITY.md "Async execution"):
// `async=block|drop_oldest|latest_only` moves analyses onto a per-rank
// worker thread behind a bounded snapshot queue (`queue_depth=N`).

#include <cstdio>
#include <filesystem>

#include "backends/configurable.hpp"
#include "comm/runtime.hpp"
#include "core/async_bridge.hpp"
#include "core/bridge.hpp"
#include "io/block_io.hpp"
#include "miniapp/adaptor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics_io.hpp"
#include "pal/config.hpp"

using namespace insitu;

namespace {

const char* kDefaultDeck = R"(
# kind      x  y  z   radius omega  [zeta]
periodic   16 16 16   5.0    6.2832
damped      8 20 12   4.0    3.0    0.15
decaying   24  8 20   4.5    0.4
)";

}  // namespace

int main(int argc, char** argv) {
  const pal::Config args = pal::Config::from_args(argc, argv);
  const int ranks = static_cast<int>(args.get_int_or("ranks", 8));
  const int grid = static_cast<int>(args.get_int_or("grid", 32));
  const int steps = static_cast<int>(args.get_int_or("steps", 20));
  const std::string machine_name = args.get_string_or("machine", "cori");

  const std::string async_name = args.get_string_or("async", "");
  core::AsyncBridgeOptions async_options;
  async_options.queue_depth =
      static_cast<int>(args.get_int_or("queue_depth", 2));
  if (!async_name.empty()) {
    auto policy = comm::parse_backpressure_policy(async_name);
    if (!policy.ok()) {
      std::fprintf(stderr, "bad async option: %s\n",
                   policy.status().to_string().c_str());
      return 1;
    }
    async_options.policy = *policy;
  }

  // Read the oscillator deck (file or built-in default).
  std::string deck_text = kDefaultDeck;
  if (args.has("deck")) {
    auto bytes = io::read_file_bytes(args.get_string_or("deck", ""));
    if (!bytes.ok()) {
      std::fprintf(stderr, "cannot read deck: %s\n",
                   bytes.status().to_string().c_str());
      return 1;
    }
    deck_text.assign(reinterpret_cast<const char*>(bytes->data()),
                     bytes->size());
  }
  auto oscillators = miniapp::parse_oscillators(deck_text);
  if (!oscillators.ok()) {
    std::fprintf(stderr, "bad deck: %s\n",
                 oscillators.status().to_string().c_str());
    return 1;
  }

  // Every configured output directory exists before the run starts: a
  // rank whose write fails mid-run would leave its peers waiting in the
  // next collective.
  for (const char* key : {"catalyst.output", "libsim.output", "cinema.output",
                          "extract.output"}) {
    const std::string dir = args.get_string_or(key, "");
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s=%s: %s\n", key, dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  std::printf("oscillator miniapp: %d ranks, %d^3 grid, %d steps, %zu "
              "oscillators, machine=%s\n",
              ranks, grid, steps, oscillators->size(), machine_name.c_str());
  if (!async_name.empty()) {
    std::printf("execution: async bridge (policy=%s, queue_depth=%d)\n",
                async_name.c_str(), async_options.queue_depth);
  }

  const std::string trace_path = args.get_string_or("trace", "");
  const std::string metrics_path = args.get_string_or("metrics", "");

  comm::Runtime::Options options;
  options.machine = comm::machine_by_name(machine_name);
  options.observe.trace = !trace_path.empty();
  int exit_code = 0;

  comm::RunReport report = comm::Runtime::run(
      ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorConfig cfg;
        cfg.global_cells = {grid, grid, grid};
        cfg.dt = args.get_double_or("dt", 0.05);
        cfg.oscillators = comm.rank() == 0
                              ? *oscillators
                              : std::vector<miniapp::Oscillator>{};
        miniapp::OscillatorSim sim(comm, cfg);
        sim.initialize();  // broadcasts the deck from rank 0
        miniapp::OscillatorDataAdaptor adaptor(sim);

        auto analyses = backends::configure_analyses(args);
        if (!analyses.ok()) {
          if (comm.rank() == 0) {
            std::fprintf(stderr, "bad analysis config: %s\n",
                         analyses.status().to_string().c_str());
            exit_code = 2;  // usage error, like every other bad flag
          }
          return;
        }
        if (!async_name.empty()) {
          core::AsyncBridge bridge(&comm, async_options);
          for (const auto& analysis : *analyses) {
            bridge.add_analysis(analysis);
          }
          if (!bridge.initialize().ok()) return;
          for (int s = 0; s < steps; ++s) {
            auto keep = bridge.execute(adaptor, sim.time(), s);
            if (!keep.ok() || !*keep) break;
            sim.step();
          }
          (void)bridge.finalize();

          if (comm.rank() == 0) {
            std::printf(
                "done: %zu analyses, analysis init %.4fs, per-step "
                "(sim-visible) %.5fs, finalize %.4fs, %ld/%ld steps "
                "analyzed (virtual %s seconds)\n",
                analyses->size(), bridge.timings().initialize_seconds,
                bridge.timings().analysis_per_step.mean(),
                bridge.timings().finalize_seconds, bridge.executed_steps(),
                bridge.executed_steps() + bridge.total_dropped(),
                machine_name.c_str());
          }
          return;
        }

        core::InSituBridge bridge(&comm);
        for (const auto& analysis : *analyses) {
          bridge.add_analysis(analysis);
        }
        if (!bridge.initialize().ok()) return;
        for (int s = 0; s < steps; ++s) {
          auto keep = bridge.execute(adaptor, sim.time(), s);
          if (!keep.ok() || !*keep) break;
          sim.step();
        }
        (void)bridge.finalize();

        if (comm.rank() == 0) {
          std::printf(
              "done: %zu analyses, analysis init %.4fs, per-step %.5fs, "
              "finalize %.4fs (virtual %s seconds)\n",
              analyses->size(), bridge.timings().initialize_seconds,
              bridge.timings().analysis_per_step.mean(),
              bridge.timings().finalize_seconds, machine_name.c_str());
        }
      });
  std::printf("job virtual time-to-solution: %.4f s, memory HWM (sum): "
              "%.2f MiB\n",
              report.max_virtual_seconds(),
              static_cast<double>(report.total_high_water_bytes()) /
                  (1024.0 * 1024.0));

  obs::ExportMeta meta;
  meta.tool = "oscillator_insitu";
  for (int i = 1; i < argc; ++i) {
    if (i > 1) meta.config += ' ';
    meta.config += argv[i];
  }
  meta.seed = report.seed;

  if (!trace_path.empty()) {
    obs::ChromeTraceOptions trace_options;
    trace_options.meta = &meta;
    const Status status = obs::write_chrome_trace_file(
        trace_path, report.trace, trace_options);
    if (!status.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.to_string().c_str());
      exit_code = 1;
    } else {
      std::printf("wrote chrome trace (%zu spans, %d rank tracks): %s\n",
                  report.trace.events.size(), report.trace.nranks,
                  trace_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    const std::vector<obs::MetricsRun> runs = {
        {"oscillator", report.metrics}};
    const bool json = metrics_path.size() > 5 &&
                      metrics_path.rfind(".json") == metrics_path.size() - 5;
    const Status status =
        json ? obs::write_metrics_json_file(metrics_path, runs, &meta)
             : obs::write_metrics_csv_file(metrics_path, runs, &meta);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.to_string().c_str());
      exit_code = 1;
    } else {
      std::printf("wrote metrics (%zu series): %s\n",
                  report.metrics.size(), metrics_path.c_str());
    }
  }
  return exit_code;
}
