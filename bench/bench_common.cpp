#include "bench_common.hpp"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "comm/sched.hpp"
#include "obs/analyze/baseline.hpp"
#include "pal/config.hpp"

namespace insitu::bench {

namespace {

ObsSession* g_obs_session = nullptr;

/// Position of a kernels:: kernel or variant name, or -1.
int kernel_index(std::string_view name) {
  for (int k = 0; k < kernels::kNumKernels; ++k) {
    if (name == kernels::kernel_name(static_cast<kernels::KernelId>(k))) {
      return k;
    }
  }
  return -1;
}

int variant_index(std::string_view name) {
  for (int v = 0; v < kernels::kNumVariants; ++v) {
    if (name == kernels::variant_name(static_cast<kernels::Variant>(v))) {
      return v;
    }
  }
  return -1;
}

/// Distill the pool.* and kernels.* series comm::Runtime::run published
/// for one run into the baseline's optional "pool" and "kernels" blocks.
void add_run_counters(const obs::MetricsSnapshot& metrics,
                      obs::analyze::BaselineRun& run) {
  const pal::BufferPoolStats pool = pool_stats(metrics);
  double kernel_elements[kernels::kNumKernels] = {};
  double calls_per_variant[kernels::kNumVariants] = {};
  std::string name;
  obs::Labels labels;
  for (const obs::MetricSample& sample : metrics) {
    labels.clear();
    if (!obs::parse_metric_key(sample.key, name, labels)) continue;
    if (name != "kernels.elements" && name != "kernels.calls") continue;
    int kernel = -1;
    int variant = -1;
    for (const auto& [key, value] : labels) {
      if (key == "kernel") kernel = kernel_index(value);
      if (key == "variant") variant = variant_index(value);
    }
    if (kernel < 0 || variant < 0) continue;
    if (name == "kernels.elements") kernel_elements[kernel] += sample.value;
    if (name == "kernels.calls") calls_per_variant[variant] += sample.value;
  }
  // Short runs are dominated by warmup misses; only gate hit rates with
  // enough traffic for a steady state.
  if (pool.hits + pool.misses >= 256) {
    run.has_pool = true;
    run.pool_hit_rate = pool.hit_rate();
    run.pool_bytes_allocated = static_cast<double>(pool.bytes_allocated);
    run.pool_bytes_reused = static_cast<double>(pool.bytes_reused);
  }
  // Informational only (check_baseline never fails on it): which
  // dispatch variant ran and how many elements each kernel saw.
  for (int k = 0; k < kernels::kNumKernels; ++k) {
    if (kernel_elements[k] > 0) {
      run.kernels_elements.emplace_back(
          kernels::kernel_name(static_cast<kernels::KernelId>(k)),
          kernel_elements[k]);
    }
  }
  int dominant = 0;
  for (int v = 1; v < kernels::kNumVariants; ++v) {
    if (calls_per_variant[v] > calls_per_variant[dominant]) dominant = v;
  }
  if (!run.kernels_elements.empty()) {
    run.has_kernels = true;
    run.kernels_variant = std::string(
        kernels::variant_name(static_cast<kernels::Variant>(dominant)));
  }
}

}  // namespace

pal::BufferPoolStats pool_stats(const obs::MetricsSnapshot& metrics) {
  pal::BufferPoolStats pool;
  std::string name;
  obs::Labels labels;
  for (const obs::MetricSample& sample : metrics) {
    if (sample.key.rfind("pool.", 0) != 0) continue;
    labels.clear();
    if (!obs::parse_metric_key(sample.key, name, labels)) continue;
    const auto counter = static_cast<std::uint64_t>(sample.value);
    if (name == "pool.hits") pool.hits += counter;
    if (name == "pool.misses") pool.misses += counter;
    if (name == "pool.evictions") pool.evictions += counter;
    if (name == "pool.releases") pool.releases += counter;
    if (name == "pool.bytes_reused") pool.bytes_reused += counter;
    if (name == "pool.bytes_allocated") pool.bytes_allocated += counter;
  }
  return pool;
}

ObsSession::ObsSession(int argc, const char* const* argv) {
  const pal::Config args = pal::Config::from_args(argc, argv);
  trace_path_ = args.get_string_or("trace", "");
  metrics_path_ = args.get_string_or("metrics", "");
  baseline_path_ = args.get_string_or("baseline", "");
  if (argc > 0) {
    const std::string_view arg0(argv[0]);
    const std::size_t slash = arg0.find_last_of('/');
    tool_ = std::string(
        slash == std::string_view::npos ? arg0 : arg0.substr(slash + 1));
  }
  for (int i = 1; i < argc; ++i) {
    if (i > 1) config_ += ' ';
    config_ += argv[i];
  }
  // Kernel-dispatch variant: `kernels=NAME` overrides the INSITU_KERNELS
  // default for the whole process.
  const std::string kernels = args.get_string_or("kernels", "");
  if (!kernels.empty()) {
    if (kernels::set_variant(kernels)) {
      kernels_ = std::string(kernels::variant_name(kernels::active_variant()));
    } else {
      std::fprintf(stderr, "unknown kernels variant '%s' (ignored)\n",
                   kernels.c_str());
    }
  }
  // Scheduler backend: `sched=NAME`. Unlike the kernel variant (where
  // "ignore and run the default" still measures the same thing), running
  // the wrong scheduler invalidates what the bench claims to compare, so
  // a bad value is a hard error.
  const std::string sched = args.get_string_or("sched", "");
  if (!sched.empty()) {
    const auto backend = comm::parse_sched_backend(sched);
    if (!backend.has_value()) {
      std::fprintf(stderr,
                   "error: sched=%s is not a scheduler backend "
                   "(expected threads|mn)\n",
                   sched.c_str());
      std::exit(2);
    }
    comm::set_default_sched_backend(*backend);
    sched_ = comm::to_string(*backend);
  }
  sched_workers_ = static_cast<int>(args.get_int_or("sched_workers", 0));
  if (sched_workers_ < 0) sched_workers_ = 0;
  // Executed rank counts: `ranks=N[,M...]`.
  const std::string ranks_text = args.get_string_or("ranks", "");
  if (!ranks_text.empty()) {
    std::string error;
    const auto parsed = parse_ranks_list(ranks_text, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "error: invalid ranks '%s': %s\n",
                   ranks_text.c_str(), error.c_str());
      std::exit(2);
    }
    ranks_ = *parsed;
  }
  g_obs_session = this;
}

std::optional<std::vector<int>> parse_ranks_list(std::string_view text,
                                                 std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (text.empty()) return fail("empty list");
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string element(text.substr(pos, comma - pos));
    if (element.empty()) return fail("empty element");
    for (const char c : element) {
      // Reject signs and whitespace outright: a rank count is a plain
      // positive decimal integer, and strtol's leniency ("+8", " 8",
      // "-1" parsing as a huge unsigned) is exactly what we don't want.
      if (c < '0' || c > '9') {
        return fail("'" + element + "' is not a positive integer");
      }
    }
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(element.c_str(), &end, 10);
    if (errno == ERANGE || value > INT_MAX) {
      return fail("'" + element + "' overflows the rank count");
    }
    if (*end != '\0') return fail("'" + element + "' is not an integer");
    if (value <= 0) return fail("rank count must be >= 1");
    out.push_back(static_cast<int>(value));
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<int> executed_ranks() {
  ObsSession* obs = ObsSession::current();
  if (obs != nullptr && !obs->ranks_override().empty()) {
    return obs->ranks_override();
  }
  return {4, 8, 16};
}

ObsSession::~ObsSession() {
  if (g_obs_session == this) g_obs_session = nullptr;
}

ObsSession* ObsSession::current() { return g_obs_session; }

void ObsSession::record(const std::string& label,
                        const comm::RunReport& report) {
  // An explicit dispatch-variant or scheduler override gives identical
  // results; tag such runs so their series stay distinguishable (default
  // labels unchanged).
  std::string full = label;
  if (!kernels_.empty()) full += "/k" + kernels_;
  if (!sched_.empty()) full += "/s" + sched_;
  if (trace_enabled()) {
    traces_.push_back({full, report.trace});
    seeds_.push_back(report.seed);
    run_counters_.push_back(report.metrics);
  }
  if (metrics_enabled()) metrics_.push_back({full, report.metrics});
}

obs::ExportMeta ObsSession::export_meta() const {
  obs::ExportMeta meta;
  meta.tool = tool_;
  meta.config = config_;
  meta.seed = seeds_.empty() ? 0 : seeds_.front();
  return meta;
}

int ObsSession::finish() {
  if (finished_) return 0;
  finished_ = true;
  int rc = 0;
  const obs::ExportMeta meta = export_meta();
  if (!trace_path_.empty()) {
    obs::ChromeTraceOptions trace_options;
    trace_options.meta = &meta;
    const Status status =
        obs::write_chrome_trace_file(trace_path_, traces_, trace_options);
    if (status.ok()) {
      std::printf("wrote chrome trace (%zu runs): %s\n", traces_.size(),
                  trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  if (metrics_enabled()) {
    const bool json = metrics_path_.size() > 5 &&
                      metrics_path_.rfind(".json") == metrics_path_.size() - 5;
    const Status status =
        json ? obs::write_metrics_json_file(metrics_path_, metrics_, &meta)
             : obs::write_metrics_csv_file(metrics_path_, metrics_, &meta);
    if (status.ok()) {
      std::printf("wrote metrics (%zu runs): %s\n", metrics_.size(),
                  metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  if (baseline_enabled()) {
    obs::analyze::Baseline baseline;
    baseline.tool = meta.tool;
    baseline.config = meta.config;
    baseline.seed = meta.seed;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      obs::analyze::BaselineRun run = obs::analyze::baseline_run_from_analysis(
          traces_[i].label, obs::analyze::analyze_trace(traces_[i].log),
          i < seeds_.size() ? seeds_[i] : 0);
      if (i < run_counters_.size()) add_run_counters(run_counters_[i], run);
      baseline.runs.push_back(std::move(run));
    }
    const Status status =
        obs::analyze::write_baseline_file(baseline_path_, baseline);
    if (status.ok()) {
      std::printf("wrote baseline (%zu runs): %s\n", baseline.runs.size(),
                  baseline_path_.c_str());
    } else {
      std::fprintf(stderr, "baseline export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  return rc;
}

namespace {

backends::CatalystSliceConfig gate_slice_config() {
  backends::CatalystSliceConfig cs;
  cs.image_width = 256;
  cs.image_height = 144;
  cs.scalar_min = -1.5;
  cs.scalar_max = 1.5;
  return cs;
}

miniapp::OscillatorConfig executed_sim_config(
    const MiniappBenchParams& params) {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {params.cells_per_axis, params.cells_per_axis,
                      params.cells_per_axis};
  cfg.dt = 0.05;
  const double c = static_cast<double>(params.cells_per_axis) / 2.0;
  cfg.oscillators = {
      {miniapp::Oscillator::Kind::kPeriodic, {c, c, c},
       static_cast<double>(params.cells_per_axis) / 5.0, 2.0 * M_PI, 0.0},
      {miniapp::Oscillator::Kind::kDamped, {c / 2.0, c, c},
       static_cast<double>(params.cells_per_axis) / 7.0, 3.0, 0.1},
      {miniapp::Oscillator::Kind::kDecaying, {c, c / 2.0, 1.5 * c},
       static_cast<double>(params.cells_per_axis) / 6.0, 0.3, 0.0},
  };
  return cfg;
}

}  // namespace

comm::Runtime::Options run_options(const comm::MachineModel& machine,
                                   std::uint64_t seed) {
  comm::Runtime::Options options;
  options.machine = machine;
  options.seed = seed;
  ObsSession* obs = ObsSession::current();
  options.observe.trace = obs != nullptr && obs->trace_enabled();
  if (obs != nullptr) options.sched.workers = obs->sched_workers();
  return options;
}

comm::RunReport launch(const std::string& label, int ranks,
                       const comm::Runtime::Options& options,
                       const std::function<void(comm::Communicator&)>& body) {
  comm::RunReport report = comm::Runtime::run(ranks, options, body);
  if (ObsSession* obs = ObsSession::current()) obs->record(label, report);
  return report;
}

miniapp::OscillatorConfig ablation_oscillator_config(
    std::int64_t cells_per_axis, double radius) {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {cells_per_axis, cells_per_axis, cells_per_axis};
  cfg.dt = 0.05;
  const double c = static_cast<double>(cells_per_axis) / 2.0;
  cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic, {c, c, c},
                      radius, 2.0 * M_PI, 0.0}};
  return cfg;
}

std::shared_ptr<analysis::HistogramAnalysis> gate_histogram() {
  return std::make_shared<analysis::HistogramAnalysis>(
      "data", data::Association::kPoint, 64);
}

std::shared_ptr<backends::CatalystSlice> gate_slice() {
  return std::make_shared<backends::CatalystSlice>(gate_slice_config());
}

std::int64_t GateOutputs::histogram_total() const {
  std::int64_t total = 0;
  for (const std::int64_t b : bins) total += b;
  return total;
}

std::string GateOutputs::hash_hex() const {
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(image_hash));
  return hash;
}

GateOutputs run_gate_pipeline(const std::string& label, int ranks,
                              const comm::Runtime::Options& options,
                              const GateSpec& spec) {
  GateOutputs out;
  const auto wall0 = std::chrono::steady_clock::now();
  const comm::RunReport report =
      launch(label, ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorSim sim(comm, ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);
        std::vector<core::AnalysisAdaptorPtr> analyses;
        for (const auto& make : spec.analyses) analyses.push_back(make());

        const auto drive = [&](auto& bridge) {
          for (const auto& analysis : analyses) bridge.add_analysis(analysis);
          (void)bridge.initialize();
          for (int s = 0; s < spec.steps; ++s) {
            sim.step();
            (void)bridge.execute(adaptor, sim.time(), s);
          }
          (void)bridge.finalize();
          if (comm.rank() == 0) {
            out.analysis_per_step = bridge.timings().analysis_per_step.mean();
          }
        };
        if (spec.async.has_value()) {
          core::AsyncBridge bridge(&comm, *spec.async);
          drive(bridge);
          if (comm.rank() == 0) {
            out.executed_steps = bridge.executed_steps();
            out.dropped = bridge.total_dropped();
          }
        } else {
          core::InSituBridge bridge(&comm);
          drive(bridge);
          if (comm.rank() == 0) out.executed_steps = spec.steps;
        }
        if (comm.rank() != 0) return;
        for (const auto& analysis : analyses) {
          if (const auto hist = std::dynamic_pointer_cast<
                  analysis::HistogramAnalysis>(analysis)) {
            out.bins = hist->last_result().bins;
          } else if (const auto slice =
                         std::dynamic_pointer_cast<backends::CatalystSlice>(
                             analysis)) {
            out.image_hash = slice->last_image().color_hash();
          }
        }
      });
  out.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall0)
                         .count();
  out.total = report.max_virtual_seconds();
  out.pool = pool_stats(report.metrics);
  out.rank_times.reserve(report.ranks.size());
  for (const comm::RankStats& r : report.ranks) {
    out.rank_times.push_back(r.virtual_seconds);
  }
  return out;
}

bool same_outputs(const GateOutputs& ref, std::string_view ref_name,
                  const GateOutputs& arm, std::string_view arm_name,
                  int ranks) {
  const std::string a(arm_name);
  const std::string r(ref_name);
  bool same = true;
  if (arm.rank_times != ref.rank_times) {
    std::fprintf(stderr,
                 "FAIL: %s per-rank virtual times differ from %s at %d "
                 "ranks\n",
                 a.c_str(), r.c_str(), ranks);
    same = false;
  }
  if (arm.total != ref.total) {
    std::fprintf(stderr, "FAIL: %s virtual total %.17g != %s %.17g at %d "
                 "ranks\n",
                 a.c_str(), arm.total, r.c_str(), ref.total, ranks);
    same = false;
  }
  if (arm.bins != ref.bins) {
    std::fprintf(stderr, "FAIL: %s histogram differs from %s at %d ranks\n",
                 a.c_str(), r.c_str(), ranks);
    same = false;
  }
  if (arm.image_hash != ref.image_hash) {
    std::fprintf(stderr, "FAIL: %s image differs from %s at %d ranks\n",
                 a.c_str(), r.c_str(), ranks);
    same = false;
  }
  return same;
}

RunResult run_miniapp_config(MiniappConfig config,
                             const MiniappBenchParams& params) {
  RunResult result;
  result.ranks = params.ranks;
  std::vector<std::size_t> startup(static_cast<std::size_t>(params.ranks), 0);

  const comm::RunReport report = launch(
      std::string(to_string(config)) + "/p" + std::to_string(params.ranks),
      params.ranks, run_options(), [&](comm::Communicator& comm) {
        // ---- simulation init ----
        const double t0 = comm.clock().now();
        miniapp::OscillatorSim sim(comm, executed_sim_config(params));
        sim.initialize();
        const double sim_init = comm.clock().now() - t0;
        startup[static_cast<std::size_t>(comm.rank())] =
            pal::rank_memory_tracker().current_bytes();

        // ---- "Original": subroutine-called autocorrelation, no SENSEI --
        if (config == MiniappConfig::kOriginal) {
          // Direct circular-buffer autocorrelation over the sim's buffer,
          // no adaptor / bridge in the path.
          const std::size_t n = sim.values().size();
          std::vector<double> history(
              static_cast<std::size_t>(params.window) * n, 0.0);
          std::vector<double> corr(history.size(), 0.0);
          pal::TrackedBytes tracked(2 * history.size() * sizeof(double));
          pal::PhaseTimer sim_t, analysis_t;
          for (int s = 0; s < params.steps; ++s) {
            const double ts = comm.clock().now();
            sim.step();
            sim_t.add(comm.clock().now() - ts);
            const double ta = comm.clock().now();
            const int delays = std::min(s, params.window);
            for (std::size_t i = 0; i < n; ++i) {
              const double now = sim.values()[i];
              for (int d = 1; d <= delays; ++d) {
                const std::size_t slot =
                    static_cast<std::size_t>((s - d) % params.window) * n + i;
                corr[static_cast<std::size_t>(d - 1) * n + i] +=
                    history[slot] * now;
              }
              history[static_cast<std::size_t>(s % params.window) * n + i] =
                  now;
            }
            comm.advance_compute(comm.machine().compute_time(
                static_cast<std::uint64_t>(n) *
                static_cast<std::uint64_t>(delays + 1)));
            analysis_t.add(comm.clock().now() - ta);
          }
          // Final top-k reduction, identical to the SENSEI analysis.
          const double tf = comm.clock().now();
          for (int d = 0; d < params.window; ++d) {
            std::vector<double> local(corr.begin() +
                                          static_cast<std::ptrdiff_t>(d * n),
                                      corr.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              (d + 1) * n));
            std::partial_sort(
                local.begin(),
                local.begin() + std::min<std::ptrdiff_t>(params.top_k,
                                                         local.size()),
                local.end(), std::greater<>());
            local.resize(static_cast<std::size_t>(params.top_k));
            (void)comm.gatherv(std::span<const double>(local), 0);
          }
          if (comm.rank() == 0) {
            result.sim_init = sim_init;
            result.per_step_sim = sim_t.mean();
            result.per_step_analysis = analysis_t.mean();
            result.finalize = comm.clock().now() - tf;
          }
          return;
        }

        // ---- SENSEI-instrumented configurations ----
        miniapp::OscillatorDataAdaptor adaptor(sim);
        core::InSituBridge bridge(&comm);
        std::shared_ptr<analysis::Autocorrelation> autocorr;
        switch (config) {
          case MiniappConfig::kBaseline:
            break;
          case MiniappConfig::kHistogram:
            bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
                "data", data::Association::kPoint, params.histogram_bins));
            break;
          case MiniappConfig::kAutocorrelation:
            autocorr = std::make_shared<analysis::Autocorrelation>(
                "data", data::Association::kPoint, params.window,
                params.top_k);
            bridge.add_analysis(autocorr);
            break;
          case MiniappConfig::kCatalystSlice:
            bridge.add_analysis(gate_slice());
            break;
          case MiniappConfig::kLibsimSlice: {
            // The Catalyst slice's image size, so both rows render the
            // same number of pixels.
            const backends::CatalystSliceConfig cs = gate_slice_config();
            backends::LibsimConfig lc;
            lc.session_text =
                "[session]\narray=data\ncolormap=cool_warm\nmin=-1.5\n"
                "max=1.5\nwidth=" + std::to_string(cs.image_width) +
                "\nheight=" + std::to_string(cs.image_height) +
                "\n[plot0]\ntype=slice\naxis=2\nvalue=" +
                std::to_string(params.cells_per_axis / 2.0) + "\n";
            bridge.add_analysis(std::make_shared<backends::LibsimRender>(lc));
            break;
          }
          case MiniappConfig::kOriginal:
            break;  // handled above
        }

        (void)bridge.initialize();
        pal::PhaseTimer sim_t;
        for (int s = 0; s < params.steps; ++s) {
          const double ts = comm.clock().now();
          sim.step();
          sim_t.add(comm.clock().now() - ts);
          (void)bridge.execute(adaptor, sim.time(), s);
        }
        (void)bridge.finalize();

        if (comm.rank() == 0) {
          result.sim_init = sim_init;
          result.analysis_init = bridge.timings().initialize_seconds;
          result.per_step_sim = sim_t.mean();
          result.per_step_analysis =
              bridge.timings().analysis_per_step.mean();
          result.finalize = bridge.timings().finalize_seconds;
        }
      });

  result.total = report.max_virtual_seconds();
  result.mem_high_water = report.total_high_water_bytes();
  for (const std::size_t bytes : startup) result.mem_startup += bytes;
  return result;
}

}  // namespace insitu::bench
