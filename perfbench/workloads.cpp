#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>

#include "analysis/autocorrelation.hpp"
#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "backends/flexpath.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "kernels/kernels.hpp"
#include "miniapp/adaptor.hpp"
#include "miniapp/oscillator.hpp"
#include "pal/rng.hpp"
#include "proxy/phasta.hpp"
#include "service/session_manager.hpp"

namespace perfbench {

namespace {

using namespace insitu;

constexpr double kMiB = 1024.0 * 1024.0;

double g_rss_baseline_mb = 0.0;

/// Kernels whose element counts are reported one by one.
constexpr kernels::KernelId kReportedKernels[] = {
    kernels::KernelId::kHistogramBin,   kernels::KernelId::kReduceMoments,
    kernels::KernelId::kOscillator,     kernels::KernelId::kRasterSpan,
    kernels::KernelId::kColormap,       kernels::KernelId::kDepthComposite,
    kernels::KernelId::kDeltaEncode,    kernels::KernelId::kDeltaDecode,
};

std::uint64_t digest_histogram(const analysis::HistogramResult& h) {
  std::uint64_t d = fnv1a(&h.min, sizeof h.min);
  d = fnv1a(&h.max, sizeof h.max, d);
  return fnv1a(h.bins.data(), h.bins.size() * sizeof(std::int64_t), d);
}

std::uint64_t digest_clocks(const comm::RunReport& report) {
  std::uint64_t d = fnv1a(nullptr, 0);
  for (const comm::RankStats& rank : report.ranks) {
    d = fnv1a(&rank.virtual_seconds, sizeof rank.virtual_seconds, d);
  }
  return d;
}

/// A seed-determined oscillator deck inside a cube of side `extent`.
std::vector<miniapp::Oscillator> oscillator_deck(std::uint64_t seed, int count,
                                                 double extent) {
  pal::Rng rng(seed);
  std::vector<miniapp::Oscillator> deck;
  for (int i = 0; i < count; ++i) {
    miniapp::Oscillator osc;
    osc.kind = static_cast<miniapp::Oscillator::Kind>(i % 3);
    osc.center = {rng.uniform(0.2, 0.8) * extent, rng.uniform(0.2, 0.8) * extent,
                  rng.uniform(0.2, 0.8) * extent};
    osc.radius = rng.uniform(0.1, 0.25) * extent;
    osc.omega = 2.0 * M_PI * rng.uniform(0.5, 2.0);
    osc.zeta = rng.uniform(0.05, 0.2);
    deck.push_back(osc);
  }
  return deck;
}

core::AnalysisAdaptorPtr tap(core::AnalysisAdaptorPtr inner, SpanLog* log,
                             SpanName execute,
                             SpanName finalize = kNumSpanNames) {
  return std::make_shared<AnalysisTap>(std::move(inner), log, execute,
                                       finalize);
}

/// Time a status-returning call inside a span.
template <typename F>
auto spanned(SpanLog* log, SpanName name, F&& f) {
  Scope span(log, name);
  return f();
}

/// Layer values every workload reads the same way: the run's published
/// metrics, the kernel counter delta and the memory footprint.
void add_common_layers(Instance& out, const obs::MetricsSnapshot& m,
                       const kernels::StatsSnapshot& before,
                       double tracked_bytes, int live_ranks) {
  auto& l = out.layer;
  l["comm.collective.calls"] = sum_metric(m, "comm.collective.calls");
  l["comm.collective.wait_s"] = sum_metric(m, "comm.collective.wait.seconds");
  l["comm.collective.contended"] = sum_metric(m, "comm.collective.contended");
  l["comm.bytes_sent"] = sum_metric(m, "comm.bytes_sent");
  l["comm.messages_sent"] = sum_metric(m, "comm.messages_sent");
  const double hits = sum_metric(m, "pool.hits");
  const double misses = sum_metric(m, "pool.misses");
  l["pal.pool.hit_rate"] = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  l["pal.pool.bytes_allocated"] = sum_metric(m, "pool.bytes_allocated");
  const double in = sum_metric(m, "io.reduction.bytes_in");
  const double out_bytes = sum_metric(m, "io.reduction.bytes_out");
  l["io.reduction.bytes_in"] = in;
  l["io.reduction.bytes_out"] = out_bytes;
  l["io.reduction.ratio"] = out_bytes > 0.0 ? in / out_bytes : 0.0;
  l["io.reduction.encode_s"] = mean_metric(m, "io.reduction.encode.seconds");

  const kernels::StatsSnapshot after = kernels::stats_snapshot();
  double elements = 0.0;
  double bytes = 0.0;
  std::vector<double> per_kernel(kernels::kNumKernels, 0.0);
  for (int k = 0; k < kernels::kNumKernels; ++k) {
    for (int v = 0; v < kernels::kNumVariants; ++v) {
      const double e = static_cast<double>(after.s[k][v].elements -
                                           before.s[k][v].elements);
      per_kernel[static_cast<std::size_t>(k)] += e;
      elements += e;
      bytes += static_cast<double>(after.s[k][v].bytes - before.s[k][v].bytes);
    }
  }
  l["kernels.elements"] = elements;
  l["kernels.bytes"] = bytes;
  for (const kernels::KernelId id : kReportedKernels) {
    l[std::string("kernels.") + kernels::kernel_name(id) + ".elements"] =
        per_kernel[static_cast<std::size_t>(id)];
  }

  const double peak = peak_rss_mb();
  l["pal.tracked_hwm_mb"] = tracked_bytes / kMiB;
  l["pal.untracked_mb"] = peak - tracked_bytes / kMiB;
  l["exec.rss_per_rank_kb"] =
      (peak - g_rss_baseline_mb) * 1024.0 / std::max(1, live_ranks);
  l["exec.cpu_per_wall"] = out.total_s > 0.0 ? out.cpu_s / out.total_s : 0.0;
}

/// Per-rank launch / ready / exit stamps of one Runtime::run.
struct RankStamps {
  explicit RankStamps(int ranks)
      : entered(static_cast<std::size_t>(ranks)),
        ready(static_cast<std::size_t>(ranks)),
        exited(static_cast<std::size_t>(ranks)) {}
  std::vector<double> entered, ready, exited;

  void finish(Instance& out, double start, double end) const {
    out.setup_s = *std::max_element(ready.begin(), ready.end()) - start;
    out.total_s = end - start;
    out.layer["exec.launch_s"] =
        *std::max_element(entered.begin(), entered.end()) - start;
    out.layer["exec.join_s"] =
        end - *std::max_element(exited.begin(), exited.end());
  }
};

/// Per-step failure flags any rank may raise.
class StepFlags {
 public:
  explicit StepFlags(int steps)
      : n_(steps), flags_(new std::atomic<bool>[static_cast<std::size_t>(steps)]) {
    for (int s = 0; s < steps; ++s) flags_[static_cast<std::size_t>(s)] = false;
  }
  void mark(long step) {
    flags_[static_cast<std::size_t>(std::clamp<long>(step, 0, n_ - 1))] = true;
  }
  long count() const {
    long bad = 0;
    for (int s = 0; s < n_; ++s) bad += flags_[static_cast<std::size_t>(s)] ? 1 : 0;
    return bad;
  }

 private:
  int n_;
  std::unique_ptr<std::atomic<bool>[]> flags_;
};

void fold_spans(bool traced, const std::vector<SpanLog>& logs, int root,
                SpanStats* stats, const std::string& spans_path,
                const std::string& workload, int run_id) {
  if (!traced) return;
  stats->add(logs, root);
  if (!spans_path.empty() && !logs.empty()) {
    write_spans_json(spans_path, workload, run_id, logs[0]);
  }
}

/// Initialize the bridge inside a span; a failure fails step 0.
void initialize_bridge(core::InSituBridge& bridge, SpanLog* log,
                       StepFlags& bad) {
  if (!spanned(log, kCoreInitialize, [&] { return bridge.initialize(); })
           .ok()) {
    bad.mark(0);
  }
}

/// The in situ loop of a simulation rank, then finalize. Each step runs
/// the sim step and `bridge.execute`, both spanned; `on_step(s, t0, te,
/// t1)` receives the step's start, the execute entry and the step's end.
template <typename Sim, typename OnStep>
void run_steps(Sim& sim, SpanName sim_span, core::InSituBridge& bridge,
               core::DataAdaptor& adaptor, SpanLog* log, int steps,
               StepFlags& bad, OnStep&& on_step) {
  for (int s = 0; s < steps; ++s) {
    const double t0 = wall_now();
    double te = 0.0;
    bool ok = false;
    {
      Scope step(log, kStep);
      {
        Scope sim_step(log, sim_span);
        sim.step();
      }
      te = wall_now();
      ok = spanned(log, kCoreExecute, [&] {
             return bridge.execute(adaptor, sim.time(), s);
           }).ok();
    }
    const double t1 = wall_now();
    if (!ok) bad.mark(s);
    on_step(s, t0, te, t1);
  }
  if (!spanned(log, kCoreFinalize, [&] { return bridge.finalize(); }).ok()) {
    bad.mark(steps - 1);
  }
}

/// Every step's histogram must count each point exactly once.
void check_counts(const std::vector<std::int64_t>& totals,
                  std::int64_t expected, StepFlags& bad, Instance& out) {
  for (std::size_t s = 0; s < totals.size(); ++s) {
    if (totals[s] != expected) {
      bad.mark(static_cast<long>(s));
      out.problems.push_back("histogram count != global point count");
    }
  }
}

/// Operation counts and the per-rank virtual clocks of one Runtime::run.
void finish_run(Instance& out, const comm::RunReport& report,
                const StepFlags& bad, int steps) {
  out.attempted = steps;
  out.failed = report.failed ? steps : bad.count();
  if (report.failed) out.problems.push_back(report.failure_message);
  out.digest.push_back(digest_clocks(report));
}

// ---------------------------------------------------------------------------
// phasta_10k: PHASTA proxy at 10,240 virtual ranks on M:N fibers.

class Phasta final : public Workload {
 public:
  explicit Phasta(const Plan& plan)
      : plan_(plan),
        ranks_(plan.tiny ? 64 : 10240),
        // ~9.5 s per instance: a 15 s run holds two instances, so
        // the p90's sample count does not change from run to run.
        steps_(plan.tiny ? 4 : 16) {
    pal::Rng rng(plan.seed);
    jet_amplitude_ = rng.uniform(0.3, 0.7);
    jet_frequency_ = rng.uniform(1.5, 2.5);
  }

  std::string sched() const override {
    return "mn/" + std::to_string(plan_.nproc);
  }

  Instance run(bool traced, SpanStats* stats, const std::string& spans_path,
               int run_id) override {
    Instance out;
    std::vector<SpanLog> logs(traced ? static_cast<std::size_t>(ranks_) : 0);
    RankStamps stamps(ranks_);
    StepFlags bad(steps_);
    std::vector<std::uint64_t> step_digest(static_cast<std::size_t>(steps_));
    std::vector<std::int64_t> hist_total(static_cast<std::size_t>(steps_));
    std::atomic<std::int64_t> nodes{0};

    comm::Runtime::Options options;
    options.machine = comm::mira_bgq();
    options.seed = plan_.seed;
    options.sched.backend = comm::SchedBackend::kMn;
    options.sched.workers = plan_.nproc;

    const kernels::StatsSnapshot k0 = kernels::stats_snapshot();
    const double cpu0 = process_cpu_s();
    const double start = wall_now();
    const comm::RunReport report =
        comm::Runtime::run(ranks_, options, [&](comm::Communicator& comm) {
          const int r = comm.rank();
          const auto ri = static_cast<std::size_t>(r);
          stamps.entered[ri] = wall_now();
          SpanLog* log = traced ? &logs[ri] : nullptr;
          Scope body(log, kRankBody);
          proxy::PhastaConfig cfg;
          cfg.cells_per_rank = {4, 4, 4};
          cfg.jet_amplitude = jet_amplitude_;
          cfg.jet_frequency = jet_frequency_;
          std::optional<proxy::PhastaSim> sim;
          {
            Scope init(log, kProxyInit);
            sim.emplace(comm, cfg);
            sim->initialize();
          }
          nodes += sim->num_nodes();
          proxy::PhastaDataAdaptor native(*sim);
          TimedAdaptor adaptor(native, log);

          auto hist = std::make_shared<analysis::HistogramAnalysis>(
              "velocity_magnitude", data::Association::kPoint, 64);
          backends::CatalystSliceConfig cs;
          cs.array = "velocity_magnitude";
          cs.image_width = 180;
          cs.image_height = 45;
          cs.scalar_min = 0.0;
          cs.scalar_max = 2.0;
          cs.compress_png = false;
          auto slice = std::make_shared<backends::CatalystSlice>(cs);
          core::InSituBridge bridge(&comm);
          bridge.add_analysis(tap(hist, log, kHistogram));
          bridge.add_analysis(tap(slice, log, kCatalystSlice));
          initialize_bridge(bridge, log, bad);
          stamps.ready[ri] = wall_now();
          run_steps(*sim, kProxyStep, bridge, adaptor, log, steps_, bad,
                    [&](int s, double t0, double te, double t1) {
                      if (r != 0) return;
                      const auto si = static_cast<std::size_t>(s);
                      if (s > 0) {
                        out.step_s.push_back(t1 - t0);
                        out.delivery_s.push_back(t1 - te);
                      }
                      step_digest[si] = digest_histogram(hist->last_result()) ^
                                        slice->last_image().color_hash();
                      hist_total[si] = hist->last_result().total();
                    });
          stamps.exited[ri] = wall_now();
        });
    const double end = wall_now();
    out.cpu_s = process_cpu_s() - cpu0;
    stamps.finish(out, start, end);

    check_counts(hist_total, nodes.load(), bad, out);
    out.digest = step_digest;
    finish_run(out, report, bad, steps_);
    add_common_layers(out, report.metrics, k0,
                      static_cast<double>(report.total_high_water_bytes()),
                      ranks_);
    fold_spans(traced, logs, 0, stats, spans_path, plan_.workload, run_id);
    return out;
  }

 private:
  Plan plan_;
  int ranks_;
  int steps_;
  double jet_amplitude_ = 0.5;
  double jet_frequency_ = 2.0;
};

// ---------------------------------------------------------------------------
// oscillator_render: compute-bound oscillator miniapp, full-HD slice.

class OscillatorRender final : public Workload {
 public:
  explicit OscillatorRender(const Plan& plan)
      : plan_(plan),
        ranks_(std::min(4, plan.nproc)),
        cells_(plan.tiny ? 24 : 96),
        // ~6 s per instance: a 15 s run holds three instances.
        steps_(plan.tiny ? 4 : 28),
        width_(plan.tiny ? 192 : 1920),
        height_(plan.tiny ? 108 : 1080),
        deck_(oscillator_deck(plan.seed, 6, static_cast<double>(cells_))) {}

  std::string sched() const override {
    return "threads/" + std::to_string(ranks_);
  }

  Instance run(bool traced, SpanStats* stats, const std::string& spans_path,
               int run_id) override {
    Instance out;
    std::vector<SpanLog> logs(traced ? static_cast<std::size_t>(ranks_) : 0);
    RankStamps stamps(ranks_);
    StepFlags bad(steps_);
    std::vector<std::uint64_t> step_digest(static_cast<std::size_t>(steps_));
    std::vector<std::int64_t> hist_total(static_cast<std::size_t>(steps_));
    std::uint64_t peaks_digest = 0;
    std::atomic<std::int64_t> points{0};

    comm::Runtime::Options options;
    options.machine = comm::cori_haswell();
    options.seed = plan_.seed;
    options.sched.backend = comm::SchedBackend::kThreads;

    const kernels::StatsSnapshot k0 = kernels::stats_snapshot();
    const double cpu0 = process_cpu_s();
    const double start = wall_now();
    const comm::RunReport report =
        comm::Runtime::run(ranks_, options, [&](comm::Communicator& comm) {
          const int r = comm.rank();
          const auto ri = static_cast<std::size_t>(r);
          stamps.entered[ri] = wall_now();
          SpanLog* log = traced ? &logs[ri] : nullptr;
          Scope body(log, kRankBody);
          miniapp::OscillatorConfig cfg;
          cfg.global_cells = {cells_, cells_, cells_};
          cfg.dt = 0.05;
          cfg.oscillators = deck_;
          std::optional<miniapp::OscillatorSim> sim;
          {
            Scope init(log, kMiniappInit);
            sim.emplace(comm, cfg);
            sim->initialize();
          }
          points += sim->local_points();
          miniapp::OscillatorDataAdaptor native(*sim);
          TimedAdaptor adaptor(native, log);

          auto hist = std::make_shared<analysis::HistogramAnalysis>(
              "data", data::Association::kPoint, 64);
          auto autocorr = std::make_shared<analysis::Autocorrelation>(
              "data", data::Association::kPoint, 4, 3);
          backends::CatalystSliceConfig cs;
          cs.image_width = width_;
          cs.image_height = height_;
          cs.scalar_min = -1.5;
          cs.scalar_max = 1.5;
          cs.compress_png = true;
          auto slice = std::make_shared<backends::CatalystSlice>(cs);
          core::InSituBridge bridge(&comm);
          bridge.add_analysis(tap(hist, log, kHistogram));
          bridge.add_analysis(
              tap(autocorr, log, kAutocorrelation, kAutocorrelationFinalize));
          bridge.add_analysis(tap(slice, log, kCatalystSlice));
          initialize_bridge(bridge, log, bad);
          stamps.ready[ri] = wall_now();
          run_steps(*sim, kMiniappStep, bridge, adaptor, log, steps_, bad,
                    [&](int s, double t0, double te, double t1) {
                      if (r != 0) return;
                      const auto si = static_cast<std::size_t>(s);
                      if (s > 0) {
                        out.step_s.push_back(t1 - t0);
                        out.delivery_s.push_back(t1 - te);
                      }
                      step_digest[si] = digest_histogram(hist->last_result()) ^
                                        slice->last_image().color_hash();
                      hist_total[si] = hist->last_result().total();
                    });
          if (r == 0) {
            std::uint64_t d = fnv1a(nullptr, 0);
            for (const auto& delay : autocorr->top_peaks()) {
              for (const auto& peak : delay) {
                d = fnv1a(&peak.correlation, sizeof peak.correlation, d);
                d = fnv1a(&peak.position, sizeof peak.position, d);
              }
            }
            peaks_digest = d;
          }
          stamps.exited[ri] = wall_now();
        });
    const double end = wall_now();
    out.cpu_s = process_cpu_s() - cpu0;
    stamps.finish(out, start, end);

    check_counts(hist_total, points.load(), bad, out);
    out.digest = step_digest;
    out.digest.push_back(peaks_digest);
    finish_run(out, report, bad, steps_);

    add_common_layers(out, report.metrics, k0,
                      static_cast<double>(report.total_high_water_bytes()),
                      ranks_);
    fold_spans(traced, logs, 0, stats, spans_path, plan_.workload, run_id);
    return out;
  }

 private:
  Plan plan_;
  int ranks_;
  std::int64_t cells_;
  int steps_;
  int width_;
  int height_;
  std::vector<miniapp::Oscillator> deck_;
};

// ---------------------------------------------------------------------------
// flexpath_transit: writer/endpoint pairs, lossless delta reduction.

class FlexpathTransit final : public Workload {
 public:
  explicit FlexpathTransit(const Plan& plan)
      : plan_(plan),
        pairs_(std::max(1, std::min(4, plan.nproc) / 2)),
        cells_(plan.tiny ? 16 : 64),
        steps_(plan.tiny ? 4 : 40),
        deck_(oscillator_deck(plan.seed, 4, static_cast<double>(cells_))) {}

  std::string sched() const override {
    return "threads/" + std::to_string(2 * pairs_);
  }

  Instance run(bool traced, SpanStats* stats, const std::string& spans_path,
               int run_id) override {
    Instance out;
    const int ranks = 2 * pairs_;
    std::vector<SpanLog> logs(traced ? static_cast<std::size_t>(ranks) : 0);
    RankStamps stamps(ranks);
    StepFlags bad(steps_);
    const auto n = static_cast<std::size_t>(steps_);
    std::vector<double> write_start(n, 0.0);
    std::vector<double> analysis_end(n, 0.0);
    std::vector<std::uint64_t> writer_hist(n, 0);
    std::vector<std::uint64_t> endpoint_hist(n, 1);
    std::vector<std::uint64_t> image(n, 0);
    std::vector<double> waits;  // endpoint-group rank 0 only

    comm::Runtime::Options options;
    options.machine = comm::cori_haswell();
    options.seed = plan_.seed;
    options.sched.backend = comm::SchedBackend::kThreads;

    const kernels::StatsSnapshot k0 = kernels::stats_snapshot();
    const double cpu0 = process_cpu_s();
    const double start = wall_now();
    const comm::RunReport report = comm::Runtime::run(
        ranks, options, [&](comm::Communicator& world) {
          const int r = world.rank();
          const auto ri = static_cast<std::size_t>(r);
          stamps.entered[ri] = wall_now();
          const bool is_writer = r < pairs_;
          comm::Communicator group = world.split(is_writer ? 0 : 1, r);
          SpanLog* log = traced ? &logs[ri] : nullptr;
          Scope body(log, kRankBody);
          backends::FlexPathOptions fp;
          fp.reduction.level = io::ReductionLevel::kDelta;
          if (is_writer) {
            run_writer(world, group, log, fp, stamps, bad, write_start,
                       writer_hist, out);
          } else {
            run_endpoint(world, group, log, fp, stamps, bad, analysis_end,
                         endpoint_hist, image, waits);
          }
          stamps.exited[ri] = wall_now();
        });
    const double end = wall_now();
    out.cpu_s = process_cpu_s() - cpu0;
    stamps.finish(out, start, end);

    for (std::size_t s = 0; s < n; ++s) {
      if (writer_hist[s] != endpoint_hist[s]) {
        bad.mark(static_cast<long>(s));
        out.problems.push_back("endpoint histogram != writer-side histogram");
      }
      if (s > 0) out.delivery_s.push_back(analysis_end[s] - write_start[s]);
    }
    for (std::size_t s = 0; s < n; ++s) {
      out.digest.push_back(endpoint_hist[s] ^ image[s]);
    }
    finish_run(out, report, bad, steps_);

    add_common_layers(out, report.metrics, k0,
                      static_cast<double>(report.total_high_water_bytes()),
                      ranks);
    out.layer["backends.flexpath_wait_s"] = median(waits);
    fold_spans(traced, logs, pairs_, stats, spans_path, plan_.workload,
               run_id);
    return out;
  }

 private:
  void run_writer(comm::Communicator& world, comm::Communicator& group,
                  SpanLog* log, const backends::FlexPathOptions& fp,
                  RankStamps& stamps, StepFlags& bad,
                  std::vector<double>& write_start,
                  std::vector<std::uint64_t>& writer_hist, Instance& out) {
    const int r = world.rank();
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {cells_, cells_, cells_};
    cfg.dt = 0.05;
    cfg.oscillators = deck_;
    std::optional<miniapp::OscillatorSim> sim;
    {
      Scope init(log, kMiniappInit);
      sim.emplace(group, cfg);
      sim->initialize();
    }
    miniapp::OscillatorDataAdaptor native(*sim);
    TimedAdaptor adaptor(native, log);
    auto writer = std::make_shared<AnalysisTap>(
        std::make_shared<backends::FlexPathWriter>(world, r + pairs_, fp), log,
        kFlexpathWrite);
    if (group.rank() == 0) {
      writer->before = [&](long s) {
        write_start[static_cast<std::size_t>(s)] = wall_now();
      };
    }
    // The writer-side reference histogram the endpoint's must equal.
    auto reference = std::make_shared<analysis::HistogramAnalysis>(
        "data", data::Association::kPoint, 64);
    core::InSituBridge bridge(&group);
    bridge.add_analysis(writer);
    bridge.add_analysis(tap(reference, log, kHistogram));
    initialize_bridge(bridge, log, bad);
    stamps.ready[static_cast<std::size_t>(r)] = wall_now();
    run_steps(*sim, kMiniappStep, bridge, adaptor, log, steps_, bad,
              [&](int s, double t0, double, double t1) {
                if (group.rank() != 0) return;
                if (s > 0) out.step_s.push_back(t1 - t0);
                writer_hist[static_cast<std::size_t>(s)] =
                    digest_histogram(reference->last_result());
              });
  }

  void run_endpoint(comm::Communicator& world, comm::Communicator& group,
                    SpanLog* log, const backends::FlexPathOptions& fp,
                    RankStamps& stamps, StepFlags& bad,
                    std::vector<double>& analysis_end,
                    std::vector<std::uint64_t>& endpoint_hist,
                    std::vector<std::uint64_t>& image,
                    std::vector<double>& waits) {
    const int r = world.rank();
    const bool root = group.rank() == 0;
    auto hist = std::make_shared<analysis::HistogramAnalysis>(
        "data", data::Association::kPoint, 64);
    backends::CatalystSliceConfig cs;
    cs.image_width = plan_.tiny ? 192 : 960;
    cs.image_height = plan_.tiny ? 108 : 540;
    cs.scalar_min = -1.5;
    cs.scalar_max = 1.5;
    cs.compress_png = true;
    auto slice = std::make_shared<backends::CatalystSlice>(cs);
    auto hist_tap = std::make_shared<AnalysisTap>(hist, log, kHistogram);
    auto slice_tap = std::make_shared<AnalysisTap>(slice, log, kCatalystSlice);
    // The endpoint loop lives inside the library, so one endpoint step is
    // bracketed from the first analysis' entry to the last one's exit;
    // the gap before it is the time spent receiving and decoding.
    int step_span = -1;
    double last_end = -1.0;
    hist_tap->before = [&](long) {
      if (root && last_end >= 0.0) waits.push_back(wall_now() - last_end);
      if (log != nullptr) step_span = log->open(kStep);
    };
    slice_tap->after = [&](long s) {
      if (log != nullptr) log->close(step_span);
      last_end = wall_now();
      if (!root || s < 0 || s >= steps_) return;
      const auto si = static_cast<std::size_t>(s);
      analysis_end[si] = last_end;
      endpoint_hist[si] = digest_histogram(hist->last_result());
      image[si] = slice->last_image().color_hash();
    };
    core::InSituBridge bridge(&group);
    bridge.add_analysis(hist_tap);
    bridge.add_analysis(slice_tap);
    initialize_bridge(bridge, log, bad);
    stamps.ready[static_cast<std::size_t>(r)] = wall_now();
    backends::FlexPathEndpoint endpoint(world, r - pairs_, fp);
    if (!spanned(log, kFlexpathEndpoint, [&] {
           return endpoint.run(group, bridge);
         }).ok()) {
      bad.mark(steps_ - 1);
    }
    if (!spanned(log, kCoreFinalize, [&] { return bridge.finalize(); }).ok()) {
      bad.mark(steps_ - 1);
    }
    if (endpoint.timings().steps != steps_) bad.mark(steps_ - 1);
  }

  Plan plan_;
  int pairs_;
  std::int64_t cells_;
  int steps_;
  std::vector<miniapp::Oscillator> deck_;
};

// ---------------------------------------------------------------------------
// service_mix: open-loop oscillator sessions from four weighted tenants.

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Plan& plan)
      : plan_(plan),
        runners_(std::min(4, plan.nproc)),
        sessions_(plan.tiny ? 8 : 100),
        rate_per_s_(40.0) {
    pal::Rng rng(plan.seed);
    for (int i = 0; i < sessions_; ++i) {
      Arrival a;
      // Fixed rate, seeded jitter inside each slot: the offered load is
      // the same on every seed while the arrival pattern is not.
      a.due = (static_cast<double>(i) + rng.next_double()) / rate_per_s_;
      const int tenant = static_cast<int>(rng.next_below(4));
      a.spec.tenant = "t" + std::to_string(tenant);
      a.spec.name = a.spec.tenant + "-" + std::to_string(i);
      a.spec.weight = static_cast<double>(tenant + 1);
      a.spec.ranks = 1;
      a.spec.grid = 32;
      a.spec.steps = 16;
      a.spec.seed = rng.next_below(1u << 30);
      a.spec.analyses.set("histogram.enabled", "true");
      a.spec.analyses.set("statistics.enabled", "true");
      arrivals_.push_back(std::move(a));
    }
  }

  std::string sched() const override {
    return "threads/" + std::to_string(runners_);
  }

  std::vector<double> extra_setup_samples() override {
    std::vector<double> samples;
    for (int i = 0; i < 64; ++i) {
      const double t0 = wall_now();
      service::SessionManager manager(options());
      samples.push_back(wall_now() - t0);
    }
    return samples;
  }

  // Sessions run inside the service, so there is nothing to wrap: traced
  // and untraced instances are the same.
  Instance run(bool, SpanStats*, const std::string&, int) override {
    Instance out;
    struct Track {
      service::SessionId id = 0;
      bool admitted = false;
      double submit0 = 0.0, submit1 = 0.0, start = -1.0, end = -1.0;
    };
    std::vector<Track> tracks(arrivals_.size());
    std::atomic<std::size_t> submitted{0};

    const kernels::StatsSnapshot k0 = kernels::stats_snapshot();
    const double cpu0 = process_cpu_s();
    const double start = wall_now();
    auto manager = std::make_unique<service::SessionManager>(options());
    out.setup_s = wall_now() - start;

    // Completion is observed by polling: the service has no callback, and
    // the queued -> running edge is only visible through query().
    std::thread poller([&] {
      std::size_t done = 0;
      std::vector<bool> finished(tracks.size(), false);
      while (done < tracks.size()) {
        const std::size_t visible = submitted.load(std::memory_order_acquire);
        for (std::size_t i = 0; i < visible; ++i) {
          if (finished[i]) continue;
          Track& t = tracks[i];
          bool terminal = !t.admitted;
          if (t.admitted) {
            const auto q = manager->query(t.id);
            const double now = wall_now();
            if (q.ok() && q->state == service::SessionState::kRunning &&
                t.start < 0.0) {
              t.start = now;
            }
            terminal = !q.ok() || (q->state != service::SessionState::kQueued &&
                                   q->state != service::SessionState::kRunning);
            if (terminal) {
              t.end = now;
              if (t.start < 0.0) t.start = now;
            }
          }
          if (terminal) {
            finished[i] = true;
            ++done;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });

    const double origin = wall_now();
    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
      const double due = origin + arrivals_[i].due;
      const double wait = due - wall_now();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      Track& t = tracks[i];
      t.submit0 = wall_now();
      const auto id = manager->submit(arrivals_[i].spec);
      t.submit1 = wall_now();
      t.admitted = id.ok();
      if (id.ok()) t.id = *id;
      submitted.store(i + 1, std::memory_order_release);
    }
    poller.join();

    std::vector<double> submit_s, queue_s, run_s, lag_s;
    double tracked = 0.0;
    out.attempted = static_cast<long>(tracks.size());
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      const Track& t = tracks[i];
      const double due = origin + arrivals_[i].due;
      lag_s.push_back(t.submit0 - due);
      submit_s.push_back(t.submit1 - t.submit0);
      std::uint64_t d = 0;
      bool ok = t.admitted;
      if (t.admitted) {
        const auto q = manager->query(t.id);
        ok = q.ok() && q->state == service::SessionState::kCompleted &&
             q->steps_executed == arrivals_[i].spec.steps;
        if (q.ok()) {
          d = fnv1a(q->rank_virtual_seconds.data(),
                    q->rank_virtual_seconds.size() * sizeof(double));
          if (!ok) out.problems.push_back(q->message);
        }
      }
      if (!ok) {
        ++out.failed;
        continue;
      }
      queue_s.push_back(t.start - t.submit1);
      run_s.push_back(t.end - t.start);
      out.step_s.push_back((t.end - t.start) / arrivals_[i].spec.steps);
      out.delivery_s.push_back(t.end - due);
      out.digest.push_back(d);
    }
    for (int tenant = 0; tenant < 4; ++tenant) {
      const auto ts = manager->tenant("t" + std::to_string(tenant));
      if (ts.ok()) tracked += static_cast<double>(ts->high_water_bytes);
    }
    const obs::MetricsSnapshot metrics = manager->metrics();
    manager.reset();  // joins the runner slots
    const double end = wall_now();
    out.total_s = end - start;
    out.cpu_s = process_cpu_s() - cpu0;

    add_common_layers(out, metrics, k0, tracked, runners_);
    out.layer["service.submit_s"] = median(submit_s);
    out.layer["service.queue_s"] = median(queue_s);
    out.layer["service.run_s"] = median(run_s);
    out.layer["service.gen_lag_s"] = median(lag_s);
    return out;
  }

 private:
  struct Arrival {
    double due = 0.0;  ///< seconds after the generator starts
    service::SessionSpec spec;
  };

  service::ServiceOptions options() const {
    service::ServiceOptions o;
    o.runners = runners_;
    o.sched = comm::SchedBackend::kThreads;
    o.policy = service::AdmissionPolicy::kQueue;
    o.tenant_queue_capacity = sessions_;
    return o;
  }

  Plan plan_;
  int runners_;
  int sessions_;
  double rate_per_s_;
  std::vector<Arrival> arrivals_;
};

}  // namespace

void set_rss_baseline_mb(double mb) { g_rss_baseline_mb = mb; }

std::unique_ptr<Workload> make_workload(const Plan& plan) {
  if (plan.workload == "phasta_10k") return std::make_unique<Phasta>(plan);
  if (plan.workload == "oscillator_render") {
    return std::make_unique<OscillatorRender>(plan);
  }
  if (plan.workload == "flexpath_transit") {
    return std::make_unique<FlexpathTransit>(plan);
  }
  if (plan.workload == "service_mix") return std::make_unique<ServiceMix>(plan);
  return nullptr;
}

}  // namespace perfbench
