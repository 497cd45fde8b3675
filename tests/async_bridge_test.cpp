#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analysis/autocorrelation.hpp"
#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "comm/overlap.hpp"
#include "comm/runtime.hpp"
#include "core/async_bridge.hpp"
#include "core/bridge.hpp"
#include "miniapp/adaptor.hpp"
#include "render/image.hpp"

namespace insitu::core {
namespace {

// The acceptance contract for the async engine (docs/EXPERIMENTS.md):
//  * kBlock drops nothing, so its analysis outputs must be byte-identical
//    to the synchronous bridge's;
//  * every policy's virtual timeline is deterministic run-to-run;
//  * overlap reduces the simulation-visible per-step cost when the
//    analysis is expensive (the Catalyst-style slice render).

struct RunOutputs {
  analysis::HistogramResult hist;      // rank 0
  std::vector<render::Rgba> pixels;    // rank 0, last rendered step
  std::vector<std::vector<analysis::Autocorrelation::Peak>> peaks;  // rank 0
  double total = 0.0;                  // end-to-end virtual seconds
  double per_step = 0.0;               // mean sim-visible bridge.execute
  long executed = 0;
  long dropped = 0;
};

constexpr int kSteps = 8;

RunOutputs run_oscillator(int ranks, bool async,
                          comm::BackpressurePolicy policy, int queue_depth) {
  RunOutputs out;
  comm::Runtime::Options options;
  options.machine = comm::cori_haswell();
  options.seed = 7;
  comm::RunReport report = comm::Runtime::run(
      ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorConfig cfg;
        cfg.global_cells = {16, 16, 16};
        cfg.dt = 0.05;
        cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic, {8, 8, 8},
                            3.0, 2.0 * M_PI, 0.0}};
        miniapp::OscillatorSim sim(comm, cfg);
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        auto hist = std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 32);
        auto autocorr = std::make_shared<analysis::Autocorrelation>(
            "data", data::Association::kPoint, /*window=*/4, /*top_k=*/3);
        backends::CatalystSliceConfig cs;
        cs.image_width = 128;
        cs.image_height = 72;
        cs.scalar_min = -1.5;
        cs.scalar_max = 1.5;
        auto slice = std::make_shared<backends::CatalystSlice>(cs);

        auto capture = [&](const auto& bridge) {
          if (comm.rank() != 0) return;
          out.hist = hist->last_result();
          out.pixels.assign(slice->last_image().pixels().begin(),
                            slice->last_image().pixels().end());
          out.peaks = autocorr->top_peaks();
          out.per_step = bridge.timings().analysis_per_step.mean();
        };

        if (async) {
          AsyncBridgeOptions abo;
          abo.policy = policy;
          abo.queue_depth = queue_depth;
          AsyncBridge bridge(&comm, abo);
          bridge.add_analysis(hist);
          bridge.add_analysis(autocorr);
          bridge.add_analysis(slice);
          ASSERT_TRUE(bridge.initialize().ok());
          for (int s = 0; s < kSteps; ++s) {
            sim.step();
            auto keep = bridge.execute(adaptor, sim.time(), s);
            ASSERT_TRUE(keep.ok());
          }
          ASSERT_TRUE(bridge.finalize().ok());
          capture(bridge);
          if (comm.rank() == 0) {
            out.executed = bridge.executed_steps();
            out.dropped = bridge.total_dropped();
          }
        } else {
          InSituBridge bridge(&comm);
          bridge.add_analysis(hist);
          bridge.add_analysis(autocorr);
          bridge.add_analysis(slice);
          ASSERT_TRUE(bridge.initialize().ok());
          for (int s = 0; s < kSteps; ++s) {
            sim.step();
            auto keep = bridge.execute(adaptor, sim.time(), s);
            ASSERT_TRUE(keep.ok());
          }
          ASSERT_TRUE(bridge.finalize().ok());
          capture(bridge);
          if (comm.rank() == 0) out.executed = kSteps;
        }
      });
  out.total = report.max_virtual_seconds();
  return out;
}

TEST(AsyncBridge, BlockPolicyMatchesSyncGolden) {
  const RunOutputs sync = run_oscillator(
      4, /*async=*/false, comm::BackpressurePolicy::kBlock, 2);
  const RunOutputs async = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kBlock, 2);

  // kBlock never drops: every step is analyzed.
  EXPECT_EQ(async.executed, kSteps);
  EXPECT_EQ(async.dropped, 0);

  // Analysis outputs are byte-identical to the synchronous bridge.
  EXPECT_EQ(async.hist.min, sync.hist.min);
  EXPECT_EQ(async.hist.max, sync.hist.max);
  EXPECT_EQ(async.hist.bins, sync.hist.bins);
  ASSERT_EQ(async.pixels.size(), sync.pixels.size());
  EXPECT_EQ(async.pixels, sync.pixels);
  ASSERT_EQ(async.peaks.size(), sync.peaks.size());
  for (std::size_t d = 0; d < sync.peaks.size(); ++d) {
    ASSERT_EQ(async.peaks[d].size(), sync.peaks[d].size()) << "delay " << d;
    for (std::size_t k = 0; k < sync.peaks[d].size(); ++k) {
      EXPECT_EQ(async.peaks[d][k].correlation, sync.peaks[d][k].correlation);
      EXPECT_EQ(async.peaks[d][k].position.x, sync.peaks[d][k].position.x);
      EXPECT_EQ(async.peaks[d][k].position.y, sync.peaks[d][k].position.y);
      EXPECT_EQ(async.peaks[d][k].position.z, sync.peaks[d][k].position.z);
    }
  }
}

TEST(AsyncBridge, VirtualTimelineIsDeterministic) {
  const RunOutputs a = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kBlock, 2);
  const RunOutputs b = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kBlock, 2);
  EXPECT_EQ(a.total, b.total);  // bitwise: the model replays exactly
  EXPECT_EQ(a.per_step, b.per_step);
  EXPECT_EQ(a.hist.bins, b.hist.bins);
  EXPECT_EQ(a.pixels, b.pixels);
}

TEST(AsyncBridge, LatestOnlyDropsDeterministicallyAndAccountsEveryStep) {
  const RunOutputs a = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kLatestOnly, 2);
  EXPECT_EQ(a.executed + a.dropped, static_cast<long>(kSteps));
  // The slice render is much slower than a simulation step, so the queue
  // saturates and steps are shed.
  EXPECT_GT(a.dropped, 0);
  EXPECT_GT(a.executed, 0);  // at least the first and the drained tail

  const RunOutputs b = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kLatestOnly, 2);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.pixels, b.pixels);
}

TEST(AsyncBridge, OverlapReducesSimVisiblePerStepCost) {
  const RunOutputs sync = run_oscillator(
      4, /*async=*/false, comm::BackpressurePolicy::kBlock, 2);
  const RunOutputs async = run_oscillator(
      4, /*async=*/true, comm::BackpressurePolicy::kBlock, 2);
  // Sync charges the full render to the simulation every step; async pays
  // snapshot + hand-off + (partial) kBlock stalls, which is strictly
  // cheaper for an expensive analysis. End-to-end can only improve too.
  EXPECT_LT(async.per_step, sync.per_step);
  EXPECT_LE(async.total, sync.total);
}

/// Fails every execute() on every rank — deterministically, so the
/// worker-plane collectives stay aligned while the error propagates.
class FailingAnalysis final : public AnalysisAdaptor {
 public:
  std::string name() const override { return "failing"; }
  StatusOr<bool> execute(DataAdaptor&) override {
    return Status::Internal("injected analysis failure");
  }
};

TEST(AsyncBridge, WorkerErrorSurfacesByFinalize) {
  comm::Runtime::Options options;
  options.machine = comm::cori_haswell();
  comm::Runtime::run(4, options, [&](comm::Communicator& comm) {
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {8, 8, 8};
    cfg.dt = 0.05;
    cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic, {4, 4, 4},
                        3.0, 2.0 * M_PI, 0.0}};
    miniapp::OscillatorSim sim(comm, cfg);
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);

    AsyncBridge bridge(&comm, AsyncBridgeOptions{});
    bridge.add_analysis(std::make_shared<FailingAnalysis>());
    ASSERT_TRUE(bridge.initialize().ok());
    bool saw_error = false;
    for (int s = 0; s < 4; ++s) {
      sim.step();
      auto keep = bridge.execute(adaptor, sim.time(), s);
      if (!keep.ok()) {
        saw_error = true;
        break;  // same step on every rank: the failure is deterministic
      }
    }
    const Status fin = bridge.finalize();
    // The failure is asynchronous, so it may surface on a later execute()
    // or at the finalize() join — but it must surface.
    EXPECT_TRUE(saw_error || !fin.ok());
  });
}

}  // namespace
}  // namespace insitu::core
