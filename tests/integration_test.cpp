// End-to-end integration: the full config-driven workflow a user of the
// library runs — one instrumented simulation, a text configuration
// enabling several analyses across different backend styles, a full time
// loop, and determinism across repeated runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>

#include "analysis/autocorrelation.hpp"
#include "analysis/histogram.hpp"
#include "analysis/statistics.hpp"
#include "backends/catalyst.hpp"
#include "backends/configurable.hpp"
#include "backends/extracts.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "io/writers.hpp"
#include "miniapp/adaptor.hpp"
#include "test_temp_dir.hpp"

namespace insitu {
namespace {

const char* kFullConfig = R"(
[histogram]
enabled = true
bins = 32

[autocorrelation]
enabled = true
window = 4
k = 2

[statistics]
enabled = true

[catalyst]
enabled = true
width = 64
height = 64
min = -1.5
max = 1.5

[extract]
enabled = true
kind = isosurface
value = 0.3
)";

struct RunSummary {
  std::int64_t histogram_total = 0;
  double stats_mean = 0.0;
  std::uint64_t image_hash = 0;
  std::int64_t extract_triangles = 0;
  double peak_x = 0.0;
  double virtual_total = 0.0;
};

RunSummary run_everything(int ranks, int steps) {
  RunSummary summary;
  comm::Runtime::Options options;
  options.machine = comm::cori_haswell();
  auto report = comm::Runtime::run(ranks, options, [&](comm::Communicator&
                                                           comm) {
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {16, 16, 16};
    cfg.dt = 0.1;
    // Periodic oscillator with period = 4 steps (dt 0.1): the window-4
    // autocorrelation peaks at its center for delay 4.
    cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                        {8, 8, 8}, 4.0, 5.0 * M_PI, 0.0},
                       {miniapp::Oscillator::Kind::kDamped,
                        {4, 12, 6}, 3.0, 3.0, 0.2}};
    miniapp::OscillatorSim sim(comm, cfg);
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);

    auto parsed = pal::Config::from_text(kFullConfig);
    ASSERT_TRUE(parsed.ok());
    auto analyses = backends::configure_analyses(*parsed);
    ASSERT_TRUE(analyses.ok());
    ASSERT_EQ(analyses->size(), 5u);

    core::InSituBridge bridge(&comm);
    for (const auto& analysis : *analyses) bridge.add_analysis(analysis);
    ASSERT_TRUE(bridge.initialize().ok());
    for (int s = 0; s < steps; ++s) {
      auto keep = bridge.execute(adaptor, sim.time(), s);
      ASSERT_TRUE(keep.ok());
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());

    if (comm.rank() == 0) {
      for (const auto& analysis : *analyses) {
        if (auto* h = dynamic_cast<analysis::HistogramAnalysis*>(
                analysis.get())) {
          summary.histogram_total = h->last_result().total();
        } else if (auto* a = dynamic_cast<analysis::Autocorrelation*>(
                       analysis.get())) {
          // Delay 4 = the oscillator's period.
          if (a->top_peaks().size() >= 4 && !a->top_peaks()[3].empty()) {
            summary.peak_x = a->top_peaks()[3][0].position.x;
          }
        } else if (auto* st = dynamic_cast<analysis::StatisticsAnalysis*>(
                       analysis.get())) {
          summary.stats_mean = st->last_result().mean;
        } else if (auto* c = dynamic_cast<backends::CatalystSlice*>(
                       analysis.get())) {
          summary.image_hash = c->last_image().color_hash();
        } else if (auto* e = dynamic_cast<backends::ExtractWriter*>(
                       analysis.get())) {
          summary.extract_triangles = e->last_global_triangles();
        }
      }
    }
  });
  summary.virtual_total = report.max_virtual_seconds();
  return summary;
}

TEST(Integration, FullConfiguredPipelineProducesAllOutputs) {
  const int ranks = 4;
  const RunSummary s = run_everything(ranks, 16);
  // Point arrays duplicate block-boundary points (no point ghosting, as
  // in the real miniapp): the histogram covers the sum of block points.
  std::int64_t expected_points = 0;
  for (int r = 0; r < ranks; ++r) {
    expected_points +=
        data::decompose_regular({16, 16, 16}, ranks, r).point_count();
  }
  EXPECT_EQ(s.histogram_total, expected_points);
  EXPECT_NE(s.image_hash, 0u);
  EXPECT_GT(s.virtual_total, 0.0);
  // The strongest period-delay autocorrelation sits at the periodic
  // oscillator's center (x = 8).
  EXPECT_NEAR(s.peak_x, 8.0, 0.5);
}

TEST(Integration, BitReproducibleAcrossRuns) {
  const RunSummary a = run_everything(4, 6);
  const RunSummary b = run_everything(4, 6);
  EXPECT_EQ(a.histogram_total, b.histogram_total);
  EXPECT_EQ(a.image_hash, b.image_hash);
  EXPECT_EQ(a.extract_triangles, b.extract_triangles);
  EXPECT_DOUBLE_EQ(a.stats_mean, b.stats_mean);
  EXPECT_DOUBLE_EQ(a.virtual_total, b.virtual_total);
}

TEST(Integration, PhysicsIndependentOfRankCount) {
  // Counts/means shift with boundary-point duplication, but the physics —
  // the autocorrelation peak location — must not move with the
  // decomposition.
  const RunSummary p2 = run_everything(2, 16);
  const RunSummary p8 = run_everything(8, 16);
  EXPECT_NEAR(p2.peak_x, p8.peak_x, 1e-9);
  EXPECT_NEAR(p2.peak_x, 8.0, 0.5);
}

TEST(Integration, InSituPlusPostHocInOneRun) {
  // The hybrid workflow: analyses in situ every step, full state written
  // every 4th step for deep post hoc dives, then read back and verified.
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  const int ranks = 4;
  std::atomic<std::int64_t> insitu_total{0};
  comm::Runtime::run(ranks, [&](comm::Communicator& comm) {
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {16, 16, 16};
    cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                        {8, 8, 8}, 4.0, 2.0 * M_PI, 0.0}};
    miniapp::OscillatorSim sim(comm, cfg);
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    auto histogram = std::make_shared<analysis::HistogramAnalysis>(
        "data", data::Association::kPoint, 16);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(histogram);
    ASSERT_TRUE(bridge.initialize().ok());
    io::VtkMultiFileWriter writer(dir,
                                  io::LustreModel(comm.machine().fs));
    for (int s = 0; s < 8; ++s) {
      ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
      if (s % 4 == 0) {
        auto mesh = adaptor.full_mesh();
        ASSERT_TRUE(mesh.ok());
        ASSERT_TRUE(writer.write_step(comm, **mesh, s).ok());
        ASSERT_TRUE(adaptor.release_data().ok());
      }
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());
    if (comm.rank() == 0) insitu_total = histogram->last_result().total();
  });

  // Post hoc: one reader revisits step 4 and recomputes the histogram.
  std::atomic<std::int64_t> posthoc_total{0};
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    io::PostHocReader reader(dir, io::LustreModel(comm.machine().fs));
    auto mesh = reader.read_step(comm, 4, ranks);
    ASSERT_TRUE(mesh.ok());
    auto result = analysis::compute_histogram(
        comm, **mesh, "data", data::Association::kPoint, 16);
    ASSERT_TRUE(result.ok());
    posthoc_total = result->total();
  });
  EXPECT_EQ(insitu_total.load(), posthoc_total.load());
}

}  // namespace
}  // namespace insitu
