// Failure injection: operations aimed at missing arrays, unwritable
// paths, or broken adaptors must fail with clean Status errors that
// propagate through the bridge — never crash, hang, or silently succeed.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "backends/libsim.hpp"
#include "backends/vtk_series.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "io/writers.hpp"
#include "miniapp/adaptor.hpp"
#include "test_temp_dir.hpp"

namespace insitu {
namespace {

miniapp::OscillatorConfig sim_config() {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {8, 8, 8};
  cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                      {4, 4, 4}, 2.0, 2.0 * M_PI, 0.0}};
  return cfg;
}

TEST(FailureInjection, CatalystUnknownArrayPropagates) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    miniapp::OscillatorSim sim(comm, sim_config());
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    backends::CatalystSliceConfig cs;
    cs.array = "does_not_exist";
    cs.image_width = 16;
    cs.image_height = 16;
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(std::make_shared<backends::CatalystSlice>(cs));
    ASSERT_TRUE(bridge.initialize().ok());
    auto result = bridge.execute(adaptor, 0.0, 0);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  });
}

TEST(FailureInjection, LibsimMissingSessionArrayPropagates) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    miniapp::OscillatorSim sim(comm, sim_config());
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    backends::LibsimConfig lc;
    lc.session_text =
        "[session]\narray = phantom\n[plot0]\ntype = slice\naxis = 2\n"
        "value = 4\n";
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(std::make_shared<backends::LibsimRender>(lc));
    ASSERT_TRUE(bridge.initialize().ok());
    EXPECT_FALSE(bridge.execute(adaptor, 0.0, 0).ok());
  });
}

TEST(FailureInjection, LibsimBadSessionFailsAtInitialize) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    backends::LibsimConfig lc;
    lc.session_text = "this is not a session";
    backends::LibsimRender libsim(lc);
    EXPECT_FALSE(libsim.initialize(comm).ok());
  });
}

TEST(FailureInjection, WriterToUnwritableDirectoryFails) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    miniapp::OscillatorSim sim(comm, sim_config());
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.full_mesh();
    ASSERT_TRUE(mesh.ok());
    io::VtkMultiFileWriter writer("/nonexistent_dir_xyz",
                                  io::LustreModel(comm.machine().fs));
    // Every rank fails its own file open; no hang on the collectives
    // because write_step fails before reaching them on all ranks alike.
    auto result = writer.write_step(comm, **mesh, 0);
    EXPECT_FALSE(result.ok());
  });
}

TEST(FailureInjection, PostHocReaderMissingStepFails) {
  const test_util::TempDir tmp;
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    io::PostHocReader reader(tmp.str(), io::LustreModel(comm.machine().fs));
    auto mesh = reader.read_step(comm, /*step=*/123456, /*total_blocks=*/2);
    ASSERT_FALSE(mesh.ok());
    EXPECT_EQ(mesh.status().code(), StatusCode::kNotFound);
  });
}

TEST(FailureInjection, VtkSeriesToUnwritableDirectoryFails) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    miniapp::OscillatorSim sim(comm, sim_config());
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    backends::VtkSeriesConfig vc;
    vc.output_directory = "/nonexistent_dir_xyz";
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(std::make_shared<backends::VtkSeriesWriter>(vc));
    ASSERT_TRUE(bridge.initialize().ok());
    EXPECT_FALSE(bridge.execute(adaptor, 0.0, 0).ok());
  });
}

TEST(FailureInjection, BridgeStopsOnFirstFailingAnalysis) {
  // A failing analysis must not leave later analyses half-run state
  // inconsistent: the bridge reports the error and the caller decides.
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    miniapp::OscillatorSim sim(comm, sim_config());
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    backends::CatalystSliceConfig bad;
    bad.array = "missing";
    bad.image_width = 8;
    bad.image_height = 8;
    auto good = std::make_shared<analysis::HistogramAnalysis>(
        "data", data::Association::kPoint, 8);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(good);  // runs first
    bridge.add_analysis(std::make_shared<backends::CatalystSlice>(bad));
    ASSERT_TRUE(bridge.initialize().ok());
    EXPECT_FALSE(bridge.execute(adaptor, 0.0, 0).ok());
    // The step was not recorded as a clean analysis step.
    EXPECT_EQ(bridge.timings().analysis_per_step.count(), 0);
  });
}

}  // namespace
}  // namespace insitu
