#include "backends/vtk_series.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "io/block_io.hpp"
#include "miniapp/adaptor.hpp"
#include "test_temp_dir.hpp"

namespace insitu::backends {
namespace {

TEST(VtkSeriesWriter, RequiresOutputDirectory) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    VtkSeriesWriter writer(VtkSeriesConfig{});
    EXPECT_FALSE(writer.initialize(comm).ok());
  });
}

TEST(VtkSeriesWriter, WritesSeriesWithIndexes) {
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  const int ranks = 2;
  comm::Runtime::run(ranks, [&](comm::Communicator& comm) {
    miniapp::OscillatorConfig cfg;
    cfg.global_cells = {8, 8, 8};
    cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                        {4, 4, 4}, 2.0, 2.0 * M_PI, 0.0}};
    miniapp::OscillatorSim sim(comm, cfg);
    sim.initialize();
    miniapp::OscillatorDataAdaptor adaptor(sim);
    VtkSeriesConfig vc;
    vc.output_directory = dir;
    vc.series_name = "osc";
    vc.every_n_steps = 2;
    auto writer = std::make_shared<VtkSeriesWriter>(vc);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(writer);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 4; ++s) {  // steps 0 and 2 written
      ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(writer->steps_written(), 2);
    }
  });

  int vti = 0, pvti = 0, pvd = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto ext = entry.path().extension();
    if (ext == ".vti") ++vti;
    if (ext == ".pvti") ++pvti;
    if (ext == ".pvd") ++pvd;
  }
  EXPECT_EQ(vti, 2 * ranks);  // 2 steps x 2 ranks
  EXPECT_EQ(pvti, 2);
  EXPECT_EQ(pvd, 1);

  // The .pvd references both steps with the simulation times.
  auto bytes = io::read_file_bytes(dir + "/osc.pvd");
  ASSERT_TRUE(bytes.ok());
  const std::string xml(reinterpret_cast<const char*>(bytes->data()),
                        bytes->size());
  EXPECT_NE(xml.find("osc_000000.pvti"), std::string::npos);
  EXPECT_NE(xml.find("osc_000002.pvti"), std::string::npos);
}

}  // namespace
}  // namespace insitu::backends
