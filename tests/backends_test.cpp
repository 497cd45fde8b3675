#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>

#include "analysis/histogram.hpp"
#include "backends/adios_bp.hpp"
#include "backends/catalyst.hpp"
#include "backends/configurable.hpp"
#include "backends/flexpath.hpp"
#include "backends/glean.hpp"
#include "backends/libsim.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "miniapp/adaptor.hpp"
#include "test_temp_dir.hpp"

namespace insitu::backends {
namespace {

using miniapp::Oscillator;
using miniapp::OscillatorConfig;
using miniapp::OscillatorDataAdaptor;
using miniapp::OscillatorSim;

OscillatorConfig sim_config() {
  OscillatorConfig cfg;
  cfg.global_cells = {16, 16, 16};
  cfg.dt = 0.1;
  cfg.oscillators = {
      {Oscillator::Kind::kPeriodic, {8, 8, 8}, 4.0, 2.0 * M_PI, 0.0}};
  return cfg;
}

TEST(CatalystSlice, RendersCenteredOscillator) {
  std::atomic<std::uint64_t> hash{0};
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);

    CatalystSliceConfig cfg;
    cfg.image_width = 128;
    cfg.image_height = 128;
    cfg.axis = 2;
    auto slice = std::make_shared<CatalystSlice>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(slice);
    ASSERT_TRUE(bridge.initialize().ok());
    auto r = bridge.execute(adaptor, 0.0, 0);
    ASSERT_TRUE(r.ok());
    if (comm.rank() == 0) {
      const render::Image& img = slice->last_image();
      ASSERT_FALSE(img.empty());
      // The oscillator (value ~1 at center, t=0) maps to the warm end of
      // cool_warm [-1,1]: red channel dominant at the image center.
      const render::Rgba center = img.pixel(64, 64);
      EXPECT_GT(center.a, 0);
      EXPECT_GT(center.r, center.b);
      // Image corners are on the slice plane too (domain fills view).
      EXPECT_EQ(slice->images_produced(), 1);
      hash = img.color_hash();
    }
  });
  EXPECT_NE(hash.load(), 0u);
}

/// The camera looks down the slice normal, so a slice along any axis
/// fills most of the image (a camera fixed on -z sees an x or y slice
/// edge-on and lands no fragment).
TEST(CatalystSlice, EveryAxisLandsFragments) {
  for (int axis = 0; axis < 3; ++axis) {
    std::atomic<std::int64_t> covered{-1};
    comm::Runtime::run(4, [&](comm::Communicator& comm) {
      OscillatorSim sim(comm, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      CatalystSliceConfig cfg;
      cfg.image_width = 64;
      cfg.image_height = 64;
      cfg.axis = axis;
      auto slice = std::make_shared<CatalystSlice>(cfg);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(slice);
      ASSERT_TRUE(bridge.initialize().ok());
      ASSERT_TRUE(bridge.execute(adaptor, 0.0, 0).ok());
      if (comm.rank() == 0) {
        std::int64_t n = 0;
        for (const render::Rgba& p : slice->last_image().pixels()) {
          n += p.a != 0 ? 1 : 0;
        }
        covered = n;
      }
    });
    EXPECT_GT(covered.load(), 64 * 64 / 2) << "axis " << axis;
  }
}

TEST(CatalystSlice, DeterministicAcrossRuns) {
  auto run_once = [&] {
    std::atomic<std::uint64_t> hash{0};
    comm::Runtime::run(4, [&](comm::Communicator& comm) {
      OscillatorSim sim(comm, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      CatalystSliceConfig cfg;
      cfg.image_width = 64;
      cfg.image_height = 64;
      auto slice = std::make_shared<CatalystSlice>(cfg);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(slice);
      (void)bridge.initialize();
      (void)bridge.execute(adaptor, 0.0, 0);
      if (comm.rank() == 0) hash = slice->last_image().color_hash();
    });
    return hash.load();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(CatalystSlice, EveryNStepsSkips) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    CatalystSliceConfig cfg;
    cfg.image_width = 32;
    cfg.image_height = 32;
    cfg.every_n_steps = 2;
    auto slice = std::make_shared<CatalystSlice>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(slice);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 6; ++s) {
      ASSERT_TRUE(bridge.execute(adaptor, 0.0, s).ok());
      sim.step();
    }
    EXPECT_EQ(slice->images_produced(), 3);  // steps 0, 2, 4
  });
}

TEST(CatalystSlice, LiveViewerCanStopSimulation) {
  // The steering loop: the viewer callback requests a stop; all ranks see
  // the decision (broadcast), mirroring PHASTA's live reconfiguration.
  std::atomic<int> continue_votes{0};
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    CatalystSliceConfig cfg;
    cfg.image_width = 32;
    cfg.image_height = 32;
    auto slice = std::make_shared<CatalystSlice>(cfg);
    slice->live_viewer = [](const render::Image&, long step) {
      return step < 2;  // stop after the image at step 2
    };
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(slice);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 10; ++s) {
      auto keep = bridge.execute(adaptor, 0.0, s);
      ASSERT_TRUE(keep.ok());
      if (!*keep) {
        if (s == 2) ++continue_votes;
        break;
      }
      sim.step();
    }
  });
  EXPECT_EQ(continue_votes.load(), 4);  // every rank stopped at step 2
}

TEST(CatalystSlice, CompressionAffectsVirtualCost) {
  auto encode_cost = [&](bool compress) {
    double cost = 0.0;
    comm::Runtime::Options opts;
    opts.machine = comm::mira_bgq();  // slow serial core: the IS2 setup
    comm::Runtime::run(2, opts, [&](comm::Communicator& comm) {
      OscillatorSim sim(comm, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      CatalystSliceConfig cfg;
      cfg.image_width = 512;
      cfg.image_height = 128;
      cfg.compress_png = compress;
      auto slice = std::make_shared<CatalystSlice>(cfg);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(slice);
      (void)bridge.initialize();
      (void)bridge.execute(adaptor, 0.0, 0);
      if (comm.rank() == 0) cost = slice->last_costs().encode_write;
    });
    return cost;
  };
  // §4.2.1: skipping PNG compression cut per-step in situ time ~8x.
  EXPECT_GT(encode_cost(true), 4.0 * encode_cost(false));
}

TEST(CatalystEditions, FootprintOrdering) {
  EXPECT_LT(edition_executable_bytes(CatalystEdition::kExtractsOnly),
            edition_executable_bytes(CatalystEdition::kRenderingBase));
  EXPECT_LT(edition_executable_bytes(CatalystEdition::kRenderingBase),
            edition_executable_bytes(CatalystEdition::kFull));
  EXPECT_EQ(edition_executable_bytes(CatalystEdition::kRenderingBase),
            153ull << 20);
}

const char* kSession = R"(
[session]
array = data
colormap = heat
min = -1
max = 1
width = 64
height = 64
[plot0]
type = slice
axis = 2
value = 8
[plot1]
type = isosurface
value = 0.5
)";

TEST(LibsimSession, ParsesPlotsAndSettings) {
  auto session = parse_session(kSession);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->array, "data");
  EXPECT_EQ(session->colormap, "heat");
  EXPECT_EQ(session->image_width, 64);
  ASSERT_EQ(session->plots.size(), 2u);
  EXPECT_EQ(session->plots[0].type, LibsimPlot::Type::kSlice);
  EXPECT_EQ(session->plots[0].axis, 2);
  EXPECT_EQ(session->plots[1].type, LibsimPlot::Type::kIsosurface);
  EXPECT_DOUBLE_EQ(session->plots[1].value, 0.5);
}

TEST(LibsimSession, RejectsBadInput) {
  EXPECT_FALSE(parse_session("[session]\narray=x").ok());  // no plots
  EXPECT_FALSE(
      parse_session("[plot0]\ntype = volume\nvalue = 1").ok());  // bad type
  EXPECT_FALSE(
      parse_session("[plot0]\ntype = slice\naxis = 7\nvalue = 1").ok());
  EXPECT_FALSE(parse_session("[plot0]\ntype = slice").ok());  // no value
}

TEST(LibsimRender, ProducesImagesOnSchedule) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    LibsimConfig cfg;
    cfg.session_text = kSession;
    cfg.every_n_steps = 5;  // the AVF-LESLIE cadence
    auto libsim = std::make_shared<LibsimRender>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(libsim);
    ASSERT_TRUE(bridge.initialize().ok());
    double render_step_cost = 0.0, skip_step_cost = 0.0;
    for (long s = 0; s < 10; ++s) {
      ASSERT_TRUE(bridge.execute(adaptor, 0.0, s).ok());
      if (s == 5) render_step_cost = libsim->last_execute_seconds();
      if (s == 6) skip_step_cost = libsim->last_execute_seconds();
      sim.step();
    }
    if (comm.rank() == 0) {
      EXPECT_EQ(libsim->images_produced(), 2);  // steps 0 and 5
      EXPECT_FALSE(libsim->last_image().empty());
      // Fig 16's sawtooth: render steps cost much more than skipped ones.
      EXPECT_GT(render_step_cost, 100.0 * std::max(skip_step_cost, 1e-12));
    }
  });
}

TEST(LibsimRender, InitCostGrowsWithRankCount) {
  auto init_cost = [&](int p) {
    double cost = 0.0;
    comm::Runtime::Options opts;
    opts.machine = comm::cori_haswell();
    comm::Runtime::run(p, opts, [&](comm::Communicator& comm) {
      LibsimConfig cfg;
      cfg.session_text = kSession;
      LibsimRender libsim(cfg);
      const double t0 = comm.clock().now();
      ASSERT_TRUE(libsim.initialize(comm).ok());
      if (comm.rank() == 0) cost = comm.clock().now() - t0;
    });
    return cost;
  };
  EXPECT_GT(init_cost(16), init_cost(2));
}

TEST(BpFormat, IndexRoundTrip) {
  BpIndex index;
  index.step = 12;
  index.num_blocks = 3;
  index.payload_bytes = 4096;
  index.array_names = {"data", "velocity"};
  auto back = BpIndex::deserialize(index.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->step, 12);
  EXPECT_EQ(back->num_blocks, 3);
  EXPECT_EQ(back->payload_bytes, 4096u);
  ASSERT_EQ(back->array_names.size(), 2u);
  EXPECT_EQ(back->array_names[1], "velocity");
}

TEST(BpFormat, MeshRoundTrip) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.full_mesh();
    ASSERT_TRUE(mesh.ok());
    auto bytes = bp_serialize(**mesh);
    auto back = bp_deserialize(bytes);
    ASSERT_TRUE(back.ok());
    ASSERT_EQ((*back)->num_local_blocks(), 1u);
    const auto& block = *(*back)->block(0);
    ASSERT_TRUE(block.point_fields().has("data"));
    // Deserialized data matches simulation values exactly.
    const auto array = block.point_fields().get("data");
    for (std::int64_t i = 0; i < array->num_tuples(); i += 97) {
      EXPECT_EQ(array->get(i), sim.values()[static_cast<std::size_t>(i)]);
    }
    // The index describes the payload.
    BpIndex index = bp_index_for(**mesh, 5);
    EXPECT_EQ(index.step, 5);
    EXPECT_EQ(index.num_blocks, 1);
    EXPECT_GT(index.payload_bytes, 0u);
  });
}

TEST(BpFormat, FileRoundTrip) {
  const test_util::TempDir tmp;
  const std::string path = tmp.file("mesh.bp");
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.full_mesh();
    ASSERT_TRUE(bp_write_file(path, **mesh).ok());
    auto back = bp_read_file(path);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ((*back)->num_local_blocks(), 1u);
  });
}

/// The full FlexPath in transit configuration: P writers + P endpoints in
/// one world; the endpoints run a histogram. Mirrors §4.1.4.
TEST(FlexPath, InTransitHistogramMatchesInline) {
  const int p = 2;
  std::atomic<std::int64_t> staged_total{-1};
  std::atomic<std::int64_t> inline_total{-2};
  std::atomic<long> endpoint_steps{0};

  comm::Runtime::run(2 * p, [&](comm::Communicator& world) {
    const bool is_writer = world.rank() < p;
    comm::Communicator group = world.split(is_writer ? 0 : 1, world.rank());
    if (is_writer) {
      const int partner = world.rank() + p;
      OscillatorSim sim(group, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<FlexPathWriter>(world, partner);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 4; ++s) {
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
      EXPECT_EQ(writer->timings().advance.count(), 4);
      EXPECT_EQ(writer->timings().analysis.count(), 4);

      // Inline reference: the same histogram computed in the writer group
      // at step 0 would need the step-0 data; recompute deterministically
      // with a fresh sim.
      OscillatorSim ref(group, sim_config());
      ref.initialize();
      OscillatorDataAdaptor ref_adaptor(ref);
      ref_adaptor.set_communicator(&group);
      auto mesh = ref_adaptor.full_mesh();
      ASSERT_TRUE(mesh.ok());
      auto hist = analysis::compute_histogram(
          group, **mesh, "data", data::Association::kPoint, 32);
      ASSERT_TRUE(hist.ok());
      if (group.rank() == 0) inline_total = hist->total();
    } else {
      const int partner = world.rank() - p;
      auto histogram = std::make_shared<analysis::HistogramAnalysis>(
          "data", data::Association::kPoint, 32);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(histogram);
      ASSERT_TRUE(bridge.initialize().ok());
      FlexPathEndpoint endpoint(world, partner);
      ASSERT_TRUE(endpoint.run(group, bridge).ok());
      ASSERT_TRUE(bridge.finalize().ok());
      endpoint_steps += endpoint.timings().steps;
      if (group.rank() == 0) {
        staged_total = histogram->last_result().total();
      }
      EXPECT_GT(endpoint.timings().initialize, 0.0);
    }
  });
  EXPECT_EQ(endpoint_steps.load(), 2 * 4);  // each endpoint saw 4 steps
  // The staged histogram covers the same global point count as inline.
  EXPECT_EQ(staged_total.load(), inline_total.load());
}

TEST(FlexPath, BackpressureBlocksWriter) {
  // queue_depth=1 and a deliberately slow endpoint: the writer's
  // `analysis` phase (transmit+block) must absorb the endpoint's delay.
  comm::Runtime::Options opts;
  opts.machine = comm::cori_haswell();
  std::atomic<double> writer_block_time{0.0};
  comm::Runtime::run(2, opts, [&](comm::Communicator& world) {
    const bool is_writer = world.rank() == 0;
    comm::Communicator group = world.split(is_writer ? 0 : 1, world.rank());
    FlexPathOptions fp;
    fp.queue_depth = 1;
    if (is_writer) {
      OscillatorSim sim(group, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<FlexPathWriter>(world, 1, fp);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 3; ++s) {
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
      writer_block_time = writer->timings().analysis.total();
    } else {
      // Slow consumer: sleep 2 virtual seconds per step via an analysis.
      class SlowAnalysis final : public core::AnalysisAdaptor {
       public:
        std::string name() const override { return "slow"; }
        StatusOr<bool> execute(core::DataAdaptor& data) override {
          data.communicator()->advance_compute(2.0);
          return true;
        }
      };
      core::InSituBridge bridge(&group);
      bridge.add_analysis(std::make_shared<SlowAnalysis>());
      ASSERT_TRUE(bridge.initialize().ok());
      FlexPathEndpoint endpoint(world, 0, fp);
      ASSERT_TRUE(endpoint.run(group, bridge).ok());
    }
  });
  // Steps 2 and 3 must each wait ~2 virtual seconds for credit.
  EXPECT_GT(writer_block_time.load(), 2.0);
}

TEST(FlexPath, WriterAssignmentCoversAllWriters) {
  // 5 writers over 2 endpoints: round-robin, disjoint, complete.
  auto e0 = FlexPathEndpoint::writers_for_endpoint(5, 2, 0);
  auto e1 = FlexPathEndpoint::writers_for_endpoint(5, 2, 1);
  EXPECT_EQ(e0, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(e1, (std::vector<int>{1, 3}));
}

TEST(FlexPath, FanInEndpointMergesWriters) {
  // 4 writers -> 2 endpoints: each endpoint merges 2 writers' blocks, so
  // the endpoint-group histogram covers the full domain.
  const int writers = 4, endpoints = 2;
  std::atomic<std::int64_t> staged_total{-1};
  comm::Runtime::run(writers + endpoints, [&](comm::Communicator& world) {
    const bool is_writer = world.rank() < writers;
    comm::Communicator group = world.split(is_writer ? 0 : 1, world.rank());
    if (is_writer) {
      OscillatorSim sim(group, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      // Writer w streams to endpoint (writers + w % endpoints).
      const int partner = writers + world.rank() % endpoints;
      auto writer = std::make_shared<FlexPathWriter>(world, partner);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 3; ++s) {
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
    } else {
      const int index = world.rank() - writers;
      auto histogram = std::make_shared<analysis::HistogramAnalysis>(
          "data", data::Association::kPoint, 16);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(histogram);
      ASSERT_TRUE(bridge.initialize().ok());
      FlexPathEndpoint endpoint(
          world, FlexPathEndpoint::writers_for_endpoint(writers, endpoints,
                                                        index));
      ASSERT_TRUE(endpoint.run(group, bridge).ok());
      EXPECT_EQ(endpoint.timings().steps, 3);
      if (group.rank() == 0) {
        staged_total = histogram->last_result().total();
      }
    }
  });
  // Full global point count across all writers' blocks.
  std::int64_t expected = 0;
  for (int r = 0; r < writers; ++r) {
    expected +=
        data::decompose_regular({16, 16, 16}, writers, r).point_count();
  }
  EXPECT_EQ(staged_total.load(), expected);
}

TEST(GleanTopology, SplitsWorld) {
  const GleanTopology topo = GleanTopology::for_world(10, 4);
  EXPECT_EQ(topo.compute_ranks, 8);
  EXPECT_EQ(topo.aggregator_ranks, 2);
  EXPECT_TRUE(topo.is_compute(7));
  EXPECT_FALSE(topo.is_compute(8));
  EXPECT_EQ(topo.aggregator_of(0, 4), 8);
  EXPECT_EQ(topo.aggregator_of(5, 4), 9);
}

TEST(GleanTopology, DegenerateWorlds) {
  const GleanTopology tiny = GleanTopology::for_world(2, 4);
  EXPECT_EQ(tiny.compute_ranks, 1);
  EXPECT_EQ(tiny.aggregator_ranks, 1);
}

TEST(Glean, AggregatedHistogramSeesAllBlocks) {
  // 4 compute ranks -> 1 aggregator running a histogram over the merged
  // blocks of its group (in transit analysis with minimal app changes).
  const int computes = 4;
  std::atomic<std::int64_t> total{-1};
  comm::Runtime::run(computes + 1, [&](comm::Communicator& world) {
    const bool is_compute = world.rank() < computes;
    comm::Communicator group = world.split(is_compute ? 0 : 1, world.rank());
    if (is_compute) {
      OscillatorConfig cfg = sim_config();
      OscillatorSim sim(group, cfg);
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<GleanWriter>(world, computes);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 3; ++s) {
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
    } else {
      auto histogram = std::make_shared<analysis::HistogramAnalysis>(
          "data", data::Association::kPoint, 16);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(histogram);
      ASSERT_TRUE(bridge.initialize().ok());
      GleanOptions options;
      GleanAggregator aggregator(world, {0, 1, 2, 3}, options);
      ASSERT_TRUE(aggregator.run(group, &bridge).ok());
      EXPECT_EQ(aggregator.timings().steps, 3);
      total = histogram->last_result().total();
    }
  });
  // All 4 ranks' points: 4 blocks of a 16^3-cell grid split over 4 ranks.
  std::int64_t expected = 0;
  for (int r = 0; r < computes; ++r) {
    expected +=
        data::decompose_regular({16, 16, 16}, computes, r).point_count();
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(Glean, IoAccelerationWritesBpFiles) {
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  comm::Runtime::run(3, [&](comm::Communicator& world) {
    const bool is_compute = world.rank() < 2;
    comm::Communicator group = world.split(is_compute ? 0 : 1, world.rank());
    if (is_compute) {
      OscillatorSim sim(group, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<GleanWriter>(world, 2);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 2; ++s) {
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
    } else {
      GleanOptions options;
      options.write_bp_files = true;
      options.output_directory = dir;
      GleanAggregator aggregator(world, {0, 1}, options);
      ASSERT_TRUE(aggregator.run(group, nullptr).ok());
      EXPECT_GT(aggregator.timings().io.count(), 0);
    }
  });
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator{}),
            2);  // one BP file per step
  // Files round-trip.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto mesh = bp_read_file(entry.path().string());
    ASSERT_TRUE(mesh.ok());
    EXPECT_EQ((*mesh)->num_local_blocks(), 2u);
  }
}

TEST(Glean, AggregatorSkipsStepNumberGaps) {
  // Producers that only forward every 3rd step leave gaps in the step
  // numbering; the aggregator must process the present steps and finish.
  comm::Runtime::run(3, [&](comm::Communicator& world) {
    const bool is_compute = world.rank() < 2;
    comm::Communicator group = world.split(is_compute ? 0 : 1, world.rank());
    if (is_compute) {
      OscillatorSim sim(group, sim_config());
      sim.initialize();
      OscillatorDataAdaptor adaptor(sim);
      auto writer = std::make_shared<GleanWriter>(world, 2);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(writer);
      ASSERT_TRUE(bridge.initialize().ok());
      for (long s = 0; s < 9; s += 3) {  // steps 0, 3, 6
        ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
        sim.step();
      }
      ASSERT_TRUE(bridge.finalize().ok());
    } else {
      auto histogram = std::make_shared<analysis::HistogramAnalysis>(
          "data", data::Association::kPoint, 8);
      core::InSituBridge bridge(&group);
      bridge.add_analysis(histogram);
      ASSERT_TRUE(bridge.initialize().ok());
      GleanAggregator aggregator(world, {0, 1}, GleanOptions{});
      ASSERT_TRUE(aggregator.run(group, &bridge).ok());
      EXPECT_EQ(aggregator.timings().steps, 3);
    }
  });
}

TEST(ConfigurableAnalysis, BuildsRequestedAdaptors) {
  pal::Config cfg;
  cfg.set("histogram.enabled", "true");
  cfg.set("histogram.bins", "32");
  cfg.set("autocorrelation.enabled", "true");
  cfg.set("autocorrelation.window", "5");
  cfg.set("catalyst.enabled", "true");
  cfg.set("catalyst.width", "64");
  cfg.set("catalyst.height", "64");
  auto analyses = configure_analyses(cfg);
  ASSERT_TRUE(analyses.ok());
  ASSERT_EQ(analyses->size(), 3u);
  EXPECT_EQ((*analyses)[0]->name(), "histogram");
  EXPECT_EQ((*analyses)[1]->name(), "autocorrelation");
  EXPECT_EQ((*analyses)[2]->name(), "catalyst-slice");
}

TEST(ConfigurableAnalysis, EmptyConfigYieldsNoAnalyses) {
  pal::Config cfg;
  auto analyses = configure_analyses(cfg);
  ASSERT_TRUE(analyses.ok());
  EXPECT_TRUE(analyses->empty());
}

TEST(ConfigurableAnalysis, RejectsInvalidValues) {
  pal::Config bad_bins;
  bad_bins.set("histogram.enabled", "true");
  bad_bins.set("histogram.bins", "-1");
  EXPECT_FALSE(configure_analyses(bad_bins).ok());

  pal::Config bad_assoc;
  bad_assoc.set("histogram.enabled", "true");
  bad_assoc.set("histogram.association", "edge");
  EXPECT_FALSE(configure_analyses(bad_assoc).ok());

  pal::Config bad_axis;
  bad_axis.set("catalyst.enabled", "true");
  bad_axis.set("catalyst.axis", "5");
  EXPECT_FALSE(configure_analyses(bad_axis).ok());

  pal::Config no_session;
  no_session.set("libsim.enabled", "true");
  EXPECT_FALSE(configure_analyses(no_session).ok());
}

TEST(ConfigurableAnalysis, InlineLibsimSession) {
  pal::Config cfg;
  cfg.set("libsim.enabled", "true");
  cfg.set("libsim.session",
          "[session];array=data;[plot0];type=slice;axis=2;value=4");
  auto analyses = configure_analyses(cfg);
  ASSERT_TRUE(analyses.ok());
  ASSERT_EQ(analyses->size(), 1u);
  EXPECT_EQ((*analyses)[0]->name(), "libsim-render");
}

/// The portability demonstration (§3.2): one instrumented simulation, one
/// run, FOUR infrastructures consuming the same adaptor.
TEST(Portability, OneAdaptorManyInfrastructures) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);

    auto histogram = std::make_shared<analysis::HistogramAnalysis>(
        "data", data::Association::kPoint, 16);
    CatalystSliceConfig cs;
    cs.image_width = 32;
    cs.image_height = 32;
    auto catalyst = std::make_shared<CatalystSlice>(cs);
    LibsimConfig lc;
    lc.session_text = kSession;
    auto libsim = std::make_shared<LibsimRender>(lc);

    core::InSituBridge bridge(&comm);
    bridge.add_analysis(histogram);
    bridge.add_analysis(catalyst);
    bridge.add_analysis(libsim);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 3; ++s) {
      auto r = bridge.execute(adaptor, sim.time(), s);
      ASSERT_TRUE(r.ok());
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());
    if (comm.rank() == 0) {
      EXPECT_GT(histogram->last_result().total(), 0);
      EXPECT_EQ(catalyst->images_produced(), 3);
      EXPECT_EQ(libsim->images_produced(), 3);
    }
  });
}

}  // namespace
}  // namespace insitu::backends
