#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>

#include "backends/cinema.hpp"
#include "backends/extracts.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "io/block_io.hpp"
#include "miniapp/adaptor.hpp"
#include "test_temp_dir.hpp"

namespace insitu::backends {
namespace {

using miniapp::Oscillator;
using miniapp::OscillatorConfig;
using miniapp::OscillatorDataAdaptor;
using miniapp::OscillatorSim;

OscillatorConfig sim_config(std::int64_t n = 16) {
  OscillatorConfig cfg;
  cfg.global_cells = {n, n, n};
  cfg.dt = 0.1;
  cfg.oscillators = {{Oscillator::Kind::kPeriodic,
                      {n / 2.0, n / 2.0, n / 2.0}, n / 4.0, 2.0 * M_PI,
                      0.0}};
  return cfg;
}

TEST(ExtractFormat, MeshRoundTrip) {
  analysis::TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {2, 2, 2}};
  mesh.scalars = {0.5, 1.5, -2.0, 3.25};
  mesh.triangles = {{0, 1, 2}, {1, 2, 3}};
  auto back = deserialize_mesh(serialize_mesh(mesh));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_vertices(), 4u);
  EXPECT_EQ(back->num_triangles(), 2u);
  EXPECT_EQ(back->vertices[3].z, 2.0);
  EXPECT_EQ(back->scalars[2], -2.0);
  EXPECT_EQ(back->triangles[1][2], 3);
}

TEST(ExtractFormat, EmptyMeshRoundTrip) {
  auto back = deserialize_mesh(serialize_mesh(analysis::TriangleMesh{}));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(ExtractFormat, RejectsCorruption) {
  analysis::TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  mesh.scalars = {0, 0, 0};
  mesh.triangles = {{0, 1, 2}};
  auto bytes = serialize_mesh(mesh);
  // Truncated.
  EXPECT_FALSE(
      deserialize_mesh(std::span<const std::byte>(bytes).subspan(0, 10)).ok());
  // Bad triangle index.
  auto corrupted = bytes;
  const std::size_t tri_offset = bytes.size() - sizeof(std::int32_t);
  const std::int32_t bad = 99;
  std::memcpy(corrupted.data() + tri_offset, &bad, sizeof bad);
  EXPECT_FALSE(deserialize_mesh(corrupted).ok());
}

TEST(ExtractWriter, WritesGlobalExtractsAndReducesData) {
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  std::atomic<std::int64_t> triangles{0};
  std::atomic<std::uint64_t> extract_bytes{0}, field_bytes{0};
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config(32));
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    ExtractConfig cfg;
    cfg.kind = ExtractConfig::Kind::kIsosurface;
    cfg.value = 0.2;
    cfg.output_directory = dir;
    auto writer = std::make_shared<ExtractWriter>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(writer);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 3; ++s) {
      ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(writer->extracts_written(), 3);
      triangles = writer->last_global_triangles();
      extract_bytes = writer->last_extract_bytes();
      field_bytes = writer->last_field_bytes();
    }
  });
  EXPECT_GT(triangles.load(), 0);
  // The reduction headline: the extract is much smaller than the field.
  EXPECT_LT(extract_bytes.load(), field_bytes.load());

  // Written files load back as valid meshes.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto bytes = insitu::io::read_file_bytes(entry.path().string());
    ASSERT_TRUE(bytes.ok());
    auto mesh = deserialize_mesh(*bytes);
    ASSERT_TRUE(mesh.ok());
    ++files;
  }
  EXPECT_EQ(files, 3);
}

TEST(ExtractWriter, SliceKindProducesPlanarExtract) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    ExtractConfig cfg;
    cfg.kind = ExtractConfig::Kind::kSlice;
    cfg.axis = 2;
    cfg.value = 8.0;
    auto writer = std::make_shared<ExtractWriter>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(writer);
    ASSERT_TRUE(bridge.initialize().ok());
    ASSERT_TRUE(bridge.execute(adaptor, 0.0, 0).ok());
    if (comm.rank() == 0) {
      // The full 16x16 cross-section: 2 triangles per cell face minimum.
      EXPECT_GE(writer->last_global_triangles(), 2 * 16 * 16);
    }
  });
}

TEST(CinemaExtract, ProducesCameraSweepDatabase) {
  const test_util::TempDir tmp;
  const std::string dir = tmp.str();
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    OscillatorSim sim(comm, sim_config());
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    CinemaConfig cfg;
    cfg.camera_phi = 3;
    cfg.camera_theta = 2;
    cfg.image_width = 48;
    cfg.image_height = 48;
    cfg.every_n_steps = 2;
    cfg.output_directory = dir;
    auto cinema = std::make_shared<CinemaExtract>(cfg);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(cinema);
    ASSERT_TRUE(bridge.initialize().ok());
    for (long s = 0; s < 4; ++s) {  // steps 0 and 2 trigger
      ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
      sim.step();
    }
    ASSERT_TRUE(bridge.finalize().ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(cinema->images_produced(), 2 * 3 * 2);  // steps x phi x theta
      EXPECT_EQ(cinema->steps_captured(), 2);
      EXPECT_NE(cinema->last_image_hash(), 0u);
      const std::string index = cinema->index_text();
      EXPECT_NE(index.find("phi = 3"), std::string::npos);
      EXPECT_NE(index.find("steps = 0 2"), std::string::npos);
    }
  });
  // 12 PNGs + index.cdb on disk.
  int pngs = 0, indexes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".png") ++pngs;
    if (entry.path().filename() == "index.cdb") ++indexes;
  }
  EXPECT_EQ(pngs, 12);
  EXPECT_EQ(indexes, 1);
}

TEST(CinemaExtract, ValidatesConfig) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    CinemaConfig bad_cams;
    bad_cams.camera_phi = 0;
    CinemaExtract a(bad_cams);
    EXPECT_FALSE(a.initialize(comm).ok());
    CinemaConfig bad_iso;
    bad_iso.iso_fraction = 1.5;
    CinemaExtract b(bad_iso);
    EXPECT_FALSE(b.initialize(comm).ok());
  });
}

TEST(CinemaExtract, DifferentCamerasProduceDifferentImages) {
  std::atomic<std::uint64_t> hash_a{0}, hash_b{0};
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    OscillatorConfig scfg = sim_config();
    // Two oscillators so the scene is rotation-asymmetric.
    scfg.oscillators.push_back(
        {Oscillator::Kind::kPeriodic, {4, 10, 12}, 2.0, 1.0, 0.0});
    OscillatorSim sim(comm, scfg);
    sim.initialize();
    OscillatorDataAdaptor adaptor(sim);
    auto run_with_phi = [&](int phi) {
      CinemaConfig cfg;
      cfg.camera_phi = phi;
      cfg.camera_theta = 1;
      cfg.image_width = 64;
      cfg.image_height = 64;
      auto cinema = std::make_shared<CinemaExtract>(cfg);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(cinema);
      (void)bridge.initialize();
      (void)bridge.execute(adaptor, 0.0, 0);
      (void)adaptor.release_data();
      return cinema->last_image_hash();
    };
    hash_a = run_with_phi(1);   // last camera: phi = 0
    hash_b = run_with_phi(2);   // last camera: phi = pi
  });
  EXPECT_NE(hash_a.load(), hash_b.load());
}

}  // namespace
}  // namespace insitu::backends
