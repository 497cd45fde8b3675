#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/histogram.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "proxy/leslie.hpp"
#include "proxy/nyx.hpp"
#include "proxy/phasta.hpp"

namespace insitu::proxy {
namespace {

// ---------------- LESLIE ----------------

LeslieConfig small_leslie() {
  LeslieConfig cfg;
  cfg.global_points = {17, 17, 17};
  cfg.dt = 0.02;
  return cfg;
}

class LeslieP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, LeslieP, ::testing::Values(1, 2, 4));

TEST_P(LeslieP, ShearProfileAndStability) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    LeslieSim sim(comm, small_leslie());
    sim.initialize();
    const double e0 = sim.global_kinetic_energy();
    if (e0 <= 0.0) ++failures;
    for (int s = 0; s < 5; ++s) sim.step();
    const double e1 = sim.global_kinetic_energy();
    // Viscous shear flow: energy stays bounded (no blow-up) and nonzero.
    if (!(e1 > 0.0) || e1 > 4.0 * e0) ++failures;
    if (sim.step_index() != 5) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(LeslieP, EnergyIndependentOfDecomposition) {
  const int p = GetParam();
  static double reference = -1.0;
  std::atomic<double> energy{0.0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    LeslieSim sim(comm, small_leslie());
    sim.initialize();
    const double e = sim.global_kinetic_energy();  // collective: all ranks
    if (comm.rank() == 0) energy = e;
  });
  if (reference < 0.0) {
    reference = energy.load();
  } else {
    EXPECT_NEAR(energy.load(), reference, 1e-9 * reference);
  }
}

TEST(Leslie, HaloExchangeMakesStepsConsistent) {
  // One step at p=1 vs p=2: interior values must agree (the halo exchange
  // supplies the cross-rank stencil neighbours).
  auto run_at = [&](int p) {
    std::vector<double> plane;  // u on global z=8 plane
    comm::Runtime::run(p, [&](comm::Communicator& comm) {
      LeslieSim sim(comm, small_leslie());
      sim.initialize();
      sim.step();
      sim.step();
      // Collect u at global plane z=8 from whichever rank owns it.
      const std::int64_t zg = 8;
      const std::int64_t local_k = zg - sim.z_offset();
      std::vector<double> mine;
      if (local_k >= (sim.has_lower_ghost() ? 1 : 0) &&
          local_k < sim.nz_local() - (sim.has_upper_ghost() ? 1 : 0)) {
        const std::size_t base = static_cast<std::size_t>(
            local_k * sim.nx() * sim.ny());
        mine.assign(sim.u().begin() + static_cast<std::ptrdiff_t>(base),
                    sim.u().begin() +
                        static_cast<std::ptrdiff_t>(
                            base + static_cast<std::size_t>(sim.nx() *
                                                            sim.ny())));
      }
      auto gathered = comm.gatherv(std::span<const double>(mine), 0);
      if (comm.rank() == 0) {
        for (const auto& chunk : gathered) {
          if (!chunk.empty()) plane = chunk;
        }
      }
    });
    return plane;
  };
  const auto serial = run_at(1);
  const auto parallel = run_at(2);
  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_FALSE(serial.empty());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], parallel[i], 1e-12) << "i=" << i;
  }
}

TEST(LeslieAdaptor, ExposesDerivedVorticity) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    LeslieSim sim(comm, small_leslie());
    sim.initialize();
    LeslieDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(adaptor
                    .add_array(**mesh, data::Association::kPoint,
                               "vorticity_magnitude")
                    .ok());
    auto w = (*mesh)->block(0)->point_fields().get("vorticity_magnitude");
    ASSERT_NE(w, nullptr);
    // A shear layer has nonzero vorticity at the midplane.
    auto [lo, hi] = w->range();
    EXPECT_GT(hi, 0.1);
  });
}

TEST(LeslieAdaptor, VelocityIsZeroCopySoa) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    LeslieSim sim(comm, small_leslie());
    sim.initialize();
    LeslieDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    ASSERT_TRUE(
        adaptor.add_array(**mesh, data::Association::kPoint, "velocity").ok());
    auto velocity = (*mesh)->block(0)->point_fields().get("velocity");
    ASSERT_NE(velocity, nullptr);
    EXPECT_TRUE(velocity->is_zero_copy());
    EXPECT_EQ(velocity->num_components(), 3);
    sim.u()[0] = 123.0;
    EXPECT_EQ(velocity->get(0, 0), 123.0);
  });
}

TEST(LeslieAdaptor, GhostPlanesFlagged) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    LeslieSim sim(comm, small_leslie());
    sim.initialize();
    LeslieDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    auto ghosts = (*mesh)->block(0)->ghost_cells();
    ASSERT_NE(ghosts, nullptr);
    // Exactly one ghost plane of cells on the interior face.
    std::int64_t flagged = 0;
    for (std::int64_t c = 0; c < ghosts->num_tuples(); ++c) {
      if (ghosts->get(c) != 0.0) ++flagged;
    }
    EXPECT_EQ(flagged, 16 * 16);  // one cell plane of the 17-point grid
  });
}

// ---------------- PHASTA ----------------

PhastaConfig small_phasta() {
  PhastaConfig cfg;
  cfg.cells_per_rank = {4, 4, 4};
  return cfg;
}

TEST(Phasta, MeshShape) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    sim.initialize();
    EXPECT_EQ(sim.num_elements(), 6 * 4 * 4 * 4);
    EXPECT_EQ(sim.num_nodes(), 5 * 5 * 5);
    EXPECT_EQ(sim.tets().size(),
              static_cast<std::size_t>(4 * sim.num_elements()));
    // All connectivity entries are valid node ids.
    for (const std::int64_t n : sim.tets()) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, sim.num_nodes());
    }
  });
}

TEST(Phasta, TetVolumesArePositiveAndFillBox) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PhastaConfig cfg = small_phasta();
    PhastaSim sim(comm, cfg);
    sim.initialize();
    PhastaDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    ASSERT_TRUE(mesh.ok());
    const auto& grid = *(*mesh)->block(0);
    std::vector<std::int64_t> cell;
    double volume = 0.0;
    for (std::int64_t c = 0; c < grid.num_cells(); ++c) {
      grid.cell_points(c, cell);
      const data::Vec3 a = grid.point(cell[0]);
      const data::Vec3 b = grid.point(cell[1]);
      const data::Vec3 d = grid.point(cell[2]);
      const data::Vec3 e = grid.point(cell[3]);
      volume += std::abs((b - a).cross(d - a).dot(e - a)) / 6.0;
    }
    // The warped box still tessellates without gaps: total volume equals
    // the hex-sum volume (warp is a shear, volume-preserving per column).
    EXPECT_NEAR(volume, 4.0 * 4.0 * 4.0, 0.5);
  });
}

TEST(Phasta, JetSteeringChangesFlow) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.step();
    // Norm of v-velocity with default jet.
    double v_default = 0.0;
    for (std::int64_t n = 0; n < sim.num_nodes(); ++n) {
      v_default += std::abs(sim.velocity()[static_cast<std::size_t>(3 * n + 1)]);
    }
    PhastaSim sim2(comm, small_phasta());
    sim2.initialize();
    sim2.set_jet(/*amplitude=*/0.0, /*frequency=*/2.0);  // jet off
    for (int s = 0; s < 3; ++s) sim2.step();
    double v_off = 0.0;
    for (std::int64_t n = 0; n < sim2.num_nodes(); ++n) {
      v_off += std::abs(sim2.velocity()[static_cast<std::size_t>(3 * n + 1)]);
    }
    EXPECT_GT(v_default, v_off);  // the jet injects wall-normal momentum
  });
}

/// FNV-1a over the bit patterns of `n` bytes.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

/// Every rank's pressure() then velocity() after 8 steps, hashed, folded
/// in rank order.
std::uint64_t phasta_fields_digest(int ranks,
                                   std::array<std::int64_t, 3> cells) {
  std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(ranks));
  comm::Runtime::run(ranks, [&](comm::Communicator& comm) {
    PhastaConfig cfg;
    cfg.cells_per_rank = cells;
    PhastaSim sim(comm, cfg);
    sim.initialize();
    for (int s = 0; s < 8; ++s) sim.step();
    std::uint64_t h = 1469598103934665603ULL;
    h = fnv1a(h, sim.pressure().data(), sim.pressure().size() * sizeof(double));
    h = fnv1a(h, sim.velocity().data(), sim.velocity().size() * sizeof(double));
    per_rank[static_cast<std::size_t>(comm.rank())] = h;
  });
  return fnv1a(1469598103934665603ULL, per_rank.data(),
               per_rank.size() * sizeof(std::uint64_t));
}

/// The Jacobi sweeps visit each node's neighbors in tet-edge order,
/// duplicates included; these digests were recorded from the
/// vector-of-vectors adjacency, so the CSR layout must sum the same terms
/// in the same order, bit for bit.
TEST(Phasta, FieldsMatchRecordedDigest) {
  struct Case {
    int ranks;
    std::int64_t cells;
    std::uint64_t digest;
  };
  for (const Case& c : {Case{1, 4, 0x67b9cf3e73a7fe07ULL},
                        Case{1, 8, 0x2813311430bf748eULL},
                        Case{8, 4, 0x0a0f3d46cf2fb52dULL},
                        Case{8, 8, 0x332189cfc6967bfbULL}}) {
    SCOPED_TRACE(::testing::Message()
                 << "ranks=" << c.ranks << " cells=" << c.cells);
    EXPECT_EQ(phasta_fields_digest(c.ranks, {c.cells, c.cells, c.cells}),
              c.digest);
  }
}

/// The tracker sees the adjacency: 12 directed edge entries per tet plus
/// one offset per node and a terminator, all int32; the int32 cells; and
/// per node the fields plus the two jet envelopes and the sweep buffer.
TEST(Phasta, TrackedBytesIncludeAdjacency) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    const auto nodes = static_cast<std::size_t>(sim.num_nodes());
    const auto tets = static_cast<std::size_t>(sim.num_elements());
    // xyz, uvw, p, jet influence, swirl envelope, sweep buffer.
    const std::size_t fields = 10 * nodes * sizeof(double);
    const std::size_t cells = 4 * tets * sizeof(std::int32_t);
    const std::size_t adjacency =
        (nodes + 1 + 12 * tets) * sizeof(std::int32_t);
    EXPECT_EQ(sim.tracked_bytes(), fields + cells + adjacency);
    EXPECT_GE(pal::rank_memory_tracker().current_bytes(), sim.tracked_bytes());
  });
}

TEST(PhastaAdaptor, ZeroCopyFieldsFullCopyConnectivity) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    sim.initialize();
    PhastaDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    ASSERT_TRUE(mesh.ok());
    auto* grid =
        dynamic_cast<data::UnstructuredGrid*>((*mesh)->block(0).get());
    ASSERT_NE(grid, nullptr);
    // Points zero-copy (§4.2.1).
    EXPECT_TRUE(grid->points_array()->is_zero_copy());
    // Connectivity full copy: charged as owned bytes.
    EXPECT_GT(grid->owned_bytes(),
              sim.tets().size() * sizeof(std::int64_t) - 1);
    ASSERT_TRUE(
        adaptor.add_array(**mesh, data::Association::kPoint, "velocity").ok());
    auto velocity = grid->point_fields().get("velocity");
    EXPECT_TRUE(velocity->is_zero_copy());
    // velocity_magnitude is derived (owned, not zero-copy).
    ASSERT_TRUE(adaptor
                    .add_array(**mesh, data::Association::kPoint,
                               "velocity_magnitude")
                    .ok());
    auto vmag = grid->point_fields().get("velocity_magnitude");
    EXPECT_FALSE(vmag->is_zero_copy());
    EXPECT_NEAR(vmag->get(0),
                std::sqrt(std::pow(velocity->get(0, 0), 2) +
                          std::pow(velocity->get(0, 1), 2) +
                          std::pow(velocity->get(0, 2), 2)),
                1e-12);
  });
}

/// The grid is built once and reused: across steps its identity and owned
/// bytes hold, derived arrays follow the sim, and per-step point arrays a
/// backend attached do not leak into the next step.
TEST(PhastaAdaptor, ReusedGridIsNotStale) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    sim.initialize();
    PhastaDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    const data::DataSet* grid = nullptr;
    std::size_t owned = 0;
    for (int s = 0; s < 3; ++s) {
      SCOPED_TRACE(::testing::Message() << "step " << s);
      sim.step();
      auto mesh = adaptor.mesh(false);
      ASSERT_TRUE(mesh.ok());
      data::DataSet& block = *(*mesh)->block(0);
      if (s == 0) {
        grid = &block;
        owned = block.owned_bytes();
      }
      EXPECT_EQ(&block, grid);
      EXPECT_EQ(block.owned_bytes(), owned);
      // A backend's CellDataToPointData output from step 0 is gone.
      EXPECT_FALSE(block.point_fields().has("pressure_point"));
      EXPECT_EQ(block.point_fields().count(), 0u);

      ASSERT_TRUE(adaptor
                      .add_array(**mesh, data::Association::kPoint,
                                 "velocity_magnitude")
                      .ok());
      PhastaDataAdaptor fresh(sim);
      fresh.set_communicator(&comm);
      auto fresh_mesh = fresh.mesh(false);
      ASSERT_TRUE(fresh_mesh.ok());
      ASSERT_TRUE(fresh
                      .add_array(**fresh_mesh, data::Association::kPoint,
                                 "velocity_magnitude")
                      .ok());
      const auto reused = block.point_fields().get("velocity_magnitude");
      const auto expected =
          (*fresh_mesh)->block(0)->point_fields().get("velocity_magnitude");
      ASSERT_EQ(reused->num_tuples(), expected->num_tuples());
      for (std::int64_t n = 0; n < reused->num_tuples(); ++n) {
        ASSERT_EQ(reused->get(n), expected->get(n)) << "node " << n;
      }

      if (s == 0) {
        block.point_fields().add(data::DataArray::wrap_aos(
            "pressure_point", sim.pressure().data(), sim.num_nodes(), 1));
      }
      ASSERT_TRUE(adaptor.release_data().ok());
    }

    // structure_only may omit arrays; this adaptor hands back the full grid.
    auto structure = adaptor.mesh(true);
    ASSERT_TRUE(structure.ok());
    EXPECT_EQ((*structure)->block(0).get(), grid);
    EXPECT_EQ((*structure)->block(0)->num_cells(), sim.num_elements());
    EXPECT_EQ((*structure)->block(0)->num_points(), sim.num_nodes());
  });
}

TEST(PhastaAdaptor, WorksWithHistogramAnalysis) {
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    PhastaSim sim(comm, small_phasta());
    sim.initialize();
    sim.step();
    PhastaDataAdaptor adaptor(sim);
    auto histogram = std::make_shared<analysis::HistogramAnalysis>(
        "velocity_magnitude", data::Association::kPoint, 16);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(histogram);
    ASSERT_TRUE(bridge.initialize().ok());
    ASSERT_TRUE(bridge.execute(adaptor, sim.time(), 1).ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(histogram->last_result().total(), 4 * 125);
    }
  });
}

// ---------------- NYX ----------------

NyxConfig small_nyx() {
  NyxConfig cfg;
  cfg.global_cells = {16, 16, 16};
  cfg.particles_per_cell = 1;
  return cfg;
}

class NyxP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, NyxP, ::testing::Values(1, 2, 4));

TEST_P(NyxP, ParticleCountConservedAcrossMigration) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    NyxSim sim(comm, small_nyx());
    sim.initialize();
    const std::int64_t n0 = sim.global_particle_count();
    if (n0 != 16 * 16 * 16) ++failures;
    for (int s = 0; s < 5; ++s) sim.step();
    if (sim.global_particle_count() != n0) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(NyxP, DepositedMassMatchesParticleMass) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    NyxSim sim(comm, small_nyx());
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.step();
    const double mass = sim.global_deposited_mass();
    // CIC + ghost-deposit reduction conserves mass to round-off.
    const double expected = 16.0 * 16.0 * 16.0;
    if (std::abs(mass - expected) > 1e-6 * expected) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Nyx, GravityClustersParticles) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    NyxConfig cfg = small_nyx();
    cfg.gravity = 0.2;
    NyxSim sim(comm, cfg);
    sim.initialize();
    auto density_variance = [&] {
      double sum = 0.0, sum_sq = 0.0;
      for (double d : sim.density()) {
        sum += d;
        sum_sq += d * d;
      }
      const double n = static_cast<double>(sim.density().size());
      const double mean = sum / n;
      return sum_sq / n - mean * mean;
    };
    const double var0 = density_variance();
    for (int s = 0; s < 20; ++s) sim.step();
    // Attractive dynamics increase density contrast (structure formation).
    EXPECT_GT(density_variance(), var0);
  });
}

TEST(NyxAdaptor, ZeroCopyDensityAndGhostBlanking) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    NyxSim sim(comm, small_nyx());
    sim.initialize();
    NyxDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh = adaptor.mesh(false);
    ASSERT_TRUE(mesh.ok());
    ASSERT_TRUE(adaptor
                    .add_array(**mesh, data::Association::kCell,
                               NyxDataAdaptor::kDensityArray)
                    .ok());
    auto density =
        (*mesh)->block(0)->cell_fields().get(NyxDataAdaptor::kDensityArray);
    ASSERT_NE(density, nullptr);
    EXPECT_TRUE(density->is_zero_copy());  // "directly passing a pointer"
    auto ghosts = (*mesh)->block(0)->ghost_cells();
    ASSERT_NE(ghosts, nullptr);  // vtkGhostLevels present
    std::int64_t flagged = 0;
    for (std::int64_t c = 0; c < ghosts->num_tuples(); ++c) {
      if (ghosts->get(c) != 0.0) ++flagged;
    }
    EXPECT_EQ(flagged, 2 * 16 * 16);  // periodic: ghost layer on each face
  });
}

TEST(NyxAdaptor, HistogramExcludesGhostLayers) {
  std::atomic<std::int64_t> total{0};
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    NyxSim sim(comm, small_nyx());
    sim.initialize();
    NyxDataAdaptor adaptor(sim);
    auto histogram = std::make_shared<analysis::HistogramAnalysis>(
        NyxDataAdaptor::kDensityArray, data::Association::kCell, 16);
    core::InSituBridge bridge(&comm);
    bridge.add_analysis(histogram);
    ASSERT_TRUE(bridge.initialize().ok());
    ASSERT_TRUE(bridge.execute(adaptor, 0.0, 0).ok());
    if (comm.rank() == 0) total = histogram->last_result().total();
  });
  // Exactly the global cell count: ghosts contributed nothing.
  EXPECT_EQ(total.load(), 16 * 16 * 16);
}

}  // namespace
}  // namespace insitu::proxy
