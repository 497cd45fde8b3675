// Per-rank buffer pools: every rank and every async worker allocates
// through a pool no other thread touches, so a run's `pool.*` counters
// are its own and repeat exactly, whatever the scheduler backend and
// however the threads interleave.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/histogram.hpp"
#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "core/async_bridge.hpp"
#include "io/writers.hpp"
#include "miniapp/adaptor.hpp"
#include "pal/buffer_pool.hpp"

namespace insitu {
namespace {

bool same_counters(const pal::BufferPoolStats& a,
                   const pal::BufferPoolStats& b) {
  return a.hits == b.hits && a.misses == b.misses &&
         a.evictions == b.evictions && a.releases == b.releases &&
         a.bytes_reused == b.bytes_reused &&
         a.bytes_allocated == b.bytes_allocated;
}

std::string describe(const pal::BufferPoolStats& s) {
  return std::to_string(s.hits) + "/" + std::to_string(s.misses) +
         " hits/misses, " + std::to_string(s.releases) + " releases, " +
         std::to_string(s.evictions) + " evictions, " +
         std::to_string(s.bytes_allocated) + " B allocated, " +
         std::to_string(s.bytes_reused) + " B reused";
}

comm::Runtime::Options options_for(comm::SchedBackend backend) {
  comm::Runtime::Options options = bench::run_options();
  options.sched.backend = backend;
  options.sched.workers = 2;
  return options;
}

/// bench/ablation_pool's pipeline, shortened: the async bridge
/// deep-copies the mesh every step for a worker-side histogram, and a
/// collective writer serializes the mesh to rank 0.
pal::BufferPoolStats snapshot_path_pool(
    int ranks, const comm::Runtime::Options& options) {
  const comm::RunReport report = comm::Runtime::run(
      ranks, options, [](comm::Communicator& comm) {
        miniapp::OscillatorSim sim(comm,
                                   bench::ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);
        core::AsyncBridge bridge(&comm);
        bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 64));
        (void)bridge.initialize();
        io::CollectiveWriter writer("", io::LustreModel(comm.machine().fs),
                                    /*write_to_disk=*/false);
        for (int s = 0; s < 12; ++s) {
          sim.step();
          (void)bridge.execute(adaptor, sim.time(), s);
          StatusOr<data::MultiBlockPtr> mesh = adaptor.mesh(false);
          if (mesh.ok()) {
            (void)adaptor.add_array(**mesh, data::Association::kPoint, "data");
            (void)writer.write_step(comm, **mesh, s);
          }
        }
        (void)bridge.finalize();
      });
  EXPECT_FALSE(report.failed) << report.failure_message;
  return bench::pool_stats(report.metrics);
}

// The sync gate pipeline pools its framebuffers and projection scratch
// (the Catalyst slice reuses one framebuffer per rank), so both pipelines
// compare real counters across runs and backends.
TEST(RankPools, CountersRepeatAcrossRunsAndBackends) {
  std::vector<pal::BufferPoolStats> gate;
  std::vector<pal::BufferPoolStats> snapshot;
  for (const comm::SchedBackend backend :
       {comm::SchedBackend::kThreads, comm::SchedBackend::kMn}) {
    for (int run = 0; run < 3; ++run) {
      gate.push_back(
          bench::run_gate_pipeline("gate", 4, options_for(backend)).pool);
      snapshot.push_back(snapshot_path_pool(4, options_for(backend)));
    }
  }
  ASSERT_GT(gate[0].hits, 0u);  // both paths really pool
  ASSERT_GT(snapshot[0].hits, 0u);
  for (std::size_t i = 1; i < gate.size(); ++i) {
    EXPECT_TRUE(same_counters(gate[i], gate[0]))
        << "gate run " << i << ": " << describe(gate[i]) << " vs "
        << describe(gate[0]);
    EXPECT_TRUE(same_counters(snapshot[i], snapshot[0]))
        << "snapshot run " << i << ": " << describe(snapshot[i]) << " vs "
        << describe(snapshot[0]);
  }
}

// Two jobs of one tenant running at once, as the service runs two of its
// sessions, each report exactly the counters of running alone: no job's
// pool.* series includes the other's traffic.
TEST(RankPools, ConcurrentJobsOfOneTenantReportTheirSoloCounters) {
  pal::MemoryTracker tenant;
  comm::Runtime::Options options = options_for(comm::SchedBackend::kThreads);
  options.tenant.label = "pair";
  options.tenant.tracker = &tenant;
  const pal::BufferPoolStats solo4 = snapshot_path_pool(4, options);
  const pal::BufferPoolStats solo8 = snapshot_path_pool(8, options);
  ASSERT_FALSE(same_counters(solo4, solo8));

  pal::BufferPoolStats concurrent4;
  pal::BufferPoolStats concurrent8;
  std::thread other([&] { concurrent8 = snapshot_path_pool(8, options); });
  concurrent4 = snapshot_path_pool(4, options);
  other.join();
  EXPECT_TRUE(same_counters(concurrent4, solo4))
      << describe(concurrent4) << " vs solo " << describe(solo4);
  EXPECT_TRUE(same_counters(concurrent8, solo8))
      << describe(concurrent8) << " vs solo " << describe(solo8);
  EXPECT_EQ(tenant.current_bytes(), 0u);
}

/// Records the pool the calling thread allocates through each time it
/// runs (on the async worker), and allocates through it.
class PoolProbe : public core::AnalysisAdaptor {
 public:
  std::string name() const override { return "pool_probe"; }
  StatusOr<bool> execute(core::DataAdaptor&) override {
    pools_.insert(&pal::buffer_pool());
    pal::PooledBuffer scratch(4096);
    scratch.bytes().resize(4096);
    return true;
  }
  const std::set<const pal::BufferPool*>& pools() const { return pools_; }

 private:
  std::set<const pal::BufferPool*> pools_;  // touched by one worker only
};

// 16 ranks on 2 carriers, each with an async worker, all pooling at once.
// Run under TSan in CI: any pool reached from two threads is a race.
TEST(RankPools, RanksAndAsyncWorkersNeverShareAPool) {
  constexpr int kRanks = 16;
  constexpr int kSteps = 6;
  std::vector<std::set<const pal::BufferPool*>> rank_pools(kRanks);
  std::vector<std::shared_ptr<PoolProbe>> probes(kRanks);
  comm::Runtime::Options options = options_for(comm::SchedBackend::kMn);
  const comm::RunReport report =
      comm::Runtime::run(kRanks, options, [&](comm::Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        miniapp::OscillatorSim sim(comm,
                                   bench::ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);
        probes[r] = std::make_shared<PoolProbe>();
        core::AsyncBridge bridge(&comm);
        bridge.add_analysis(probes[r]);
        (void)bridge.initialize();
        for (int s = 0; s < kSteps; ++s) {
          sim.step();
          (void)bridge.execute(adaptor, sim.time(), s);
          rank_pools[r].insert(&pal::buffer_pool());
          pal::PooledBuffer scratch(4096);
          scratch.bytes().resize(4096);
          comm.barrier();  // park: resume on either carrier
          rank_pools[r].insert(&pal::buffer_pool());
        }
        (void)bridge.finalize();
      });
  ASSERT_FALSE(report.failed) << report.failure_message;

  std::set<const pal::BufferPool*> all;
  for (int r = 0; r < kRanks; ++r) {
    const auto& mine = rank_pools[static_cast<std::size_t>(r)];
    const auto& worker = probes[static_cast<std::size_t>(r)]->pools();
    ASSERT_EQ(mine.size(), 1u) << "rank " << r << " changed pools";
    ASSERT_EQ(worker.size(), 1u) << "worker " << r << " changed pools";
    all.insert(*mine.begin());
    all.insert(*worker.begin());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(2 * kRanks));

  // Every rank and every worker misses once per size it uses, then
  // reuses its own buffers.
  const pal::BufferPoolStats pooled = bench::pool_stats(report.metrics);
  EXPECT_EQ(pooled.hits + pooled.misses, pooled.releases);
  EXPECT_GE(pooled.hits, static_cast<std::uint64_t>(2 * kRanks * (kSteps - 1)));
}

}  // namespace
}  // namespace insitu
