// Ablation: buffer-pool recycling on the per-step hot path.
//
// The paper's per-timestep overhead figures (Figs 3-7) charge every byte
// the infrastructure touches each step. Allocation churn is the part the
// virtual clock cannot see: snapshots, serialization, and staging writes
// used to materialize fresh std::vector storage every step and free it
// milliseconds later. This bench runs the same snapshot-heavy pipeline
// (AsyncBridge snapshot + histogram + collective serialization) with
// pooling on and off (Runtime::Options::pooling) and reports real
// allocation traffic summed over every rank's and async worker's pool:
// fresh bytes allocated per step, bytes served from the free list, and
// the pool hit rate. Virtual times must be identical across the two arms
// — pooling is invisible to the model by construction — and, since no
// pool is shared, the counters are the same on every run.

#include <cstdio>
#include <string>

#include "analysis/histogram.hpp"
#include "core/async_bridge.hpp"
#include "io/writers.hpp"
#include "miniapp/adaptor.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kSteps = 40;

struct ArmResult {
  double total = 0.0;         // end-to-end virtual seconds
  pal::BufferPoolStats pool;  // the arm's pool counters, all ranks
};

ArmResult run_arm(int ranks, bool pooled, const std::string& label) {
  comm::Runtime::Options options = bench::run_options();
  options.pooling = pooled;

  const comm::RunReport report = bench::launch(
      label, ranks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorSim sim(comm,
                                   bench::ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        // Snapshot churn: the async bridge deep-copies the mesh each step
        // and retires the copies into the rank's pool after analysis.
        core::AsyncBridgeOptions abo;
        abo.policy = comm::BackpressurePolicy::kBlock;
        abo.queue_depth = 2;
        core::AsyncBridge bridge(&comm, abo);
        bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 64));
        (void)bridge.initialize();

        // Serialization churn: collective funnel to rank 0 (no disk; the
        // serialize + funnel path is what allocates).
        io::CollectiveWriter writer("", io::LustreModel(comm.machine().fs),
                                    /*write_to_disk=*/false);

        for (int s = 0; s < kSteps; ++s) {
          sim.step();
          (void)bridge.execute(adaptor, sim.time(), s);
          StatusOr<data::MultiBlockPtr> mesh = adaptor.mesh(false);
          if (mesh.ok()) {
            (void)adaptor.add_array(**mesh, data::Association::kPoint,
                                    "data");
            (void)writer.write_step(comm, **mesh, s);
          }
        }
        (void)bridge.finalize();
      });

  ArmResult result;
  result.total = report.max_virtual_seconds();
  result.pool = bench::pool_stats(report.metrics);
  return result;
}

std::string mib_per_step(std::uint64_t bytes) {
  return pal::TablePrinter::num(
      static_cast<double>(bytes) / (1024.0 * 1024.0) / kSteps, 3);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — buffer-pool recycling ===\n");

  double worst_pooled_hit_rate = 1.0;
  double worst_time_skew = 0.0;

  pal::TablePrinter table("Oscillator 16^3 + async histogram + collective "
                          "serialize (executed, " +
                          std::to_string(kSteps) + " steps)");
  table.set_header({"ranks", "pool", "end-to-end (s)", "alloc MiB/step",
                    "reused MiB/step", "hit rate", "hits/misses"});
  for (const int ranks : {4, 8}) {
    const ArmResult off =
        run_arm(ranks, /*pooled=*/false, "pool-off/p" + std::to_string(ranks));
    const ArmResult on =
        run_arm(ranks, /*pooled=*/true, "pool-on/p" + std::to_string(ranks));
    for (const auto* arm : {&off, &on}) {
      table.add_row({std::to_string(ranks), arm == &on ? "on" : "off",
                     pal::TablePrinter::num(arm->total, 5),
                     mib_per_step(arm->pool.bytes_allocated),
                     mib_per_step(arm->pool.bytes_reused),
                     pal::TablePrinter::num(arm->pool.hit_rate(), 3),
                     std::to_string(arm->pool.hits) + "/" +
                         std::to_string(arm->pool.misses)});
    }
    worst_pooled_hit_rate =
        std::min(worst_pooled_hit_rate, on.pool.hit_rate());
    if (off.total > 0.0) {
      worst_time_skew = std::max(
          worst_time_skew, std::abs(on.total - off.total) / off.total);
    }
  }
  table.add_note("pooling must not move the virtual clock: the two arms' "
                 "end-to-end times are identical");
  table.add_note("steady state acquires come from the free list; fresh "
                 "allocation collapses to the warmup steps");
  table.print();

  int rc = obs.finish();
  if (worst_pooled_hit_rate < 0.90) {
    std::fprintf(stderr,
                 "FAIL: pooled hit rate %.3f below the 0.90 floor\n",
                 worst_pooled_hit_rate);
    rc = 1;
  }
  if (worst_time_skew > 1e-12) {
    std::fprintf(stderr,
                 "FAIL: pooling changed end-to-end virtual time (skew %g)\n",
                 worst_time_skew);
    rc = 1;
  }
  return rc;
}
