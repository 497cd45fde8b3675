// Ablation: collective combining-tree arity.
//
// The combining tree's contract (docs/SCALING.md) is that *how* a
// rendezvous executes is invisible to *what* it computes: the tree's
// arity and the scheduler backend change the slot topology, the wakeup
// order and the carrier interleaving, but never per-rank virtual times,
// histogram contents or rendered images. Three phases:
//
//   1. identity — the executed gate pipeline (bench_common) per
//      (arity, backend) arm: arity 4 under threads and mn, so even 16
//      executed ranks exercise a multi-level tree; arity 2 under mn, the
//      deepest tree; arity 64 under threads, a single root slot at
//      p <= 64. Gates bit-identical per-rank virtual times, histogram
//      contents, and rendered-image hashes across all arms.
//   2. determinism — a chained floating-point sum allreduce (the
//      order-sensitive case) run repeatedly at 96 ranks / arity 4 under
//      both backends; gates bit-identical results across repeats and
//      backends. This is what the canonical combine schedule buys: the
//      fold order depends only on (P, arity), never on arrival order.
//   3. wall — a collective-heavy loop (barrier + allreduce + allgather
//      + periodic gatherv) at 4K/10K executed ranks under sched=mn at
//      the default arity. Report-only. `ranks=` replaces the wall rank
//      list — e.g. `ranks=45440` for the paper-scale run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "comm/coll.hpp"
#include "comm/runtime.hpp"
#include "comm/sched.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kDeterminismArity = 4;
constexpr int kWallIters = 16;

struct Arm {
  const char* name;  ///< label segment; "tree/" keeps the baseline labels
  int arity;
  comm::SchedBackend backend;
};

constexpr Arm kIdentityArms[] = {
    {"tree/threads", 4, comm::SchedBackend::kThreads},
    {"tree/mn", 4, comm::SchedBackend::kMn},
    {"tree/a2/mn", 2, comm::SchedBackend::kMn},
    {"tree/a64/threads", 64, comm::SchedBackend::kThreads},
};

/// Chained float-sum allreduce: every rank contributes values derived
/// from its rank, and each round feeds the previous result back in, so
/// any combine-order difference compounds instead of cancelling.
/// Returns the final bit pattern (identical on all ranks; rank 0's).
std::vector<std::uint64_t> run_float_determinism_arm(comm::SchedBackend backend,
                                                     int ranks) {
  comm::set_default_coll_arity(kDeterminismArity);
  comm::Runtime::Options options = bench::ablation_options();
  options.observe.trace = false;
  options.sched.backend = backend;

  constexpr std::size_t kValues = 16;
  std::vector<std::uint64_t> bits(kValues, 0);
  (void)comm::Runtime::run(ranks, options, [&](comm::Communicator& comm) {
    std::vector<double> values(kValues);
    for (std::size_t i = 0; i < kValues; ++i) {
      // Deliberately awkward magnitudes: summing ranks in a different
      // order changes the rounding of these immediately.
      values[i] = (comm.rank() + 1) * 1e-7 +
                  (comm.rank() % 7) * 1.0 / 3.0 +
                  static_cast<double>(i) * 0.1;
    }
    for (int round = 0; round < 8; ++round) {
      comm.allreduce(std::span<double>(values), comm::ReduceOp::kSum);
      for (std::size_t i = 0; i < kValues; ++i) {
        values[i] = values[i] / comm.size() + comm.rank() * 1e-9;
      }
    }
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < kValues; ++i) {
        std::memcpy(&bits[i], &values[i], sizeof(double));
      }
    }
  });
  return bits;
}

/// Collective-heavy loop at large executed scale: no simulation, just
/// the rendezvous traffic of a tightly coupled analysis pipeline.
double run_wall_arm(int ranks) {
  comm::set_default_coll_arity(comm::kDefaultCollArity);
  comm::Runtime::Options options = bench::ablation_options();
  options.observe.trace = false;  // 10K-rank traces would dominate the wall
  options.sched.backend = comm::SchedBackend::kMn;

  const auto wall0 = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> sink{0};
  (void)comm::Runtime::run(ranks, options, [&](comm::Communicator& comm) {
    double payload[8];
    for (int i = 0; i < 8; ++i) payload[i] = comm.rank() * 0.001 + i;
    std::uint64_t local = 0;
    for (int iter = 0; iter < kWallIters; ++iter) {
      comm.barrier();
      comm.allreduce(std::span<double>(payload, 8), comm::ReduceOp::kSum);
      if (iter % 4 == 1) {
        const comm::BlobTablePtr table = comm.allgather_blobs(
            std::as_bytes(std::span<const double>(payload, 8)));
        local += table->front()->size() + table->back()->size();
      }
      if (iter % 4 == 3) {
        const std::int32_t mine = comm.rank();
        (void)comm.gatherv(std::span<const std::int32_t>(&mine, 1), 0);
      }
    }
    sink.fetch_add(local, std::memory_order_relaxed);
  });
  if (sink.load() == 0) std::fprintf(stderr, "warning: empty allgather\n");
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — collective tree arity ===\n");
  int rc = 0;

  // ---- phase 1: identity ----
  {
    pal::TablePrinter table(
        "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
        std::to_string(bench::kGateSteps) + " steps)");
    table.set_header({"ranks", "arity", "backend", "end-to-end virt (s)",
                      "histogram total", "image hash", "wall (s)"});
    for (const int ranks : {4, 16, 64}) {
      bench::GateOutputs arms[std::size(kIdentityArms)];
      for (std::size_t i = 0; i < std::size(kIdentityArms); ++i) {
        const Arm& arm = kIdentityArms[i];
        // The arity default is read at world-group creation.
        comm::set_default_coll_arity(arm.arity);
        comm::Runtime::Options options = bench::ablation_options();
        options.sched.backend = arm.backend;
        arms[i] = bench::run_gate_pipeline(
            ranks, options,
            std::string("pipeline/") + arm.name + "/p" +
                std::to_string(ranks));
        table.add_row({std::to_string(ranks), std::to_string(arm.arity),
                       comm::to_string(arm.backend),
                       pal::TablePrinter::num(arms[i].total, 7),
                       std::to_string(arms[i].histogram_total()),
                       arms[i].hash_hex(),
                       pal::TablePrinter::num(arms[i].wall_seconds, 3)});
      }
      for (std::size_t i = 1; i < std::size(kIdentityArms); ++i) {
        if (!bench::same_outputs(arms[0], kIdentityArms[0].name, arms[i],
                                 kIdentityArms[i].name, ranks)) {
          rc = 1;
        }
      }
    }
    table.add_note("arity and backend must be invisible: bit-identical "
                   "per-rank virtual times, histograms, and images");
    table.print();
  }

  // ---- phase 2: float determinism ----
  {
    constexpr int kRanks = 96;  // 4 tree levels at arity 4
    constexpr comm::SchedBackend kBackends[] = {comm::SchedBackend::kThreads,
                                                comm::SchedBackend::kMn};
    std::vector<std::uint64_t> reference;
    bool determinism_ok = true;
    for (const comm::SchedBackend backend : kBackends) {
      for (int repeat = 0; repeat < 2; ++repeat) {
        const std::vector<std::uint64_t> bits =
            run_float_determinism_arm(backend, kRanks);
        if (reference.empty()) {
          reference = bits;
        } else if (bits != reference) {
          std::fprintf(stderr,
                       "FAIL: float allreduce bits differ (%s, repeat %d)\n",
                       comm::to_string(backend), repeat);
          determinism_ok = false;
          rc = 1;
        }
      }
    }
    std::printf("\nfloat allreduce determinism (%d ranks, arity %d, "
                "8 chained sums x 2 repeats x 2 backends): %s\n",
                kRanks, kDeterminismArity,
                determinism_ok ? "bit-identical" : "FAILED");
  }

  // ---- phase 3: wall clock at scale ----
  {
    std::vector<int> rank_counts = {4096, 10240};
    if (!obs.ranks_override().empty()) rank_counts = obs.ranks_override();
    pal::TablePrinter table(
        "Collective-heavy loop (sched=mn, arity " +
        std::to_string(comm::kDefaultCollArity) + ", " +
        std::to_string(kWallIters) +
        " iters of barrier+allreduce, allgather + gatherv every 4th)");
    table.set_header({"ranks", "wall (s)"});
    for (const int ranks : rank_counts) {
      table.add_row({std::to_string(ranks),
                     pal::TablePrinter::num(run_wall_arm(ranks), 3)});
    }
    table.add_note("wall seconds are host-dependent and never gate");
    table.add_note("ranks= replaces the list, e.g. ranks=45440 for the "
                   "paper-scale run");
    table.print();
  }

  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
