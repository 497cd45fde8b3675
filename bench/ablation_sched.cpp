// Ablation: scheduler backends (threads / mn).
//
// The M:N scheduler's contract (docs/SCALING.md) is that *how* ranks are
// executed is invisible to *what* they compute: multiplexing thousands
// of rank continuations onto a few carrier workers must yield exactly
// the results of one OS thread per rank. This bench runs the executed
// oscillator + histogram + Catalyst-slice pipeline once per arm —
//
//   * threads        — one OS thread per rank (the reference),
//   * mn             — fiber scheduler, one carrier per hardware thread,
//   * mn/workers=1   — fiber scheduler on a single carrier (maximally
//                      serialized: every interleaving decision differs
//                      from the threads arm),
//
// at several rank counts, and gates bit-identical per-rank virtual
// times, histogram contents, and rendered-image hashes across arms.
// A wall-clock table reports (but never gates) the cost of each backend
// at executed scale.

#include <cstdio>
#include <string>
#include <vector>

#include "comm/sched.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

struct Arm {
  const char* name;
  comm::SchedBackend backend;
  int workers;  // 0 = hardware concurrency
};

constexpr Arm kArms[] = {
    {"threads", comm::SchedBackend::kThreads, 0},
    {"mn", comm::SchedBackend::kMn, 0},
    {"mn/workers=1", comm::SchedBackend::kMn, 1},
};

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — scheduler backends ===\n");
  int rc = 0;

  // Default rank counts overlap the thread backend's comfortable range;
  // `ranks=` raises them (e.g. a 1024-rank mn-only spot check — the
  // threads arm still runs, so keep overrides moderate).
  std::vector<int> rank_counts = {4, 16, 64};
  if (!obs.ranks_override().empty()) rank_counts = obs.ranks_override();

  pal::TablePrinter table(
      "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
      std::to_string(bench::kGateSteps) + " steps)");
  table.set_header({"ranks", "backend", "end-to-end virt (s)",
                    "histogram total", "image hash", "wall (s)"});

  for (const int ranks : rank_counts) {
    bench::GateOutputs arms[std::size(kArms)];
    for (std::size_t i = 0; i < std::size(kArms); ++i) {
      comm::Runtime::Options options = bench::run_options();
      options.sched.backend = kArms[i].backend;
      options.sched.workers = kArms[i].workers;
      arms[i] = bench::run_gate_pipeline(
          std::string("pipeline/") + kArms[i].name + "/p" +
              std::to_string(ranks),
          ranks, options);
      table.add_row({std::to_string(ranks), kArms[i].name,
                     pal::TablePrinter::num(arms[i].total, 7),
                     std::to_string(arms[i].histogram_total()),
                     arms[i].hash_hex(),
                     pal::TablePrinter::num(arms[i].wall_seconds, 3)});
    }
    for (std::size_t i = 1; i < std::size(kArms); ++i) {
      if (!bench::same_outputs(arms[0], kArms[0].name, arms[i],
                               kArms[i].name, ranks)) {
        rc = 1;
      }
    }
  }
  table.add_note("backends must be interchangeable: bit-identical per-rank "
                 "virtual times, histograms, and images");
  table.add_note("wall seconds are host-dependent and never gate");
  table.print();

  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
