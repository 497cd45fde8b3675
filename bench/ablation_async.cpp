// Ablation: synchronous vs asynchronous in situ execution (§5.2's "hybrid
// in situ" / overlap discussion).
//
// The synchronous bridge charges every analysis to the simulation's
// critical path. The AsyncBridge snapshots each step and runs analyses on
// a per-rank worker whose collectives advance a worker-owned virtual
// clock; the simulation pays only snapshot + hand-off (plus any kBlock
// stall), and end-to-end time becomes max(simulation, analysis drain).
// Rows show the per-step simulation-visible cost, end-to-end virtual
// time, analyzed/total steps, and the end-to-end speedup over sync for
// each backpressure policy.

#include <cstdio>
#include <functional>
#include <string>

#include "analysis/autocorrelation.hpp"
#include "comm/overlap.hpp"
#include "core/async_bridge.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

struct Workload {
  const char* name;
  std::function<core::AnalysisAdaptorPtr()> make;
};

const Workload kWorkloads[] = {
    {"Histogram", bench::gate_histogram},
    {"Autocorrelation",
     [] {
       return std::make_shared<analysis::Autocorrelation>(
           "data", data::Association::kPoint, /*window=*/10, /*top_k=*/3);
     }},
    {"Catalyst-slice", bench::gate_slice},
};

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — sync vs async in situ execution ===\n");

  constexpr comm::BackpressurePolicy kPolicies[] = {
      comm::BackpressurePolicy::kBlock,
      comm::BackpressurePolicy::kDropOldest,
      comm::BackpressurePolicy::kLatestOnly,
  };
  constexpr int kQueueDepth = 2;
  const std::string steps = "/" + std::to_string(bench::kGateSteps);

  for (const Workload& workload : kWorkloads) {
    pal::TablePrinter table(std::string("Oscillator + ") + workload.name +
                            " (executed, queue_depth=2)");
    table.set_header({"ranks", "mode", "sim-visible/step (s)",
                      "end-to-end (s)", "analyzed", "speedup"});
    for (const int ranks : {4, 8}) {
      bench::GateSpec spec;
      spec.analyses = {workload.make};
      const std::string p = "/p" + std::to_string(ranks);
      const bench::GateOutputs sync = bench::run_gate_pipeline(
          workload.name + std::string("/sync") + p, ranks,
          bench::run_options(), spec);
      table.add_row({std::to_string(ranks), "sync",
                     pal::TablePrinter::num(sync.analysis_per_step, 7),
                     pal::TablePrinter::num(sync.total, 5),
                     std::to_string(sync.executed_steps) + steps, "1.00x"});
      for (const comm::BackpressurePolicy policy : kPolicies) {
        spec.async = core::AsyncBridgeOptions{policy, kQueueDepth};
        const bench::GateOutputs async = bench::run_gate_pipeline(
            workload.name + std::string("/async-") +
                comm::to_string(policy) + p,
            ranks, bench::run_options(), spec);
        char speedup[32];
        std::snprintf(speedup, sizeof speedup, "%.2fx",
                      async.total > 0.0 ? sync.total / async.total : 0.0);
        table.add_row({std::to_string(ranks),
                       std::string("async:") + comm::to_string(policy),
                       pal::TablePrinter::num(async.analysis_per_step, 7),
                       pal::TablePrinter::num(async.total, 5),
                       std::to_string(async.executed_steps) + steps,
                       speedup});
      }
    }
    table.add_note(
        "async moves analysis off the simulation's critical path; "
        "end-to-end = max(sim, analysis drain)");
    table.print();
  }
  return obs.finish();
}
