// Reproduces Fig 17 (Nyx + SENSEI on Cori: solver time vs in situ
// histogram vs in situ slice, averaged over 40 steps, at 512/4096/32768
// cores for 1024^3/2048^3/4096^3 grids) and the §4.2.3 side findings:
// plot-file writes of 17/80/312 s and the executable-size note.

#include <cstdio>

#include "analysis/histogram.hpp"
#include "bench_common.hpp"
#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "pal/table.hpp"
#include "perfmodel/paper_model.hpp"
#include "proxy/nyx.hpp"

namespace {

using namespace insitu;

void executed_run() {
  pal::TablePrinter table(
      "Fig 17 (executed, 4 ranks): Nyx proxy, solver vs analysis per step");
  table.set_header({"analysis", "solver/step (s)", "analysis/step (s)",
                    "analysis share"});
  for (const char* which : {"histogram", "slice"}) {
    double solver = 0.0, analysis_cost = 0.0;
    bench::launch(std::string("nyx-") + which + "/p4", 4,
                  bench::run_options(comm::cori_haswell(), 42),
                  [&](comm::Communicator& comm) {
      proxy::NyxConfig cfg;
      cfg.global_cells = {16, 16, 16};
      cfg.modeled_cells_per_rank = 1 << 21;  // heavy solver step
      proxy::NyxSim sim(comm, cfg);
      sim.initialize();
      proxy::NyxDataAdaptor adaptor(sim);
      core::InSituBridge bridge(&comm);
      if (std::string(which) == "histogram") {
        bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
            proxy::NyxDataAdaptor::kDensityArray, data::Association::kCell,
            64));
      } else {
        backends::CatalystSliceConfig cs;
        cs.array = proxy::NyxDataAdaptor::kDensityArray;
        cs.association = data::Association::kCell;
        cs.image_width = 128;
        cs.image_height = 128;
        cs.scalar_min = 0.0;
        cs.scalar_max = 4.0;
        bridge.add_analysis(std::make_shared<backends::CatalystSlice>(cs));
      }
      (void)bridge.initialize();
      pal::PhaseTimer solver_t;
      for (long s = 0; s < 5; ++s) {
        const double t0 = comm.clock().now();
        sim.step();
        solver_t.add(comm.clock().now() - t0);
        (void)bridge.execute(adaptor, sim.time(), s);
      }
      if (comm.rank() == 0) {
        solver = solver_t.mean();
        analysis_cost = bridge.timings().analysis_per_step.mean();
      }
    });
    table.add_row({which, pal::TablePrinter::num(solver, 4),
                   pal::TablePrinter::num(analysis_cost, 4),
                   pal::TablePrinter::num(
                       100.0 * analysis_cost / (solver + analysis_cost), 1) +
                       " %"});
  }
  table.add_note("paper: analysis time negligible vs solution time");
  table.print();
}

void paper_scale_tables() {
  const comm::MachineModel cori = comm::cori_haswell();
  const io::LustreModel fs(cori.fs);
  pal::TablePrinter table("Fig 17 (paper-scale model): Nyx scaling on Cori");
  table.set_header({"grid", "cores", "solver/step (s)", "histogram (s)",
                    "slice (s)", "plotfile write (s)", "paper write"});
  struct Row {
    const char* grid;
    int cores;
    std::int64_t cells;
    const char* paper_write;
  };
  const Row rows[] = {
      {"1024^3", 512, 1024ll * 1024 * 1024, "17 s"},
      {"2048^3", 4096, 2048ll * 2048 * 2048, "80 s"},
      {"4096^3", 32768, 4096ll * 4096 * 4096, "312 s"},
  };
  for (const Row& row : rows) {
    perfmodel::NyxScale scale;
    scale.ranks = row.cores;
    scale.total_cells = row.cells;
    table.add_row(
        {row.grid, std::to_string(row.cores),
         pal::TablePrinter::num(
             perfmodel::nyx_solver_step_seconds(cori, scale), 2),
         pal::TablePrinter::num(
             perfmodel::nyx_histogram_step_seconds(cori, scale, 64), 3),
         pal::TablePrinter::num(perfmodel::nyx_slice_step_seconds(cori, scale),
                                3),
         pal::TablePrinter::num(
             perfmodel::nyx_plotfile_write_seconds(fs, scale, 8), 0),
         row.paper_write});
  }
  table.add_note("both analyses < 1 s/step at every scale (paper finding)");
  table.add_note(
      "executable-size note (paper): static Nyx 68 MB -> 109 MB with SENSEI");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: Fig 17 — Nyx cosmology on Cori ===\n");
  executed_run();
  paper_scale_tables();
  return obs.finish();
}
