// Ablation: the two compositing algorithms (§4.1.3 notes Catalyst and
// Libsim "use different compositing algorithms ... there are differences
// in the scaling characteristics between these two algorithms").
//
// Executed rows really move pixels between rank threads; paper-scale rows
// evaluate the same cost functions at large P, where binary swap's
// region-halving wins over full-image tree exchanges.

#include <cstdio>
#include <string>
#include <utility>

#include "pal/table.hpp"
#include "render/compositor.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

void executed_table() {
  pal::TablePrinter table("Compositing ablation (executed)");
  table.set_header({"ranks", "pixels", "tree (s)", "binary swap (s)",
                    "same image?"});
  for (const int p : {2, 4, 8, 16}) {
    for (const int dim : {128, 256}) {
      double tree_time = 0.0, swap_time = 0.0;
      std::uint64_t tree_hash = 0, swap_hash = 0;
      const std::string label =
          "composite-" + std::to_string(dim) + "/p" + std::to_string(p);
      bench::launch(label, p, bench::run_options(),
                    [&](comm::Communicator& comm) {
        render::Image local(dim, dim);
        // Each rank paints a band at its own depth.
        for (int y = comm.rank(); y < dim; y += p) {
          for (int x = 0; x < dim; ++x) {
            local.pixel(x, y) = render::Rgba{
                static_cast<std::uint8_t>(comm.rank() * 16), 0, 0, 255};
            local.depth(x, y) = static_cast<float>(comm.rank() + 1);
          }
        }
        const double t0 = comm.clock().now();
        render::Image tree = render::composite_tree(comm, local);
        const double t1 = comm.clock().now();
        render::Image swap =
            render::composite_binary_swap(comm, std::move(local));
        const double t2 = comm.clock().now();
        if (comm.rank() == 0) {
          tree_time = t1 - t0;
          swap_time = t2 - t1;
          tree_hash = tree.color_hash();
          swap_hash = swap.color_hash();
        }
      });
      table.add_row({std::to_string(p), std::to_string(dim) + "x" +
                                            std::to_string(dim),
                     pal::TablePrinter::num(tree_time, 5),
                     pal::TablePrinter::num(swap_time, 5),
                     tree_hash == swap_hash ? "yes" : "NO"});
    }
  }
  table.print();
}

void paper_scale_table() {
  const comm::MachineModel cori = comm::cori_haswell();
  pal::TablePrinter table("Compositing ablation (paper-scale model)");
  table.set_header({"ranks", "tree 1920x1080 (s)", "binary swap (s)",
                    "swap speedup"});
  for (const int p : {812, 6496, 45440, 262144}) {
    const std::uint64_t pixels = 1920ull * 1080;
    const double tree = cori.composite_tree_time(p, pixels);
    const double swap = cori.composite_binary_swap_time(p, pixels);
    table.add_row({std::to_string(p), pal::TablePrinter::num(tree, 4),
                   pal::TablePrinter::num(swap, 4),
                   pal::TablePrinter::num(tree / swap, 2) + "x"});
  }
  table.add_note("compositing is 'a challenging problem that can require "
                 "significant tuning' (§4.1.3) — untuned here, as in paper");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — compositing algorithms ===\n");
  executed_table();
  paper_scale_table();
  return obs.finish();
}
