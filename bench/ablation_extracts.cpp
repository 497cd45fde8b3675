// Ablation: the "explorable extracts" economy (§2.2.4). Quantifies, per
// grid size: (a) the byte ratio of a welded isosurface extract vs the
// full volume field, (b) the compressed bitmap-index footprint vs raw
// data, and (c) the in situ cost of feature tracking — the three
// reduced-output paths this repo adds on top of the paper's image-based
// pipelines.

#include <cmath>
#include <cstdio>

#include "analysis/bitmap_index.hpp"
#include "analysis/feature_tracking.hpp"
#include "backends/extracts.hpp"
#include "bench_common.hpp"

namespace {

using namespace insitu;
using namespace insitu::bench;

void extract_reduction_table() {
  pal::TablePrinter table(
      "Extract ablation (executed, 4 ranks): isosurface extract vs volume");
  table.set_header({"grid", "volume bytes", "extract bytes", "reduction"});
  for (const std::int64_t n : {16, 32, 48}) {
    std::uint64_t extract_bytes = 0, field_bytes = 0;
    const std::string label = "isosurface-" + std::to_string(n) + "/p4";
    launch(label, 4, run_options(), [&](comm::Communicator& comm) {
      miniapp::OscillatorSim sim(
          comm, ablation_oscillator_config(n, static_cast<double>(n) / 4.0));
      sim.initialize();
      miniapp::OscillatorDataAdaptor adaptor(sim);
      backends::ExtractConfig ec;
      ec.kind = backends::ExtractConfig::Kind::kIsosurface;
      ec.value = 0.5;
      auto writer = std::make_shared<backends::ExtractWriter>(ec);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(writer);
      (void)bridge.initialize();
      (void)bridge.execute(adaptor, 0.0, 0);
      if (comm.rank() == 0) {
        extract_bytes = writer->last_extract_bytes();
        field_bytes = writer->last_field_bytes();
      }
    });
    table.add_row(
        {std::to_string(n) + "^3",
         pal::TablePrinter::bytes(static_cast<double>(field_bytes)),
         pal::TablePrinter::bytes(static_cast<double>(extract_bytes)),
         pal::TablePrinter::num(
             static_cast<double>(field_bytes) /
                 std::max<std::uint64_t>(extract_bytes, 1),
             1) + "x"});
  }
  table.add_note("extract bytes grow ~n^2 while volume grows n^3");
  table.print();
}

void index_footprint_table() {
  pal::TablePrinter table(
      "Index ablation (executed): WAH bitmap index footprint + query");
  table.set_header({"rows", "bins", "raw bytes", "index bytes",
                    "selective-count matches"});
  pal::Rng rng(17);
  for (const std::int64_t rows : {10000, 100000}) {
    for (const int bins : {16, 64}) {
      auto values = data::DataArray::create<double>("v", rows, 1);
      for (std::int64_t i = 0; i < rows; ++i) {
        values->set(i, 0, rng.next_gaussian());
      }
      auto index = analysis::BitmapIndex::build(*values, bins);
      if (!index.ok()) continue;
      // Count the 2-sigma tail through the index with candidate checks.
      const std::int64_t matches = index->count_range(*values, 2.0, 100.0);
      table.add_row(
          {std::to_string(rows), std::to_string(bins),
           pal::TablePrinter::bytes(static_cast<double>(rows) * 8),
           pal::TablePrinter::bytes(
               static_cast<double>(index->compressed_bytes())),
           std::to_string(matches) + " (" +
               pal::TablePrinter::num(100.0 * matches / rows, 2) + " %)"});
    }
  }
  table.add_note("gaussian data: ~2.3% expected above 2 sigma");
  table.print();
}

void tracking_cost_table() {
  pal::TablePrinter table(
      "Feature tracking ablation (executed, 4 ranks): cost per step");
  table.set_header({"grid", "tracking (virtual s/step)", "features"});
  for (const std::int64_t n : {24, 32}) {
    double per_step = 0.0;
    int features = 0;
    const std::string label = "tracking-" + std::to_string(n) + "/p4";
    launch(label, 4, run_options(), [&](comm::Communicator& comm) {
      miniapp::OscillatorConfig cfg;
      cfg.global_cells = {n, n, n};
      cfg.oscillators = {
          {miniapp::Oscillator::Kind::kPeriodic,
           {n / 3.0, n / 2.0, n / 2.0}, n / 6.0, 2.0 * M_PI, 0.0},
          {miniapp::Oscillator::Kind::kDecaying,
           {2.0 * n / 3.0, n / 2.0, n / 2.0}, n / 6.0, 0.1, 0.0}};
      miniapp::OscillatorSim sim(comm, cfg);
      sim.initialize();
      miniapp::OscillatorDataAdaptor adaptor(sim);
      analysis::FeatureTrackerConfig tc;
      tc.threshold = 0.5;
      tc.merge_distance = static_cast<double>(n) / 6.0;
      auto tracker = std::make_shared<analysis::FeatureTracker>(tc);
      core::InSituBridge bridge(&comm);
      bridge.add_analysis(tracker);
      (void)bridge.initialize();
      for (long s = 0; s < 5; ++s) {
        (void)bridge.execute(adaptor, sim.time(), s);
        sim.step();
      }
      if (comm.rank() == 0) {
        per_step = bridge.timings().analysis_per_step.mean();
        features = static_cast<int>(tracker->history()[0].features.size());
      }
    });
    table.add_row({std::to_string(n) + "^3",
                   pal::TablePrinter::num(per_step, 6),
                   std::to_string(features)});
  }
  table.add_note("tracking is a single segmentation sweep + tiny gather");
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — reduced outputs "
              "(extracts / index / tracking) ===\n");
  extract_reduction_table();
  index_footprint_table();
  tracking_cost_table();
  return obs.finish();
}
