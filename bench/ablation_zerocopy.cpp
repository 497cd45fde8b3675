// Ablation: zero-copy adaptor arrays vs deep-copied arrays — the design
// choice §3.2 exists to enable ("mapping data arrays from application
// codes to the VTK data model without additional memory copying").
//
// Measures both the per-step time and the per-rank memory cost of copying
// a miniapp-sized array every in situ invocation.

#include <cstdio>

#include "data/image_data.hpp"
#include "miniapp/adaptor.hpp"
#include "pal/table.hpp"
#include "pal/timer.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

/// A deliberately naive adaptor that deep-copies the simulation buffer
/// every step (what instrumentation without the enhanced array layouts
/// would have to do).
class DeepCopyAdaptor final : public core::DataAdaptor {
 public:
  explicit DeepCopyAdaptor(miniapp::OscillatorSim& sim) : sim_(&sim) {}

  StatusOr<data::MultiBlockPtr> mesh(bool) override {
    if (cached_ == nullptr) {
      cached_ = std::make_shared<data::MultiBlockDataSet>(
          communicator()->size());
      cached_->add_block(communicator()->rank(), sim_->make_grid());
    }
    return cached_;
  }

  Status add_array(data::MultiBlockDataSet& mesh, data::Association assoc,
                   const std::string& name) override {
    if (assoc != data::Association::kPoint || name != "data") {
      return Status::NotFound("no array " + name);
    }
    auto copy =
        data::DataArray::create<double>("data", sim_->local_points(), 1);
    std::memcpy(copy->component_base<double>(0), sim_->values().data(),
                sim_->values().size() * sizeof(double));
    communicator()->advance_compute(communicator()->machine().memcpy_time(
        sim_->values().size() * sizeof(double)));
    mesh.block(0)->point_fields().add(copy);
    return Status::Ok();
  }

  std::vector<std::string> available_arrays(
      data::Association assoc) const override {
    return assoc == data::Association::kPoint
               ? std::vector<std::string>{"data"}
               : std::vector<std::string>{};
  }

  Status release_data() override {
    cached_.reset();
    return Status::Ok();
  }

 private:
  miniapp::OscillatorSim* sim_;
  data::MultiBlockPtr cached_;
};

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — zero-copy vs deep-copy adaptor ===\n");
  pal::TablePrinter table("Zero-copy ablation (executed, 4 ranks)");
  table.set_header({"adaptor", "access/step (s)", "memory HWM (sum)"});

  for (const bool zero_copy : {true, false}) {
    double per_step = 0.0;
    const comm::RunReport report = bench::launch(
        zero_copy ? "zero-copy/p4" : "deep-copy/p4", 4, bench::run_options(),
        [&](comm::Communicator& comm) {
          miniapp::OscillatorSim sim(
              comm, bench::ablation_oscillator_config(32, 6.0));
          sim.initialize();
          std::unique_ptr<core::DataAdaptor> adaptor;
          if (zero_copy) {
            adaptor = std::make_unique<miniapp::OscillatorDataAdaptor>(sim);
          } else {
            adaptor = std::make_unique<DeepCopyAdaptor>(sim);
          }
          adaptor->set_communicator(&comm);
          pal::PhaseTimer access;
          for (int s = 0; s < 10; ++s) {
            sim.step();
            const double t0 = comm.clock().now();
            auto mesh = adaptor->full_mesh();
            if (!mesh.ok()) return;
            // Touch the array the way an analysis would.
            auto array = (*mesh)->block(0)->point_fields().get("data");
            volatile double sink = array->get(0);
            (void)sink;
            (void)adaptor->release_data();
            access.add(comm.clock().now() - t0);
          }
          if (comm.rank() == 0) per_step = access.mean();
        });
    table.add_row(
        {zero_copy ? "zero-copy (SENSEI)" : "deep-copy",
         pal::TablePrinter::num(per_step, 7),
         pal::TablePrinter::bytes(
             static_cast<double>(report.total_high_water_bytes()))});
  }
  table.add_note("paper §4.1.2: zero-copy shows no measurable overhead");
  table.print();
  return obs.finish();
}
