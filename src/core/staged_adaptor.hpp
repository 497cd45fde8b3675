#pragma once

// StagedDataAdaptor: a DataAdaptor over an already-materialized in-memory
// MultiBlockDataSet. This is what an in transit endpoint (ADIOS/FlexPath)
// hands to analyses after receiving a timestep: the
// "write once, use anywhere" property means the same HistogramAnalysis
// runs against this adaptor and against a live simulation adaptor.

#include "core/data_adaptor.hpp"

namespace insitu::core {

class StagedDataAdaptor final : public DataAdaptor {
 public:
  explicit StagedDataAdaptor(data::MultiBlockPtr mesh)
      : mesh_(std::move(mesh)) {}

  void set_mesh(data::MultiBlockPtr mesh) { mesh_ = std::move(mesh); }

  StatusOr<data::MultiBlockPtr> mesh(bool) override {
    if (mesh_ == nullptr) {
      return Status::FailedPrecondition("staged adaptor has no data");
    }
    return mesh_;
  }

  Status add_array(data::MultiBlockDataSet& mesh, data::Association assoc,
                   const std::string& name) override {
    // Arrays are already attached; verify the request is satisfiable.
    for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
      if (!mesh.block(b)->fields(assoc).has(name)) {
        return Status::NotFound("staged adaptor: block " + std::to_string(b) +
                                " lacks array '" + name + "'");
      }
    }
    return Status::Ok();
  }

  std::vector<std::string> available_arrays(
      data::Association assoc) const override {
    if (mesh_ == nullptr || mesh_->num_local_blocks() == 0) return {};
    return mesh_->block(0)->fields(assoc).names();
  }

  Status release_data() override {
    // Keep the mesh: the endpoint owns its lifetime across analyses.
    return Status::Ok();
  }

 private:
  data::MultiBlockPtr mesh_;
};

}  // namespace insitu::core
