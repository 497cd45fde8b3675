#pragma once

// PHASTA proxy (§4.2.1): an unstructured-grid flow producer matching the
// paper's PHASTA/SENSEI integration:
//   * tetrahedral mesh (the real PHASTA runs 1.28B/6.33B element tet
//     meshes); here each rank owns a box of the domain tessellated into
//     tets (6 per hex);
//   * nodal coordinates and field variables are exposed ZERO-COPY while
//     "the VTK grid connectivity is a full copy": the solver keeps int32
//     node ids, as PHASTA itself does, and the adaptor widens them once
//     per run into VTK's 64-bit id array;
//   * the flow mimics the vertical tail-rudder study: a crossflow past a
//     bluff region with a *synthetic jet* whose frequency and amplitude
//     can be changed while running — the live flow-control steering loop
//     the paper demonstrates;
//   * the solver step runs fixed-count Jacobi-like smoothing sweeps over
//     the node adjacency (the cost shape of an implicit FEM solve's
//     matrix-vector work). The jet's spatial envelopes depend only on the
//     fixed node coordinates, so they are computed once at construction.

#include <array>
#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "core/data_adaptor.hpp"
#include "data/unstructured_grid.hpp"

namespace insitu::proxy {

struct PhastaConfig {
  /// Per-rank hex box tessellated into 6 tets each.
  std::array<std::int64_t, 3> cells_per_rank = {8, 8, 8};
  double dt = 0.02;
  int smoothing_sweeps = 4;  ///< Jacobi sweeps per step (solver work proxy)
  double crossflow = 1.0;

  // Synthetic jet flow control (live-tunable).
  double jet_amplitude = 0.5;
  double jet_frequency = 2.0;

  /// Modeled elements/rank for virtual cost (0 = actual). IS1/IS2: 1.28e9
  /// elements over 262144 ranks ~ 4883/rank; IS3: 6.33e9 over 1048576.
  std::int64_t modeled_elements_per_rank = 0;
  double work_per_element = 40.0;
};

class PhastaSim {
 public:
  PhastaSim(comm::Communicator& comm, PhastaConfig config);

  void initialize();
  void step();

  double time() const { return time_; }
  long step_index() const { return step_; }

  /// Live flow control (the paper's "frequency and the amplitude of the
  /// flow control can be manipulated" loop).
  void set_jet(double amplitude, double frequency) {
    config_.jet_amplitude = amplitude;
    config_.jet_frequency = frequency;
  }
  const PhastaConfig& config() const { return config_; }

  // Simulation-native nodal storage (zero-copy wrapped by the adaptor).
  std::vector<double>& coordinates() { return coords_; }   // AoS xyz
  std::vector<double>& velocity() { return velocity_; }    // AoS uvw
  std::vector<double>& pressure() { return pressure_; }

  std::int64_t num_nodes() const { return num_nodes_; }
  std::int64_t num_elements() const {
    return static_cast<std::int64_t>(tets_.size()) / 4;
  }
  const std::vector<std::int32_t>& tets() const { return tets_; }

  /// Bytes charged to the rank's memory tracker: fields, jet envelopes,
  /// sweep buffer, tets, adjacency.
  std::size_t tracked_bytes() const { return tracked_.bytes(); }

 private:
  std::int64_t node_id(std::int64_t i, std::int64_t j, std::int64_t k) const;
  data::Vec3 node_pos(std::int64_t n) const;

  comm::Communicator& comm_;
  PhastaConfig config_;
  std::array<std::int64_t, 3> npts_ = {0, 0, 0};
  std::array<std::int64_t, 3> box_offset_ = {0, 0, 0};
  std::int64_t num_nodes_ = 0;
  std::vector<double> coords_;
  std::vector<double> velocity_;
  std::vector<double> pressure_;
  // Per-node jet envelopes, exp(-|d|^2 / 18) and exp(-0.05 |d|^2) with d
  // the node's offset from the jet center: static geometry, set once.
  std::vector<double> jet_influence_;
  std::vector<double> swirl_envelope_;
  std::vector<double> sweep_scratch_;  // Jacobi target, swapped each sweep
  std::vector<std::int32_t> tets_;     // flat: 4 node ids per element
  // Node adjacency in CSR form: node n's neighbors are
  // neighbors_[neighbor_offsets_[n] .. neighbor_offsets_[n + 1]), in tet
  // edge visit order with duplicates kept (shared edges count once per
  // tet), so every Jacobi sweep sums the same terms in the same order.
  std::vector<std::int32_t> neighbor_offsets_;
  std::vector<std::int32_t> neighbors_;
  pal::TrackedBytes tracked_;
  double time_ = 0.0;
  long step_ = 0;
};

/// SENSEI adaptor: zero-copy points/fields, full-copy connectivity. The
/// grid is built on the first mesh() call and kept for the run;
/// release_data() drops only the per-step point arrays.
class PhastaDataAdaptor final : public core::DataAdaptor {
 public:
  explicit PhastaDataAdaptor(PhastaSim& sim) : sim_(&sim) {}

  StatusOr<data::MultiBlockPtr> mesh(bool structure_only) override;
  Status add_array(data::MultiBlockDataSet& mesh, data::Association assoc,
                   const std::string& name) override;
  std::vector<std::string> available_arrays(
      data::Association assoc) const override;
  Status release_data() override;

 private:
  PhastaSim* sim_;
  data::MultiBlockPtr cached_;
};

}  // namespace insitu::proxy
