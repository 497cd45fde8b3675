#include "proxy/phasta.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/derived.hpp"
#include "data/image_data.hpp"

namespace insitu::proxy {

namespace {

// Center of the synthetic jet, in global node coordinates.
constexpr data::Vec3 kJetCenter{12.0, 4.0, 6.0};

// acc + sum of p[neighbors[e]] for e in [first, last), added in CSR order.
double gather(const double* p, const std::int32_t* neighbors,
              std::size_t first, std::size_t last, double acc) {
  for (std::size_t e = first; e < last; ++e) {
    acc += p[static_cast<std::size_t>(neighbors[e])];
  }
  return acc;
}

}  // namespace

std::int64_t PhastaSim::node_id(std::int64_t i, std::int64_t j,
                                std::int64_t k) const {
  return i + npts_[0] * (j + npts_[1] * k);
}

data::Vec3 PhastaSim::node_pos(std::int64_t n) const {
  return {coords_[static_cast<std::size_t>(3 * n)],
          coords_[static_cast<std::size_t>(3 * n + 1)],
          coords_[static_cast<std::size_t>(3 * n + 2)]};
}

PhastaSim::PhastaSim(comm::Communicator& comm, PhastaConfig config)
    : comm_(comm), config_(config) {
  // Each rank owns one box of a global regular decomposition; nodes are
  // duplicated at box interfaces (PHASTA-style part boundaries).
  const std::array<int, 3> factors = data::decompose_factors(comm_.size());
  const int r = comm_.rank();
  const std::array<int, 3> coords = {r % factors[0],
                                     (r / factors[0]) % factors[1],
                                     r / (factors[0] * factors[1])};
  for (int a = 0; a < 3; ++a) {
    const auto ax = static_cast<std::size_t>(a);
    npts_[ax] = config_.cells_per_rank[ax] + 1;
    box_offset_[ax] = coords[ax] * config_.cells_per_rank[ax];
  }
  num_nodes_ = npts_[0] * npts_[1] * npts_[2];

  coords_.resize(static_cast<std::size_t>(3 * num_nodes_));
  velocity_.assign(static_cast<std::size_t>(3 * num_nodes_), 0.0);
  pressure_.assign(static_cast<std::size_t>(num_nodes_), 0.0);
  sweep_scratch_.assign(static_cast<std::size_t>(num_nodes_), 0.0);

  // Unstructured node coordinates: the structured lattice warped so the
  // mesh is genuinely curvilinear (like a body-fitted CFD mesh).
  for (std::int64_t k = 0; k < npts_[2]; ++k) {
    for (std::int64_t j = 0; j < npts_[1]; ++j) {
      for (std::int64_t i = 0; i < npts_[0]; ++i) {
        const std::int64_t n = node_id(i, j, k);
        const double x = static_cast<double>(box_offset_[0] + i);
        const double y = static_cast<double>(box_offset_[1] + j);
        const double z = static_cast<double>(box_offset_[2] + k);
        coords_[static_cast<std::size_t>(3 * n)] = x + 0.15 * std::sin(0.3 * y);
        coords_[static_cast<std::size_t>(3 * n + 1)] = y;
        coords_[static_cast<std::size_t>(3 * n + 2)] =
            z + 0.1 * std::sin(0.25 * x);
      }
    }
  }

  // The jet's spatial envelopes: the coordinates never move, and
  // set_jet() changes only the amplitude and frequency that scale them.
  jet_influence_.resize(static_cast<std::size_t>(num_nodes_));
  swirl_envelope_.resize(static_cast<std::size_t>(num_nodes_));
  for (std::int64_t n = 0; n < num_nodes_; ++n) {
    const data::Vec3 d = node_pos(n) - kJetCenter;
    jet_influence_[static_cast<std::size_t>(n)] = std::exp(-d.dot(d) / 18.0);
    swirl_envelope_[static_cast<std::size_t>(n)] = std::exp(-0.05 * d.dot(d));
  }

  // Tetrahedralization: 6 tets per hex around the 0-6 diagonal.
  static constexpr int kHexTets[6][4] = {{0, 1, 2, 6}, {0, 2, 3, 6},
                                         {0, 3, 7, 6}, {0, 7, 4, 6},
                                         {0, 4, 5, 6}, {0, 5, 1, 6}};
  tets_.reserve(static_cast<std::size_t>(6 * config_.cells_per_rank[0] *
                                         config_.cells_per_rank[1] *
                                         config_.cells_per_rank[2] * 4));
  for (std::int64_t k = 0; k < config_.cells_per_rank[2]; ++k) {
    for (std::int64_t j = 0; j < config_.cells_per_rank[1]; ++j) {
      for (std::int64_t i = 0; i < config_.cells_per_rank[0]; ++i) {
        const std::int64_t c[8] = {
            node_id(i, j, k),         node_id(i + 1, j, k),
            node_id(i + 1, j + 1, k), node_id(i, j + 1, k),
            node_id(i, j, k + 1),     node_id(i + 1, j, k + 1),
            node_id(i + 1, j + 1, k + 1), node_id(i, j + 1, k + 1)};
        for (const auto& tet : kHexTets) {
          for (const int v : tet) {
            tets_.push_back(static_cast<std::int32_t>(c[v]));
          }
        }
      }
    }
  }

  // Node adjacency (for the smoothing sweeps): every tet edge, both ways.
  // Two passes over the same visit order: count, then fill.
  auto for_each_edge = [&](auto&& visit) {
    for (std::size_t t = 0; t < tets_.size(); t += 4) {
      for (std::size_t a = 0; a < 4; ++a) {
        for (std::size_t b = a + 1; b < 4; ++b) {
          visit(tets_[t + a], tets_[t + b]);
        }
      }
    }
  };
  neighbor_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for_each_edge([&](std::int64_t na, std::int64_t nb) {
    ++neighbor_offsets_[static_cast<std::size_t>(na) + 1];
    ++neighbor_offsets_[static_cast<std::size_t>(nb) + 1];
  });
  for (std::size_t n = 0; n < static_cast<std::size_t>(num_nodes_); ++n) {
    neighbor_offsets_[n + 1] += neighbor_offsets_[n];
  }
  neighbors_.resize(static_cast<std::size_t>(neighbor_offsets_.back()));
  std::vector<std::size_t> cursor(neighbor_offsets_.begin(),
                                  neighbor_offsets_.end() - 1);
  for_each_edge([&](std::int64_t na, std::int64_t nb) {
    neighbors_[cursor[static_cast<std::size_t>(na)]++] =
        static_cast<std::int32_t>(nb);
    neighbors_[cursor[static_cast<std::size_t>(nb)]++] =
        static_cast<std::int32_t>(na);
  });

  tracked_ = pal::TrackedBytes(
      (coords_.size() + velocity_.size() + pressure_.size() +
       jet_influence_.size() + swirl_envelope_.size() +
       sweep_scratch_.size()) * sizeof(double) +
      (tets_.size() + neighbor_offsets_.size() + neighbors_.size()) *
          sizeof(std::int32_t));
}

void PhastaSim::initialize() {
  time_ = 0.0;
  step_ = 0;
  // Crossflow in +x with a stagnant wake region behind the "tail".
  for (std::int64_t n = 0; n < num_nodes_; ++n) {
    velocity_[static_cast<std::size_t>(3 * n)] = config_.crossflow;
    velocity_[static_cast<std::size_t>(3 * n + 1)] = 0.0;
    velocity_[static_cast<std::size_t>(3 * n + 2)] = 0.0;
    pressure_[static_cast<std::size_t>(n)] = 0.0;
  }
}

void PhastaSim::step() {
  ++step_;
  time_ += config_.dt;

  // Synthetic jet forcing: an oscillating wall-normal injection localized
  // near the separation point (global position), modulating the crossflow.
  const double jet =
      config_.jet_amplitude *
      std::sin(2.0 * M_PI * config_.jet_frequency * time_);
  for (std::size_t n = 0; n < static_cast<std::size_t>(num_nodes_); ++n) {
    const double x = coords_[3 * n];
    auto& vy = velocity_[3 * n + 1];
    vy += config_.dt * jet * jet_influence_[n] * 5.0;
    // Vortex shedding flavour: swirl that travels downstream.
    const double swirl =
        0.2 * std::sin(0.5 * x - 1.5 * time_) * swirl_envelope_[n];
    velocity_[3 * n + 2] += config_.dt * swirl;
    pressure_[n] = -0.5 * (vy * vy) + 0.1 * std::cos(0.5 * x - 1.5 * time_);
  }

  // Implicit-solve work proxy: Jacobi smoothing sweeps over the adjacency.
  // Four nodes at a time, one accumulator each, so four independent add
  // chains overlap; every node still sums its own neighbors in CSR order
  // (the shared prefix, then its ragged tail), bit for bit the one-node
  // sweep.
  const auto nodes = static_cast<std::size_t>(num_nodes_);
  const std::int32_t* off = neighbor_offsets_.data();
  const std::int32_t* nb = neighbors_.data();
  for (int sweep = 0; sweep < config_.smoothing_sweeps; ++sweep) {
    const double* p = pressure_.data();
    double* out = sweep_scratch_.data();
    std::size_t n = 0;
    for (; n + 4 <= nodes; n += 4) {
      const std::size_t b0 = static_cast<std::size_t>(off[n]);
      const std::size_t b1 = static_cast<std::size_t>(off[n + 1]);
      const std::size_t b2 = static_cast<std::size_t>(off[n + 2]);
      const std::size_t b3 = static_cast<std::size_t>(off[n + 3]);
      const std::size_t b4 = static_cast<std::size_t>(off[n + 4]);
      const std::size_t common =
          std::min({b1 - b0, b2 - b1, b3 - b2, b4 - b3});
      double a0 = p[n];
      double a1 = p[n + 1];
      double a2 = p[n + 2];
      double a3 = p[n + 3];
      for (std::size_t k = 0; k < common; ++k) {
        a0 += p[static_cast<std::size_t>(nb[b0 + k])];
        a1 += p[static_cast<std::size_t>(nb[b1 + k])];
        a2 += p[static_cast<std::size_t>(nb[b2 + k])];
        a3 += p[static_cast<std::size_t>(nb[b3 + k])];
      }
      out[n] = gather(p, nb, b0 + common, b1, a0) /
               (1.0 + static_cast<double>(b1 - b0));
      out[n + 1] = gather(p, nb, b1 + common, b2, a1) /
                   (1.0 + static_cast<double>(b2 - b1));
      out[n + 2] = gather(p, nb, b2 + common, b3, a2) /
                   (1.0 + static_cast<double>(b3 - b2));
      out[n + 3] = gather(p, nb, b3 + common, b4, a3) /
                   (1.0 + static_cast<double>(b4 - b3));
    }
    for (; n < nodes; ++n) {
      const auto first = static_cast<std::size_t>(off[n]);
      const auto last = static_cast<std::size_t>(off[n + 1]);
      out[n] = gather(p, nb, first, last, p[n]) /
               (1.0 + static_cast<double>(last - first));
    }
    pressure_.swap(sweep_scratch_);
  }

  const std::int64_t modeled = config_.modeled_elements_per_rank > 0
                                   ? config_.modeled_elements_per_rank
                                   : num_elements();
  comm_.advance_compute(comm_.machine().compute_time(
      static_cast<std::uint64_t>(modeled), config_.work_per_element));
}

StatusOr<data::MultiBlockPtr> PhastaDataAdaptor::mesh(
    bool /*structure_only*/) {
  if (cached_ == nullptr) {
    // Built once per run. Zero-copy points (the coordinates never move);
    // connectivity deep-copied into the VTK-style grid, widening the
    // solver's int32 ids to 64-bit ("the VTK grid connectivity is a full
    // copy", §4.2.1).
    data::DataArrayPtr points = data::DataArray::wrap_aos(
        "coordinates", sim_->coordinates().data(), sim_->num_nodes(), 3);
    const std::vector<std::int32_t>& tets = sim_->tets();
    std::vector<std::int64_t> connectivity(tets.begin(), tets.end());
    const auto ncells = static_cast<std::size_t>(sim_->num_elements());
    std::vector<std::int64_t> offsets(ncells + 1);
    for (std::size_t c = 0; c <= ncells; ++c) {
      offsets[c] = static_cast<std::int64_t>(4 * c);
    }
    std::vector<data::CellType> types(ncells, data::CellType::kTetra);
    auto grid = std::make_shared<data::UnstructuredGrid>(
        points, std::move(connectivity), std::move(offsets), std::move(types));
    cached_ = std::make_shared<data::MultiBlockDataSet>(
        communicator() != nullptr ? communicator()->size() : 1);
    cached_->add_block(communicator() != nullptr ? communicator()->rank() : 0,
                       grid);
  }
  return cached_;
}

Status PhastaDataAdaptor::add_array(data::MultiBlockDataSet& mesh,
                                    data::Association assoc,
                                    const std::string& name) {
  if (assoc != data::Association::kPoint) {
    return Status::NotFound("phasta adaptor: only nodal arrays");
  }
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    data::DataSet& block = *mesh.block(b);
    if (block.point_fields().has(name)) continue;
    if (name == "velocity") {
      block.point_fields().add(data::DataArray::wrap_aos(
          "velocity", sim_->velocity().data(), sim_->num_nodes(), 3));
    } else if (name == "pressure") {
      block.point_fields().add(data::DataArray::wrap_aos(
          "pressure", sim_->pressure().data(), sim_->num_nodes(), 1));
    } else if (name == "velocity_magnitude") {
      // PHASTA slices are "pseudo-colored by velocity magnitude".
      auto velocity = data::DataArray::wrap_aos(
          "velocity", sim_->velocity().data(), sim_->num_nodes(), 3);
      INSITU_ASSIGN_OR_RETURN(
          data::DataArrayPtr magnitude,
          analysis::velocity_magnitude(*velocity, "velocity_magnitude"));
      block.point_fields().add(magnitude);
    } else {
      return Status::NotFound("phasta adaptor: no array '" + name + "'");
    }
  }
  return Status::Ok();
}

std::vector<std::string> PhastaDataAdaptor::available_arrays(
    data::Association assoc) const {
  if (assoc == data::Association::kPoint) {
    return {"pressure", "velocity", "velocity_magnitude"};
  }
  return {};
}

Status PhastaDataAdaptor::release_data() {
  // The grid stays; the field wraps, the derived velocity_magnitude and
  // any point array a backend attached are this step's only.
  if (cached_ != nullptr) {
    for (std::size_t b = 0; b < cached_->num_local_blocks(); ++b) {
      cached_->block(b)->point_fields().clear();
    }
  }
  return Status::Ok();
}

}  // namespace insitu::proxy
