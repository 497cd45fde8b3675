#pragma once

// UnstructuredGrid: explicit points + mixed-cell connectivity. This is the
// mesh type of the PHASTA proxy. Matching the paper's PHASTA adaptor:
// nodal coordinates and field variables are zero-copy wraps of simulation
// memory, while connectivity is an owned (full-copy) array.

#include "data/dataset.hpp"

namespace insitu::data {

enum class CellType : std::uint8_t {
  kTriangle = 5,   // VTK_TRIANGLE
  kQuad = 9,       // VTK_QUAD
  kTetra = 10,     // VTK_TETRA
  kHexahedron = 12,// VTK_HEXAHEDRON
  kWedge = 13,     // VTK_WEDGE
};

/// Number of points of a cell type.
int cell_type_size(CellType type);

class UnstructuredGrid final : public DataSet {
 public:
  /// `points`: (num_points x 3). `connectivity`: flat point-id list;
  /// `offsets`: size num_cells+1, cell c spans
  /// connectivity[offsets[c] .. offsets[c+1]); `types`: per-cell CellType.
  UnstructuredGrid(DataArrayPtr points, std::vector<std::int64_t> connectivity,
                   std::vector<std::int64_t> offsets,
                   std::vector<CellType> types);

  ~UnstructuredGrid() override;

  DataSetKind kind() const override { return DataSetKind::kUnstructuredGrid; }

  std::int64_t num_points() const override { return points_->num_tuples(); }
  std::int64_t num_cells() const override {
    return static_cast<std::int64_t>(types_.size());
  }

  Vec3 point(std::int64_t id) const override {
    return {points_->get(id, 0), points_->get(id, 1), points_->get(id, 2)};
  }

  DataArrayPtr points_array() const { return points_; }

  CellType cell_type(std::int64_t cell) const {
    return types_[static_cast<std::size_t>(cell)];
  }

  void cell_points(std::int64_t cell,
                   std::vector<std::int64_t>& out) const override {
    const auto c = static_cast<std::size_t>(cell);
    out.assign(connectivity_.begin() + offsets_[c],
               connectivity_.begin() + offsets_[c + 1]);
  }

  Bounds bounds() const override { return point_bounds(*points_); }

  std::size_t owned_bytes() const override;

  const std::vector<std::int64_t>& connectivity() const {
    return connectivity_;
  }
  const std::vector<std::int64_t>& offsets() const { return offsets_; }

 private:
  DataArrayPtr points_;
  std::vector<std::int64_t> connectivity_;
  std::vector<std::int64_t> offsets_;
  std::vector<CellType> types_;
  pal::TrackedBytes topology_tracked_;
};

using UnstructuredGridPtr = std::shared_ptr<UnstructuredGrid>;

}  // namespace insitu::data
