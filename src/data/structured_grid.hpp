#pragma once

// StructuredGrid: curvilinear grid with explicit point coordinates but
// implicit (i,j,k) topology. Completes the structured-mesh family of the
// data model (paper §3.2's "incomplete data model" remark motivates
// covering all structured kinds).

#include "data/dataset.hpp"

namespace insitu::data {

class StructuredGrid final : public DataSet {
 public:
  /// `points`: (num_points x 3) array, AoS or SoA, possibly zero-copy.
  /// `dims`: point dimensions (nx, ny, nz); nx*ny*nz must match tuples.
  StructuredGrid(DataArrayPtr points, std::array<std::int64_t, 3> dims)
      : points_(std::move(points)), dims_(dims) {}

  DataSetKind kind() const override { return DataSetKind::kStructuredGrid; }

  std::int64_t point_dim(int axis) const {
    return dims_[static_cast<std::size_t>(axis)];
  }
  std::int64_t cell_dim(int axis) const { return point_dim(axis) - 1; }

  std::int64_t num_points() const override {
    return dims_[0] * dims_[1] * dims_[2];
  }
  std::int64_t num_cells() const override {
    return cell_dim(0) * cell_dim(1) * cell_dim(2);
  }

  Vec3 point(std::int64_t id) const override {
    return {points_->get(id, 0), points_->get(id, 1), points_->get(id, 2)};
  }

  DataArrayPtr points_array() const { return points_; }

  void cell_points(std::int64_t cell,
                   std::vector<std::int64_t>& out) const override {
    const std::int64_t cx = cell_dim(0), cy = cell_dim(1);
    const std::int64_t i = cell % cx;
    const std::int64_t j = (cell / cx) % cy;
    const std::int64_t k = cell / (cx * cy);
    const std::int64_t nx = point_dim(0);
    const std::int64_t nxy = nx * point_dim(1);
    const std::int64_t p = i + nx * j + nxy * k;
    out.assign({p, p + 1, p + 1 + nx, p + nx,
                p + nxy, p + 1 + nxy, p + 1 + nx + nxy, p + nx + nxy});
  }

  Bounds bounds() const override { return point_bounds(*points_); }

  std::size_t owned_bytes() const override {
    return DataSet::owned_bytes() + points_->owned_bytes();
  }

 private:
  DataArrayPtr points_;
  std::array<std::int64_t, 3> dims_;
};

using StructuredGridPtr = std::shared_ptr<StructuredGrid>;

}  // namespace insitu::data
