#include "data/unstructured_grid.hpp"

#include <cassert>

namespace insitu::data {

UnstructuredGrid::UnstructuredGrid(DataArrayPtr points,
                                   std::vector<std::int64_t> connectivity,
                                   std::vector<std::int64_t> offsets,
                                   std::vector<CellType> types)
    : points_(std::move(points)),
      connectivity_(std::move(connectivity)),
      offsets_(std::move(offsets)),
      types_(std::move(types)) {
  assert(offsets_.size() == types_.size() + 1);
  assert(offsets_.empty() ||
         offsets_.back() == static_cast<std::int64_t>(connectivity_.size()));
  topology_tracked_ = pal::TrackedBytes(
      connectivity_.size() * sizeof(std::int64_t) +
      offsets_.size() * sizeof(std::int64_t) + types_.size());
}

UnstructuredGrid::~UnstructuredGrid() = default;

std::size_t UnstructuredGrid::owned_bytes() const {
  return DataSet::owned_bytes() + points_->owned_bytes() +
         topology_tracked_.bytes();
}

}  // namespace insitu::data
