#include "data/dataset.hpp"

namespace insitu::data {

void FieldCollection::add(DataArrayPtr array) {
  arrays_[array->name()] = std::move(array);
}

bool FieldCollection::has(std::string_view name) const {
  return arrays_.find(name) != arrays_.end();
}

DataArrayPtr FieldCollection::get(std::string_view name) const {
  auto it = arrays_.find(name);
  return it == arrays_.end() ? nullptr : it->second;
}

StatusOr<DataArrayPtr> FieldCollection::require(std::string_view name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) {
    return Status::NotFound("no field named '" + std::string(name) + "'");
  }
  return it->second;
}

std::vector<std::string> FieldCollection::names() const {
  std::vector<std::string> out;
  out.reserve(arrays_.size());
  for (const auto& [name, array] : arrays_) out.push_back(name);
  return out;
}

std::size_t FieldCollection::owned_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, array] : arrays_) total += array->owned_bytes();
  return total;
}

std::size_t FieldCollection::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& [name, array] : arrays_) total += array->size_bytes();
  return total;
}

namespace {

template <typename T>
Bounds typed_point_bounds(const DataArray& points) {
  const T* x = points.component_base<T>(0);
  const T* y = points.component_base<T>(1);
  const T* z = points.component_base<T>(2);
  const std::int64_t sx = points.component_stride(0);
  const std::int64_t sy = points.component_stride(1);
  const std::int64_t sz = points.component_stride(2);
  Bounds b;
  const std::int64_t n = points.num_tuples();
  for (std::int64_t i = 0; i < n; ++i) {
    b.expand({static_cast<double>(x[i * sx]), static_cast<double>(y[i * sy]),
              static_cast<double>(z[i * sz])});
  }
  return b;
}

}  // namespace

Bounds point_bounds(const DataArray& points) {
  switch (points.type()) {
    case DataType::kFloat64: return typed_point_bounds<double>(points);
    case DataType::kFloat32: return typed_point_bounds<float>(points);
    default: break;
  }
  Bounds b;
  const std::int64_t n = points.num_tuples();
  for (std::int64_t i = 0; i < n; ++i) {
    b.expand({points.get(i, 0), points.get(i, 1), points.get(i, 2)});
  }
  return b;
}

}  // namespace insitu::data
