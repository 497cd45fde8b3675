#include "data/data_array.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "pal/buffer_pool.hpp"

namespace insitu::data {

std::size_t size_of(DataType type) {
  switch (type) {
    case DataType::kFloat32: return 4;
    case DataType::kFloat64: return 8;
    case DataType::kInt32: return 4;
    case DataType::kInt64: return 8;
    case DataType::kUInt8: return 1;
  }
  return 0;
}

std::string_view to_string(DataType type) {
  switch (type) {
    case DataType::kFloat32: return "float32";
    case DataType::kFloat64: return "float64";
    case DataType::kInt32: return "int32";
    case DataType::kInt64: return "int64";
    case DataType::kUInt8: return "uint8";
  }
  return "unknown";
}

DataArray::~DataArray() {
  if (owned_ && storage_.capacity() != 0) {
    pal::buffer_pool().release(std::move(storage_));
  }
}

void DataArray::bind_owned_pointers() {
  const std::size_t elem = size_of(type_);
  bases_.assign(static_cast<std::size_t>(components_), nullptr);
  strides_.resize(static_cast<std::size_t>(components_));
  for (int c = 0; c < components_; ++c) {
    if (layout_ == Layout::kAos) {
      bases_[static_cast<std::size_t>(c)] =
          storage_.data() + static_cast<std::size_t>(c) * elem;
      strides_[static_cast<std::size_t>(c)] = components_;
    } else {
      bases_[static_cast<std::size_t>(c)] =
          storage_.data() +
          static_cast<std::size_t>(c) * static_cast<std::size_t>(tuples_) * elem;
      strides_[static_cast<std::size_t>(c)] = 1;
    }
  }
}

DataArrayPtr DataArray::create_typed(std::string name, DataType type,
                                     std::int64_t tuples, int components,
                                     Layout layout) {
  assert(tuples >= 0 && components >= 1);
  auto array = DataArrayPtr(new DataArray());
  array->name_ = std::move(name);
  array->type_ = type;
  array->layout_ = layout;
  array->tuples_ = tuples;
  array->components_ = components;
  array->owned_ = true;

  const std::size_t bytes =
      static_cast<std::size_t>(tuples) * components * size_of(type);
  array->storage_ = pal::buffer_pool().acquire(bytes);
  array->storage_.resize(bytes);  // zero-fill within the pooled capacity
  array->tracked_ = pal::TrackedBytes(bytes);
  array->bind_owned_pointers();
  return array;
}

DataArrayPtr DataArray::wrap_typed(std::string name, DataType type,
                                   std::int64_t tuples, int components,
                                   std::vector<void*> component_bases,
                                   std::vector<std::int64_t> component_strides,
                                   Layout nominal_layout) {
  assert(component_bases.size() == static_cast<std::size_t>(components));
  assert(component_strides.size() == static_cast<std::size_t>(components));
  auto array = DataArrayPtr(new DataArray());
  array->name_ = std::move(name);
  array->type_ = type;
  array->layout_ = nominal_layout;
  array->tuples_ = tuples;
  array->components_ = components;
  array->owned_ = false;
  array->bases_ = std::move(component_bases);
  array->strides_ = std::move(component_strides);
  return array;
}

namespace {
template <typename T>
double load_as_double(const void* base, std::int64_t index) {
  return static_cast<double>(static_cast<const T*>(base)[index]);
}
template <typename T>
void store_from_double(void* base, std::int64_t index, double value) {
  static_cast<T*>(base)[index] = static_cast<T>(value);
}
}  // namespace

double DataArray::get(std::int64_t tuple, int component) const {
  const void* base = bases_[static_cast<std::size_t>(component)];
  const std::int64_t index =
      tuple * strides_[static_cast<std::size_t>(component)];
  switch (type_) {
    case DataType::kFloat32: return load_as_double<float>(base, index);
    case DataType::kFloat64: return load_as_double<double>(base, index);
    case DataType::kInt32: return load_as_double<std::int32_t>(base, index);
    case DataType::kInt64: return load_as_double<std::int64_t>(base, index);
    case DataType::kUInt8: return load_as_double<std::uint8_t>(base, index);
  }
  return 0.0;
}

void DataArray::set(std::int64_t tuple, int component, double value) {
  void* base = bases_[static_cast<std::size_t>(component)];
  const std::int64_t index =
      tuple * strides_[static_cast<std::size_t>(component)];
  switch (type_) {
    case DataType::kFloat32: store_from_double<float>(base, index, value); break;
    case DataType::kFloat64: store_from_double<double>(base, index, value); break;
    case DataType::kInt32: store_from_double<std::int32_t>(base, index, value); break;
    case DataType::kInt64: store_from_double<std::int64_t>(base, index, value); break;
    case DataType::kUInt8: store_from_double<std::uint8_t>(base, index, value); break;
  }
}

bool DataArray::is_contiguous() const {
  if (components_ == 1) return strides_[0] == 1;
  if (layout_ != Layout::kAos) return false;
  const auto* first = static_cast<const std::byte*>(bases_[0]);
  for (int c = 0; c < components_; ++c) {
    if (strides_[static_cast<std::size_t>(c)] != components_) return false;
    const auto* base = static_cast<const std::byte*>(bases_[static_cast<std::size_t>(c)]);
    if (base != first + static_cast<std::size_t>(c) * size_of(type_)) {
      return false;
    }
  }
  return true;
}

std::pair<double, double> DataArray::range(int component) const {
  double lo = std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::lowest();
  for (std::int64_t i = 0; i < tuples_; ++i) {
    const double v = get(i, component);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (tuples_ == 0) return {0.0, 0.0};
  return {lo, hi};
}

namespace {

/// Strided gather into interleaved AoS order, one typed loop per component
/// (no per-element double conversion, no per-element memcpy call).
template <typename T>
void gather_aos_typed(const std::vector<void*>& bases,
                      const std::vector<std::int64_t>& strides,
                      std::int64_t tuples, int components, std::byte* out) {
  T* dst = reinterpret_cast<T*>(out);
  for (int c = 0; c < components; ++c) {
    const T* src = static_cast<const T*>(bases[static_cast<std::size_t>(c)]);
    const std::int64_t stride = strides[static_cast<std::size_t>(c)];
    T* d = dst + c;
    for (std::int64_t i = 0; i < tuples; ++i) {
      d[i * components] = src[i * stride];
    }
  }
}

}  // namespace

void DataArray::pack_aos_into(std::byte* out) const {
  switch (type_) {
    case DataType::kFloat32:
      gather_aos_typed<float>(bases_, strides_, tuples_, components_, out);
      break;
    case DataType::kFloat64:
      gather_aos_typed<double>(bases_, strides_, tuples_, components_, out);
      break;
    case DataType::kInt32:
      gather_aos_typed<std::int32_t>(bases_, strides_, tuples_, components_,
                                     out);
      break;
    case DataType::kInt64:
      gather_aos_typed<std::int64_t>(bases_, strides_, tuples_, components_,
                                     out);
      break;
    case DataType::kUInt8:
      gather_aos_typed<std::uint8_t>(bases_, strides_, tuples_, components_,
                                     out);
      break;
  }
}

DataArrayPtr DataArray::deep_copy() const {
  const std::size_t elem = size_of(type_);
  const std::size_t bytes = size_bytes();
  auto copy = DataArrayPtr(new DataArray());
  copy->name_ = name_;
  copy->type_ = type_;
  copy->tuples_ = tuples_;
  copy->components_ = components_;
  copy->owned_ = true;
  copy->storage_ = pal::buffer_pool().acquire(bytes);

  bool unit_strides = true;
  for (int c = 0; c < components_; ++c) {
    if (strides_[static_cast<std::size_t>(c)] != 1) {
      unit_strides = false;
      break;
    }
  }

  if (is_contiguous()) {
    // One memcpy; vector::insert into reserved capacity does not zero-fill.
    copy->layout_ = layout_;
    const auto* src = static_cast<const std::byte*>(bases_[0]);
    copy->storage_.insert(copy->storage_.end(), src, src + bytes);
  } else if (unit_strides) {
    // SoA source: one memcpy per component block, layout preserved.
    copy->layout_ = Layout::kSoa;
    const std::size_t comp_bytes = static_cast<std::size_t>(tuples_) * elem;
    for (int c = 0; c < components_; ++c) {
      const auto* src =
          static_cast<const std::byte*>(bases_[static_cast<std::size_t>(c)]);
      copy->storage_.insert(copy->storage_.end(), src, src + comp_bytes);
    }
  } else {
    // Arbitrary strided wrap: densify to AoS with a typed gather.
    copy->layout_ = Layout::kAos;
    copy->storage_.resize(bytes);
    pack_aos_into(copy->storage_.data());
  }
  copy->tracked_ = pal::TrackedBytes(bytes);
  copy->bind_owned_pointers();
  return copy;
}

std::vector<std::byte> DataArray::to_bytes() const {
  std::vector<std::byte> out;
  out.reserve(size_bytes());
  append_bytes(out);
  return out;
}

void DataArray::append_bytes(std::vector<std::byte>& out) const {
  const std::size_t bytes = size_bytes();
  if (is_contiguous()) {
    const auto* src = static_cast<const std::byte*>(bases_[0]);
    out.insert(out.end(), src, src + bytes);
    return;
  }
  const std::size_t start = out.size();
  out.resize(start + bytes);
  pack_aos_into(out.data() + start);
}

StatusOr<DataArrayPtr> DataArray::from_bytes(std::string name, DataType type,
                                             std::int64_t tuples,
                                             int components,
                                             std::span<const std::byte> bytes) {
  const std::size_t expected =
      static_cast<std::size_t>(tuples) * components * size_of(type);
  if (bytes.size() != expected) {
    return Status::InvalidArgument(
        "DataArray::from_bytes: payload size " + std::to_string(bytes.size()) +
        " != expected " + std::to_string(expected));
  }
  auto array = DataArrayPtr(new DataArray());
  array->name_ = std::move(name);
  array->type_ = type;
  array->layout_ = Layout::kAos;
  array->tuples_ = tuples;
  array->components_ = components;
  array->owned_ = true;
  array->storage_ = pal::buffer_pool().acquire(expected);
  array->storage_.insert(array->storage_.end(), bytes.begin(), bytes.end());
  array->tracked_ = pal::TrackedBytes(expected);
  array->bind_owned_pointers();
  return array;
}

}  // namespace insitu::data
