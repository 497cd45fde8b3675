#pragma once

// DataArray: the reproduction of the paper's enhanced VTK data-array model.
//
// §3.2: "we enhanced the VTK data model to support arbitrary layouts for
// multicomponent arrays. VTK now natively supports the commonly
// encountered structure-of-arrays and array-of-structures layouts. This
// allows for mapping data arrays from application codes to the VTK data
// model without additional memory copying (zero-copy)."
//
// A DataArray is a named, typed, (tuples x components) array that either
// owns its storage (tracked against the rank's MemoryTracker) or wraps
// simulation-owned memory with per-component base pointers and strides —
// which covers contiguous AoS, contiguous SoA, and arbitrary strided
// layouts (e.g. a component slice of an interleaved Fortran array).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pal/memory_tracker.hpp"
#include "pal/status.hpp"

namespace insitu::data {

enum class DataType : std::uint8_t {
  kFloat32,
  kFloat64,
  kInt32,
  kInt64,
  kUInt8,
};

std::size_t size_of(DataType type);

template <typename T>
constexpr DataType data_type_of();
template <>
constexpr DataType data_type_of<float>() { return DataType::kFloat32; }
template <>
constexpr DataType data_type_of<double>() { return DataType::kFloat64; }
template <>
constexpr DataType data_type_of<std::int32_t>() { return DataType::kInt32; }
template <>
constexpr DataType data_type_of<std::int64_t>() { return DataType::kInt64; }
template <>
constexpr DataType data_type_of<std::uint8_t>() { return DataType::kUInt8; }

enum class Layout : std::uint8_t {
  kAos,  ///< interleaved tuples: xyzxyz...
  kSoa,  ///< one contiguous block per component: xxx... yyy... zzz...
};

class DataArray;
using DataArrayPtr = std::shared_ptr<DataArray>;

class DataArray {
 public:
  /// Allocate an owned, zero-initialized array (tracked memory).
  template <typename T>
  static DataArrayPtr create(std::string name, std::int64_t tuples,
                             int components = 1, Layout layout = Layout::kAos) {
    return create_typed(std::move(name), data_type_of<T>(), tuples, components,
                        layout);
  }

  static DataArrayPtr create_typed(std::string name, DataType type,
                                   std::int64_t tuples, int components,
                                   Layout layout = Layout::kAos);

  /// Zero-copy wrap of contiguous AoS simulation memory. The caller retains
  /// ownership; the wrap must not outlive the memory.
  template <typename T>
  static DataArrayPtr wrap_aos(std::string name, T* base, std::int64_t tuples,
                               int components = 1) {
    std::vector<void*> comps(static_cast<std::size_t>(components));
    std::vector<std::int64_t> strides(static_cast<std::size_t>(components),
                                      components);
    for (int c = 0; c < components; ++c) comps[static_cast<std::size_t>(c)] = base + c;
    return wrap_typed(std::move(name), data_type_of<T>(), tuples, components,
                      std::move(comps), std::move(strides), Layout::kAos);
  }

  /// Zero-copy wrap of SoA simulation memory: one pointer per component.
  template <typename T>
  static DataArrayPtr wrap_soa(std::string name, std::vector<T*> components,
                               std::int64_t tuples) {
    const int ncomp = static_cast<int>(components.size());
    std::vector<void*> comps(components.begin(), components.end());
    std::vector<std::int64_t> strides(static_cast<std::size_t>(ncomp), 1);
    return wrap_typed(std::move(name), data_type_of<T>(), tuples, ncomp,
                      std::move(comps), std::move(strides), Layout::kSoa);
  }

  /// Zero-copy wrap with explicit per-component base pointers and element
  /// strides ("arbitrary layouts for multicomponent arrays").
  static DataArrayPtr wrap_typed(std::string name, DataType type,
                                 std::int64_t tuples, int components,
                                 std::vector<void*> component_bases,
                                 std::vector<std::int64_t> component_strides,
                                 Layout nominal_layout);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  DataType type() const { return type_; }
  Layout layout() const { return layout_; }
  std::int64_t num_tuples() const { return tuples_; }
  int num_components() const { return components_; }
  std::int64_t num_values() const { return tuples_ * components_; }
  bool is_zero_copy() const { return !owned_; }

  /// Bytes of payload this array represents (owned or wrapped).
  std::size_t size_bytes() const {
    return static_cast<std::size_t>(num_values()) * size_of(type_);
  }
  /// Bytes this array *owns* (0 for zero-copy wraps) — the quantity the
  /// memory-footprint studies charge.
  std::size_t owned_bytes() const { return owned_ ? size_bytes() : 0; }

  // ---- generic element access (converts through double) ----
  double get(std::int64_t tuple, int component = 0) const;
  void set(std::int64_t tuple, int component, double value);

  /// Fast typed access to one component's elements. Requires matching T.
  /// Works for any layout via the stored stride.
  template <typename T>
  T* component_base(int component) {
    return static_cast<T*>(bases_[static_cast<std::size_t>(component)]);
  }
  template <typename T>
  const T* component_base(int component) const {
    return static_cast<const T*>(bases_[static_cast<std::size_t>(component)]);
  }
  std::int64_t component_stride(int component) const {
    return strides_[static_cast<std::size_t>(component)];
  }

  /// Contiguous typed view of the whole array. Only valid for owned or
  /// wrapped AoS storage (stride == components, base == component 0), or
  /// single-component arrays with stride 1.
  template <typename T>
  std::span<T> contiguous_span() {
    return std::span<T>(static_cast<T*>(bases_[0]),
                        static_cast<std::size_t>(num_values()));
  }
  template <typename T>
  std::span<const T> contiguous_span() const {
    return std::span<const T>(static_cast<const T*>(bases_[0]),
                              static_cast<std::size_t>(num_values()));
  }
  bool is_contiguous() const;

  /// Min/max of one component over all tuples.
  std::pair<double, double> range(int component = 0) const;

  /// Deep copy into an owned array of the same type and values. The copy
  /// preserves the source layout when it can be copied in bulk (contiguous
  /// sources: one memcpy; unit-stride SoA sources: one memcpy per
  /// component); arbitrary strided wraps densify to AoS via a typed gather.
  DataArrayPtr deep_copy() const;

  /// Serialize payload to a contiguous AoS byte buffer (and back). Used by
  /// the BP-like format and the staging transports. append_bytes appends
  /// the same AoS packing to an existing buffer, so serializers can fill
  /// one pooled buffer without a per-array temporary.
  std::vector<std::byte> to_bytes() const;
  void append_bytes(std::vector<std::byte>& out) const;
  static StatusOr<DataArrayPtr> from_bytes(std::string name, DataType type,
                                           std::int64_t tuples, int components,
                                           std::span<const std::byte> bytes);

  /// Owned storage comes from pal::buffer_pool() and goes back to the
  /// destroying thread's pool (its rank's, when one is installed), so
  /// step-periodic arrays (snapshots, staging payloads) reuse last step's
  /// allocations.
  ~DataArray();
  DataArray(const DataArray&) = delete;
  DataArray& operator=(const DataArray&) = delete;

 private:
  DataArray() = default;

  /// Points bases_/strides_ into storage_ according to layout_. Owned
  /// arrays only.
  void bind_owned_pointers();
  /// Typed strided gather into AoS order; out must hold size_bytes().
  void pack_aos_into(std::byte* out) const;

  std::string name_;
  DataType type_ = DataType::kFloat64;
  Layout layout_ = Layout::kAos;
  std::int64_t tuples_ = 0;
  int components_ = 1;
  bool owned_ = false;

  std::vector<std::byte> storage_;       // owned storage (empty for wraps)
  pal::TrackedBytes tracked_;            // memory accounting for owned data
  std::vector<void*> bases_;             // per-component base pointers
  std::vector<std::int64_t> strides_;    // per-component element strides
};

}  // namespace insitu::data
