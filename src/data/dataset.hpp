#pragma once

// DataSet: abstract base of the VTK-like mesh types, plus FieldCollection
// (named point/cell attribute arrays, including the ghost-flags array).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/data_array.hpp"
#include "data/types.hpp"
#include "pal/status.hpp"

namespace insitu::data {

/// Where an attribute array lives.
enum class Association : std::uint8_t { kPoint, kCell };

/// Named attribute arrays for one association.
class FieldCollection {
 public:
  void add(DataArrayPtr array);
  bool has(std::string_view name) const;
  DataArrayPtr get(std::string_view name) const;         // nullptr if absent
  StatusOr<DataArrayPtr> require(std::string_view name) const;
  void remove(std::string_view name);
  void clear() { arrays_.clear(); }
  std::vector<std::string> names() const;
  std::size_t count() const { return arrays_.size(); }

  /// Total bytes owned by arrays in this collection (zero-copy wraps: 0).
  std::size_t owned_bytes() const;
  /// Total payload bytes represented by arrays in this collection.
  std::size_t payload_bytes() const;

 private:
  std::map<std::string, DataArrayPtr, std::less<>> arrays_;
};

enum class DataSetKind : std::uint8_t {
  kImageData,
  kRectilinearGrid,
  kStructuredGrid,
  kUnstructuredGrid,
};

std::string_view to_string(DataSetKind kind);

/// Bounds of an explicit (num_points x 3) points array, any layout: one
/// pass over the typed component bases for f64 and f32 coordinates,
/// DataArray::get for other types. Equal to expanding by every point.
Bounds point_bounds(const DataArray& points);

/// Abstract mesh + attributes. Concrete types: ImageData, RectilinearGrid,
/// StructuredGrid, UnstructuredGrid.
class DataSet {
 public:
  virtual ~DataSet() = default;

  virtual DataSetKind kind() const = 0;
  virtual std::int64_t num_points() const = 0;
  virtual std::int64_t num_cells() const = 0;
  virtual Vec3 point(std::int64_t id) const = 0;
  /// Point ids of one cell, appended to `out` (cleared first).
  virtual void cell_points(std::int64_t cell,
                           std::vector<std::int64_t>& out) const = 0;
  virtual Bounds bounds() const = 0;

  FieldCollection& point_fields() { return point_fields_; }
  const FieldCollection& point_fields() const { return point_fields_; }
  FieldCollection& cell_fields() { return cell_fields_; }
  const FieldCollection& cell_fields() const { return cell_fields_; }

  FieldCollection& fields(Association assoc) {
    return assoc == Association::kPoint ? point_fields_ : cell_fields_;
  }
  const FieldCollection& fields(Association assoc) const {
    return assoc == Association::kPoint ? point_fields_ : cell_fields_;
  }

  /// Attach a vtkGhostLevels-style byte array (cell association).
  void set_ghost_cells(DataArrayPtr ghosts) {
    cell_fields_.add(std::move(ghosts));
  }
  DataArrayPtr ghost_cells() const { return cell_fields_.get(kGhostArrayName); }

  /// True if the cell is flagged as a ghost (blanked) cell.
  bool is_ghost_cell(std::int64_t cell) const {
    const DataArrayPtr g = ghost_cells();
    return g != nullptr && g->get(cell) != 0.0;
  }

  /// Bytes owned by this dataset's attribute arrays and (in subclasses)
  /// geometry/topology arrays.
  virtual std::size_t owned_bytes() const {
    return point_fields_.owned_bytes() + cell_fields_.owned_bytes();
  }

  static constexpr const char* kGhostArrayName = "vtkGhostLevels";

 protected:
  FieldCollection point_fields_;
  FieldCollection cell_fields_;
};

using DataSetPtr = std::shared_ptr<DataSet>;

}  // namespace insitu::data
