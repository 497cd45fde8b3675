#pragma once

// Derived fields computed inside data adaptors, as the science
// applications do: AVF-LESLIE's adaptor "calculates vorticity magnitude"
// (§4.2.2) and PHASTA's slices are "pseudo-colored by velocity magnitude"
// (§4.2.1).

#include "data/data_array.hpp"
#include "data/image_data.hpp"
#include "pal/status.hpp"

namespace insitu::analysis {

/// Per-tuple Euclidean norm of a 3-component vector array.
StatusOr<data::DataArrayPtr> velocity_magnitude(
    const data::DataArray& velocity, const std::string& output_name);

/// |curl(u)| of a per-point 3-component velocity on a uniform grid,
/// using central differences (one-sided at block boundaries).
StatusOr<data::DataArrayPtr> vorticity_magnitude(
    const data::ImageData& grid, const data::DataArray& velocity,
    const std::string& output_name);

/// VTK CellDataToPointData equivalent: average the cell values incident to
/// each point. Ghost-flagged cells are excluded; points touched only by
/// ghost cells receive 0.
StatusOr<data::DataArrayPtr> cell_data_to_point_data(
    const data::DataSet& dataset, const data::DataArray& cell_array,
    const std::string& output_name);

}  // namespace insitu::analysis
