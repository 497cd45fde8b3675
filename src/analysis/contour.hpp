#pragma once

// Slice-plane extraction and isosurfacing via marching tetrahedra.
//
// Both operations share one kernel: contour the level set {f = isovalue}
// of a per-point *contour field* f while linearly interpolating a second
// per-point *attribute field* onto the extracted vertices.
//   * isosurface: f = the scalar being contoured, attribute = same scalar
//   * slice:      f = signed distance to the plane, isovalue = 0,
//                 attribute = the scalar used for pseudocoloring
//
// Hexahedral cells (ImageData / RectilinearGrid / StructuredGrid) are
// decomposed into 6 tetrahedra; tetrahedral cells contour directly.
// Substitution note (DESIGN.md): VTK's slice/contour filters use
// per-cell-type case tables; marching tets produces equivalent (slightly
// denser) triangulations of the same surfaces, preserving the rendering
// workload's cost structure.

#include <string>

#include "analysis/geometry.hpp"
#include "data/dataset.hpp"
#include "data/image_data.hpp"
#include "pal/status.hpp"

namespace insitu::analysis {

/// Contour the level set {contour_field = isovalue}. `contour_field` and
/// `attribute_field` are per-point arrays over `dataset` (component 0 is
/// used). Ghost cells are skipped. Works for hex-topology datasets and
/// tetrahedral unstructured grids.
StatusOr<TriangleMesh> contour_field(const data::DataSet& dataset,
                                     const data::DataArray& contour_field,
                                     double isovalue,
                                     const data::DataArray& attribute_field);

/// Isosurface of the named per-point scalar at `isovalue`, carrying the
/// same scalar as the vertex attribute.
StatusOr<TriangleMesh> isosurface(const data::DataSet& dataset,
                                  const std::string& array, double isovalue);
/// The same isosurface appended to `out` (indices rebased past its
/// vertices), so a caller can extract every step into one mesh that
/// keeps its capacity. On error `out` may hold part of the output.
Status isosurface(const data::DataSet& dataset, const std::string& array,
                  double isovalue, TriangleMesh& out);

/// Arbitrary plane slice: plane through `origin` with `normal`, vertices
/// colored by the named per-point scalar.
StatusOr<TriangleMesh> slice_plane(const data::DataSet& dataset,
                                   const std::string& array,
                                   data::Vec3 origin, data::Vec3 normal);

/// Axis-aligned slice (axis 0/1/2 at coordinate `value`), the workload of
/// the paper's Catalyst-slice / Libsim-slice configurations. Equal, bit
/// for bit, to slice_plane with that axis as the normal. On ImageData and
/// RectilinearGrid blocks it visits only the cell layer(s) the plane
/// cuts; other blocks take the slice_plane path.
StatusOr<TriangleMesh> slice_axis(const data::DataSet& dataset,
                                  const std::string& array, int axis,
                                  double value);
/// The same slice appended to `out` (indices rebased past its
/// vertices): equal to slice_axis followed by TriangleMesh::append,
/// without the intermediate mesh. On error `out` may hold part of the
/// output.
Status slice_axis(const data::DataSet& dataset, const std::string& array,
                  int axis, double value, TriangleMesh& out);

}  // namespace insitu::analysis
