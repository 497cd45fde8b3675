#include "analysis/contour.hpp"

#include <array>

#include "data/rectilinear_grid.hpp"
#include "data/unstructured_grid.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {

namespace {

struct TetVert {
  data::Vec3 p;
  double f = 0.0;     // contour field value
  double attr = 0.0;  // attribute carried to the output vertex
};

/// Linear interpolation of the iso-crossing on edge (a, b).
TetVert edge_cut(const TetVert& a, const TetVert& b, double iso) {
  const double denom = b.f - a.f;
  const double t = denom != 0.0 ? (iso - a.f) / denom : 0.5;
  TetVert v;
  v.p.x = kernels::lerp1(a.p.x, b.p.x, t);
  v.p.y = kernels::lerp1(a.p.y, b.p.y, t);
  v.p.z = kernels::lerp1(a.p.z, b.p.z, t);
  v.f = iso;
  v.attr = kernels::lerp1(a.attr, b.attr, t);
  return v;
}

void emit_triangle(const TetVert& a, const TetVert& b, const TetVert& c,
                   TriangleMesh& out) {
  const auto base = static_cast<std::int32_t>(out.vertices.size());
  out.vertices.push_back(a.p);
  out.vertices.push_back(b.p);
  out.vertices.push_back(c.p);
  out.scalars.push_back(a.attr);
  out.scalars.push_back(b.attr);
  out.scalars.push_back(c.attr);
  out.triangles.push_back({base, base + 1, base + 2});
}

/// Marching tetrahedra on one tet. Vertices with f >= iso are "inside".
void contour_tet(const std::array<TetVert, 4>& v, double iso,
                 TriangleMesh& out) {
  int mask = 0;
  for (int i = 0; i < 4; ++i) {
    if (v[static_cast<std::size_t>(i)].f >= iso) mask |= 1 << i;
  }
  if (mask == 0 || mask == 0xF) return;

  // Reduce the 14 cut cases to "one vertex separated" and "two vs two".
  const auto one_vertex = [&](int lone) {
    // Triangle across the three edges incident to `lone`.
    const auto li = static_cast<std::size_t>(lone);
    std::array<std::size_t, 3> others{};
    int n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != li) others[static_cast<std::size_t>(n++)] = i;
    }
    emit_triangle(edge_cut(v[li], v[others[0]], iso),
                  edge_cut(v[li], v[others[1]], iso),
                  edge_cut(v[li], v[others[2]], iso), out);
  };
  const auto two_vertices = [&](int a, int b) {
    // Quad across the four edges between {a,b} and the other pair {c,d}.
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    std::array<std::size_t, 2> cd{};
    int n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != ai && i != bi) cd[static_cast<std::size_t>(n++)] = i;
    }
    const TetVert e_ac = edge_cut(v[ai], v[cd[0]], iso);
    const TetVert e_ad = edge_cut(v[ai], v[cd[1]], iso);
    const TetVert e_bd = edge_cut(v[bi], v[cd[1]], iso);
    const TetVert e_bc = edge_cut(v[bi], v[cd[0]], iso);
    emit_triangle(e_ac, e_ad, e_bd, out);
    emit_triangle(e_ac, e_bd, e_bc, out);
  };

  switch (mask) {
    case 0x1: case 0xE: one_vertex(0); break;
    case 0x2: case 0xD: one_vertex(1); break;
    case 0x4: case 0xB: one_vertex(2); break;
    case 0x8: case 0x7: one_vertex(3); break;
    case 0x3: case 0xC: two_vertices(0, 1); break;
    case 0x5: case 0xA: two_vertices(0, 2); break;
    case 0x9: case 0x6: two_vertices(0, 3); break;
    default: break;
  }
}

// 6-tet decomposition of a VTK-ordered hexahedron around diagonal 0-6.
constexpr std::array<std::array<int, 4>, 6> kHexTets = {{
    {0, 1, 2, 6},
    {0, 2, 3, 6},
    {0, 3, 7, 6},
    {0, 7, 4, 6},
    {0, 4, 5, 6},
    {0, 5, 1, 6},
}};

/// Marching tets on one hexahedron: load its 8 VTK-ordered corners
/// through `load`, skip it when all of them lie on one side of `iso`,
/// else contour its 6 tets.
template <typename Load>
void contour_hex(const std::vector<std::int64_t>& cell, Load&& load,
                 double iso, TriangleMesh& out) {
  std::array<TetVert, 8> corners;
  for (std::size_t i = 0; i < 8; ++i) corners[i] = load(cell[i]);
  bool any_lo = false, any_hi = false;
  for (const auto& corner : corners) {
    (corner.f >= iso ? any_hi : any_lo) = true;
  }
  if (!(any_lo && any_hi)) return;
  for (const auto& tet : kHexTets) {
    contour_tet({corners[static_cast<std::size_t>(tet[0])],
                 corners[static_cast<std::size_t>(tet[1])],
                 corners[static_cast<std::size_t>(tet[2])],
                 corners[static_cast<std::size_t>(tet[3])]},
                iso, out);
  }
}

double axis_coord(const data::Vec3& p, int axis) {
  return axis == 0 ? p.x : axis == 1 ? p.y : p.z;
}

/// Cell counts of a block whose cells form an i-fastest hex grid between
/// axis-aligned point planes (ImageData, RectilinearGrid); false for any
/// other block.
bool axis_aligned_cells(const data::DataSet& dataset,
                        std::array<std::int64_t, 3>& cells) {
  if (dataset.kind() == data::DataSetKind::kImageData) {
    const auto& g = static_cast<const data::ImageData&>(dataset);
    cells = {g.cell_dim(0), g.cell_dim(1), g.cell_dim(2)};
    return true;
  }
  if (dataset.kind() == data::DataSetKind::kRectilinearGrid) {
    const auto& g = static_cast<const data::RectilinearGrid&>(dataset);
    cells = {g.cell_dim(0), g.cell_dim(1), g.cell_dim(2)};
    return true;
  }
  return false;
}

/// slice_axis on an axis-aligned hex grid. Every corner's distance to the
/// plane is f = coord - value, which is what plane_distance computes for
/// an axis normal, so a cell can be cut only if its two point planes
/// along `axis` lie on opposite sides (f < 0 and f >= 0). Only those cell
/// layers are visited, in cell-id order with ghosts skipped: the output
/// equals contour_field over the full distance field, triangle for
/// triangle.
void slice_layers(const data::DataSet& dataset,
                  const std::array<std::int64_t, 3>& cells,
                  const data::DataArray& values, int axis, double value,
                  TriangleMesh& out) {
  if (cells[0] <= 0 || cells[1] <= 0 || cells[2] <= 0) return;
  const auto a = static_cast<std::size_t>(axis);
  const std::array<std::int64_t, 3> point_stride = {
      1, cells[0] + 1, (cells[0] + 1) * (cells[1] + 1)};

  // Index lists per axis, i fastest; along `axis`, only the cut layers.
  std::array<std::vector<std::int64_t>, 3> index;
  for (std::size_t d = 0; d < 3; ++d) {
    if (d == a) continue;
    index[d].resize(static_cast<std::size_t>(cells[d]));
    for (std::int64_t i = 0; i < cells[d]; ++i) {
      index[d][static_cast<std::size_t>(i)] = i;
    }
  }
  bool prev_hi = false;
  for (std::int64_t k = 0; k <= cells[a]; ++k) {
    const double f =
        axis_coord(dataset.point(k * point_stride[a]), axis) - value;
    const bool hi = f >= 0.0;
    if (k > 0 && hi != prev_hi) index[a].push_back(k - 1);
    prev_hi = hi;
  }
  if (index[a].empty()) return;

  auto load = [&](std::int64_t point_id) {
    TetVert v;
    v.p = dataset.point(point_id);
    v.f = axis_coord(v.p, axis) - value;
    v.attr = values.get(point_id);
    return v;
  };
  const data::DataArrayPtr ghosts = dataset.ghost_cells();
  std::vector<std::int64_t> cell;
  for (const std::int64_t k : index[2]) {
    for (const std::int64_t j : index[1]) {
      for (const std::int64_t i : index[0]) {
        const std::int64_t c = i + cells[0] * (j + cells[1] * k);
        if (ghosts != nullptr && ghosts->get(c) != 0.0) continue;
        dataset.cell_points(c, cell);
        contour_hex(cell, load, 0.0, out);
      }
    }
  }
}

/// contour_field, appending to `out`.
Status append_contour(const data::DataSet& dataset,
                      const data::DataArray& contour_field, double isovalue,
                      const data::DataArray& attribute_field,
                      TriangleMesh& out) {
  if (contour_field.num_tuples() != dataset.num_points() ||
      attribute_field.num_tuples() != dataset.num_points()) {
    return Status::InvalidArgument(
        "contour_field: arrays must be per-point over the dataset");
  }

  const std::int64_t ncells = dataset.num_cells();
  const bool unstructured =
      dataset.kind() == data::DataSetKind::kUnstructuredGrid;
  const auto* ugrid =
      unstructured ? static_cast<const data::UnstructuredGrid*>(&dataset)
                   : nullptr;

  auto load = [&](std::int64_t point_id) {
    TetVert v;
    v.p = dataset.point(point_id);
    v.f = contour_field.get(point_id);
    v.attr = attribute_field.get(point_id);
    return v;
  };

  const data::DataArrayPtr ghosts = dataset.ghost_cells();
  std::vector<std::int64_t> cell;
  for (std::int64_t c = 0; c < ncells; ++c) {
    if (ghosts != nullptr && ghosts->get(c) != 0.0) continue;
    dataset.cell_points(c, cell);
    if (unstructured && ugrid->cell_type(c) == data::CellType::kTetra) {
      contour_tet({load(cell[0]), load(cell[1]), load(cell[2]), load(cell[3])},
                  isovalue, out);
      continue;
    }
    if (cell.size() == 8) {  // hexahedron (implicit or explicit)
      contour_hex(cell, load, isovalue, out);
      continue;
    }
    return Status::Unimplemented("contour_field: unsupported cell with " +
                                 std::to_string(cell.size()) + " points");
  }
  return Status::Ok();
}

/// slice_plane, appending to `out`.
Status append_slice_plane(const data::DataSet& dataset,
                          const std::string& array, data::Vec3 origin,
                          data::Vec3 normal, TriangleMesh& out) {
  INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                          dataset.point_fields().require(array));
  const data::Vec3 n = normal.normalized();
  const std::int64_t npoints = dataset.num_points();
  data::DataArrayPtr distance =
      data::DataArray::create<double>("plane_distance", npoints, 1);
  double* dist = distance->component_base<double>(0);
  // Gather coordinates into SoA scratch, then evaluate the signed
  // distance with the dispatch kernel.
  std::vector<double> xs(static_cast<std::size_t>(npoints));
  std::vector<double> ys(static_cast<std::size_t>(npoints));
  std::vector<double> zs(static_cast<std::size_t>(npoints));
  for (std::int64_t i = 0; i < npoints; ++i) {
    const data::Vec3 p = dataset.point(i);
    xs[static_cast<std::size_t>(i)] = p.x;
    ys[static_cast<std::size_t>(i)] = p.y;
    zs[static_cast<std::size_t>(i)] = p.z;
  }
  if (npoints > 0) {
    kernels::plane_distance(xs.data(), ys.data(), zs.data(), npoints,
                            origin.x, origin.y, origin.z, n.x, n.y, n.z, dist);
  }
  return append_contour(dataset, *distance, 0.0, *values, out);
}

}  // namespace

StatusOr<TriangleMesh> contour_field(const data::DataSet& dataset,
                                     const data::DataArray& contour_field,
                                     double isovalue,
                                     const data::DataArray& attribute_field) {
  TriangleMesh out;
  INSITU_RETURN_IF_ERROR(append_contour(dataset, contour_field, isovalue,
                                        attribute_field, out));
  return out;
}

Status isosurface(const data::DataSet& dataset, const std::string& array,
                  double isovalue, TriangleMesh& out) {
  INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                          dataset.point_fields().require(array));
  return append_contour(dataset, *values, isovalue, *values, out);
}

StatusOr<TriangleMesh> isosurface(const data::DataSet& dataset,
                                  const std::string& array, double isovalue) {
  TriangleMesh out;
  INSITU_RETURN_IF_ERROR(isosurface(dataset, array, isovalue, out));
  return out;
}

StatusOr<TriangleMesh> slice_plane(const data::DataSet& dataset,
                                   const std::string& array,
                                   data::Vec3 origin, data::Vec3 normal) {
  TriangleMesh out;
  INSITU_RETURN_IF_ERROR(
      append_slice_plane(dataset, array, origin, normal, out));
  return out;
}

Status slice_axis(const data::DataSet& dataset, const std::string& array,
                  int axis, double value, TriangleMesh& out) {
  if (axis < 0 || axis > 2) {
    return Status::InvalidArgument("slice_axis: axis must be 0, 1 or 2");
  }
  std::array<std::int64_t, 3> cells;
  if (axis_aligned_cells(dataset, cells)) {
    INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                            dataset.point_fields().require(array));
    if (values->num_tuples() != dataset.num_points()) {
      return Status::InvalidArgument(
          "contour_field: arrays must be per-point over the dataset");
    }
    slice_layers(dataset, cells, *values, axis, value, out);
    return Status::Ok();
  }
  data::Vec3 origin, normal;
  if (axis == 0) {
    origin = {value, 0, 0};
    normal = {1, 0, 0};
  } else if (axis == 1) {
    origin = {0, value, 0};
    normal = {0, 1, 0};
  } else {
    origin = {0, 0, value};
    normal = {0, 0, 1};
  }
  return append_slice_plane(dataset, array, origin, normal, out);
}

StatusOr<TriangleMesh> slice_axis(const data::DataSet& dataset,
                                  const std::string& array, int axis,
                                  double value) {
  TriangleMesh out;
  INSITU_RETURN_IF_ERROR(slice_axis(dataset, array, axis, value, out));
  return out;
}

}  // namespace insitu::analysis
