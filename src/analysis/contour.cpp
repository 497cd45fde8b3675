#include "analysis/contour.hpp"

#include <array>

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

}  // namespace

StatusOr<TriangleMesh> contour_field(const data::DataSet& dataset,
                                     const data::DataArray& contour_field,
                                     double isovalue,
                                     const data::DataArray& attribute_field) {
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

  TriangleMesh out;
  std::vector<std::int64_t> cell;
  for (std::int64_t c = 0; c < ncells; ++c) {
    if (dataset.is_ghost_cell(c)) continue;
    dataset.cell_points(c, cell);
    if (unstructured && ugrid->cell_type(c) == data::CellType::kTetra) {
      contour_tet({load(cell[0]), load(cell[1]), load(cell[2]), load(cell[3])},
                  isovalue, out);
      continue;
    }
    if (cell.size() == 8) {  // hexahedron (implicit or explicit)
      std::array<TetVert, 8> corners;
      for (std::size_t i = 0; i < 8; ++i) corners[i] = load(cell[i]);
      // Cheap reject: all corners on one side.
      bool any_lo = false, any_hi = false;
      for (const auto& corner : corners) {
        (corner.f >= isovalue ? any_hi : any_lo) = true;
      }
      if (!(any_lo && any_hi)) continue;
      for (const auto& tet : kHexTets) {
        contour_tet({corners[static_cast<std::size_t>(tet[0])],
                     corners[static_cast<std::size_t>(tet[1])],
                     corners[static_cast<std::size_t>(tet[2])],
                     corners[static_cast<std::size_t>(tet[3])]},
                    isovalue, out);
      }
      continue;
    }
    return Status::Unimplemented("contour_field: unsupported cell with " +
                                 std::to_string(cell.size()) + " points");
  }
  return out;
}

StatusOr<TriangleMesh> isosurface(const data::DataSet& dataset,
                                  const std::string& array, double isovalue) {
  INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                          dataset.point_fields().require(array));
  return contour_field(dataset, *values, isovalue, *values);
}

StatusOr<TriangleMesh> slice_plane(const data::DataSet& dataset,
                                   const std::string& array,
                                   data::Vec3 origin, data::Vec3 normal) {
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
  return contour_field(dataset, *distance, 0.0, *values);
}

StatusOr<TriangleMesh> slice_axis(const data::DataSet& dataset,
                                  const std::string& array, int axis,
                                  double value) {
  if (axis < 0 || axis > 2) {
    return Status::InvalidArgument("slice_axis: axis must be 0, 1 or 2");
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
  return slice_plane(dataset, array, origin, normal);
}

}  // namespace insitu::analysis
