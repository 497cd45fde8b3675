#include "analysis/contour.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analysis/derived.hpp"
#include "data/image_data.hpp"
#include "data/rectilinear_grid.hpp"
#include "data/unstructured_grid.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {
namespace {

using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::Vec3;

/// Uniform grid [0,n]^3 with a per-point scalar from a lambda.
template <typename F>
std::shared_ptr<ImageData> make_field(std::int64_t n, F&& f) {
  IndexBox box;
  box.cells = {n, n, n};
  auto img = std::make_shared<ImageData>(box, Vec3{}, Vec3{1, 1, 1});
  auto values = DataArray::create<double>("s", img->num_points(), 1);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    values->set(i, 0, f(img->point(i)));
  }
  img->point_fields().add(values);
  return img;
}

TEST(SliceAxis, PlanarSliceLiesOnPlane) {
  auto img = make_field(8, [](const Vec3& p) { return p.x + p.y; });
  auto mesh = slice_axis(*img, "s", /*axis=*/2, /*value=*/3.5);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR(v.z, 3.5, 1e-9);
  }
}

TEST(SliceAxis, ScalarInterpolatedOntoSlice) {
  auto img = make_field(8, [](const Vec3& p) { return 2.0 * p.x; });
  auto mesh = slice_axis(*img, "s", 2, 4.0);
  ASSERT_TRUE(mesh.ok());
  for (std::size_t i = 0; i < mesh->vertices.size(); ++i) {
    EXPECT_NEAR(mesh->scalars[i], 2.0 * mesh->vertices[i].x, 1e-9);
  }
}

TEST(SliceAxis, SliceAreaMatchesDomainCrossSection) {
  auto img = make_field(8, [](const Vec3& p) { return p.x; });
  auto mesh = slice_axis(*img, "s", 0, 2.5);
  ASSERT_TRUE(mesh.ok());
  // Sum of triangle areas should equal the 8x8 cross-section.
  double area = 0.0;
  for (const auto& tri : mesh->triangles) {
    const Vec3 a = mesh->vertices[static_cast<std::size_t>(tri[0])];
    const Vec3 b = mesh->vertices[static_cast<std::size_t>(tri[1])];
    const Vec3 c = mesh->vertices[static_cast<std::size_t>(tri[2])];
    area += 0.5 * (b - a).cross(c - a).norm();
  }
  EXPECT_NEAR(area, 64.0, 1e-6);
}

TEST(SliceAxis, MissedPlaneProducesEmptyMesh) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });
  auto mesh = slice_axis(*img, "s", 1, 100.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_TRUE(mesh->empty());
}

TEST(SliceAxis, InvalidAxisRejected)
{
  auto img = make_field(2, [](const Vec3& p) { return p.x; });
  EXPECT_FALSE(slice_axis(*img, "s", 3, 0.0).ok());
  EXPECT_FALSE(slice_axis(*img, "s", -1, 0.0).ok());
}

TEST(SliceAxis, MissingArrayRejected) {
  auto img = make_field(2, [](const Vec3& p) { return p.x; });
  EXPECT_FALSE(slice_axis(*img, "nope", 0, 1.0).ok());
}

// ---- slice_axis's layer cull vs the general contour path ----

double axis_of(const Vec3& p, int axis) {
  return axis == 0 ? p.x : axis == 1 ? p.y : p.z;
}

/// A non-trivial per-point scalar, and every third cell a ghost when
/// `ghosts` is set.
void add_fields(data::DataSet& ds, bool ghosts) {
  auto values = DataArray::create<double>("s", ds.num_points(), 1);
  for (std::int64_t i = 0; i < ds.num_points(); ++i) {
    const Vec3 p = ds.point(i);
    values->set(i, 0, std::sin(1.3 * p.x) * std::cos(0.7 * p.y) + 0.2 * p.z);
  }
  ds.point_fields().add(values);
  if (ghosts) {
    auto g = DataArray::create<std::uint8_t>(data::DataSet::kGhostArrayName,
                                             ds.num_cells(), 1);
    for (std::int64_t c = 0; c < ds.num_cells(); ++c) {
      g->set(c, 0, c % 3 == 1 ? data::kGhostDuplicate : 0);
    }
    ds.set_ghost_cells(g);
  }
}

/// ImageData with an offset box, a non-zero origin and unequal spacing.
std::shared_ptr<ImageData> offset_image(bool ghosts) {
  IndexBox box;
  box.cells = {5, 6, 7};
  box.offset = {2, 1, 3};
  auto img = std::make_shared<ImageData>(box, Vec3{-1.25, 0.5, 2.0},
                                         Vec3{0.3, 0.7, 0.45});
  add_fields(*img, ghosts);
  return img;
}

/// RectilinearGrid with non-uniform coordinates on every axis.
std::shared_ptr<data::RectilinearGrid> uneven_grid(bool ghosts) {
  auto axis = [](const char* name, std::vector<double> c) {
    auto a = DataArray::create<double>(name, static_cast<std::int64_t>(c.size()), 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      a->set(static_cast<std::int64_t>(i), 0, c[i]);
    }
    return a;
  };
  auto grid = std::make_shared<data::RectilinearGrid>(
      axis("x", {0.0, 0.1, 0.35, 0.4, 1.0, 1.7}),
      axis("y", {-2.0, -1.5, -1.45, 0.0, 0.3}),
      axis("z", {3.0, 3.25, 4.0, 4.1, 4.2, 5.5, 6.0}));
  add_fields(*grid, ghosts);
  return grid;
}

/// What slice_axis must equal: contour_field over the plane_distance
/// field of the axis plane, every cell visited.
TriangleMesh reference_slice(const data::DataSet& ds, int axis, double value) {
  const std::int64_t n = ds.num_points();
  std::vector<double> x(static_cast<std::size_t>(n)),
      y(static_cast<std::size_t>(n)), z(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const Vec3 p = ds.point(i);
    x[static_cast<std::size_t>(i)] = p.x;
    y[static_cast<std::size_t>(i)] = p.y;
    z[static_cast<std::size_t>(i)] = p.z;
  }
  auto dist = DataArray::create<double>("plane_distance", n, 1);
  kernels::plane_distance(x.data(), y.data(), z.data(), n,
                          axis == 0 ? value : 0.0, axis == 1 ? value : 0.0,
                          axis == 2 ? value : 0.0, axis == 0 ? 1.0 : 0.0,
                          axis == 1 ? 1.0 : 0.0, axis == 2 ? 1.0 : 0.0,
                          dist->component_base<double>(0));
  auto values = ds.point_fields().require("s");
  auto mesh = contour_field(ds, *dist, 0.0, **values);
  EXPECT_TRUE(mesh.ok());
  return mesh.ok() ? *mesh : TriangleMesh{};
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Plane positions along `axis`: on every point plane (the block's lo
/// and hi faces included), between each pair of neighbours, and outside
/// on both sides.
std::vector<double> plane_values(const data::DataSet& ds, int axis,
                                 std::int64_t planes,
                                 std::int64_t point_stride) {
  std::vector<double> at;
  for (std::int64_t k = 0; k < planes; ++k) {
    at.push_back(axis_of(ds.point(k * point_stride), axis));
  }
  std::vector<double> values = at;
  for (std::size_t k = 0; k + 1 < at.size(); ++k) {
    values.push_back(0.5 * (at[k] + at[k + 1]));
  }
  values.push_back(at.front() - 1.0);
  values.push_back(at.back() + 1.0);
  return values;
}

TEST(SliceAxis, LayerCullEqualsFullContourBitForBit) {
  int nonempty = 0, cases = 0;
  for (const bool ghosts : {false, true}) {
    const std::shared_ptr<data::DataSet> blocks[] = {offset_image(ghosts),
                                                     uneven_grid(ghosts)};
    for (const auto& ds : blocks) {
      // Point counts per axis, and the id stride between point planes.
      std::array<std::int64_t, 3> dims{};
      if (ds->kind() == data::DataSetKind::kImageData) {
        const auto& g = static_cast<const ImageData&>(*ds);
        dims = {g.point_dim(0), g.point_dim(1), g.point_dim(2)};
      } else {
        const auto& g = static_cast<const data::RectilinearGrid&>(*ds);
        dims = {g.point_dim(0), g.point_dim(1), g.point_dim(2)};
      }
      const std::array<std::int64_t, 3> stride = {1, dims[0],
                                                  dims[0] * dims[1]};
      for (int axis = 0; axis < 3; ++axis) {
        const auto a = static_cast<std::size_t>(axis);
        for (const double value :
             plane_values(*ds, axis, dims[a], stride[a])) {
          SCOPED_TRACE(::testing::Message()
                       << data::to_string(ds->kind()) << " ghosts=" << ghosts
                       << " axis=" << axis << " value=" << value);
          auto got = slice_axis(*ds, "s", axis, value);
          ASSERT_TRUE(got.ok());
          const TriangleMesh want = reference_slice(*ds, axis, value);
          EXPECT_TRUE(same_bits(got->vertices, want.vertices));
          EXPECT_TRUE(same_bits(got->scalars, want.scalars));
          EXPECT_EQ(got->triangles, want.triangles);
          ++cases;
          nonempty += want.empty() ? 0 : 1;
        }
      }
    }
  }
  // Most planes cut the block: f >= 0 holds on the lo face, so a plane
  // there, like one outside, cuts nothing.
  EXPECT_GT(nonempty, cases / 2);
}

// The appending forms equal value form + TriangleMesh::append bit for bit,
// and a mesh cleared between steps reuses its capacity.
TEST(SliceAxis, AppendFormEqualsValueFormPlusAppend) {
  auto a = make_field(8, [](const Vec3& p) { return p.x + 0.5 * p.y; });
  auto b = make_field(6, [](const Vec3& p) { return p.z - p.x; });
  TriangleMesh want;
  TriangleMesh got;
  for (int step = 0; step < 2; ++step) {
    want = TriangleMesh{};
    got.clear();
    for (const auto* ds : {a.get(), b.get()}) {
      auto slice = slice_axis(*ds, "s", 2, 2.5);
      ASSERT_TRUE(slice.ok());
      want.append(*slice);
      ASSERT_TRUE(slice_axis(*ds, "s", 2, 2.5, got).ok());
      auto iso = isosurface(*ds, "s", 3.0);
      ASSERT_TRUE(iso.ok());
      want.append(*iso);
      ASSERT_TRUE(isosurface(*ds, "s", 3.0, got).ok());
    }
    EXPECT_TRUE(same_bits(got.vertices, want.vertices));
    EXPECT_TRUE(same_bits(got.scalars, want.scalars));
    EXPECT_EQ(got.triangles, want.triangles);
  }
  const void* storage = got.vertices.data();
  got.clear();
  ASSERT_TRUE(slice_axis(*a, "s", 2, 2.5, got).ok());
  EXPECT_EQ(got.vertices.data(), storage);
  EXPECT_FALSE(slice_axis(*a, "s", 3, 0.0, got).ok());
}

TEST(Isosurface, SphereSurfaceHasCorrectRadius) {
  const Vec3 center{8, 8, 8};
  auto img = make_field(16, [&](const Vec3& p) { return (p - center).norm(); });
  auto mesh = isosurface(*img, "s", /*isovalue=*/5.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  // Every vertex sits (to linear-interpolation accuracy) near radius 5.
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - center).norm(), 5.0, 0.15);
  }
  // Surface area ~ 4 pi r^2 within discretization error.
  double area = 0.0;
  for (const auto& tri : mesh->triangles) {
    const Vec3 a = mesh->vertices[static_cast<std::size_t>(tri[0])];
    const Vec3 b = mesh->vertices[static_cast<std::size_t>(tri[1])];
    const Vec3 c = mesh->vertices[static_cast<std::size_t>(tri[2])];
    area += 0.5 * (b - a).cross(c - a).norm();
  }
  EXPECT_NEAR(area, 4.0 * M_PI * 25.0, 0.05 * 4.0 * M_PI * 25.0);
}

TEST(Isosurface, EmptyWhenIsovalueOutsideRange) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });  // 0..4
  auto mesh = isosurface(*img, "s", 10.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_TRUE(mesh->empty());
}

TEST(Isosurface, GhostCellsSkipped) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });
  auto no_ghost = isosurface(*img, "s", 2.0);
  ASSERT_TRUE(no_ghost.ok());
  auto ghosts = DataArray::create<std::uint8_t>(
      data::DataSet::kGhostArrayName, img->num_cells(), 1);
  for (std::int64_t c = 0; c < img->num_cells(); ++c) {
    ghosts->set(c, 0, data::kGhostDuplicate);
  }
  img->set_ghost_cells(ghosts);
  auto all_ghost = isosurface(*img, "s", 2.0);
  ASSERT_TRUE(all_ghost.ok());
  EXPECT_FALSE(no_ghost->empty());
  EXPECT_TRUE(all_ghost->empty());
}

TEST(SlicePlane, ObliquePlane) {
  auto img = make_field(8, [](const Vec3& p) { return p.z; });
  const Vec3 origin{4, 4, 4};
  const Vec3 normal = Vec3{1, 1, 1}.normalized();
  auto mesh = slice_plane(*img, "s", origin, normal);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - origin).dot(normal), 0.0, 1e-9);
  }
}

TEST(ContourField, TetrahedralMesh) {
  // Single tet spanning the unit corner; contour f = x at 0.25.
  auto pts = DataArray::create<double>("pts", 4, 3);
  const double coords[4][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  auto grid = std::make_shared<data::UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3},
      std::vector<std::int64_t>{0, 4},
      std::vector<data::CellType>{data::CellType::kTetra});
  auto f = DataArray::create<double>("f", 4, 1);
  for (int i = 0; i < 4; ++i) f->set(i, 0, coords[i][0]);  // f = x
  grid->point_fields().add(f);
  auto mesh = isosurface(*grid, "f", 0.25);
  ASSERT_TRUE(mesh.ok());
  ASSERT_EQ(mesh->num_triangles(), 1u);  // one-vertex-separated case
  for (const auto& v : mesh->vertices) EXPECT_NEAR(v.x, 0.25, 1e-12);
}

TEST(ContourField, TwoVertexCaseEmitsQuad) {
  auto pts = DataArray::create<double>("pts", 4, 3);
  const double coords[4][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  auto grid = std::make_shared<data::UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3},
      std::vector<std::int64_t>{0, 4},
      std::vector<data::CellType>{data::CellType::kTetra});
  auto f = DataArray::create<double>("f", 4, 1);
  // Vertices 0 and 1 below, 2 and 3 above the isovalue.
  f->set(0, 0, 0.0);
  f->set(1, 0, 0.0);
  f->set(2, 0, 1.0);
  f->set(3, 0, 1.0);
  grid->point_fields().add(f);
  auto mesh = isosurface(*grid, "f", 0.5);
  ASSERT_TRUE(mesh.ok());
  EXPECT_EQ(mesh->num_triangles(), 2u);  // quad split into two triangles
}

TEST(ContourField, UnsupportedCellIsUnimplemented) {
  // A quad is neither a tet nor an 8-point hexahedron.
  auto pts = DataArray::create<double>("pts", 4, 3);
  const double coords[4][3] = {{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  auto grid = std::make_shared<data::UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3},
      std::vector<std::int64_t>{0, 4},
      std::vector<data::CellType>{data::CellType::kQuad});
  auto f = DataArray::create<double>("f", 4, 1);
  for (int i = 0; i < 4; ++i) f->set(i, 0, coords[i][0]);  // f = x
  grid->point_fields().add(f);
  auto mesh = isosurface(*grid, "f", 0.5);
  ASSERT_FALSE(mesh.ok());
  EXPECT_EQ(mesh.status().code(), StatusCode::kUnimplemented);
}

TEST(TriangleMesh, WeldMergesSharedVertices) {
  // Two triangles sharing an edge, stored as 6 duplicated vertices.
  TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                   {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  mesh.scalars = {1, 2, 3, 2, 4, 3};
  mesh.triangles = {{0, 1, 2}, {3, 4, 5}};
  mesh.weld();
  EXPECT_EQ(mesh.num_vertices(), 4u);
  EXPECT_EQ(mesh.num_triangles(), 2u);
  // Scalars follow their vertices.
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    if (mesh.vertices[i].x == 1.0 && mesh.vertices[i].y == 1.0) {
      EXPECT_EQ(mesh.scalars[i], 4.0);
    }
  }
}

TEST(TriangleMesh, WeldDropsDegenerateTriangles) {
  TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {0, 0, 1e-12}, {1, 0, 0}};  // first two weld
  mesh.scalars = {0, 0, 0};
  mesh.triangles = {{0, 1, 2}};
  mesh.weld(1e-9);
  EXPECT_EQ(mesh.num_vertices(), 2u);
  EXPECT_TRUE(mesh.triangles.empty());
}

TEST(TriangleMesh, WeldShrinksMarchingTetOutput) {
  const Vec3 center{8, 8, 8};
  auto img = make_field(16, [&](const Vec3& p) { return (p - center).norm(); });
  auto mesh = isosurface(*img, "s", 5.0);
  ASSERT_TRUE(mesh.ok());
  const std::size_t before = mesh->num_vertices();
  const std::size_t tris_before = mesh->num_triangles();
  mesh->weld();
  EXPECT_LT(mesh->num_vertices(), before / 3);  // heavy duplication removed
  // Only zero-area slivers (coincident cut points) may be dropped.
  EXPECT_LE(mesh->num_triangles(), tris_before);
  EXPECT_GT(mesh->num_triangles(), 4 * tris_before / 5);
  // Geometry preserved: all vertices still on the sphere.
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - center).norm(), 5.0, 0.15);
  }
}

TEST(TriangleMesh, WeldOnEmptyMeshIsNoop) {
  TriangleMesh mesh;
  mesh.weld();
  EXPECT_TRUE(mesh.empty());
}

TEST(TriangleMesh, AppendRebasesIndices) {
  TriangleMesh a;
  a.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  a.scalars = {0, 1, 2};
  a.triangles = {{0, 1, 2}};
  TriangleMesh b = a;
  a.append(b);
  ASSERT_EQ(a.num_triangles(), 2u);
  EXPECT_EQ(a.triangles[1][0], 3);
  EXPECT_EQ(a.num_vertices(), 6u);
  EXPECT_GT(a.size_bytes(), 0u);
}

TEST(Derived, VelocityMagnitude) {
  auto vel = DataArray::create<double>("v", 2, 3);
  vel->set(0, 0, 3.0);
  vel->set(0, 1, 4.0);
  vel->set(1, 2, -2.0);
  auto mag = velocity_magnitude(*vel, "vmag");
  ASSERT_TRUE(mag.ok());
  EXPECT_NEAR((*mag)->get(0), 5.0, 1e-12);
  EXPECT_NEAR((*mag)->get(1), 2.0, 1e-12);
}

TEST(Derived, VelocityMagnitudeRequiresThreeComponents) {
  auto bad = DataArray::create<double>("v", 2, 2);
  EXPECT_FALSE(velocity_magnitude(*bad, "m").ok());
}

TEST(Derived, VorticityOfRigidRotation) {
  // u = (-y, x, 0): curl = (0, 0, 2) everywhere, |curl| = 2.
  IndexBox box;
  box.cells = {8, 8, 2};
  ImageData grid(box, Vec3{-4, -4, 0}, Vec3{1, 1, 1});
  auto vel = DataArray::create<double>("v", grid.num_points(), 3);
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    const Vec3 p = grid.point(i);
    vel->set(i, 0, -p.y);
    vel->set(i, 1, p.x);
    vel->set(i, 2, 0.0);
  }
  auto w = vorticity_magnitude(grid, *vel, "wmag");
  ASSERT_TRUE(w.ok());
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_NEAR((*w)->get(i), 2.0, 1e-9) << "point " << i;
  }
}

TEST(Derived, VorticityOfUniformFlowIsZero) {
  IndexBox box;
  box.cells = {4, 4, 4};
  ImageData grid(box, Vec3{}, Vec3{1, 1, 1});
  auto vel = DataArray::create<double>("v", grid.num_points(), 3);
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    vel->set(i, 0, 1.0);
    vel->set(i, 1, 2.0);
    vel->set(i, 2, 3.0);
  }
  auto w = vorticity_magnitude(grid, *vel, "wmag");
  ASSERT_TRUE(w.ok());
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_NEAR((*w)->get(i), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace insitu::analysis
