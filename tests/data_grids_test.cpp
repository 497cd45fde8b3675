#include <gtest/gtest.h>

#include "data/image_data.hpp"
#include "data/multiblock.hpp"
#include "data/rectilinear_grid.hpp"
#include "data/structured_grid.hpp"
#include "data/unstructured_grid.hpp"

namespace insitu::data {
namespace {

ImageDataPtr make_image(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                        std::array<std::int64_t, 3> offset = {0, 0, 0}) {
  IndexBox box;
  box.cells = {nx, ny, nz};
  box.offset = offset;
  return std::make_shared<ImageData>(box, Vec3{0, 0, 0}, Vec3{1, 1, 1});
}

TEST(ImageData, CountsAndDims) {
  auto img = make_image(4, 3, 2);
  EXPECT_EQ(img->num_cells(), 24);
  EXPECT_EQ(img->num_points(), 5 * 4 * 3);
  EXPECT_EQ(img->point_dim(0), 5);
  EXPECT_EQ(img->cell_dim(2), 2);
}

TEST(ImageData, PointCoordinatesIncludeGlobalOffset) {
  auto img = make_image(2, 2, 2, {10, 20, 30});
  const Vec3 p0 = img->point(0);
  EXPECT_EQ(p0.x, 10.0);
  EXPECT_EQ(p0.y, 20.0);
  EXPECT_EQ(p0.z, 30.0);
  const Vec3 plast = img->point(img->num_points() - 1);
  EXPECT_EQ(plast.x, 12.0);
  EXPECT_EQ(plast.y, 22.0);
  EXPECT_EQ(plast.z, 32.0);
}

TEST(ImageData, CellPointsAreHexCorners) {
  auto img = make_image(2, 2, 2);
  std::vector<std::int64_t> pts;
  img->cell_points(0, pts);
  ASSERT_EQ(pts.size(), 8u);
  // First corner is point 0; the +x neighbor is point 1.
  EXPECT_EQ(pts[0], 0);
  EXPECT_EQ(pts[1], 1);
  // All ids valid.
  for (auto id : pts) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, img->num_points());
  }
}

TEST(ImageData, BoundsAndPlaneIntersection) {
  auto img = make_image(4, 4, 4, {4, 0, 0});
  const Bounds b = img->bounds();
  EXPECT_EQ(b.lo.x, 4.0);
  EXPECT_EQ(b.hi.x, 8.0);
  EXPECT_TRUE(img->intersects_plane(0, 5.0));
  EXPECT_TRUE(img->intersects_plane(0, 4.0));  // boundary
  EXPECT_FALSE(img->intersects_plane(0, 3.0));
  EXPECT_TRUE(img->intersects_plane(1, 2.0));
}

TEST(ImageData, GhostCells) {
  auto img = make_image(2, 1, 1);
  auto ghosts = DataArray::create<std::uint8_t>(DataSet::kGhostArrayName,
                                                img->num_cells(), 1);
  ghosts->set(1, 0, kGhostDuplicate);
  img->set_ghost_cells(ghosts);
  EXPECT_FALSE(img->is_ghost_cell(0));
  EXPECT_TRUE(img->is_ghost_cell(1));
}

TEST(Decompose, FactorsMultiplyToRanks) {
  for (int p : {1, 2, 3, 4, 6, 8, 12, 16, 27, 32, 64, 100, 812}) {
    auto f = decompose_factors(p);
    EXPECT_EQ(f[0] * f[1] * f[2], p) << "p=" << p;
  }
}

TEST(Decompose, CoversDomainExactly) {
  const std::array<std::int64_t, 3> global = {65, 33, 17};
  for (int p : {1, 2, 4, 8, 16}) {
    std::int64_t total = 0;
    for (int r = 0; r < p; ++r) {
      const IndexBox box = decompose_regular(global, p, r);
      total += box.cell_count();
      for (int a = 0; a < 3; ++a) {
        const auto ax = static_cast<std::size_t>(a);
        EXPECT_GE(box.offset[ax], 0);
        EXPECT_LE(box.offset[ax] + box.cells[ax], global[ax]);
        EXPECT_GT(box.cells[ax], 0);
      }
    }
    EXPECT_EQ(total, global[0] * global[1] * global[2]) << "p=" << p;
  }
}

TEST(Decompose, DisjointBoxes) {
  const std::array<std::int64_t, 3> global = {16, 16, 16};
  const int p = 8;
  std::vector<IndexBox> boxes;
  for (int r = 0; r < p; ++r) boxes.push_back(decompose_regular(global, p, r));
  for (int a = 0; a < p; ++a) {
    for (int b = a + 1; b < p; ++b) {
      bool overlap = true;
      for (int axis = 0; axis < 3; ++axis) {
        const auto ax = static_cast<std::size_t>(axis);
        if (boxes[a].offset[ax] + boxes[a].cells[ax] <= boxes[b].offset[ax] ||
            boxes[b].offset[ax] + boxes[b].cells[ax] <= boxes[a].offset[ax]) {
          overlap = false;
        }
      }
      EXPECT_FALSE(overlap) << "boxes " << a << " and " << b;
    }
  }
}

TEST(RectilinearGrid, NonUniformCoords) {
  auto x = DataArray::create<double>("x", 3, 1);
  x->set(0, 0, 0.0);
  x->set(1, 0, 1.0);
  x->set(2, 0, 4.0);  // stretched
  auto y = DataArray::create<double>("y", 2, 1);
  y->set(0, 0, 0.0);
  y->set(1, 0, 2.0);
  auto z = DataArray::create<double>("z", 2, 1);
  z->set(0, 0, -1.0);
  z->set(1, 0, 1.0);
  RectilinearGrid grid(x, y, z);
  EXPECT_EQ(grid.num_points(), 12);
  EXPECT_EQ(grid.num_cells(), 2);
  const Vec3 p = grid.point(grid.point_id(2, 1, 1));
  EXPECT_EQ(p.x, 4.0);
  EXPECT_EQ(p.y, 2.0);
  EXPECT_EQ(p.z, 1.0);
  const Bounds b = grid.bounds();
  EXPECT_EQ(b.lo.z, -1.0);
  EXPECT_EQ(b.hi.x, 4.0);
}

TEST(RectilinearGrid, CellPointsValid) {
  auto mkcoords = [](const char* name, int n) {
    auto a = DataArray::create<double>(name, n, 1);
    for (int i = 0; i < n; ++i) a->set(i, 0, i);
    return a;
  };
  RectilinearGrid grid(mkcoords("x", 3), mkcoords("y", 3), mkcoords("z", 2));
  std::vector<std::int64_t> pts;
  for (std::int64_t c = 0; c < grid.num_cells(); ++c) {
    grid.cell_points(c, pts);
    ASSERT_EQ(pts.size(), 8u);
    for (auto id : pts) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, grid.num_points());
    }
  }
}

TEST(StructuredGrid, CurvilinearPoints) {
  // A 2x2x2-point grid warped in x.
  auto pts = DataArray::create<double>("pts", 8, 3);
  int id = 0;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i, ++id) {
        pts->set(id, 0, i + 0.5 * k);  // sheared
        pts->set(id, 1, j);
        pts->set(id, 2, k);
      }
    }
  }
  StructuredGrid grid(pts, {2, 2, 2});
  EXPECT_EQ(grid.num_points(), 8);
  EXPECT_EQ(grid.num_cells(), 1);
  const Vec3 p = grid.point(7);
  EXPECT_EQ(p.x, 1.5);
  std::vector<std::int64_t> cell;
  grid.cell_points(0, cell);
  EXPECT_EQ(cell.size(), 8u);
}

UnstructuredGridPtr make_two_tets() {
  auto pts = DataArray::create<double>("pts", 5, 3);
  const double coords[5][3] = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  for (int i = 0; i < 5; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  return std::make_shared<UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3, 1, 2, 3, 4},
      std::vector<std::int64_t>{0, 4, 8},
      std::vector<CellType>{CellType::kTetra, CellType::kTetra});
}

TEST(UnstructuredGrid, TetMesh) {
  auto grid = make_two_tets();
  EXPECT_EQ(grid->num_points(), 5);
  EXPECT_EQ(grid->num_cells(), 2);
  EXPECT_EQ(grid->cell_type(0), CellType::kTetra);
  std::vector<std::int64_t> cell;
  grid->cell_points(1, cell);
  EXPECT_EQ(cell, (std::vector<std::int64_t>{1, 2, 3, 4}));
  const Bounds b = grid->bounds();
  EXPECT_EQ(b.hi.x, 1.0);
  EXPECT_EQ(b.lo.x, 0.0);
}

TEST(UnstructuredGrid, TopologyIsCharged) {
  // Paper §4.2.1: "the VTK grid connectivity is a full copy" — owned bytes
  // must include the copied topology even when points are zero-copy.
  std::vector<double> sim_points(15);
  auto pts = DataArray::wrap_aos("pts", sim_points.data(), 5, 3);
  UnstructuredGrid grid(pts, {0, 1, 2, 3}, {0, 4}, {CellType::kTetra});
  EXPECT_EQ(pts->owned_bytes(), 0u);
  EXPECT_GT(grid.owned_bytes(), 0u);
}

/// Per-point reference the typed bounds pass must reproduce exactly.
Bounds reference_bounds(const DataSet& grid) {
  Bounds b;
  for (std::int64_t i = 0; i < grid.num_points(); ++i) b.expand(grid.point(i));
  return b;
}

void expect_same_bounds(const Bounds& got, const Bounds& want) {
  EXPECT_EQ(got.lo.x, want.lo.x);
  EXPECT_EQ(got.lo.y, want.lo.y);
  EXPECT_EQ(got.lo.z, want.lo.z);
  EXPECT_EQ(got.hi.x, want.hi.x);
  EXPECT_EQ(got.hi.y, want.hi.y);
  EXPECT_EQ(got.hi.z, want.hi.z);
}

/// 3x4x5 points with scattered, sign-mixed coordinates in `layout`.
template <typename T>
DataArrayPtr scattered_points(Layout layout) {
  auto pts = DataArray::create<T>("pts", 60, 3, layout);
  std::uint32_t state = 12345;
  for (std::int64_t i = 0; i < 60; ++i) {
    for (int c = 0; c < 3; ++c) {
      state = state * 1664525u + 1013904223u;
      pts->set(i, c, static_cast<double>(state >> 8) / (1 << 20) - 7.25);
    }
  }
  return pts;
}

TEST(PointBounds, TypedPassMatchesPerPointReference) {
  for (const Layout layout : {Layout::kAos, Layout::kSoa}) {
    for (const DataArrayPtr& pts :
         {scattered_points<double>(layout), scattered_points<float>(layout),
          scattered_points<std::int32_t>(layout)}) {
      SCOPED_TRACE(::testing::Message()
                   << "type " << static_cast<int>(pts->type())
                   << (layout == Layout::kAos ? " aos" : " soa"));
      const StructuredGrid structured(pts, {3, 4, 5});
      expect_same_bounds(structured.bounds(), reference_bounds(structured));
      const UnstructuredGrid unstructured(pts, {0, 1, 2, 3}, {0, 4},
                                          {CellType::kTetra});
      expect_same_bounds(unstructured.bounds(),
                         reference_bounds(unstructured));
      EXPECT_TRUE(unstructured.bounds().valid());
    }
  }
}

TEST(PointBounds, EmptyGridHasInvalidBounds) {
  for (const DataArrayPtr& pts : {DataArray::create<double>("pts", 0, 3),
                                  DataArray::create<float>("pts", 0, 3)}) {
    const UnstructuredGrid grid(pts, {}, {0}, {});
    const Bounds b = grid.bounds();
    expect_same_bounds(b, Bounds{});
    EXPECT_FALSE(b.valid());
    const StructuredGrid structured(pts, {0, 0, 0});
    EXPECT_FALSE(structured.bounds().valid());
  }
}

TEST(MultiBlock, AggregatesBlocks) {
  MultiBlockDataSet mb(4);
  mb.add_block(1, make_image(2, 2, 2));
  mb.add_block(3, make_image(2, 2, 2, {2, 0, 0}));
  EXPECT_EQ(mb.num_global_blocks(), 4);
  EXPECT_EQ(mb.num_local_blocks(), 2u);
  EXPECT_EQ(mb.block_id(1), 3);
  EXPECT_EQ(mb.local_cells(), 16);
  EXPECT_EQ(mb.local_points(), 2 * 27);
  const Bounds b = mb.local_bounds();
  EXPECT_EQ(b.hi.x, 4.0);
}

TEST(FieldCollection, AddGet) {
  FieldCollection fc;
  fc.add(DataArray::create<double>("a", 3, 1));
  fc.add(DataArray::create<double>("b", 3, 1));
  EXPECT_TRUE(fc.has("a"));
  EXPECT_EQ(fc.count(), 2u);
  EXPECT_NE(fc.get("b"), nullptr);
  EXPECT_EQ(fc.get("c"), nullptr);
  auto required = fc.require("c");
  EXPECT_FALSE(required.ok());
  auto names = fc.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(FieldCollection, ByteAccounting) {
  FieldCollection fc;
  fc.add(DataArray::create<double>("owned", 100, 1));
  std::vector<double> sim(100);
  fc.add(DataArray::wrap_aos("wrapped", sim.data(), 100, 1));
  EXPECT_EQ(fc.owned_bytes(), 800u);
  EXPECT_EQ(fc.payload_bytes(), 1600u);
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ((a + b).x, 5.0);
  EXPECT_EQ((b - a).z, 3.0);
  EXPECT_EQ((a * 2.0).y, 4.0);
  EXPECT_EQ(a.dot(b), 32.0);
  const Vec3 c = Vec3{1, 0, 0}.cross(Vec3{0, 1, 0});
  EXPECT_EQ(c.z, 1.0);
  EXPECT_NEAR((Vec3{3, 4, 0}).norm(), 5.0, 1e-12);
  EXPECT_NEAR((Vec3{3, 4, 0}).normalized().norm(), 1.0, 1e-12);
}

TEST(Bounds, ExpandAndMerge) {
  Bounds b;
  EXPECT_FALSE(b.valid());
  b.expand({1, 1, 1});
  EXPECT_TRUE(b.valid());
  b.expand({-1, 2, 0});
  EXPECT_EQ(b.lo.x, -1.0);
  EXPECT_EQ(b.hi.y, 2.0);
  Bounds other;
  other.expand({5, 5, 5});
  b.merge(other);
  EXPECT_EQ(b.hi.x, 5.0);
  Bounds empty;
  b.merge(empty);  // merging invalid bounds is a no-op
  EXPECT_EQ(b.hi.x, 5.0);
}

}  // namespace
}  // namespace insitu::data
