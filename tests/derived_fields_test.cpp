#include "analysis/derived.hpp"

#include <gtest/gtest.h>

#include "data/image_data.hpp"

namespace insitu::analysis {
namespace {

using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::Vec3;

std::shared_ptr<ImageData> make_grid(std::int64_t n) {
  IndexBox box;
  box.cells = {n, n, n};
  return std::make_shared<ImageData>(box, Vec3{}, Vec3{1, 1, 1});
}

TEST(CellToPoint, ConstantFieldIsPreserved) {
  auto grid = make_grid(4);
  auto cells = DataArray::create<double>("c", grid->num_cells(), 1);
  for (std::int64_t i = 0; i < grid->num_cells(); ++i) cells->set(i, 0, 7.5);
  auto points = cell_data_to_point_data(*grid, *cells, "p");
  ASSERT_TRUE(points.ok());
  for (std::int64_t i = 0; i < grid->num_points(); ++i) {
    EXPECT_DOUBLE_EQ((*points)->get(i), 7.5);
  }
}

TEST(CellToPoint, LinearFieldRecoveredAtInteriorPoints) {
  // Cell values = x coordinate of cell center. Interior point averages
  // reproduce the linear ramp exactly.
  auto grid = make_grid(6);
  auto cells = DataArray::create<double>("c", grid->num_cells(), 1);
  for (std::int64_t k = 0; k < 6; ++k) {
    for (std::int64_t j = 0; j < 6; ++j) {
      for (std::int64_t i = 0; i < 6; ++i) {
        cells->set(grid->cell_id(i, j, k), 0, i + 0.5);
      }
    }
  }
  auto points = cell_data_to_point_data(*grid, *cells, "p");
  ASSERT_TRUE(points.ok());
  // Interior point (3, 3, 3): average of cells with centers 2.5 and 3.5.
  EXPECT_DOUBLE_EQ((*points)->get(grid->point_id(3, 3, 3)), 3.0);
  // Boundary point (0, 3, 3): only cells with center 0.5 touch it.
  EXPECT_DOUBLE_EQ((*points)->get(grid->point_id(0, 3, 3)), 0.5);
}

TEST(CellToPoint, GhostCellsExcluded) {
  auto grid = make_grid(2);
  auto cells = DataArray::create<double>("c", grid->num_cells(), 1);
  for (std::int64_t i = 0; i < grid->num_cells(); ++i) {
    cells->set(i, 0, 100.0);
  }
  auto ghosts = DataArray::create<std::uint8_t>(
      data::DataSet::kGhostArrayName, grid->num_cells(), 1);
  for (std::int64_t i = 0; i < grid->num_cells(); ++i) {
    ghosts->set(i, 0, data::kGhostDuplicate);
  }
  grid->set_ghost_cells(ghosts);
  auto points = cell_data_to_point_data(*grid, *cells, "p");
  ASSERT_TRUE(points.ok());
  // Every cell is ghost: all points get the 0 fallback.
  for (std::int64_t i = 0; i < grid->num_points(); ++i) {
    EXPECT_DOUBLE_EQ((*points)->get(i), 0.0);
  }
}

TEST(CellToPoint, WrongSizeRejected) {
  auto grid = make_grid(2);
  auto bogus = DataArray::create<double>("c", 5, 1);
  EXPECT_FALSE(cell_data_to_point_data(*grid, *bogus, "p").ok());
}

}  // namespace
}  // namespace insitu::analysis
