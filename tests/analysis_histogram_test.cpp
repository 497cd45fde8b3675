#include "analysis/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "analysis/statistics.hpp"
#include "comm/runtime.hpp"
#include "data/image_data.hpp"

namespace insitu::analysis {
namespace {

using data::Association;
using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::MultiBlockDataSet;
using data::Vec3;

/// One block per rank: 4x4x4 cells, global 1D decomposition along x, cell
/// scalar = global cell x-index (so values are 0 .. 4p-1).
std::shared_ptr<MultiBlockDataSet> make_mesh(int rank, int size) {
  IndexBox box;
  box.cells = {4, 4, 4};
  box.offset = {4 * rank, 0, 0};
  auto img = std::make_shared<ImageData>(box, Vec3{}, Vec3{1, 1, 1});
  auto values = DataArray::create<double>("xindex", img->num_cells(), 1);
  for (std::int64_t k = 0; k < 4; ++k) {
    for (std::int64_t j = 0; j < 4; ++j) {
      for (std::int64_t i = 0; i < 4; ++i) {
        values->set(img->cell_id(i, j, k), 0,
                    static_cast<double>(box.offset[0] + i));
      }
    }
  }
  img->cell_fields().add(values);
  auto mesh = std::make_shared<MultiBlockDataSet>(size);
  mesh->add_block(rank, img);
  return mesh;
}

class HistogramP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, HistogramP, ::testing::Values(1, 2, 4, 8));

TEST_P(HistogramP, GlobalRangeAndMass) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(comm.rank(), comm.size());
    auto result = compute_histogram(comm, *mesh, "xindex",
                                    Association::kCell, 4 * p);
    if (!result.ok()) {
      ++failures;
      return;
    }
    if (result->min != 0.0) ++failures;
    if (result->max != 4.0 * p - 1.0) ++failures;
    if (comm.rank() == 0) {
      // Every global x-index appears in 16 cells; with 4p bins over values
      // 0..4p-1 each bin holds exactly one index.
      if (result->total() != 64L * p) ++failures;
      for (const auto count : result->bins) {
        if (count != 16) ++failures;
      }
    } else if (!result->bins.empty()) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Histogram, GhostCellsExcluded) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(0, 1);
    auto& block = *mesh->block(0);
    auto ghosts = DataArray::create<std::uint8_t>(
        data::DataSet::kGhostArrayName, block.num_cells(), 1);
    // Blank half the cells.
    for (std::int64_t c = 0; c < block.num_cells() / 2; ++c) {
      ghosts->set(c, 0, data::kGhostDuplicate);
    }
    block.set_ghost_cells(ghosts);
    auto result =
        compute_histogram(comm, *mesh, "xindex", Association::kCell, 8);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->total(), block.num_cells() / 2);
  });
}

TEST(Histogram, RejectsBadBinCount) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(0, 1);
    auto result =
        compute_histogram(comm, *mesh, "xindex", Association::kCell, 0);
    EXPECT_FALSE(result.ok());
  });
}

TEST(Histogram, ConstantFieldLandsInOneBin) {
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(comm.rank(), comm.size());
    auto block = mesh->block(0);
    auto constant = DataArray::create<double>("c", block->num_cells(), 1);
    for (std::int64_t i = 0; i < block->num_cells(); ++i) {
      constant->set(i, 0, 5.0);
    }
    block->cell_fields().add(constant);
    auto result = compute_histogram(comm, *mesh, "c", Association::kCell, 10);
    ASSERT_TRUE(result.ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(result->bins[0], 128);  // degenerate range: all in bin 0
      EXPECT_EQ(result->total(), 128);
    }
  });
}

TEST(Histogram, VirtualTimeCharged) {
  comm::Runtime::Options opts;
  opts.machine = comm::cori_haswell();
  auto report = comm::Runtime::run(4, opts, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(comm.rank(), comm.size());
    (void)compute_histogram(comm, *mesh, "xindex", Association::kCell, 32);
  });
  EXPECT_GT(report.max_virtual_seconds(), 0.0);
}

TEST(Histogram, MultiBlockGatherAndLargeArraysMatchReference) {
  // Two blocks per rank: a float64 cell array of 24^3 = 13,824 values
  // (more than one 8,192-value stretch) and a float32 one, which the
  // histogram reads through the converting gather.
  constexpr int kRanks = 2;
  constexpr int kBins = 37;
  constexpr std::int64_t kBig = 24;
  constexpr std::int64_t kSmall = 6;
  const auto big_value = [](int rank, std::int64_t i) {
    return 100.0 * std::sin(0.37 * static_cast<double>(i) + rank);
  };
  const auto small_value = [](int rank, std::int64_t i) {
    return static_cast<float>(150.0 * std::cos(0.11 * static_cast<double>(i)) -
                              10.0 * rank);
  };
  const auto make_block = [](std::int64_t n, int x_offset) {
    IndexBox box;
    box.cells = {n, n, n};
    box.offset = {x_offset, 0, 0};
    return std::make_shared<ImageData>(box, Vec3{}, Vec3{1, 1, 1});
  };

  // Plain std:: reference over every rank's values.
  std::vector<double> all;
  for (int r = 0; r < kRanks; ++r) {
    for (std::int64_t i = 0; i < kBig * kBig * kBig; ++i) {
      all.push_back(big_value(r, i));
    }
    for (std::int64_t i = 0; i < kSmall * kSmall * kSmall; ++i) {
      all.push_back(static_cast<double>(small_value(r, i)));
    }
  }
  const auto [lo, hi] = std::minmax_element(all.begin(), all.end());
  const double min = *lo;
  const double width = *hi - *lo;
  std::vector<std::int64_t> expected(kBins, 0);
  for (const double x : all) {
    const double scaled = (x - min) / width * kBins;
    const int bin = scaled >= kBins ? kBins - 1 : static_cast<int>(scaled);
    ++expected[static_cast<std::size_t>(bin)];
  }

  std::atomic<int> failures{0};
  comm::Runtime::run(kRanks, [&](comm::Communicator& comm) {
    const int r = comm.rank();
    auto big = make_block(kBig, 0);
    auto big_values = DataArray::create<double>("v", big->num_cells(), 1);
    for (std::int64_t i = 0; i < big->num_cells(); ++i) {
      big_values->set(i, 0, big_value(r, i));
    }
    big->cell_fields().add(big_values);
    auto small = make_block(kSmall, 100);
    auto small_values = DataArray::create<float>("v", small->num_cells(), 1);
    for (std::int64_t i = 0; i < small->num_cells(); ++i) {
      small_values->set(i, 0, small_value(r, i));
    }
    small->cell_fields().add(small_values);
    auto mesh = std::make_shared<MultiBlockDataSet>(2 * kRanks);
    mesh->add_block(2 * r, big);
    mesh->add_block(2 * r + 1, small);

    auto result = compute_histogram(comm, *mesh, "v", Association::kCell,
                                    kBins);
    if (!result.ok() || result->min != min || result->max != *hi) {
      ++failures;
      return;
    }
    if (r == 0 && result->bins != expected) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Statistics, MomentsMatchClosedForm) {
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(comm.rank(), comm.size());
    auto stats =
        compute_statistics(comm, *mesh, "xindex", Association::kCell);
    ASSERT_TRUE(stats.ok());
    // Values 0..15 each appearing 16 times.
    EXPECT_EQ(stats->count, 256);
    EXPECT_EQ(stats->min, 0.0);
    EXPECT_EQ(stats->max, 15.0);
    EXPECT_DOUBLE_EQ(stats->mean, 7.5);
    // Var of uniform 0..15 = (16^2 - 1) / 12.
    EXPECT_NEAR(stats->variance, 255.0 / 12.0, 1e-9);
  });
}

TEST(Statistics, AllRanksReceiveSameResult) {
  std::array<double, 8> means{};
  comm::Runtime::run(8, [&](comm::Communicator& comm) {
    auto mesh = make_mesh(comm.rank(), comm.size());
    auto stats =
        compute_statistics(comm, *mesh, "xindex", Association::kCell);
    means[static_cast<std::size_t>(comm.rank())] = stats->mean;
  });
  for (double m : means) EXPECT_DOUBLE_EQ(m, means[0]);
}

}  // namespace
}  // namespace insitu::analysis
