#include "analysis/bitmap_index.hpp"

#include <gtest/gtest.h>

#include "pal/rng.hpp"

namespace insitu::analysis {
namespace {

TEST(Bitmap, BuildAndTest) {
  Bitmap::Builder builder;
  const std::vector<bool> pattern = {1, 0, 0, 1, 1, 0, 1};
  for (const bool b : pattern) builder.append(b);
  Bitmap bitmap = builder.finish();
  EXPECT_EQ(bitmap.size_bits(), 7);
  EXPECT_EQ(bitmap.count(), 4);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    EXPECT_EQ(bitmap.test(static_cast<std::int64_t>(i)), pattern[i]) << i;
  }
  EXPECT_EQ(bitmap.to_bools(), pattern);
}

TEST(Bitmap, LongRunsCompressToFillWords) {
  Bitmap::Builder builder;
  builder.append_run(false, 31 * 1000);
  builder.append_run(true, 31 * 1000);
  Bitmap bitmap = builder.finish();
  EXPECT_EQ(bitmap.size_bits(), 62000);
  EXPECT_EQ(bitmap.count(), 31000);
  // Two fill words instead of 2000 literals.
  EXPECT_LE(bitmap.compressed_bytes(), 4u * 4u);
  EXPECT_FALSE(bitmap.test(0));
  EXPECT_FALSE(bitmap.test(30999));
  EXPECT_TRUE(bitmap.test(31000));
  EXPECT_TRUE(bitmap.test(61999));
}

TEST(Bitmap, AppendRunMatchesBitByBit) {
  pal::Rng rng(4);
  Bitmap::Builder fast, slow;
  std::vector<bool> reference;
  for (int run = 0; run < 50; ++run) {
    const bool bit = rng.next_below(2) == 1;
    const auto count = static_cast<std::int64_t>(rng.next_below(100));
    fast.append_run(bit, count);
    for (std::int64_t i = 0; i < count; ++i) {
      slow.append(bit);
      reference.push_back(bit);
    }
  }
  Bitmap a = fast.finish();
  Bitmap b = slow.finish();
  EXPECT_EQ(a.to_bools(), reference);
  EXPECT_EQ(b.to_bools(), reference);
  EXPECT_EQ(a.count(), b.count());
}

TEST(Bitmap, ForEachSetVisitsInOrder) {
  Bitmap::Builder builder;
  builder.append_run(false, 100);
  builder.append(true);
  builder.append_run(false, 60);
  builder.append(true);
  Bitmap bitmap = builder.finish();
  std::vector<std::int64_t> positions;
  bitmap.for_each_set([&](std::int64_t i) { positions.push_back(i); });
  EXPECT_EQ(positions, (std::vector<std::int64_t>{100, 161}));
}

TEST(Bitmap, LogicalOr) {
  Bitmap::Builder ba, bb;
  for (int i = 0; i < 100; ++i) ba.append(i % 3 == 0);
  for (int i = 0; i < 100; ++i) bb.append(i % 5 == 0);
  Bitmap merged = Bitmap::logical_or(ba.finish(), bb.finish());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(merged.test(i), i % 3 == 0 || i % 5 == 0) << i;
  }
}

data::DataArrayPtr ramp_array(std::int64_t n) {
  auto a = data::DataArray::create<double>("v", n, 1);
  for (std::int64_t i = 0; i < n; ++i) {
    a->set(i, 0, static_cast<double>(i));
  }
  return a;
}

TEST(BitmapIndex, BinsPartitionRows) {
  auto values = ramp_array(1000);
  auto index = BitmapIndex::build(*values, 10);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_bins(), 10);
  EXPECT_EQ(index->num_rows(), 1000);
  std::int64_t total = 0;
  for (int b = 0; b < 10; ++b) total += index->bin(b).count();
  EXPECT_EQ(total, 1000);  // every row in exactly one bin
  // A uniform ramp: each bin holds ~100 rows.
  for (int b = 0; b < 10; ++b) {
    EXPECT_NEAR(static_cast<double>(index->bin(b).count()), 100.0, 2.0);
  }
}

TEST(BitmapIndex, RangeQueryNeverMisses) {
  auto values = ramp_array(500);
  auto index = BitmapIndex::build(*values, 16);
  ASSERT_TRUE(index.ok());
  pal::Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    double lo = rng.uniform(0.0, 499.0);
    double hi = rng.uniform(0.0, 499.0);
    if (lo > hi) std::swap(lo, hi);
    const Bitmap candidates = index->query_range(lo, hi);
    // Every true match is a candidate.
    for (std::int64_t i = 0; i < 500; ++i) {
      const double v = values->get(i);
      if (v >= lo && v <= hi) {
        EXPECT_TRUE(candidates.test(i)) << "missed row " << i;
      }
    }
  }
}

TEST(BitmapIndex, CandidateCheckGivesExactCounts) {
  auto values = ramp_array(500);
  auto index = BitmapIndex::build(*values, 16);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->count_range(*values, 100.0, 199.0), 100);
  EXPECT_EQ(index->count_range(*values, 0.0, 499.0), 500);
  EXPECT_EQ(index->count_range(*values, 250.5, 250.9), 0);
  EXPECT_EQ(index->count_range(*values, -50.0, -1.0), 0);
  EXPECT_EQ(index->count_range(*values, 499.0, 1e9), 1);
}

TEST(BitmapIndex, ConstantFieldIndexIsTiny) {
  auto a = data::DataArray::create<double>("c", 100000, 1);
  for (std::int64_t i = 0; i < 100000; ++i) a->set(i, 0, 3.0);
  auto index = BitmapIndex::build(*a, 32);
  ASSERT_TRUE(index.ok());
  // One bin is a single all-ones fill run; the rest are all-zero runs.
  EXPECT_LT(index->compressed_bytes(), 32u * 12u);
  EXPECT_EQ(index->count_range(*a, 2.0, 4.0), 100000);
}

TEST(BitmapIndex, RejectsBadBins) {
  auto values = ramp_array(10);
  EXPECT_FALSE(BitmapIndex::build(*values, 0).ok());
}

}  // namespace
}  // namespace insitu::analysis
