#include "data/data_array.hpp"

#include <gtest/gtest.h>

#include "pal/memory_tracker.hpp"

namespace insitu::data {
namespace {

TEST(DataArray, CreateOwnedAos) {
  auto a = DataArray::create<double>("velocity", 10, 3, Layout::kAos);
  EXPECT_EQ(a->name(), "velocity");
  EXPECT_EQ(a->type(), DataType::kFloat64);
  EXPECT_EQ(a->num_tuples(), 10);
  EXPECT_EQ(a->num_components(), 3);
  EXPECT_EQ(a->num_values(), 30);
  EXPECT_FALSE(a->is_zero_copy());
  EXPECT_TRUE(a->is_contiguous());
  EXPECT_EQ(a->size_bytes(), 240u);
  EXPECT_EQ(a->owned_bytes(), 240u);
  // Zero-initialized.
  for (int i = 0; i < 10; ++i) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(a->get(i, c), 0.0);
  }
}

TEST(DataArray, SetGetRoundTrip) {
  auto a = DataArray::create<float>("f", 5, 2);
  a->set(3, 1, 2.5);
  a->set(0, 0, -1.0);
  EXPECT_FLOAT_EQ(static_cast<float>(a->get(3, 1)), 2.5f);
  EXPECT_FLOAT_EQ(static_cast<float>(a->get(0, 0)), -1.0f);
}

TEST(DataArray, SoaLayoutComponentsAreContiguousBlocks) {
  auto a = DataArray::create<double>("soa", 4, 2, Layout::kSoa);
  for (int i = 0; i < 4; ++i) {
    a->set(i, 0, i);
    a->set(i, 1, 10 + i);
  }
  const double* c0 = a->component_base<double>(0);
  const double* c1 = a->component_base<double>(1);
  EXPECT_EQ(a->component_stride(0), 1);
  EXPECT_EQ(c1, c0 + 4);  // second block directly after the first
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c0[i], i);
    EXPECT_EQ(c1[i], 10 + i);
  }
}

TEST(DataArray, WrapAosIsZeroCopy) {
  double sim_data[] = {1, 2, 3, 4, 5, 6};  // 2 tuples x 3 comps
  auto a = DataArray::wrap_aos("wrapped", sim_data, 2, 3);
  EXPECT_TRUE(a->is_zero_copy());
  EXPECT_EQ(a->owned_bytes(), 0u);
  EXPECT_EQ(a->get(0, 0), 1.0);
  EXPECT_EQ(a->get(1, 2), 6.0);
  // Writing through the array mutates simulation memory (shared view).
  a->set(0, 1, 99.0);
  EXPECT_EQ(sim_data[1], 99.0);
  // And simulation writes are visible through the array.
  sim_data[5] = -7.0;
  EXPECT_EQ(a->get(1, 2), -7.0);
}

TEST(DataArray, WrapSoaIsZeroCopy) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {4, 5, 6};
  auto a = DataArray::wrap_soa<double>("v", {x.data(), y.data()}, 3);
  EXPECT_TRUE(a->is_zero_copy());
  EXPECT_EQ(a->num_components(), 2);
  EXPECT_EQ(a->get(2, 1), 6.0);
  a->set(1, 0, 20.0);
  EXPECT_EQ(x[1], 20.0);
}

TEST(DataArray, WrapArbitraryStride) {
  // A fortran-ish interleave where we expose every 4th element as one
  // component ("arbitrary layouts" from §3.2).
  std::vector<double> block(16);
  for (int i = 0; i < 16; ++i) block[static_cast<std::size_t>(i)] = i;
  auto a = DataArray::wrap_typed("strided", DataType::kFloat64, 4, 1,
                                 {block.data() + 1}, {4}, Layout::kSoa);
  EXPECT_EQ(a->get(0), 1.0);
  EXPECT_EQ(a->get(1), 5.0);
  EXPECT_EQ(a->get(3), 13.0);
  EXPECT_FALSE(a->is_contiguous());
}

TEST(DataArray, Range) {
  auto a = DataArray::create<double>("r", 5, 2);
  for (int i = 0; i < 5; ++i) {
    a->set(i, 0, i - 2);       // -2..2
    a->set(i, 1, 10.0 * i);    // 0..40
  }
  auto [lo0, hi0] = a->range(0);
  EXPECT_EQ(lo0, -2.0);
  EXPECT_EQ(hi0, 2.0);
  auto [lo1, hi1] = a->range(1);
  EXPECT_EQ(lo1, 0.0);
  EXPECT_EQ(hi1, 40.0);
}

TEST(DataArray, RangeOfEmptyArray) {
  auto a = DataArray::create<double>("e", 0, 1);
  auto [lo, hi] = a->range();
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 0.0);
}

TEST(DataArray, DeepCopyDetaches) {
  double sim_data[] = {1, 2, 3};
  auto wrap = DataArray::wrap_aos("w", sim_data, 3, 1);
  auto copy = wrap->deep_copy();
  EXPECT_FALSE(copy->is_zero_copy());
  sim_data[0] = 42;
  EXPECT_EQ(copy->get(0), 1.0);  // unaffected
  EXPECT_EQ(wrap->get(0), 42.0);
}

TEST(DataArray, DeepCopyOfSoaProducesSameValues) {
  auto a = DataArray::create<double>("s", 3, 2, Layout::kSoa);
  for (int i = 0; i < 3; ++i) {
    a->set(i, 0, i);
    a->set(i, 1, -i);
  }
  auto copy = a->deep_copy();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(copy->get(i, 0), i);
    EXPECT_EQ(copy->get(i, 1), -i);
  }
}

// Golden contract for the bulk-copy fast paths: whatever the source layout
// (contiguous AoS, contiguous SoA, zero-copy SoA wrap, arbitrary stride),
// deep_copy must yield the exact same AoS-packed bytes as the source.
TEST(DataArray, DeepCopyIsByteIdenticalAcrossLayouts) {
  // Contiguous AoS: single-memcpy path; layout is preserved.
  auto aos = DataArray::create<double>("a", 16, 3, Layout::kAos);
  for (int i = 0; i < 16; ++i) {
    for (int c = 0; c < 3; ++c) aos->set(i, c, 100.0 * i + c);
  }
  auto aos_copy = aos->deep_copy();
  EXPECT_EQ(aos_copy->layout(), Layout::kAos);
  EXPECT_TRUE(aos_copy->is_contiguous());
  EXPECT_EQ(aos_copy->to_bytes(), aos->to_bytes());

  // Contiguous SoA: per-component memcpy path; layout is preserved.
  auto soa = DataArray::create<float>("s", 9, 2, Layout::kSoa);
  for (int i = 0; i < 9; ++i) {
    soa->set(i, 0, 1.5f * i);
    soa->set(i, 1, -2.5f * i);
  }
  auto soa_copy = soa->deep_copy();
  EXPECT_EQ(soa_copy->layout(), Layout::kSoa);
  EXPECT_FALSE(soa_copy->is_zero_copy());
  EXPECT_EQ(soa_copy->to_bytes(), soa->to_bytes());

  // Zero-copy SoA wrap (unit strides, non-contiguous storage): copied as
  // owned SoA, bytes unchanged.
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {5, 6, 7, 8};
  auto wrap = DataArray::wrap_soa<double>("w", {x.data(), y.data()}, 4);
  auto wrap_copy = wrap->deep_copy();
  EXPECT_FALSE(wrap_copy->is_zero_copy());
  EXPECT_EQ(wrap_copy->to_bytes(), wrap->to_bytes());

  // Arbitrary stride: typed-gather fallback packs to AoS.
  std::vector<double> block(32);
  for (int i = 0; i < 32; ++i) block[static_cast<std::size_t>(i)] = i;
  auto strided = DataArray::wrap_typed("t", DataType::kFloat64, 8, 1,
                                       {block.data() + 1}, {4}, Layout::kSoa);
  auto strided_copy = strided->deep_copy();
  EXPECT_EQ(strided_copy->layout(), Layout::kAos);
  EXPECT_TRUE(strided_copy->is_contiguous());
  EXPECT_EQ(strided_copy->to_bytes(), strided->to_bytes());
}

TEST(DataArray, ToBytesFromBytesRoundTrip) {
  auto a = DataArray::create<float>("f", 4, 2);
  for (int i = 0; i < 4; ++i) {
    a->set(i, 0, 1.5f * i);
    a->set(i, 1, -0.5f * i);
  }
  auto bytes = a->to_bytes();
  EXPECT_EQ(bytes.size(), a->size_bytes());
  auto back = DataArray::from_bytes("f", DataType::kFloat32, 4, 2, bytes);
  ASSERT_TRUE(back.ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*back)->get(i, 0), a->get(i, 0));
    EXPECT_EQ((*back)->get(i, 1), a->get(i, 1));
  }
}

TEST(DataArray, ToBytesPacksSoaAsAos) {
  std::vector<double> x = {1, 2};
  std::vector<double> y = {3, 4};
  auto a = DataArray::wrap_soa<double>("v", {x.data(), y.data()}, 2);
  auto bytes = a->to_bytes();
  const double* packed = reinterpret_cast<const double*>(bytes.data());
  EXPECT_EQ(packed[0], 1.0);  // tuple 0: (x0, y0)
  EXPECT_EQ(packed[1], 3.0);
  EXPECT_EQ(packed[2], 2.0);  // tuple 1: (x1, y1)
  EXPECT_EQ(packed[3], 4.0);
}

TEST(DataArray, FromBytesSizeMismatchFails) {
  std::vector<std::byte> bytes(7);
  auto r = DataArray::from_bytes("x", DataType::kFloat64, 1, 1, bytes);
  EXPECT_FALSE(r.ok());
}

TEST(DataArray, OwnedAllocationIsTracked) {
  pal::rank_memory_tracker().reset();
  {
    auto a = DataArray::create<double>("tracked", 1000, 1);
    EXPECT_GE(pal::rank_memory_tracker().current_bytes(), 8000u);
  }
  EXPECT_EQ(pal::rank_memory_tracker().current_bytes(), 0u);
}

TEST(DataArray, ZeroCopyWrapIsNotTracked) {
  pal::rank_memory_tracker().reset();
  std::vector<double> sim(1000);
  auto a = DataArray::wrap_aos("zc", sim.data(), 1000, 1);
  EXPECT_EQ(pal::rank_memory_tracker().current_bytes(), 0u);
}

TEST(DataTypes, Sizes) {
  EXPECT_EQ(size_of(DataType::kFloat32), 4u);
  EXPECT_EQ(size_of(DataType::kFloat64), 8u);
  EXPECT_EQ(size_of(DataType::kInt32), 4u);
  EXPECT_EQ(size_of(DataType::kInt64), 8u);
  EXPECT_EQ(size_of(DataType::kUInt8), 1u);
}

TEST(DataArray, IntTypesRoundTripThroughDouble) {
  auto a = DataArray::create<std::int64_t>("i64", 2, 1);
  a->set(0, 0, 1234567.0);
  EXPECT_EQ(a->get(0), 1234567.0);
  auto b = DataArray::create<std::uint8_t>("u8", 2, 1);
  b->set(1, 0, 200.0);
  EXPECT_EQ(b->get(1), 200.0);
}

}  // namespace
}  // namespace insitu::data
