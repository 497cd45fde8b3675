#include "pal/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define INSITU_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define INSITU_TEST_ASAN 1
#endif
#endif
#ifdef INSITU_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

#include "data/data_array.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::pal {
namespace {

TEST(BufferPool, AcquireReturnsEmptyBufferWithRequestedCapacity) {
  BufferPool pool;
  std::vector<std::byte> buf = pool.acquire(1000);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_GE(buf.capacity(), 1000u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST(BufferPool, RecycleReturnsSameCapacityBuffer) {
  BufferPool pool;
  std::vector<std::byte> buf = pool.acquire(1000);
  buf.resize(1000, std::byte{0x5a});
  const std::size_t capacity = buf.capacity();
  const void* storage = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_GE(pool.free_bytes(), capacity);

  std::vector<std::byte> again = pool.acquire(1000);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(again.size(), 0u);          // recycled buffers come back cleared
  EXPECT_EQ(again.capacity(), capacity);
  EXPECT_EQ(again.data(), storage);     // literally the same allocation
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.free_bytes(), 0u);
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.5);
}

TEST(BufferPool, ReleaseFilesUnderLargestSatisfiedBucket) {
  // A buffer whose capacity is >= 2048 must satisfy any request that
  // rounds up to the 2048 bucket, whatever size it was acquired at.
  BufferPool pool;
  std::vector<std::byte> buf = pool.acquire(1500);
  EXPECT_GE(buf.capacity(), 2048u);  // 1500 rounds up to 2048
  pool.release(std::move(buf));
  std::vector<std::byte> again = pool.acquire(2048);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, EvictsWhenBucketIsFull) {
  BufferPool pool;
  // One more live buffer than a bucket holds, all in the same bucket and
  // released together: the last release overflows the free list.
  std::vector<std::vector<std::byte>> live;
  for (std::size_t i = 0; i <= BufferPool::kMaxBuffersPerBucket; ++i) {
    live.push_back(pool.acquire(4096));
  }
  for (std::vector<std::byte>& buffer : live) pool.release(std::move(buffer));
  EXPECT_EQ(pool.free_buffers(), BufferPool::kMaxBuffersPerBucket);
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPool, OversizeRequestsBypassThePool) {
  // Past the cap, both ways round. The storage is reserved and never
  // touched, so no page of it becomes resident.
  constexpr std::size_t kOversize = BufferPool::kMaxPooledBytes + 1;
  BufferPool pool;
  std::vector<std::byte> big = pool.acquire(kOversize);
  EXPECT_GE(big.capacity(), kOversize);
  pool.release(std::move(big));
  EXPECT_EQ(pool.free_buffers(), 0u);  // never parked
  EXPECT_EQ(pool.stats().evictions, 1u);
  std::vector<std::byte> grown;
  grown.reserve(kOversize);
  pool.release(std::move(grown));
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.stats().evictions, 2u);
  std::vector<std::byte> again = pool.acquire(kOversize);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPool, DisabledPoolAlwaysAllocatesAndFrees) {
  BufferPool pool;
  pool.set_enabled(false);
  EXPECT_FALSE(pool.enabled());
  std::vector<std::byte> buf = pool.acquire(512);
  pool.release(std::move(buf));
  std::vector<std::byte> again = pool.acquire(512);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.free_buffers(), 0u);
}

TEST(BufferPool, SetEnabledFalseDrainsTheFreeList) {
  BufferPool pool;
  pool.release(pool.acquire(256));
  EXPECT_EQ(pool.free_buffers(), 1u);
  pool.set_enabled(false);
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.free_bytes(), 0u);
}

TEST(BufferPool, FreeBytesPeakTracksParkedHighWater) {
  BufferPool pool;
  pool.release(pool.acquire(4096));
  const std::size_t parked = pool.free_bytes();
  EXPECT_GE(parked, 4096u);
  std::vector<std::byte> buf = pool.acquire(4096);  // drains the free list
  EXPECT_EQ(pool.free_bytes(), 0u);
  EXPECT_EQ(pool.free_bytes_peak(), parked);
  pool.release(std::move(buf));
  EXPECT_EQ(pool.free_bytes_peak(), parked);
}

// Counter movement of the calling thread's own pool since `start`.
BufferPoolStats since(const BufferPoolStats& start) {
  const BufferPoolStats& now = buffer_pool().stats();
  BufferPoolStats delta;
  delta.hits = now.hits - start.hits;
  delta.misses = now.misses - start.misses;
  delta.releases = now.releases - start.releases;
  return delta;
}

// Rank MemoryTracker accounting must be identical with pooling on and
// off. Parked buffers are the pool's own bytes, never a rank's.
TEST(BufferPool, RankTrackerAccountingIsUnchangedByPooling) {
  BufferPool& pool = buffer_pool();
  const bool was_enabled = pool.enabled();
  for (const bool enabled : {true, false}) {
    pool.set_enabled(enabled);
    rank_memory_tracker().reset();
    {
      auto a = data::DataArray::create<double>("t", 1000, 1);
      EXPECT_GE(rank_memory_tracker().current_bytes(), 8000u);
    }
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 0u);
    {
      auto b = data::DataArray::create<double>("t", 1000, 1);
      EXPECT_GE(rank_memory_tracker().current_bytes(), 8000u);
      EXPECT_EQ(rank_memory_tracker().high_water_bytes(),
                rank_memory_tracker().current_bytes());
    }
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 0u);
  }
  pool.set_enabled(was_enabled);
}

// With no rank installed, the data model pools through the thread's own
// pool.
TEST(BufferPool, DataArrayStorageRecyclesThroughThreadPool) {
  buffer_pool().clear();
  // Warm the 8 KiB bucket, then verify a same-size create is a pool hit.
  { auto warm = data::DataArray::create<double>("w", 1000, 1); }
  const BufferPoolStats start = buffer_pool().stats();
  {
    auto a = data::DataArray::create<double>("a", 1000, 1);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a->get(i), 0.0);  // zeroed
    a->set(7, 0, 3.5);
  }
  const BufferPoolStats delta = since(start);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_EQ(delta.releases, 1u);
  buffer_pool().clear();
}

TEST(BufferPool, ZeroCopyArraysNeverTouchThePool) {
  const BufferPoolStats start = buffer_pool().stats();
  std::vector<double> sim(64);
  { auto a = data::DataArray::wrap_aos("zc", sim.data(), 64, 1); }
  const BufferPoolStats delta = since(start);
  EXPECT_EQ(delta.releases, 0u);
  EXPECT_EQ(delta.misses, 0u);
}

TEST(PooledBuffer, AcquiresLazilyAndReleasesOnDestruction) {
  buffer_pool().clear();
  const BufferPoolStats start = buffer_pool().stats();
  {
    PooledBuffer lease;  // no pool traffic yet
    EXPECT_EQ(since(start).hits + since(start).misses, 0u);
    std::vector<std::byte>& bytes = lease.bytes();
    bytes.resize(300, std::byte{1});
    EXPECT_EQ(since(start).misses + since(start).hits, 1u);
  }
  EXPECT_EQ(since(start).releases, 1u);
  buffer_pool().clear();
}

TEST(PooledBuffer, MoveTransfersTheLease) {
  buffer_pool().clear();
  const BufferPoolStats start = buffer_pool().stats();
  PooledBuffer a;
  a.bytes().resize(100);
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.bytes().size(), 100u);
  b.reset();
  EXPECT_EQ(since(start).releases, 1u);  // exactly one release
  buffer_pool().clear();
}

// Under ASan a parked buffer is poisoned, so a pointer kept past
// release() (into image planes, DataArray storage, a lease) faults at its
// next use instead of silently reading the buffer's next owner's data.
TEST(BufferPoolAsan, ParkedBuffersArePoisonedUntilAcquired) {
#ifndef INSITU_TEST_ASAN
  GTEST_SKIP() << "AddressSanitizer build only";
#else
  BufferPool pool;
  std::vector<std::byte> buf = pool.acquire(4096);
  buf.resize(4096);
  const std::byte* first = buf.data();
  const std::byte* last = buf.data() + buf.capacity() - 1;
  EXPECT_FALSE(__asan_address_is_poisoned(first));
  pool.release(std::move(buf));
  EXPECT_TRUE(__asan_address_is_poisoned(first));
  EXPECT_TRUE(__asan_address_is_poisoned(last));

  std::vector<std::byte> again = pool.acquire(4096);
  ASSERT_EQ(again.data(), first);
  EXPECT_FALSE(__asan_address_is_poisoned(first));
  EXPECT_FALSE(__asan_address_is_poisoned(last));

  // Pooled DataArray storage is poisoned once the array is destroyed.
  buffer_pool().clear();
  data::DataArrayPtr array = data::DataArray::create<double>("x", 1024, 1);
  const double* values = array->component_base<double>(0);
  array.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(values));
  buffer_pool().clear();  // frees it: unpoisoned first, no report
#endif
}

}  // namespace
}  // namespace insitu::pal
