#pragma once

// BufferPool: size-bucketed recycling of byte buffers for the hot loop.
//
// The paper's per-timestep overhead studies (Figs 3-7) measure what the
// infrastructure adds to every simulation step. Allocation churn is pure
// overhead of that kind: every snapshot, serialization, and staging write
// used to materialize a fresh std::vector<std::byte> per step and free it
// again milliseconds later. The pool parks those buffers on release and
// hands them back on the next acquire, making the steady-state step
// allocation-free.
//
// Design:
//  * Buckets are powers of two. acquire(n) rounds n up to the next bucket
//    and returns an empty (size 0) vector whose capacity is at least n,
//    reusing the smallest adequate parked buffer (the request's bucket or
//    any above it). release() files a buffer under the largest bucket its
//    capacity fills, so any pooled buffer satisfies its parked bucket.
//  * Parked bytes are accounted in an internal MemoryTracker (not the
//    rank trackers: buffers in the free list belong to no rank, and a
//    buffer may be released on a different thread than re-acquires it).
//  * Per-bucket depth is capped; overflow buffers are freed and counted
//    as evictions.
//  * All operations are mutex-protected and safe from any thread; the
//    async execution engine releases snapshot arrays on worker threads
//    while rank threads acquire the next step's arrays.
//
// Stats are exported per run as `pool.*` metrics by comm::Runtime (pal
// cannot depend on obs); see docs/PERFORMANCE.md.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pal/memory_tracker.hpp"

namespace insitu::pal {

/// Monotonic counters. Snapshot with BufferPool::stats(); per-run deltas
/// via BufferPool::stats_since().
struct BufferPoolStats {
  std::uint64_t hits = 0;        ///< acquires served from the free list
  std::uint64_t misses = 0;      ///< acquires that allocated fresh memory
  std::uint64_t evictions = 0;   ///< releases dropped (bucket full / oversize)
  std::uint64_t releases = 0;    ///< total release() calls with capacity
  std::uint64_t bytes_reused = 0;     ///< requested bytes served by hits
  std::uint64_t bytes_allocated = 0;  ///< bucket bytes newly allocated by misses

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

struct BufferPoolOptions {
  /// Smallest bucket; requests below round up to it.
  std::size_t min_bucket_bytes = 64;
  /// Requests above this bypass the pool entirely (always miss, never park).
  std::size_t max_pooled_bytes = std::size_t{256} << 20;
  /// Free-list depth per bucket; further releases evict.
  std::size_t max_buffers_per_bucket = 64;
};

class BufferPool {
 public:
  BufferPool() = default;
  explicit BufferPool(const BufferPoolOptions& options) : options_(options) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty vector with capacity >= bytes (a size-0 buffer: fill
  /// it with resize/insert). Served from the free list when possible.
  std::vector<std::byte> acquire(std::size_t bytes);

  /// Parks the buffer's storage for reuse (or frees it when the bucket is
  /// full, the buffer is oversize, or the pool is disabled).
  void release(std::vector<std::byte>&& buffer);

  /// Disabled: acquire always allocates, release always frees. Used by the
  /// unpooled ablation arm and A/B tests.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Frees every parked buffer (keeps stats). Benches call this between
  /// arms so one configuration cannot warm another's free list.
  void clear();

  /// Zeroes all counters and the parked high-water mark.
  void reset_stats();

  BufferPoolStats stats() const;
  BufferPoolStats stats_since(const BufferPoolStats& start) const;

  std::size_t free_buffers() const;
  std::size_t free_bytes() const { return parked_.current_bytes(); }
  std::size_t free_bytes_peak() const { return parked_.high_water_bytes(); }

  const BufferPoolOptions& options() const { return options_; }

 private:
  static constexpr int kNumBuckets = 48;  // 2^47 ≈ 128 TiB: plenty

  int bucket_for_request(std::size_t bytes) const;   // ceil  pow2 index
  int bucket_for_capacity(std::size_t bytes) const;  // floor pow2 index

  BufferPoolOptions options_;
  std::atomic<bool> enabled_{true};

  mutable std::mutex mutex_;
  std::vector<std::vector<std::byte>> buckets_[kNumBuckets];
  std::size_t free_buffers_ = 0;
  BufferPoolStats stats_;
  MemoryTracker parked_;  // bytes currently parked + high-water mark
};

/// The pool the data model and serialization paths allocate through: the
/// installed RankLocal block's pool (a tenant partition, set per rank by
/// the SPMD runtime), or the process-wide default pool. The default pool
/// is leaked on purpose: DataArray destructors may run during static
/// teardown and must still find a live pool.
BufferPool& buffer_pool();

/// The process-wide default pool, ignoring any installed partition.
/// Benches and the runtime's pool metrics use this when no tenant
/// partition is involved.
BufferPool& default_buffer_pool();

/// RAII lease of a pooled buffer: acquires lazily on first access and
/// releases back to the pool on destruction. Writers hold one per stream
/// so the steady-state step reuses one buffer with zero pool round-trips.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(std::size_t capacity_hint)
      : bytes_(buffer_pool().acquire(capacity_hint)), acquired_(true) {}
  ~PooledBuffer() { reset(); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : bytes_(std::move(other.bytes_)), acquired_(other.acquired_) {
    other.acquired_ = false;
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      bytes_ = std::move(other.bytes_);
      acquired_ = other.acquired_;
      other.acquired_ = false;
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  /// The underlying buffer; acquired from the pool on first use.
  std::vector<std::byte>& bytes() {
    if (!acquired_) {
      bytes_ = buffer_pool().acquire(0);
      acquired_ = true;
    }
    return bytes_;
  }

  /// Returns the storage to the pool now.
  void reset() {
    if (acquired_) {
      buffer_pool().release(std::move(bytes_));
      bytes_ = {};
      acquired_ = false;
    }
  }

 private:
  std::vector<std::byte> bytes_;
  bool acquired_ = false;
};

}  // namespace insitu::pal
