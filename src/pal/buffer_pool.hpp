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
//  * One pool per rank, owned like the rank's MemoryTracker: the SPMD
//    runtime creates it for the rank body and installs it in the rank's
//    RankLocal block; an async worker gets a pool of its own from its
//    bridge; a thread that runs no rank uses its own thread pool. No pool
//    is ever touched by two threads, so there is no lock, and a run's
//    counters depend only on what its ranks did, never on timing.
//  * Buckets are powers of two. acquire(n) rounds n up to the next bucket
//    and returns an empty (size 0) vector whose capacity is at least n,
//    reusing the smallest adequate parked buffer (the request's bucket or
//    any above it). release() files a buffer under the largest bucket its
//    capacity fills, so any pooled buffer satisfies its parked bucket.
//  * Parked bytes are the pool's own, never a rank tracker's, so tracked
//    footprints and quotas are the same with pooling on or off.
//  * Under AddressSanitizer a parked buffer's capacity is poisoned until
//    it is acquired again (or freed), so a use after release() is
//    reported, not silently shared with the buffer's next owner.
//  * Per-bucket depth is capped (kMaxBuffersPerBucket); overflow buffers
//    are freed and counted as evictions. Requests above kMaxPooledBytes
//    bypass the pool.
//
// Each pool's counters are published as `pool.*` metrics by its owner
// (comm::Runtime for a rank, core::AsyncBridge for its worker; pal
// cannot depend on obs); see docs/PERFORMANCE.md.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace insitu::pal {

/// Monotonic counters since the pool was created.
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

class BufferPool {
 public:
  /// Smallest bucket; requests below round up to it.
  static constexpr std::size_t kMinBucketBytes = 64;
  /// Requests above this bypass the pool entirely (always miss, never park).
  static constexpr std::size_t kMaxPooledBytes = std::size_t{256} << 20;
  /// Free-list depth per bucket; further releases evict.
  static constexpr std::size_t kMaxBuffersPerBucket = 64;

  BufferPool() = default;
  ~BufferPool() { clear(); }
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty vector with capacity >= bytes (a size-0 buffer: fill
  /// it with resize/insert). Served from the free list when possible.
  std::vector<std::byte> acquire(std::size_t bytes);

  /// Parks the buffer's storage for reuse (or frees it when the bucket is
  /// full, the buffer is oversize, or the pool is disabled).
  void release(std::vector<std::byte>&& buffer);

  /// A disabled pool always allocates and frees (the unpooled ablation
  /// arm and degraded service sessions); disabling frees every parked
  /// buffer.
  void set_enabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Frees every parked buffer (keeps stats).
  void clear();

  const BufferPoolStats& stats() const { return stats_; }

  std::size_t free_buffers() const { return free_buffers_; }
  std::size_t free_bytes() const { return parked_bytes_; }
  std::size_t free_bytes_peak() const { return parked_peak_; }

 private:
  static constexpr int kNumBuckets = 48;  // 2^47 ≈ 128 TiB: plenty

  bool enabled_ = true;
  std::vector<std::vector<std::byte>> buckets_[kNumBuckets];
  std::size_t free_buffers_ = 0;
  std::size_t parked_bytes_ = 0;
  std::size_t parked_peak_ = 0;
  BufferPoolStats stats_;
};

/// The pool the data model and serialization paths allocate through: the
/// installed RankLocal block's pool, or the calling thread's own pool.
/// Defined in rank_local.cpp next to rank_memory_tracker().
BufferPool& buffer_pool();

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
