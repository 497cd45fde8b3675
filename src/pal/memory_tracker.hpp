#pragma once

// Per-rank memory accounting with high-water-mark tracking.
//
// The paper reports memory footprint as "the sum of the high water marks
// from all MPI ranks". Our ranks are threads, so /proc VmHWM cannot
// separate them; instead all data-model and substrate allocations are
// registered with the rank's MemoryTracker, giving deterministic
// per-rank footprints that can be summed exactly as the paper does.
//
// Counters are atomic: the async execution engine (src/exec) lets pooled
// worker threads allocate on behalf of a rank, so a rank thread and its
// worker may charge the same tracker concurrently. Which tracker the
// calling code charges is a field of the installed pal::RankLocal block
// (pal/rank_local.hpp); a thread with no block charges its own private
// tracker.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace insitu::pal {

/// Tracks bytes currently allocated and the high-water mark for one rank.
/// allocate/release/readers are safe to call from multiple threads.
///
/// Trackers can be chained: a rank tracker with a parent (set_parent)
/// forwards every allocate/release upward, so a tenant-level tracker sees
/// the rolled-up footprint of all of its session's ranks while each rank
/// keeps its own private accounting. Pool-parked bytes never reach any
/// rank tracker (the pool counts them itself), so the roll-up is
/// pooling-invariant: a tenant's usage
/// reads the same whether its buffers are recycled or freed.
///
/// A tracker may also carry a soft byte limit (set_limit): crossing it
/// never aborts or throws, it only latches a sticky over_limit() flag and
/// counts overage_events(). The multi-tenant service reads the flag to
/// degrade (not kill) sessions whose tenant exceeds its quota.
class MemoryTracker {
 public:
  void allocate(std::size_t bytes) {
    const std::size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Raise-only CAS: a concurrent allocation may have published a higher
    // mark between the load and the exchange; retry until ours is either
    // installed or no longer the maximum.
    std::size_t hw = high_water_.load(std::memory_order_relaxed);
    while (now > hw && !high_water_.compare_exchange_weak(
                           hw, now, std::memory_order_relaxed)) {
    }
    const std::size_t limit = limit_.load(std::memory_order_relaxed);
    if (limit != 0 && now > limit) {
      over_limit_.store(true, std::memory_order_relaxed);
      overage_events_.fetch_add(1, std::memory_order_relaxed);
    }
    if (parent_ != nullptr) parent_->allocate(bytes);
  }

  void release(std::size_t bytes) {
    // Clamp at zero on unmatched releases without letting concurrent
    // releases wrap the counter.
    std::size_t cur = current_.load(std::memory_order_relaxed);
    while (!current_.compare_exchange_weak(cur,
                                           bytes > cur ? 0 : cur - bytes,
                                           std::memory_order_relaxed)) {
    }
    if (parent_ != nullptr) parent_->release(bytes);
  }

  std::size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::size_t high_water_bytes() const {
    return high_water_.load(std::memory_order_relaxed);
  }

  /// Resets both counters; used between bench configurations.
  void reset() {
    current_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

  /// Roll this tracker's traffic up into `parent` as well (one level is
  /// enough in practice: rank trackers -> tenant tracker). Set before the
  /// tracker sees traffic; not synchronized against concurrent
  /// allocate/release.
  void set_parent(MemoryTracker* parent) { parent_ = parent; }
  MemoryTracker* parent() const { return parent_; }

  /// Soft byte quota: 0 means unlimited. Crossing the limit latches
  /// over_limit() and bumps overage_events(); allocation always proceeds.
  void set_limit(std::size_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t limit_bytes() const {
    return limit_.load(std::memory_order_relaxed);
  }
  bool over_limit() const {
    return over_limit_.load(std::memory_order_relaxed);
  }
  std::uint64_t overage_events() const {
    return overage_events_.load(std::memory_order_relaxed);
  }
  void clear_over_limit() {
    over_limit_.store(false, std::memory_order_relaxed);
    overage_events_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> limit_{0};
  std::atomic<bool> over_limit_{false};
  std::atomic<std::uint64_t> overage_events_{0};
  MemoryTracker* parent_ = nullptr;
};

/// The tracker charged by the calling code: the installed RankLocal
/// block's tracker (how a rank, and an exec worker acting for it, charge
/// that rank), or the calling thread's own private tracker. SPMD code and
/// the data model charge allocations here. Defined in rank_local.cpp.
MemoryTracker& rank_memory_tracker();

/// RAII registration of a block of bytes against the calling rank.
///
/// The charged tracker is pinned at construction: releases always return
/// to the tracker that took the allocate, even when the object is
/// destroyed (or moved-into) under a *different* installed rank block —
/// e.g. a pooled buffer charged by tenant A's rank and retired by an exec
/// worker or another tenant's thread. Before the pin, such cross-rank
/// destruction leaked bytes into A's current count forever
/// (and under-counted the destroyer), which broke per-tenant quota
/// accounting the moment trackers stopped being thread-owned. A tracked
/// object must not outlive the comm::Runtime::run whose rank created it:
/// the run frees each rank's tracker when it returns.
class TrackedBytes {
 public:
  TrackedBytes() = default;
  explicit TrackedBytes(std::size_t bytes)
      : bytes_(bytes), tracker_(&rank_memory_tracker()) {
    tracker_->allocate(bytes_);
  }
  ~TrackedBytes() {
    if (tracker_ != nullptr) tracker_->release(bytes_);
  }

  TrackedBytes(const TrackedBytes&) = delete;
  TrackedBytes& operator=(const TrackedBytes&) = delete;

  TrackedBytes(TrackedBytes&& other) noexcept
      : bytes_(other.bytes_), tracker_(other.tracker_) {
    other.bytes_ = 0;
    other.tracker_ = nullptr;
  }
  TrackedBytes& operator=(TrackedBytes&& other) noexcept {
    if (this != &other) {
      if (tracker_ != nullptr) tracker_->release(bytes_);
      bytes_ = other.bytes_;
      tracker_ = other.tracker_;
      other.bytes_ = 0;
      other.tracker_ = nullptr;
    }
    return *this;
  }

  /// Change the tracked size (e.g. on vector resize). Stays on the pinned
  /// tracker; a default-constructed instance pins the caller's tracker on
  /// first resize.
  void resize(std::size_t bytes) {
    if (tracker_ == nullptr) tracker_ = &rank_memory_tracker();
    tracker_->release(bytes_);
    bytes_ = bytes;
    tracker_->allocate(bytes_);
  }

  std::size_t bytes() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
  MemoryTracker* tracker_ = nullptr;
};

/// Process-wide resident-set high-water mark from the OS (VmHWM), in bytes.
/// Used to report whole-process numbers alongside the per-rank trackers.
std::uint64_t process_high_water_bytes();

}  // namespace insitu::pal
