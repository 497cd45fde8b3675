#include "pal/buffer_pool.hpp"

#include <bit>

#include "pal/rank_local.hpp"

namespace insitu::pal {

namespace {

std::size_t ceil_pow2(std::size_t bytes) {
  return std::bit_ceil(bytes == 0 ? std::size_t{1} : bytes);
}

}  // namespace

int BufferPool::bucket_for_request(std::size_t bytes) const {
  const std::size_t rounded =
      ceil_pow2(bytes < options_.min_bucket_bytes ? options_.min_bucket_bytes
                                                  : bytes);
  return std::bit_width(rounded) - 1;
}

int BufferPool::bucket_for_capacity(std::size_t bytes) const {
  return std::bit_width(bytes) - 1;  // floor: capacity fills this bucket
}

std::vector<std::byte> BufferPool::acquire(std::size_t bytes) {
  const int bucket = bucket_for_request(bytes);
  const std::size_t bucket_bytes = std::size_t{1} << bucket;
  const bool pooled = enabled_.load(std::memory_order_relaxed) &&
                      bytes <= options_.max_pooled_bytes;
  if (pooled) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Smallest adequate parked buffer: callers that acquire with a small
    // hint and grow in place (serializers) release into a larger bucket
    // than they request from, so an exact-bucket lookup would never reuse
    // their storage.
    for (int b = bucket; b < kNumBuckets; ++b) {
      std::vector<std::vector<std::byte>>& list = buckets_[b];
      if (list.empty()) continue;
      std::vector<std::byte> buffer = std::move(list.back());
      list.pop_back();
      --free_buffers_;
      parked_.release(buffer.capacity());
      ++stats_.hits;
      stats_.bytes_reused += bytes;
      buffer.clear();
      return buffer;
    }
    ++stats_.misses;
    stats_.bytes_allocated += bucket_bytes;
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    stats_.bytes_allocated += bytes > bucket_bytes ? bytes : bucket_bytes;
  }
  std::vector<std::byte> buffer;
  buffer.reserve(bytes > bucket_bytes ? bytes : bucket_bytes);
  return buffer;
}

void BufferPool::release(std::vector<std::byte>&& buffer) {
  const std::size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  std::vector<std::byte> doomed;  // freed outside the lock
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.releases;
    if (!enabled_.load(std::memory_order_relaxed)) {
      doomed = std::move(buffer);
    } else if (capacity > options_.max_pooled_bytes ||
               capacity < options_.min_bucket_bytes) {
      ++stats_.evictions;
      doomed = std::move(buffer);
    } else {
      const int bucket = bucket_for_capacity(capacity);
      std::vector<std::vector<std::byte>>& list = buckets_[bucket];
      if (list.size() >= options_.max_buffers_per_bucket) {
        ++stats_.evictions;
        doomed = std::move(buffer);
      } else {
        buffer.clear();
        list.push_back(std::move(buffer));
        ++free_buffers_;
        parked_.allocate(capacity);
      }
    }
  }
}

void BufferPool::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  if (!enabled) clear();
}

bool BufferPool::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void BufferPool::clear() {
  std::vector<std::vector<std::byte>> doomed;  // freed outside the lock
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& list : buckets_) {
    for (auto& buffer : list) {
      parked_.release(buffer.capacity());
      doomed.push_back(std::move(buffer));
    }
    list.clear();
  }
  free_buffers_ = 0;
}

void BufferPool::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = BufferPoolStats{};
  const std::size_t parked_now = parked_.current_bytes();
  parked_.reset();
  parked_.allocate(parked_now);  // keep parked bytes, restart the high-water
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

BufferPoolStats BufferPool::stats_since(const BufferPoolStats& start) const {
  const BufferPoolStats now = stats();
  BufferPoolStats delta;
  delta.hits = now.hits - start.hits;
  delta.misses = now.misses - start.misses;
  delta.evictions = now.evictions - start.evictions;
  delta.releases = now.releases - start.releases;
  delta.bytes_reused = now.bytes_reused - start.bytes_reused;
  delta.bytes_allocated = now.bytes_allocated - start.bytes_allocated;
  return delta;
}

std::size_t BufferPool::free_buffers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_buffers_;
}

BufferPool& default_buffer_pool() {
  static BufferPool* pool = new BufferPool();  // leaked: see header
  return *pool;
}

BufferPool& buffer_pool() {
  BufferPool* pool = rank_local().pool;
  return pool != nullptr ? *pool : default_buffer_pool();
}

}  // namespace insitu::pal
