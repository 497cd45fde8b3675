#include "pal/buffer_pool.hpp"

#include <algorithm>
#include <bit>

// The poisoning macros are no-ops unless AddressSanitizer is on.
#include <sanitizer/asan_interface.h>

namespace insitu::pal {

namespace {

/// Under ASan a parked buffer's whole capacity is poisoned, so a read or
/// write through a pointer kept past release() is reported as a
/// use-after-poison instead of silently landing in a buffer the pool may
/// hand out again. Acquiring, and freeing, unpoison it first.
void poison(const std::vector<std::byte>& buffer) {
  ASAN_POISON_MEMORY_REGION(buffer.data(), buffer.capacity());
}

void unpoison(const std::vector<std::byte>& buffer) {
  ASAN_UNPOISON_MEMORY_REGION(buffer.data(), buffer.capacity());
}

/// ceil(log2(bytes)) with the minimum bucket applied: the request's bucket.
int bucket_for_request(std::size_t bytes) {
  return std::bit_width(std::bit_ceil(
             std::max(bytes, BufferPool::kMinBucketBytes))) -
         1;
}

/// floor(log2(bytes)): the largest bucket a capacity fills.
int bucket_for_capacity(std::size_t bytes) { return std::bit_width(bytes) - 1; }

}  // namespace

std::vector<std::byte> BufferPool::acquire(std::size_t bytes) {
  const int bucket = bucket_for_request(bytes);
  const std::size_t bucket_bytes = std::size_t{1} << bucket;
  if (enabled_ && bytes <= kMaxPooledBytes) {
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
      parked_bytes_ -= buffer.capacity();
      ++stats_.hits;
      stats_.bytes_reused += bytes;
      unpoison(buffer);
      return buffer;
    }
  }
  const std::size_t fresh = std::max(bytes, bucket_bytes);
  ++stats_.misses;
  stats_.bytes_allocated += fresh;
  std::vector<std::byte> buffer;
  buffer.reserve(fresh);
  return buffer;
}

void BufferPool::release(std::vector<std::byte>&& buffer) {
  const std::size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  ++stats_.releases;
  std::vector<std::byte> doomed = std::move(buffer);  // freed on return
  if (!enabled_) return;
  if (capacity > kMaxPooledBytes || capacity < kMinBucketBytes) {
    ++stats_.evictions;
    return;
  }
  std::vector<std::vector<std::byte>>& list =
      buckets_[bucket_for_capacity(capacity)];
  if (list.size() >= kMaxBuffersPerBucket) {
    ++stats_.evictions;
    return;
  }
  doomed.clear();
  poison(doomed);
  list.push_back(std::move(doomed));
  ++free_buffers_;
  parked_bytes_ += capacity;
  parked_peak_ = std::max(parked_peak_, parked_bytes_);
}

void BufferPool::set_enabled(bool enabled) {
  enabled_ = enabled;
  if (!enabled) clear();
}

void BufferPool::clear() {
  for (auto& list : buckets_) {
    for (const std::vector<std::byte>& buffer : list) unpoison(buffer);
    list.clear();
  }
  free_buffers_ = 0;
  parked_bytes_ = 0;
}

}  // namespace insitu::pal
