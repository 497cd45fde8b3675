#pragma once

// XXH64 with seed 0: a 64-bit non-cryptographic digest that runs at
// memory speed (four independent 64-bit lanes over 32-byte stripes), used
// to check that two runs produced the same bytes. The algorithm and its
// constants follow the xxHash specification (Cyan4973/xxHash,
// doc/xxhash_spec.md), so digests match every other XXH64 implementation
// given seed 0.

#include <cstddef>
#include <cstdint>
#include <span>

namespace insitu::pal {

/// Streaming XXH64: update() any number of times, then digest(). Feeding
/// the same bytes in any split gives the digest of their concatenation.
class Xxh64 {
 public:
  Xxh64();

  void update(std::span<const std::byte> data);
  /// The digest of every byte fed so far; the state is unchanged.
  std::uint64_t digest() const;

 private:
  static constexpr std::size_t kStripe = 32;

  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;  ///< bytes fed
  std::byte pending_[kStripe];  ///< the partial stripe not yet consumed
  std::size_t npending_ = 0;
};

/// XXH64 of `data` in one call.
std::uint64_t xxh64(std::span<const std::byte> data);

}  // namespace insitu::pal
