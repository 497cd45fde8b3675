#include "pal/digest.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace insitu::pal {

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

std::uint64_t read64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

std::uint32_t read32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kP2;
  acc = std::rotl(acc, 31);
  return acc * kP1;
}

std::uint64_t merge(std::uint64_t acc, std::uint64_t lane) {
  acc ^= xxh_round(0, lane);
  return acc * kP1 + kP4;
}

/// Runs `stripes` 32-byte stripes through the four lanes. The lanes live
/// in locals so the four dependency chains stay in registers.
void consume(std::uint64_t lanes[4], const std::byte* p, std::size_t stripes) {
  std::uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  for (; stripes > 0; --stripes, p += 32) {
    v0 = xxh_round(v0, read64(p));
    v1 = xxh_round(v1, read64(p + 8));
    v2 = xxh_round(v2, read64(p + 16));
    v3 = xxh_round(v3, read64(p + 24));
  }
  lanes[0] = v0;
  lanes[1] = v1;
  lanes[2] = v2;
  lanes[3] = v3;
}

}  // namespace

Xxh64::Xxh64() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64::update(std::span<const std::byte> data) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  total_ += n;
  if (npending_ > 0) {
    const std::size_t k = std::min(kStripe - npending_, n);
    std::memcpy(pending_ + npending_, p, k);
    npending_ += k;
    p += k;
    n -= k;
    if (npending_ < kStripe) return;
    consume(lanes_, pending_, 1);
    npending_ = 0;
  }
  const std::size_t stripes = n / kStripe;
  consume(lanes_, p, stripes);
  p += stripes * kStripe;
  n -= stripes * kStripe;
  if (n > 0) std::memcpy(pending_, p, n);
  npending_ = n;
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t h;
  if (total_ >= kStripe) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) h = merge(h, lane);
  } else {
    h = kP5;
  }
  h += total_;

  const std::byte* p = pending_;
  std::size_t n = npending_;
  for (; n >= 8; n -= 8, p += 8) {
    h ^= xxh_round(0, read64(p));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  if (n >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kP1;
    h = std::rotl(h, 23) * kP2 + kP3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; --n, ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kP5;
    h = std::rotl(h, 11) * kP1;
  }

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t xxh64(std::span<const std::byte> data) {
  Xxh64 state;
  state.update(data);
  return state.digest();
}

}  // namespace insitu::pal
