#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "pal/digest.hpp"
#include "pal/rng.hpp"

namespace insitu::pal {
namespace {

std::span<const std::byte> bytes_of(std::string_view s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

// A plain XXH64 with seed 0, written from the specification
// (xxhash_spec.md) one step at a time: bytes assembled little-endian by
// hand, no streaming.
std::uint64_t reference_xxh64(const std::vector<std::byte>& in) {
  const std::uint64_t seed = 0;
  const std::uint64_t p1 = 0x9E3779B185EBCA87ULL, p2 = 0xC2B2AE3D27D4EB4FULL,
                      p3 = 0x165667B19E3779F9ULL, p4 = 0x85EBCA77C2B2AE63ULL,
                      p5 = 0x27D4EB2F165667C5ULL;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto le = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint64_t>(in[at + static_cast<std::size_t>(i)]);
    }
    return v;
  };
  auto round = [&](std::uint64_t acc, std::uint64_t lane) {
    return rotl(acc + lane * p2, 31) * p1;
  };
  const std::size_t n = in.size();
  std::size_t at = 0;
  std::uint64_t acc;
  if (n >= 32) {
    std::uint64_t a[4] = {seed + p1 + p2, seed + p2, seed, seed - p1};
    for (; at + 32 <= n; at += 32) {
      for (int lane = 0; lane < 4; ++lane) {
        a[lane] = round(a[lane], le(at + 8 * static_cast<std::size_t>(lane), 8));
      }
    }
    acc = rotl(a[0], 1) + rotl(a[1], 7) + rotl(a[2], 12) + rotl(a[3], 18);
    for (const std::uint64_t lane : a) acc = (acc ^ round(0, lane)) * p1 + p4;
  } else {
    acc = seed + p5;
  }
  acc += n;
  for (; at + 8 <= n; at += 8) acc = rotl(acc ^ round(0, le(at, 8)), 27) * p1 + p4;
  if (at + 4 <= n) {
    acc = rotl(acc ^ (le(at, 4) * p1), 23) * p2 + p3;
    at += 4;
  }
  for (; at < n; ++at) acc = rotl(acc ^ (le(at, 1) * p5), 11) * p1;
  acc ^= acc >> 33;
  acc *= p2;
  acc ^= acc >> 29;
  acc *= p3;
  acc ^= acc >> 32;
  return acc;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next_below(256));
  return out;
}

TEST(Xxh64, KnownAnswers) {
  EXPECT_EQ(xxh64(bytes_of("")), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64(bytes_of("a")), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64(bytes_of("abc")), 0x44BC2CF5AD770999ULL);
}

TEST(Xxh64, StripePathMatchesScalarReference) {
  for (const std::size_t n :
       {std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{1000},
        std::size_t{1920} * 1080 * 4}) {
    const auto data = random_bytes(n, n);
    EXPECT_EQ(xxh64(data), reference_xxh64(data)) << "n=" << n;
  }
}

TEST(Xxh64, EverySplitGivesTheDigestOfTheWhole) {
  // Splits that start, end and straddle partial stripes, and empty updates.
  const auto data = random_bytes(517, 3);
  const std::uint64_t whole = xxh64(data);
  EXPECT_EQ(whole, reference_xxh64(data));
  for (const std::size_t piece : {1, 3, 7, 8, 31, 32, 33, 64, 100, 517}) {
    Xxh64 state;
    for (std::size_t at = 0; at < data.size(); at += piece) {
      state.update(std::span(data).subspan(
          at, std::min(piece, data.size() - at)));
      state.update({});
    }
    EXPECT_EQ(state.digest(), whole) << "piece=" << piece;
  }
  // digest() leaves the state as it was.
  Xxh64 state;
  state.update(std::span(data).first(40));
  (void)state.digest();
  state.update(std::span(data).subspan(40));
  EXPECT_EQ(state.digest(), whole);
}

}  // namespace
}  // namespace insitu::pal
