#include "analysis/bitmap_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace insitu::analysis {

namespace {
constexpr std::uint32_t kFillFlag = 0x80000000u;
constexpr std::uint32_t kFillValue = 0x40000000u;
constexpr std::uint32_t kMaxFillGroups = 0x3FFFFFFFu;
constexpr std::uint32_t kLiteralOnes = 0x7FFFFFFFu;  // 31 payload bits
}  // namespace

void Bitmap::Builder::flush_group() {
  // current_ holds a complete 31-bit literal group.
  const bool all_zero = current_ == 0;
  const bool all_one = current_ == kLiteralOnes;
  if (all_zero || all_one) {
    const std::uint32_t value_bit = all_one ? kFillValue : 0;
    if (!words_.empty() && (words_.back() & kFillFlag) &&
        (words_.back() & kFillValue) == value_bit &&
        (words_.back() & kMaxFillGroups) < kMaxFillGroups) {
      ++words_.back();  // extend the run
    } else {
      words_.push_back(kFillFlag | value_bit | 1u);
    }
  } else {
    words_.push_back(current_);
  }
  current_ = 0;
  fill_ = 0;
}

void Bitmap::Builder::append(bool bit) {
  if (bit) {
    current_ |= 1u << fill_;
    ++set_bits_;
  }
  ++bits_;
  if (++fill_ == 31) flush_group();
}

void Bitmap::Builder::append_run(bool bit, std::int64_t count) {
  // Fill the partial group bit-by-bit, then emit whole fill words.
  while (count > 0 && fill_ != 0) {
    append(bit);
    --count;
  }
  while (count >= 31) {
    const std::int64_t groups =
        std::min<std::int64_t>(count / 31, kMaxFillGroups);
    const std::uint32_t value_bit = bit ? kFillValue : 0;
    if (!words_.empty() && (words_.back() & kFillFlag) &&
        (words_.back() & kFillValue) == value_bit &&
        (words_.back() & kMaxFillGroups) + groups <= kMaxFillGroups) {
      words_.back() += static_cast<std::uint32_t>(groups);
    } else {
      words_.push_back(kFillFlag | value_bit |
                       static_cast<std::uint32_t>(groups));
    }
    bits_ += groups * 31;
    if (bit) set_bits_ += groups * 31;
    count -= groups * 31;
  }
  while (count > 0) {
    append(bit);
    --count;
  }
}

Bitmap Bitmap::Builder::finish() {
  if (fill_ > 0) {
    // Pad the trailing partial group with zeros; size_bits records the
    // true length so padding bits are never observed.
    words_.push_back(current_);
    current_ = 0;
    fill_ = 0;
  }
  Bitmap bitmap;
  bitmap.words_ = std::move(words_);
  bitmap.bits_ = bits_;
  bitmap.set_bits_ = set_bits_;
  words_.clear();
  bits_ = 0;
  set_bits_ = 0;
  return bitmap;
}

bool Bitmap::test(std::int64_t position) const {
  std::int64_t base = 0;
  for (const std::uint32_t word : words_) {
    if (word & kFillFlag) {
      const std::int64_t span = (word & kMaxFillGroups) * 31;
      if (position < base + span) return (word & kFillValue) != 0;
      base += span;
    } else {
      if (position < base + 31) {
        return (word & (1u << (position - base))) != 0;
      }
      base += 31;
    }
  }
  return false;
}

std::vector<bool> Bitmap::to_bools() const {
  std::vector<bool> out(static_cast<std::size_t>(bits_), false);
  for_each_set([&](std::int64_t i) { out[static_cast<std::size_t>(i)] = true; });
  return out;
}

Bitmap Bitmap::logical_or(const Bitmap& a, const Bitmap& b) {
  // Straightforward decode-merge; index bitmaps are short-lived per-step
  // structures, so clarity beats peak speed here.
  const std::vector<bool> av = a.to_bools();
  const std::vector<bool> bv = b.to_bools();
  Builder builder;
  const std::size_t n = std::max(av.size(), bv.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool bit =
        (i < av.size() && av[i]) || (i < bv.size() && bv[i]);
    builder.append(bit);
  }
  return builder.finish();
}

StatusOr<BitmapIndex> BitmapIndex::build(const data::DataArray& values,
                                         int bins) {
  if (bins <= 0) {
    return Status::InvalidArgument("bitmap index needs bins > 0");
  }
  BitmapIndex index;
  index.rows_ = values.num_tuples();
  auto [lo, hi] = values.range();
  index.lo_ = lo;
  index.hi_ = hi;
  const double width = hi > lo ? (hi - lo) : 1.0;

  std::vector<Bitmap::Builder> builders(static_cast<std::size_t>(bins));
  for (std::int64_t i = 0; i < index.rows_; ++i) {
    const double v = values.get(i);
    int bin = static_cast<int>((v - lo) / width * bins);
    bin = std::clamp(bin, 0, bins - 1);
    for (int b = 0; b < bins; ++b) {
      builders[static_cast<std::size_t>(b)].append(b == bin);
    }
  }
  index.bins_.reserve(static_cast<std::size_t>(bins));
  for (auto& builder : builders) index.bins_.push_back(builder.finish());
  return index;
}

Bitmap BitmapIndex::query_range(double lo, double hi) const {
  const int bins = num_bins();
  const double width = hi_ > lo_ ? (hi_ - lo_) : 1.0;
  auto bin_of = [&](double v) {
    return std::clamp(static_cast<int>((v - lo_) / width * bins), 0,
                      bins - 1);
  };
  Bitmap result;
  bool first = true;
  if (hi < lo_ || lo > hi_) {
    Bitmap::Builder empty;
    empty.append_run(false, rows_);
    return empty.finish();
  }
  const int b0 = bin_of(std::max(lo, lo_));
  const int b1 = bin_of(std::min(hi, hi_));
  for (int b = b0; b <= b1; ++b) {
    if (first) {
      result = bins_[static_cast<std::size_t>(b)];
      first = false;
    } else {
      result = Bitmap::logical_or(result, bins_[static_cast<std::size_t>(b)]);
    }
  }
  return result;
}

std::int64_t BitmapIndex::count_range(const data::DataArray& values,
                                      double lo, double hi) const {
  const Bitmap candidates = query_range(lo, hi);
  std::int64_t count = 0;
  candidates.for_each_set([&](std::int64_t row) {
    const double v = values.get(row);
    if (v >= lo && v <= hi) ++count;
  });
  return count;
}

std::size_t BitmapIndex::compressed_bytes() const {
  std::size_t total = 0;
  for (const Bitmap& bitmap : bins_) total += bitmap.compressed_bytes();
  return total;
}

}  // namespace insitu::analysis
