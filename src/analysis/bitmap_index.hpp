#pragma once

// In situ bitmap indexing — the "indexing" member of the paper's SDMAV
// operation family (§2.1: "data processing operations like
// transformations, compression, subsetting, indexing"). Building the index
// in situ means post hoc range queries over saved steps never rescan the
// raw field: the FastBit-style workflow of the paper's LBNL authors.
//
// The index is binned + equality-encoded: one compressed bitmap per value
// bin. Bitmaps use WAH-style word-aligned run-length compression (31-bit
// literal groups, fill words for all-0/all-1 runs).

#include <cstdint>
#include <vector>

#include "data/data_array.hpp"
#include "pal/status.hpp"

namespace insitu::analysis {

/// WAH-style compressed bitmap over a fixed-length bit sequence.
class Bitmap {
 public:
  class Builder {
   public:
    void append(bool bit);
    /// Append `count` copies of `bit` efficiently.
    void append_run(bool bit, std::int64_t count);
    Bitmap finish();

   private:
    void flush_group();
    std::vector<std::uint32_t> words_;
    std::uint32_t current_ = 0;  // partial 31-bit literal group
    int fill_ = 0;               // bits in current_
    std::int64_t bits_ = 0;
    std::int64_t set_bits_ = 0;
  };

  std::int64_t size_bits() const { return bits_; }
  std::int64_t count() const { return set_bits_; }
  std::size_t compressed_bytes() const {
    return words_.size() * sizeof(std::uint32_t);
  }

  /// Invoke `fn(position)` for every set bit, in increasing order.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    std::int64_t position = 0;
    for (const std::uint32_t word : words_) {
      if (word & 0x80000000u) {  // fill word
        const bool value = (word & 0x40000000u) != 0;
        const std::int64_t groups = word & 0x3FFFFFFFu;
        if (value) {
          const std::int64_t end =
              std::min<std::int64_t>(position + groups * 31, bits_);
          for (std::int64_t i = position; i < end; ++i) fn(i);
        }
        position += groups * 31;
      } else {  // literal word: 31 payload bits
        for (int i = 0; i < 31; ++i) {
          if (position + i >= bits_) break;
          if (word & (1u << i)) fn(position + i);
        }
        position += 31;
      }
    }
  }

  bool test(std::int64_t position) const;

  /// Decompress to a bool vector (test/debug helper).
  std::vector<bool> to_bools() const;

  /// Bitwise OR of equal-length bitmaps.
  static Bitmap logical_or(const Bitmap& a, const Bitmap& b);

 private:
  friend class Builder;
  std::vector<std::uint32_t> words_;
  std::int64_t bits_ = 0;
  std::int64_t set_bits_ = 0;
};

/// Binned equality-encoded index over one scalar array.
class BitmapIndex {
 public:
  /// Build over component 0 of `values` with `bins` equi-width bins
  /// spanning the array's [min, max].
  static StatusOr<BitmapIndex> build(const data::DataArray& values, int bins);

  int num_bins() const { return static_cast<int>(bins_.size()); }
  double min() const { return lo_; }
  double max() const { return hi_; }
  std::int64_t num_rows() const { return rows_; }

  /// Candidate rows with value possibly in [lo, hi] (bin-resolution: may
  /// include false positives at the two boundary bins, never misses).
  Bitmap query_range(double lo, double hi) const;

  /// Exact count of rows in [lo, hi], re-checking boundary-bin candidates
  /// against `values` (the standard candidate-check step).
  std::int64_t count_range(const data::DataArray& values, double lo,
                           double hi) const;

  /// Total compressed footprint (the in situ memory the index costs).
  std::size_t compressed_bytes() const;

  const Bitmap& bin(int b) const { return bins_[static_cast<std::size_t>(b)]; }

 private:
  std::vector<Bitmap> bins_;
  double lo_ = 0.0, hi_ = 0.0;
  std::int64_t rows_ = 0;
};

}  // namespace insitu::analysis
