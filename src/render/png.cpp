#include "render/png.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace insitu::render::png {

namespace {

// ---- DEFLATE constants (RFC 1951) ----

constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;
constexpr int kWindowSize = 32768;
constexpr int kHashBits = 15;
constexpr int kHashSize = 1 << kHashBits;
constexpr int kMaxChain = 64;  // match-search depth (speed/ratio tradeoff)

constexpr std::array<int, 29> kLengthBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23,  27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<int, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr std::array<int, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<int, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// LSB-first bit writer (DEFLATE bit order).
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::byte>& out) : out_(out) {}

  void put_bits(std::uint32_t bits, int count) {
    acc_ |= static_cast<std::uint64_t>(bits) << fill_;
    fill_ += count;
    while (fill_ >= 8) {
      out_.push_back(static_cast<std::byte>(acc_ & 0xFF));
      acc_ >>= 8;
      fill_ -= 8;
    }
  }

  /// Huffman codes are written MSB-first: reverse before emitting.
  void put_huffman(std::uint32_t code, int length) {
    std::uint32_t reversed = 0;
    for (int i = 0; i < length; ++i) {
      reversed = (reversed << 1) | ((code >> i) & 1u);
    }
    put_bits(reversed, length);
  }

  void align_to_byte() {
    if (fill_ > 0) put_bits(0, 8 - fill_);
  }

 private:
  std::vector<std::byte>& out_;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Fixed-Huffman literal/length code (RFC 1951 §3.2.6).
void put_litlen(BitWriter& bw, int symbol) {
  if (symbol <= 143) {
    bw.put_huffman(static_cast<std::uint32_t>(0x30 + symbol), 8);
  } else if (symbol <= 255) {
    bw.put_huffman(static_cast<std::uint32_t>(0x190 + symbol - 144), 9);
  } else if (symbol <= 279) {
    bw.put_huffman(static_cast<std::uint32_t>(symbol - 256), 7);
  } else {
    bw.put_huffman(static_cast<std::uint32_t>(0xC0 + symbol - 280), 8);
  }
}

void put_length(BitWriter& bw, int length) {
  int code = 0;
  while (code < 28 && kLengthBase[static_cast<std::size_t>(code + 1)] <= length) {
    ++code;
  }
  put_litlen(bw, 257 + code);
  const int extra = kLengthExtra[static_cast<std::size_t>(code)];
  if (extra > 0) {
    bw.put_bits(
        static_cast<std::uint32_t>(length - kLengthBase[static_cast<std::size_t>(code)]),
        extra);
  }
}

void put_distance(BitWriter& bw, int distance) {
  int code = 0;
  while (code < 29 && kDistBase[static_cast<std::size_t>(code + 1)] <= distance) {
    ++code;
  }
  bw.put_huffman(static_cast<std::uint32_t>(code), 5);
  const int extra = kDistExtra[static_cast<std::size_t>(code)];
  if (extra > 0) {
    bw.put_bits(
        static_cast<std::uint32_t>(distance - kDistBase[static_cast<std::size_t>(code)]),
        extra);
  }
}

inline std::uint32_t hash3(const std::uint8_t* p) {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Slicing-by-8 tables: t[0] is the bytewise CRC table, and t[k][n] is
/// the CRC of byte n followed by k zero bytes, so eight table lookups
/// advance the CRC by one 8-byte word.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][n] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t n = 0; n < 256; ++n) {
        t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Advances a CRC register (no final inversion) over `data`.
std::uint32_t crc32_update(std::uint32_t crc, std::span<const std::byte> data) {
  const CrcTables& t = crc_tables();
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  return crc32_update(seed, data) ^ 0xFFFFFFFFu;
}

std::uint32_t adler32(std::span<const std::byte> data) {
  // 5552 is the largest n for which the sums of n bytes of 0xFF cannot
  // overflow 32 bits from a reduced start, so one modulo per block does.
  constexpr std::size_t kBlock = 5552;
  constexpr std::uint32_t kMod = 65521u;
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t n = data.size();
  std::uint32_t a = 1, b = 0;
  while (n > 0) {
    const std::size_t k = std::min(kBlock, n);
    for (const std::uint8_t* end = p + k; p != end; ++p) {
      a += *p;
      b += a;
    }
    a %= kMod;
    b %= kMod;
    n -= k;
  }
  return (b << 16) | a;
}

std::vector<std::byte> deflate_fixed(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  out.reserve(data.size() / 2 + 64);
  BitWriter bw(out);
  bw.put_bits(1, 1);  // BFINAL
  bw.put_bits(1, 2);  // BTYPE = fixed Huffman

  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data.data());
  const std::int64_t n = static_cast<std::int64_t>(data.size());

  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(data.size(), -1);

  std::int64_t i = 0;
  while (i < n) {
    int best_len = 0;
    std::int64_t best_dist = 0;
    if (i + kMinMatch <= n) {
      const std::uint32_t h = hash3(bytes + i);
      std::int64_t cand = head[h];
      int chain = 0;
      while (cand >= 0 && i - cand <= kWindowSize && chain < kMaxChain) {
        const int limit =
            static_cast<int>(std::min<std::int64_t>(kMaxMatch, n - i));
        int len = 0;
        while (len < limit && bytes[cand + len] == bytes[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_dist = i - cand;
          if (len >= kMaxMatch) break;
        }
        cand = prev[static_cast<std::size_t>(cand)];
        ++chain;
      }
    }

    if (best_len >= kMinMatch) {
      put_length(bw, best_len);
      put_distance(bw, static_cast<int>(best_dist));
      // Insert hash entries for the matched region.
      const std::int64_t stop = std::min(i + best_len, n - kMinMatch + 1);
      for (std::int64_t j = i; j < stop; ++j) {
        const std::uint32_t h = hash3(bytes + j);
        prev[static_cast<std::size_t>(j)] = head[h];
        head[h] = j;
      }
      i += best_len;
    } else {
      put_litlen(bw, bytes[i]);
      if (i + kMinMatch <= n) {
        const std::uint32_t h = hash3(bytes + i);
        prev[static_cast<std::size_t>(i)] = head[h];
        head[h] = i;
      }
      ++i;
    }
  }
  put_litlen(bw, 256);  // end of block
  bw.align_to_byte();
  return out;
}

std::vector<std::byte> deflate_stored(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  constexpr std::size_t kMaxStored = 65535;
  std::size_t offset = 0;
  do {
    const std::size_t chunk = std::min(kMaxStored, data.size() - offset);
    const bool final_block = offset + chunk == data.size();
    out.push_back(static_cast<std::byte>(final_block ? 1 : 0));  // BTYPE=00
    const auto len = static_cast<std::uint16_t>(chunk);
    const auto nlen = static_cast<std::uint16_t>(~len);
    out.push_back(static_cast<std::byte>(len & 0xFF));
    out.push_back(static_cast<std::byte>(len >> 8));
    out.push_back(static_cast<std::byte>(nlen & 0xFF));
    out.push_back(static_cast<std::byte>(nlen >> 8));
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(offset),
               data.begin() + static_cast<std::ptrdiff_t>(offset + chunk));
    offset += chunk;
  } while (offset < data.size());
  return out;
}

std::vector<std::byte> zlib_compress(std::span<const std::byte> data,
                                     bool compress) {
  std::vector<std::byte> out;
  out.push_back(std::byte{0x78});  // CMF: deflate, 32K window
  out.push_back(std::byte{0x01});  // FLG: check bits, no dict
  std::vector<std::byte> body =
      compress ? deflate_fixed(data) : deflate_stored(data);
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t adler = adler32(data);
  out.push_back(static_cast<std::byte>((adler >> 24) & 0xFF));
  out.push_back(static_cast<std::byte>((adler >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((adler >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>(adler & 0xFF));
  return out;
}

namespace {

/// LSB-first bit reader for inflate.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  StatusOr<std::uint32_t> bits(int count) {
    while (fill_ < count) {
      if (pos_ >= data_.size()) {
        return Status::OutOfRange("inflate: truncated stream");
      }
      acc_ |= static_cast<std::uint64_t>(data_[pos_++]) << fill_;
      fill_ += 8;
    }
    const std::uint32_t value =
        static_cast<std::uint32_t>(acc_ & ((1ull << count) - 1));
    acc_ >>= count;
    fill_ -= count;
    return value;
  }

  void align_to_byte() {
    const int drop = fill_ % 8;
    acc_ >>= drop;
    fill_ -= drop;
  }

  StatusOr<std::uint8_t> byte_aligned() {
    if (fill_ >= 8) {
      const auto v = static_cast<std::uint8_t>(acc_ & 0xFF);
      acc_ >>= 8;
      fill_ -= 8;
      return v;
    }
    if (pos_ >= data_.size()) {
      return Status::OutOfRange("inflate: truncated stored block");
    }
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int fill_ = 0;
};

/// Decode one fixed-Huffman literal/length symbol by reading MSB-first.
StatusOr<int> read_fixed_litlen(BitReader& br) {
  std::uint32_t code = 0;
  int len = 0;
  // Read up to 9 bits; the fixed code is prefix-free across lengths 7-9.
  for (; len < 9;) {
    INSITU_ASSIGN_OR_RETURN(std::uint32_t bit, br.bits(1));
    code = (code << 1) | bit;
    ++len;
    if (len == 7 && code <= 0x17) return 256 + static_cast<int>(code);
    if (len == 8 && code >= 0x30 && code <= 0xBF) {
      return static_cast<int>(code) - 0x30;
    }
    if (len == 8 && code >= 0xC0 && code <= 0xC7) {
      return 280 + static_cast<int>(code) - 0xC0;
    }
    if (len == 9 && code >= 0x190 && code <= 0x1FF) {
      return 144 + static_cast<int>(code) - 0x190;
    }
  }
  return Status::Internal("inflate: bad fixed-Huffman code");
}

}  // namespace

StatusOr<std::vector<std::byte>> inflate(std::span<const std::byte> data) {
  // Hard output cap: defends against corrupt streams expanding unboundedly.
  constexpr std::size_t kMaxOutput = std::size_t{1} << 30;
  BitReader br(data);
  std::vector<std::byte> out;
  while (true) {
    if (out.size() > kMaxOutput) {
      return Status::ResourceExhausted("inflate: output exceeds 1 GiB cap");
    }
    INSITU_ASSIGN_OR_RETURN(std::uint32_t bfinal, br.bits(1));
    INSITU_ASSIGN_OR_RETURN(std::uint32_t btype, br.bits(2));
    if (btype == 0) {  // stored
      br.align_to_byte();
      std::uint32_t len = 0, nlen = 0;
      for (int i = 0; i < 2; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        len |= static_cast<std::uint32_t>(b) << (8 * i);
      }
      for (int i = 0; i < 2; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        nlen |= static_cast<std::uint32_t>(b) << (8 * i);
      }
      if ((len ^ 0xFFFFu) != nlen) {
        return Status::Internal("inflate: stored block LEN/NLEN mismatch");
      }
      for (std::uint32_t i = 0; i < len; ++i) {
        INSITU_ASSIGN_OR_RETURN(std::uint8_t b, br.byte_aligned());
        out.push_back(static_cast<std::byte>(b));
      }
    } else if (btype == 1) {  // fixed Huffman
      while (true) {
        INSITU_ASSIGN_OR_RETURN(int symbol, read_fixed_litlen(br));
        if (symbol == 256) break;
        if (symbol < 256) {
          out.push_back(static_cast<std::byte>(symbol));
          continue;
        }
        const int lcode = symbol - 257;
        if (lcode >= static_cast<int>(kLengthBase.size())) {
          return Status::Internal("inflate: bad length code");
        }
        INSITU_ASSIGN_OR_RETURN(
            std::uint32_t lextra,
            br.bits(kLengthExtra[static_cast<std::size_t>(lcode)]));
        const int length =
            kLengthBase[static_cast<std::size_t>(lcode)] +
            static_cast<int>(lextra);
        // 5-bit fixed distance code, MSB-first.
        std::uint32_t dcode_bits = 0;
        for (int i = 0; i < 5; ++i) {
          INSITU_ASSIGN_OR_RETURN(std::uint32_t bit, br.bits(1));
          dcode_bits = (dcode_bits << 1) | bit;
        }
        if (dcode_bits >= kDistBase.size()) {
          return Status::Internal("inflate: bad distance code");
        }
        INSITU_ASSIGN_OR_RETURN(
            std::uint32_t dextra,
            br.bits(kDistExtra[static_cast<std::size_t>(dcode_bits)]));
        const int distance =
            kDistBase[static_cast<std::size_t>(dcode_bits)] +
            static_cast<int>(dextra);
        if (distance > static_cast<int>(out.size())) {
          return Status::Internal("inflate: distance beyond output");
        }
        for (int i = 0; i < length; ++i) {
          out.push_back(out[out.size() - static_cast<std::size_t>(distance)]);
        }
      }
    } else {
      return Status::Unimplemented(
          "inflate: only stored and fixed-Huffman blocks supported");
    }
    if (bfinal != 0) break;
  }
  return out;
}

StatusOr<std::vector<std::byte>> zlib_decompress(
    std::span<const std::byte> data) {
  if (data.size() < 6) {
    return Status::InvalidArgument("zlib stream too short");
  }
  INSITU_ASSIGN_OR_RETURN(std::vector<std::byte> out,
                          inflate(data.subspan(2, data.size() - 6)));
  std::uint32_t expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected = (expected << 8) |
               static_cast<std::uint32_t>(data[data.size() - 4 +
                                               static_cast<std::size_t>(i)]);
  }
  if (adler32(out) != expected) {
    return Status::Internal("zlib: adler32 mismatch");
  }
  return out;
}

namespace {

void append_u32_be(std::vector<std::byte>& out, std::uint32_t value) {
  out.push_back(static_cast<std::byte>((value >> 24) & 0xFF));
  out.push_back(static_cast<std::byte>((value >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((value >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>(value & 0xFF));
}

void append_chunk(std::vector<std::byte>& out, const char type[4],
                  std::span<const std::byte> payload) {
  append_u32_be(out, static_cast<std::uint32_t>(payload.size()));
  const auto type_bytes = std::as_bytes(std::span<const char, 4>(type, 4));
  out.insert(out.end(), type_bytes.begin(), type_bytes.end());
  out.insert(out.end(), payload.begin(), payload.end());
  // The CRC covers the type, then the payload.
  append_u32_be(out, crc32_update(crc32_update(0xFFFFFFFFu, type_bytes),
                                  payload) ^
                         0xFFFFFFFFu);
}

}  // namespace

std::vector<std::byte> encode(const Image& img, const PngOptions& options) {
  std::vector<std::byte> out;
  const std::byte signature[] = {
      std::byte{0x89}, std::byte{'P'}, std::byte{'N'}, std::byte{'G'},
      std::byte{0x0D}, std::byte{0x0A}, std::byte{0x1A}, std::byte{0x0A}};
  out.insert(out.end(), std::begin(signature), std::end(signature));

  std::vector<std::byte> ihdr;
  append_u32_be(ihdr, static_cast<std::uint32_t>(img.width()));
  append_u32_be(ihdr, static_cast<std::uint32_t>(img.height()));
  ihdr.push_back(std::byte{8});   // bit depth
  ihdr.push_back(std::byte{6});   // color type RGBA
  ihdr.push_back(std::byte{0});   // compression
  ihdr.push_back(std::byte{0});   // filter
  ihdr.push_back(std::byte{0});   // interlace
  append_chunk(out, "IHDR", ihdr);

  // Scanlines with a per-row filter byte. With filtering enabled, each
  // row tries None/Sub/Up and keeps the one with the smallest absolute
  // residual sum (libpng's minimum-sum-of-absolute-differences heuristic).
  const std::size_t row_bytes = static_cast<std::size_t>(img.width()) * 4;
  std::vector<std::byte> raw;
  raw.reserve(static_cast<std::size_t>(img.height()) * (1 + row_bytes));
  std::vector<std::uint8_t> candidate(row_bytes);
  std::vector<std::uint8_t> best(row_bytes);
  for (int y = 0; y < img.height(); ++y) {
    const auto* row = reinterpret_cast<const std::uint8_t*>(
        img.pixels().data() + static_cast<std::size_t>(y) * img.width());
    const auto* above =
        y > 0 ? reinterpret_cast<const std::uint8_t*>(
                    img.pixels().data() +
                    static_cast<std::size_t>(y - 1) * img.width())
              : nullptr;
    std::uint8_t best_filter = 0;
    std::memcpy(best.data(), row, row_bytes);
    if (options.filter) {
      auto residual_sum = [&](const std::vector<std::uint8_t>& data) {
        long sum = 0;
        for (const std::uint8_t v : data) {
          sum += v < 128 ? v : 256 - v;  // |signed residual|
        }
        return sum;
      };
      long best_sum = residual_sum(best);
      // Filter 1 (Sub): subtract the pixel 4 bytes to the left.
      for (std::size_t i = 0; i < row_bytes; ++i) {
        candidate[i] = static_cast<std::uint8_t>(
            row[i] - (i >= 4 ? row[i - 4] : 0));
      }
      if (const long sum = residual_sum(candidate); sum < best_sum) {
        best_sum = sum;
        best_filter = 1;
        best = candidate;
      }
      // Filter 2 (Up): subtract the pixel in the previous row.
      if (above != nullptr) {
        for (std::size_t i = 0; i < row_bytes; ++i) {
          candidate[i] = static_cast<std::uint8_t>(row[i] - above[i]);
        }
        if (const long sum = residual_sum(candidate); sum < best_sum) {
          best_filter = 2;
          best = candidate;
        }
      }
    }
    raw.push_back(static_cast<std::byte>(best_filter));
    raw.insert(raw.end(), reinterpret_cast<const std::byte*>(best.data()),
               reinterpret_cast<const std::byte*>(best.data()) + row_bytes);
  }
  append_chunk(out, "IDAT", zlib_compress(raw, options.compress));
  append_chunk(out, "IEND", {});
  return out;
}

StatusOr<Image> decode(std::span<const std::byte> data) {
  if (data.size() < 8 || data[1] != std::byte{'P'}) {
    return Status::InvalidArgument("png: bad signature");
  }
  std::size_t pos = 8;
  int width = 0, height = 0;
  std::vector<std::byte> idat;
  while (pos + 12 <= data.size()) {
    std::uint32_t length = 0;
    for (int i = 0; i < 4; ++i) {
      length = (length << 8) |
               static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)]);
    }
    const std::string type(reinterpret_cast<const char*>(data.data()) + pos + 4,
                           4);
    if (pos + 12 + length > data.size()) {
      return Status::OutOfRange("png: truncated chunk");
    }
    const auto payload = data.subspan(pos + 8, length);
    if (type == "IHDR") {
      if (length < 13) return Status::InvalidArgument("png: short IHDR");
      for (int i = 0; i < 4; ++i) {
        width = (width << 8) | static_cast<int>(payload[static_cast<std::size_t>(i)]);
        height = (height << 8) |
                 static_cast<int>(payload[static_cast<std::size_t>(4 + i)]);
      }
      if (payload[8] != std::byte{8} || payload[9] != std::byte{6}) {
        return Status::Unimplemented("png: only 8-bit RGBA supported");
      }
    } else if (type == "IDAT") {
      idat.insert(idat.end(), payload.begin(), payload.end());
    } else if (type == "IEND") {
      break;
    }
    pos += 12 + length;
  }
  if (width <= 0 || height <= 0 || idat.empty()) {
    return Status::InvalidArgument("png: missing IHDR/IDAT");
  }
  // Sanity-bound dimensions before allocating (corrupt IHDR defense).
  if (width > (1 << 16) || height > (1 << 16) ||
      static_cast<std::int64_t>(width) * height > (1 << 26)) {
    return Status::InvalidArgument("png: implausible dimensions");
  }
  INSITU_ASSIGN_OR_RETURN(std::vector<std::byte> raw, zlib_decompress(idat));

  const std::size_t row_bytes = static_cast<std::size_t>(width) * 4;
  if (raw.size() != static_cast<std::size_t>(height) * (1 + row_bytes)) {
    return Status::InvalidArgument("png: scanline size mismatch");
  }
  Image img(width, height);
  std::vector<std::uint8_t> prev(row_bytes, 0);
  std::vector<std::uint8_t> current(row_bytes);
  for (int y = 0; y < height; ++y) {
    const std::size_t base = static_cast<std::size_t>(y) * (1 + row_bytes);
    const auto filter = static_cast<std::uint8_t>(raw[base]);
    const auto* src = reinterpret_cast<const std::uint8_t*>(raw.data()) +
                      base + 1;
    for (std::size_t i = 0; i < row_bytes; ++i) {
      std::uint8_t value = src[i];
      if (filter == 1) {
        value = static_cast<std::uint8_t>(value +
                                          (i >= 4 ? current[i - 4] : 0));
      } else if (filter == 2) {
        value = static_cast<std::uint8_t>(value + prev[i]);
      } else if (filter != 0) {
        return Status::Unimplemented("png: unsupported filter " +
                                     std::to_string(filter));
      }
      current[i] = value;
    }
    std::memcpy(img.pixels().data() + static_cast<std::size_t>(y) * width,
                current.data(), row_bytes);
    prev = current;
  }
  return img;
}

Status write_file(const std::string& path, const Image& img,
                  const PngOptions& options) {
  const std::vector<std::byte> data = encode(img, options);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  if (written != data.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::Ok();
}

}  // namespace insitu::render::png
