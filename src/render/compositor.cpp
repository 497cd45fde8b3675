#include "render/compositor.hpp"

#include <cstring>
#include <limits>

#include "kernels/kernels.hpp"

namespace insitu::render {

namespace {

constexpr int kTagTree = 9001;
constexpr int kTagSwapBase = 9100;
constexpr int kTagGather = 9090;

constexpr std::size_t kPixelBytes = sizeof(Rgba) + sizeof(float);

/// Bytes of `n` dense pixels: what every compositing message is charged.
std::size_t dense_bytes(std::int64_t n) {
  return static_cast<std::size_t>(n) * kPixelBytes;
}

/// A source pixel can change the destination only if its depth is below
/// +inf: depth_composite's strict `<` never lets +inf or NaN win.
bool can_win(float depth) {
  return depth < std::numeric_limits<float>::infinity();
}

/// Serialize pixels [lo, hi): the int64 image index `lo`, then the
/// colors, then the depths. A blank image packs its background at +inf.
std::vector<std::byte> pack(const Image& img, std::int64_t lo,
                            std::int64_t hi) {
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  std::vector<std::byte> out(sizeof lo + n * kPixelBytes);
  std::memcpy(out.data(), &lo, sizeof lo);
  if (n == 0) return out;
  std::byte* colors = out.data() + sizeof lo;
  std::byte* depths = colors + n * sizeof(Rgba);
  if (img.blank()) {
    const Rgba background = img.background();
    const float far = std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(colors + i * sizeof(Rgba), &background, sizeof(Rgba));
      std::memcpy(depths + i * sizeof(float), &far, sizeof(float));
    }
  } else {
    std::memcpy(colors, img.pixels().data() + lo, n * sizeof(Rgba));
    std::memcpy(depths, img.depths().data() + lo, n * sizeof(float));
  }
  return out;
}

/// Serialize the active span of [begin, end): the pixels from the first
/// through the last one that can win a depth test. A range with none,
/// and any range of a blank image, packs to the header alone.
std::vector<std::byte> pack_active(const Image& img, std::int64_t begin,
                                   std::int64_t end) {
  if (img.blank()) return pack(img, end, end);
  const float* depth = img.depths().data();
  std::int64_t lo = begin;
  while (lo < end && !can_win(depth[lo])) ++lo;
  std::int64_t hi = end;
  while (hi > lo && !can_win(depth[hi - 1])) --hi;
  return pack(img, lo, hi);
}

/// View of a packed message.
struct PixelSpan {
  std::int64_t first = 0;  // image index of the first pixel
  std::int64_t count = 0;
  const Rgba* colors = nullptr;
  const float* depths = nullptr;
};

PixelSpan unpack(std::span<const std::byte> packed) {
  PixelSpan s;
  std::memcpy(&s.first, packed.data(), sizeof s.first);
  const std::byte* body = packed.data() + sizeof s.first;
  s.count = static_cast<std::int64_t>((packed.size() - sizeof s.first) /
                                      kPixelBytes);
  s.colors = reinterpret_cast<const Rgba*>(body);
  s.depths = reinterpret_cast<const float*>(
      body + static_cast<std::size_t>(s.count) * sizeof(Rgba));
  return s;
}

/// Composite a packed span into `img` (nearer depth wins).
void merge_span(Image& img, const PixelSpan& s) {
  Rgba* dst_c = img.pixels().data() + s.first;
  float* dst_d = img.depths().data() + s.first;
  kernels::depth_composite(reinterpret_cast<std::uint8_t*>(dst_c), dst_d,
                           reinterpret_cast<const std::uint8_t*>(s.colors),
                           s.depths, s.count);
}

/// Replace (not merge) a packed span — used by the final gather.
void store_span(Image& img, const PixelSpan& s) {
  const std::size_t n = static_cast<std::size_t>(s.count);
  std::memcpy(img.pixels().data() + s.first, s.colors, n * sizeof(Rgba));
  std::memcpy(img.depths().data() + s.first, s.depths, n * sizeof(float));
}

/// Per-pixel blend cost charged on top of the real byte movement.
void charge_blend(comm::Communicator& comm, std::int64_t pixels) {
  comm.advance_compute(static_cast<double>(pixels) /
                       comm.machine().pixel_blend_rate);
}

/// A rank's running composite: `local` itself until the first merge that
/// brings pixels, then a private dense copy of it (a blank `local` is
/// materialized there, not before).
class Partial {
 public:
  explicit Partial(const Image& local) : local_(local) {}

  const Image& get() const { return copied_ ? copy_ : local_; }

  void merge(std::span<const std::byte> packed) {
    const PixelSpan s = unpack(packed);
    if (s.count == 0) return;
    merge_span(own(), s);
  }

  /// The composite as a dense image: rank 0's result is never blank.
  Image release_dense() { return std::move(own()); }

 private:
  /// The private dense copy of `local`, made on first use.
  Image& own() {
    if (!copied_) {
      copy_ = local_;
      copy_.materialize();
      copied_ = true;
    }
    return copy_;
  }

  const Image& local_;
  Image copy_;
  bool copied_ = false;
};

}  // namespace

Image composite_tree(comm::Communicator& comm, const Image& local) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = local.num_pixels();
  Partial mine(local);

  // Binomial reduction: at stage s, ranks with bit s set send their
  // image's active span to (rank - 2^s) and drop out.
  for (int stride = 1; stride < size; stride <<= 1) {
    if ((rank & stride) != 0) {
      comm.send(rank - stride, kTagTree, pack_active(mine.get(), 0, npx),
                dense_bytes(npx));
      return Image{};  // dropped out; no result on this rank
    }
    const int partner = rank + stride;
    if (partner < size) {
      mine.merge(comm.recv(partner, kTagTree));
      charge_blend(comm, npx);
    }
  }
  return mine.release_dense();
}

Image composite_binary_swap(comm::Communicator& comm, const Image& local) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = local.num_pixels();
  if (size == 1) return Partial(local).release_dense();

  // Largest power of two <= size.
  int pow2 = 1;
  while (pow2 * 2 <= size) pow2 *= 2;

  // Fold phase: extra ranks send their image's active span into the
  // pow2 set.
  if (rank >= pow2) {
    comm.send(rank - pow2, kTagSwapBase, pack_active(local, 0, npx),
              dense_bytes(npx));
    // Extra ranks still participate in the final gather (with nothing).
    comm.send(0, kTagGather, {});
    return Image{};
  }
  Partial mine(local);
  if (rank + pow2 < size) {
    mine.merge(comm.recv(rank + pow2, kTagSwapBase));
    charge_blend(comm, npx);
  }

  // Swap phase over the pow2 set: each stage halves the owned range.
  std::int64_t begin = 0;
  std::int64_t end = npx;
  int stage = 0;
  for (int stride = 1; stride < pow2; stride <<= 1, ++stage) {
    const int partner = rank ^ stride;
    const std::int64_t mid = begin + (end - begin) / 2;
    const bool keep_low = (rank & stride) == 0;
    const std::int64_t keep_begin = keep_low ? begin : mid;
    const std::int64_t keep_end = keep_low ? mid : end;
    const std::int64_t send_begin = keep_low ? mid : begin;
    const std::int64_t send_end = keep_low ? end : mid;

    comm.send(partner, kTagSwapBase + 1 + stage,
              pack_active(mine.get(), send_begin, send_end),
              dense_bytes(send_end - send_begin));
    mine.merge(comm.recv(partner, kTagSwapBase + 1 + stage));
    charge_blend(comm, keep_end - keep_begin);

    begin = keep_begin;
    end = keep_end;
  }

  // Gather the distributed strips to rank 0. Dense: a strip replaces
  // rank 0's pixels rather than merging with them, so a blank owner
  // sends its background.
  if (rank == 0) {
    Image result = mine.release_dense();
    for (int src = 1; src < size; ++src) {
      const std::vector<std::byte> packed = comm.recv_any(kTagGather);
      if (packed.empty()) continue;  // folded rank, owns nothing
      store_span(result, unpack(packed));
    }
    return result;
  }
  std::vector<std::byte> strip = pack(mine.get(), begin, end);
  const std::size_t strip_bytes = strip.size();
  comm.send(0, kTagGather, std::move(strip), strip_bytes);
  return Image{};
}

Image composite(comm::Communicator& comm, const Image& local,
                CompositeAlgorithm algorithm) {
  switch (algorithm) {
    case CompositeAlgorithm::kTree: return composite_tree(comm, local);
    case CompositeAlgorithm::kBinarySwap:
      return composite_binary_swap(comm, local);
  }
  return Image{};
}

Image render_local(comm::Communicator& comm,
                   const analysis::TriangleMesh& mesh,
                   const RenderConfig& config) {
  Image local = Image::blank(config.width, config.height, config.background);
  const std::int64_t fragments = rasterize(mesh, config, local);
  comm.advance_compute(static_cast<double>(fragments) /
                       comm.machine().pixel_blend_rate);
  return local;
}

}  // namespace insitu::render
