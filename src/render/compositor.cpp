#include "render/compositor.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "kernels/kernels.hpp"

namespace insitu::render {

namespace {

constexpr int kTagTree = 9001;
constexpr int kTagSwapBase = 9100;
constexpr int kTagGather = 9090;

constexpr std::size_t kPixelBytes = sizeof(Rgba) + sizeof(float);

/// Bytes of `n` dense pixels: what every compositing message is charged
/// (a gathered strip, behind an int64 image index).
std::size_t dense_bytes(std::int64_t n) {
  return static_cast<std::size_t>(n) * kPixelBytes;
}

/// What a message covers: the pixel range [begin, end) of the image
/// and, within it, the box whose pixels follow.
struct Header {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  PixelBox box;
};

/// Calls `run(lo, hi)` for each pixel run of the header's box within its
/// range [begin, end) of a `width`-pixel-wide image, in image order: one
/// run per box row, clipped to the range. Rows that touch merge into one
/// run, so a full-width box is a single run.
template <typename F>
void for_each_run(const Header& h, int width, F&& run) {
  const std::int64_t w = width;
  std::int64_t lo = 0;
  std::int64_t hi = 0;  // the pending run; empty while lo == hi
  for (std::int64_t y = h.box.y0; y < h.box.y1; ++y) {
    const std::int64_t row_lo = std::max(h.begin, y * w + h.box.x0);
    const std::int64_t row_hi = std::min(h.end, y * w + h.box.x1);
    if (row_hi <= row_lo) continue;
    if (row_lo != hi) {
      if (hi > lo) run(lo, hi);
      lo = row_lo;
    }
    hi = row_hi;
  }
  if (hi > lo) run(lo, hi);
}

/// Appends `n` elements from `src` to `out`.
template <typename T>
void append(std::vector<std::byte>& out, const T* src, std::size_t n) {
  const auto* bytes = reinterpret_cast<const std::byte*>(src);
  out.insert(out.end(), bytes, bytes + n * sizeof(T));
}

/// Serialize the pixels of `box` within [begin, end): the header (range
/// and box, the box clipped to the range's rows), then the colors of every
/// run, then their depths. Each byte is written once. A box with no pixel
/// in the range packs to no bytes at all. A blank image packs its
/// background at +inf.
std::vector<std::byte> pack(const Image& img, std::int64_t begin,
                            std::int64_t end, PixelBox box) {
  const int w = img.width();
  if (!box.empty()) {  // only the rows the range reaches
    box.y0 = std::max(box.y0, static_cast<int>(begin / w));
    box.y1 = std::min(box.y1, static_cast<int>((end + w - 1) / w));
  }
  const Header header{begin, end, box};
  std::size_t n = 0;
  for_each_run(header, w, [&](std::int64_t lo, std::int64_t hi) {
    n += static_cast<std::size_t>(hi - lo);
  });
  std::vector<std::byte> out;
  if (n == 0) return out;
  out.reserve(sizeof header + n * kPixelBytes);
  append(out, &header, 1);
  if (img.blank()) {
    append_repeated(out, img.background(), n);
    append_repeated(out, std::numeric_limits<float>::infinity(), n);
    return out;
  }
  for_each_run(header, w, [&](std::int64_t lo, std::int64_t hi) {
    append(out, img.pixels().data() + lo, static_cast<std::size_t>(hi - lo));
  });
  for_each_run(header, w, [&](std::int64_t lo, std::int64_t hi) {
    append(out, img.depths().data() + lo, static_cast<std::size_t>(hi - lo));
  });
  return out;
}

/// Serialize what `img` drew within [begin, end): its drawn box. Every
/// pixel outside the box is the background at +inf, which never wins
/// depth_composite's strict `<`, so the merge is bit-identical to a dense
/// one.
std::vector<std::byte> pack_active(const Image& img, std::int64_t begin,
                                   std::int64_t end) {
  return pack(img, begin, end, img.drawn());
}

/// View of a packed message.
struct Message {
  Header header;
  const Rgba* colors = nullptr;  // every run's colors, in run order
  const float* depths = nullptr;
};

Message unpack(std::span<const std::byte> packed) {
  Message m;
  std::memcpy(&m.header, packed.data(), sizeof m.header);
  const std::byte* body = packed.data() + sizeof m.header;
  const std::size_t n = (packed.size() - sizeof m.header) / kPixelBytes;
  m.colors = reinterpret_cast<const Rgba*>(body);
  m.depths = reinterpret_cast<const float*>(body + n * sizeof(Rgba));
  return m;
}

/// Composite a message into `img`, one depth_composite per run (nearer
/// depth wins), and grow its drawn box by the message's.
void merge_message(Image& img, const Message& m) {
  const Image::Canvas canvas = img.canvas();
  std::int64_t at = 0;  // offset of the run in the message body
  for_each_run(m.header, img.width(), [&](std::int64_t lo, std::int64_t hi) {
    kernels::depth_composite(
        reinterpret_cast<std::uint8_t*>(canvas.colors + lo), canvas.depths + lo,
        reinterpret_cast<const std::uint8_t*>(m.colors + at), m.depths + at,
        hi - lo);
    at += hi - lo;
  });
  canvas.grow(m.header.box);
}

/// Replace (not merge) the pixels of a message: the final gather.
void store_message(Image& img, const Message& m) {
  const Image::Canvas canvas = img.canvas();
  std::int64_t at = 0;
  for_each_run(m.header, img.width(), [&](std::int64_t lo, std::int64_t hi) {
    const auto n = static_cast<std::size_t>(hi - lo);
    std::memcpy(canvas.colors + lo, m.colors + at, n * sizeof(Rgba));
    std::memcpy(canvas.depths + lo, m.depths + at, n * sizeof(float));
    at += hi - lo;
  });
  canvas.grow(m.header.box);
}

/// Per-pixel blend cost charged on top of the real byte movement.
void charge_blend(comm::Communicator& comm, std::int64_t pixels) {
  comm.advance_compute(static_cast<double>(pixels) /
                       comm.machine().pixel_blend_rate);
}

/// A rank's running composite, built in place in its local image. A
/// blank local is materialized on the first merge that brings pixels,
/// not before.
class Partial {
 public:
  explicit Partial(Image local) : image_(std::move(local)) {}

  const Image& get() const { return image_; }

  void merge(std::span<const std::byte> packed) {
    if (packed.empty()) return;
    image_.materialize();
    merge_message(image_, unpack(packed));
  }

  /// The composite as a dense image: rank 0's result is never blank.
  Image release_dense() {
    image_.materialize();
    return std::move(image_);
  }

 private:
  Image image_;
};

}  // namespace

Image composite_tree(comm::Communicator& comm, Image local) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = local.num_pixels();
  Partial mine(std::move(local));

  // Binomial reduction: at stage s, ranks with bit s set send their
  // image's drawn box to (rank - 2^s) and drop out.
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

Image composite_binary_swap(comm::Communicator& comm, Image local) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = local.num_pixels();
  if (size == 1) return Partial(std::move(local)).release_dense();

  // Largest power of two <= size.
  int pow2 = 1;
  while (pow2 * 2 <= size) pow2 *= 2;

  // Fold phase: extra ranks send their image's drawn box into the pow2
  // set.
  if (rank >= pow2) {
    comm.send(rank - pow2, kTagSwapBase, pack_active(local, 0, npx),
              dense_bytes(npx));
    // Extra ranks still participate in the final gather (with nothing).
    comm.send(0, kTagGather, {});
    return Image{};
  }
  Partial mine(std::move(local));
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
      if (packed.empty()) continue;  // folded rank, or an empty strip
      store_message(result, unpack(packed));
    }
    return result;
  }
  const Image& strip = mine.get();
  comm.send(0, kTagGather,
            pack(strip, begin, end, {0, strip.width(), 0, strip.height()}),
            sizeof(std::int64_t) + dense_bytes(end - begin));
  return Image{};
}

Image composite(comm::Communicator& comm, Image local,
                CompositeAlgorithm algorithm) {
  switch (algorithm) {
    case CompositeAlgorithm::kTree:
      return composite_tree(comm, std::move(local));
    case CompositeAlgorithm::kBinarySwap:
      return composite_binary_swap(comm, std::move(local));
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
