#pragma once

// Framebuffer with depth: the unit of work in rank-level rendering and
// image compositing. RGBA8 color + float32 depth per pixel.
//
// An image is either dense, with both planes allocated and charged to the
// rank's memory tracker, or blank: a width, a height and a background
// color but no planes and no tracked bytes. A blank image reads as every
// pixel at the background color and depth +inf. Rasterization makes a
// rank's local image dense only while it has geometry to draw and keeps
// it dense only if a fragment lands, so a rank that draws nothing holds
// no framebuffer while compositing.
//
// Both planes live in one byte buffer taken from the rank's
// pal::buffer_pool(): n colors, then n depths. The buffer goes back to
// the pool when the image is made blank, reassigned or destroyed, so a
// rank that renders every step reuses one framebuffer instead of
// faulting in fresh pages each time. The backends keep one framebuffer
// per rank: rank 0 drops its previous composite when a rendering step
// starts, so that composite's planes become this step's local image.
// Parked planes are the pool's, never the tracker's: tracked bytes are
// n*8 while dense and 0 while blank, pooled or not.
//
// Each image records the box it has drawn into: a row range x column
// range holding every pixel whose depth can win a depth test (below +inf
// and not NaN). Outside it every pixel is the background at +inf, so the
// compositor sends only the box (compositor.hpp). reset(), materialize(),
// make_blank() and clear() empty the box, and a blank image's is always
// empty; copies and moves carry it, and composite_over() unions it with
// the other image's. The rasterizer and the compositor write through canvas(),
// which grows the box by the rectangles they report. Every other mutable
// access, through pixels(), depths(), pixel() or depth(), may write any
// pixel and so widens the box to the whole image.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "kernels/kernels.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/digest.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::render {

struct Rgba {
  std::uint8_t r = 0, g = 0, b = 0, a = 0;
  bool operator==(const Rgba&) const = default;
};

/// Appends `count` copies of `value` to `out`, one bounded copy per
/// block: every byte is written once, with no zero-fill first.
template <typename T>
void append_repeated(std::vector<std::byte>& out, T value, std::size_t count) {
  constexpr std::size_t kBlock = 1024;
  T block[kBlock];
  std::fill_n(block, std::min(kBlock, count), value);
  const auto* bytes = reinterpret_cast<const std::byte*>(block);
  while (count > 0) {
    const std::size_t k = std::min(kBlock, count);
    out.insert(out.end(), bytes, bytes + k * sizeof(T));
    count -= k;
  }
}

/// A pixel rectangle [x0, x1) x [y0, y1); empty when either side is.
struct PixelBox {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;

  bool empty() const { return x0 >= x1 || y0 >= y1; }
  /// The smallest box holding both.
  PixelBox united(const PixelBox& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x0, o.x0), std::max(x1, o.x1), std::min(y0, o.y0),
            std::max(y1, o.y1)};
  }
  bool operator==(const PixelBox&) const = default;
};

class Image {
 public:
  Image() = default;
  /// Dense: every pixel `background` at depth +inf.
  Image(int width, int height, Rgba background = {}) {
    reset(width, height, background);
  }

  /// Blank: no planes, nothing tracked; materialize() makes it dense.
  static Image blank(int width, int height, Rgba background = {}) {
    Image img;
    img.width_ = width;
    img.height_ = height;
    img.background_ = background;
    return img;
  }

  ~Image() { release_planes(); }

  /// A moved-from image is empty (0x0, no planes).
  Image(Image&& other) noexcept
      : width_(std::exchange(other.width_, 0)),
        height_(std::exchange(other.height_, 0)),
        background_(other.background_),
        drawn_(std::exchange(other.drawn_, {})),
        planes_(std::move(other.planes_)),
        tracked_(std::move(other.tracked_)) {}
  Image& operator=(Image&& other) noexcept {
    if (this == &other) return *this;
    release_planes();
    width_ = std::exchange(other.width_, 0);
    height_ = std::exchange(other.height_, 0);
    background_ = other.background_;
    drawn_ = std::exchange(other.drawn_, {});
    planes_ = std::move(other.planes_);
    tracked_ = std::move(other.tracked_);
    return *this;
  }

  // Copies take their planes from the copying rank's pool and re-register
  // their tracked footprint against that rank.
  Image(const Image& other) { *this = other; }
  Image& operator=(const Image& other) {
    if (this == &other) return *this;
    release_planes();
    width_ = other.width_;
    height_ = other.height_;
    background_ = other.background_;
    drawn_ = other.drawn_;
    if (!other.planes_.empty()) {
      planes_ = pal::buffer_pool().acquire(other.planes_.size());
      planes_.insert(planes_.end(), other.planes_.begin(),
                     other.planes_.end());
    }
    track();
    return *this;
  }

  /// Resize to a dense image of `background` at depth +inf. Reuses the
  /// current planes when they are large enough, else takes a buffer from
  /// the pool. Each plane is written once.
  void reset(int width, int height, Rgba background = {}) {
    width_ = width;
    height_ = height;
    background_ = background;
    drawn_ = {};
    const std::size_t n = pixel_count();
    if (planes_.capacity() < n * kPixelBytes) {
      release_planes();
      planes_ = pal::buffer_pool().acquire(n * kPixelBytes);
    }
    planes_.clear();
    append_repeated(planes_, background, n);
    append_repeated(planes_, std::numeric_limits<float>::infinity(), n);
    track();
  }

  /// Allocate the planes of a blank image; a dense image is unchanged.
  void materialize() {
    if (blank()) reset(width_, height_, background_);
  }

  /// Drop the planes back into the pool, keeping the dimensions and
  /// background.
  void make_blank() {
    release_planes();
    drawn_ = {};
    track();
  }

  int width() const { return width_; }
  int height() const { return height_; }
  std::int64_t num_pixels() const {
    return static_cast<std::int64_t>(width_) * height_;
  }
  /// No pixels at all (a default-constructed image).
  bool empty() const { return num_pixels() == 0; }
  /// Sized, but without planes.
  bool blank() const { return planes_.empty() && num_pixels() > 0; }
  Rgba background() const { return background_; }
  /// Bytes charged to the memory tracker: the planes, or 0 when blank.
  std::size_t tracked_bytes() const { return tracked_.bytes(); }

  /// The drawn box: every pixel outside it is the background at +inf.
  /// Empty while blank.
  const PixelBox& drawn() const { return drawn_; }

  // The non-const accessors widen the drawn box to the whole image: the
  // caller may write any pixel through them.
  Rgba& pixel(int x, int y) { return pixels()[index(x, y)]; }
  const Rgba& pixel(int x, int y) const { return pixels()[index(x, y)]; }
  float& depth(int x, int y) { return depths()[index(x, y)]; }
  float depth(int x, int y) const { return depths()[index(x, y)]; }

  /// The color plane; empty while blank.
  std::span<Rgba> pixels() {
    widen();
    return {color_data(), dense_count()};
  }
  std::span<const Rgba> pixels() const {
    return {reinterpret_cast<const Rgba*>(planes_.data()), dense_count()};
  }
  /// The depth plane; empty while blank.
  std::span<float> depths() {
    widen();
    return {depth_data(), dense_count()};
  }
  std::span<const float> depths() const {
    return {reinterpret_cast<const float*>(planes_.data() + depth_offset()),
            dense_count()};
  }

  /// Raw planes for writers that report what they touch: the rasterizer
  /// and the compositor. Unlike pixels()/depths() it leaves the drawn box
  /// alone; the writer grows it by every rectangle it may have written a
  /// depth into. Valid while the image keeps its planes.
  struct Canvas {
    Rgba* colors = nullptr;
    float* depths = nullptr;
    PixelBox* drawn = nullptr;

    void grow(const PixelBox& box) const { *drawn = drawn->united(box); }
  };
  Canvas canvas() { return {color_data(), depth_data(), &drawn_}; }

  void clear(Rgba background) {
    background_ = background;
    drawn_ = {};
    std::fill_n(color_data(), dense_count(), background);
    std::fill_n(depth_data(), dense_count(),
                std::numeric_limits<float>::infinity());
  }

  /// Depth-composite `other` over this image: nearer fragment wins.
  void composite_over(const Image& other) {
    kernels::depth_composite(
        reinterpret_cast<std::uint8_t*>(color_data()), depth_data(),
        reinterpret_cast<const std::uint8_t*>(other.pixels().data()),
        other.depths().data(), static_cast<std::int64_t>(dense_count()));
    if (!planes_.empty()) drawn_ = drawn_.united(other.drawn_);
  }

  /// XXH64 (seed 0) of every color byte, row by row in RGBA order; used
  /// for determinism checks. A blank image digests as its dense
  /// equivalent: the background is fed in blocks, as append_repeated
  /// writes it, without a frame. The digest covers bytes only: two images
  /// with the same bytes in different shapes (3x2 and 2x3 of one color)
  /// agree.
  std::uint64_t color_hash() const {
    if (!blank()) return pal::xxh64(std::as_bytes(pixels()));
    constexpr std::size_t kBlock = 1024;
    Rgba block[kBlock];
    std::size_t count = pixel_count();
    std::fill_n(block, std::min(kBlock, count), background_);
    pal::Xxh64 state;
    while (count > 0) {
      const std::size_t k = std::min(kBlock, count);
      state.update(std::as_bytes(std::span<const Rgba>(block, k)));
      count -= k;
    }
    return state.digest();
  }

 private:
  static constexpr std::size_t kPixelBytes = sizeof(Rgba) + sizeof(float);

  std::size_t pixel_count() const {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  std::size_t dense_count() const { return planes_.size() / kPixelBytes; }
  std::size_t depth_offset() const { return dense_count() * sizeof(Rgba); }
  Rgba* color_data() { return reinterpret_cast<Rgba*>(planes_.data()); }
  float* depth_data() {
    return reinterpret_cast<float*>(planes_.data() + depth_offset());
  }
  /// A blank image has nothing to widen: it keeps an empty box.
  void widen() {
    if (!planes_.empty()) drawn_ = {0, width_, 0, height_};
  }
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }

  void release_planes() {
    if (planes_.capacity() != 0) {
      pal::buffer_pool().release(std::move(planes_));
      planes_ = {};
    }
  }

  void track() {
    if (planes_.empty()) {
      tracked_ = pal::TrackedBytes();
    } else {
      tracked_.resize(planes_.size());
    }
  }

  int width_ = 0;
  int height_ = 0;
  Rgba background_;
  PixelBox drawn_;  ///< holds every pixel that can win
  std::vector<std::byte> planes_;  ///< pooled: n colors, then n depths
  pal::TrackedBytes tracked_;
};

}  // namespace insitu::render
