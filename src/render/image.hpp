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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/kernels.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::render {

struct Rgba {
  std::uint8_t r = 0, g = 0, b = 0, a = 0;
  bool operator==(const Rgba&) const = default;
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

  Image(Image&&) noexcept = default;
  Image& operator=(Image&&) noexcept = default;

  // Copies re-register their tracked footprint against the copying rank.
  Image(const Image& other) { *this = other; }
  Image& operator=(const Image& other) {
    if (this == &other) return *this;
    width_ = other.width_;
    height_ = other.height_;
    background_ = other.background_;
    pixels_ = other.pixels_;
    depth_ = other.depth_;
    track();
    return *this;
  }

  /// Resize to a dense image of `background` at depth +inf. Each plane is
  /// written once.
  void reset(int width, int height, Rgba background = {}) {
    width_ = width;
    height_ = height;
    background_ = background;
    const std::size_t n =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
    pixels_.assign(n, background);
    depth_.assign(n, std::numeric_limits<float>::infinity());
    track();
  }

  /// Allocate the planes of a blank image; a dense image is unchanged.
  void materialize() {
    if (blank()) reset(width_, height_, background_);
  }

  /// Drop the planes, keeping the dimensions and background.
  void make_blank() { *this = blank(width_, height_, background_); }

  int width() const { return width_; }
  int height() const { return height_; }
  std::int64_t num_pixels() const {
    return static_cast<std::int64_t>(width_) * height_;
  }
  /// No pixels at all (a default-constructed image).
  bool empty() const { return num_pixels() == 0; }
  /// Sized, but without planes.
  bool blank() const { return pixels_.empty() && num_pixels() > 0; }
  Rgba background() const { return background_; }
  /// Bytes charged to the memory tracker: the planes, or 0 when blank.
  std::size_t tracked_bytes() const { return tracked_.bytes(); }

  Rgba& pixel(int x, int y) {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  const Rgba& pixel(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  float& depth(int x, int y) {
    return depth_[static_cast<std::size_t>(y) * width_ + x];
  }
  float depth(int x, int y) const {
    return depth_[static_cast<std::size_t>(y) * width_ + x];
  }

  std::vector<Rgba>& pixels() { return pixels_; }
  const std::vector<Rgba>& pixels() const { return pixels_; }
  std::vector<float>& depths() { return depth_; }
  const std::vector<float>& depths() const { return depth_; }

  void clear(Rgba background) {
    background_ = background;
    std::fill(pixels_.begin(), pixels_.end(), background);
    std::fill(depth_.begin(), depth_.end(),
              std::numeric_limits<float>::infinity());
  }

  /// Depth-composite `other` over this image: nearer fragment wins.
  void composite_over(const Image& other) {
    kernels::depth_composite(
        reinterpret_cast<std::uint8_t*>(pixels_.data()), depth_.data(),
        reinterpret_cast<const std::uint8_t*>(other.pixels_.data()),
        other.depth_.data(), static_cast<std::int64_t>(pixels_.size()));
  }

  /// FNV-1a hash of the color plane; used for determinism checks.
  std::uint64_t color_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const Rgba& p : pixels_) {
      for (std::uint8_t c : {p.r, p.g, p.b, p.a}) {
        h ^= c;
        h *= 1099511628211ULL;
      }
    }
    return h;
  }

 private:
  void track() {
    const std::size_t bytes = pixels_.size() * (sizeof(Rgba) + sizeof(float));
    if (bytes == 0) {
      tracked_ = pal::TrackedBytes();
    } else {
      tracked_.resize(bytes);
    }
  }

  int width_ = 0;
  int height_ = 0;
  Rgba background_;
  std::vector<Rgba> pixels_;
  std::vector<float> depth_;
  pal::TrackedBytes tracked_;
};

}  // namespace insitu::render
