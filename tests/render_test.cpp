#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/contour.hpp"
#include "comm/runtime.hpp"
#include "data/image_data.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/memory_tracker.hpp"
#include "render/compositor.hpp"
#include "render/png.hpp"
#include "render/rasterizer.hpp"
#include "test_temp_dir.hpp"

namespace insitu::render {
namespace {

using analysis::TriangleMesh;
using data::Vec3;

TriangleMesh unit_quad(double z, double scalar) {
  TriangleMesh mesh;
  mesh.vertices = {{-1, -1, z}, {1, -1, z}, {1, 1, z}, {-1, 1, z}};
  mesh.scalars = {scalar, scalar, scalar, scalar};
  mesh.triangles = {{0, 1, 2}, {0, 2, 3}};
  return mesh;
}

RenderConfig small_config() {
  RenderConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  data::Bounds b;
  b.expand({-1, -1, -1});
  b.expand({1, 1, 1});
  cfg.camera = default_slice_camera(b);
  cfg.colormap = ColorMap::grayscale(0.0, 1.0);
  return cfg;
}

TEST(Rasterizer, QuadCoversCenterPixels) {
  const RenderConfig cfg = small_config();
  Image img = render_mesh(unit_quad(0.0, 1.0), cfg);
  // Center must be hit and colored white (scalar 1 on grayscale).
  const Rgba center = img.pixel(32, 32);
  EXPECT_EQ(center.r, 255);
  EXPECT_EQ(center.a, 255);
  // A corner outside the quad stays background.
  EXPECT_EQ(img.pixel(0, 0).a, 0);
}

TEST(Rasterizer, DepthTestNearWins) {
  const RenderConfig cfg = small_config();
  Image img(cfg.width, cfg.height);
  img.clear(cfg.background);
  // Far dark quad first, then near bright quad: near wins.
  rasterize(unit_quad(0.5, 0.0), cfg, img);   // farther from camera at +z
  rasterize(unit_quad(0.9, 1.0), cfg, img);   // nearer (camera at z=+4R)
  EXPECT_EQ(img.pixel(32, 32).r, 255);
  // Order-independence: reversed order gives the same image.
  Image img2(cfg.width, cfg.height);
  img2.clear(cfg.background);
  rasterize(unit_quad(0.9, 1.0), cfg, img2);
  rasterize(unit_quad(0.5, 0.0), cfg, img2);
  EXPECT_EQ(img.color_hash(), img2.color_hash());
}

TEST(Rasterizer, ScalarGradientInterpolated) {
  TriangleMesh mesh;
  mesh.vertices = {{-1, -1, 0}, {1, -1, 0}, {1, 1, 0}, {-1, 1, 0}};
  mesh.scalars = {0.0, 1.0, 1.0, 0.0};  // dark left, bright right
  mesh.triangles = {{0, 1, 2}, {0, 2, 3}};
  Image img = render_mesh(mesh, small_config());
  EXPECT_LT(img.pixel(8, 32).r, img.pixel(56, 32).r);
}

TEST(Rasterizer, FragmentCountPositive) {
  const RenderConfig cfg = small_config();
  Image img(cfg.width, cfg.height);
  img.clear(cfg.background);
  const std::int64_t fragments = rasterize(unit_quad(0.0, 0.5), cfg, img);
  EXPECT_GT(fragments, 0);
}

TEST(Rasterizer, EmptyMeshRendersBackground) {
  Image img = render_mesh(TriangleMesh{}, small_config());
  for (const Rgba& p : img.pixels()) EXPECT_EQ(p.a, 0);
}

TEST(ColorMap, EndpointsAndClamping) {
  ColorMap cm = ColorMap::grayscale(0.0, 10.0);
  EXPECT_EQ(cm.map(0.0).r, 0);
  EXPECT_EQ(cm.map(10.0).r, 255);
  EXPECT_EQ(cm.map(-5.0).r, 0);    // clamped
  EXPECT_EQ(cm.map(20.0).r, 255);  // clamped
  EXPECT_EQ(cm.map(5.0).r, 128);
}

TEST(ColorMap, CoolWarmMidpointIsNeutral) {
  ColorMap cm = ColorMap::cool_warm(-1.0, 1.0);
  const Rgba mid = cm.map(0.0);
  EXPECT_NEAR(mid.r, 221, 2);
  EXPECT_NEAR(mid.g, 221, 2);
  const Rgba lo = cm.map(-1.0);
  EXPECT_GT(lo.b, lo.r);  // cool end is blue
  const Rgba hi = cm.map(1.0);
  EXPECT_GT(hi.r, hi.b);  // warm end is red
}

TEST(ColorMap, ByName) {
  EXPECT_EQ(ColorMap::by_name("heat", 0, 1).map(0.0).r, 0);
  EXPECT_EQ(ColorMap::by_name("grayscale", 0, 1).map(1.0).g, 255);
}

TEST(ColorMap, DegenerateRange) {
  ColorMap cm = ColorMap::grayscale(5.0, 5.0);
  EXPECT_EQ(cm.map(5.0).r, 128);  // midpoint fallback
}

TEST(Image, CompositeOverPrefersNearerDepth) {
  Image a(2, 1), b(2, 1);
  a.pixel(0, 0) = {10, 0, 0, 255};
  a.depth(0, 0) = 1.0f;
  b.pixel(0, 0) = {0, 20, 0, 255};
  b.depth(0, 0) = 0.5f;  // nearer
  b.pixel(1, 0) = {0, 0, 30, 255};
  b.depth(1, 0) = 2.0f;
  a.pixel(1, 0) = {40, 0, 0, 255};
  a.depth(1, 0) = 1.5f;  // nearer
  a.composite_over(b);
  EXPECT_EQ(a.pixel(0, 0).g, 20);
  EXPECT_EQ(a.pixel(1, 0).r, 40);
}

/// Plane bytes of a dense w x h image.
std::size_t plane_bytes(int w, int h) {
  return static_cast<std::size_t>(w) * static_cast<std::size_t>(h) *
         (sizeof(Rgba) + sizeof(float));
}

// An image's planes come from its rank's pool and go back to it, so a
// rank that renders every step reuses one framebuffer.
TEST(Image, RematerializingOnTheSameRankIsAPoolHit) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const pal::BufferPool& pool = pal::buffer_pool();
    Image img = Image::blank(64, 32, {1, 2, 3, 4});
    img.materialize();
    const void* planes = img.pixels().data();
    const pal::BufferPoolStats first = pool.stats();
    img.make_blank();
    img.materialize();
    EXPECT_EQ(pool.stats().hits, first.hits + 1);
    EXPECT_EQ(pool.stats().misses, first.misses);
    EXPECT_EQ(img.pixels().data(), planes);  // the same allocation
    EXPECT_EQ(img.pixel(63, 31), (Rgba{1, 2, 3, 4}));
    EXPECT_EQ(img.depth(0, 0), std::numeric_limits<float>::infinity());
  });
}

TEST(Image, TrackedBytesFollowDenseAndBlank) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const pal::MemoryTracker& tracker = pal::rank_memory_tracker();
    const std::size_t before = tracker.current_bytes();
    Image img = Image::blank(40, 30);
    EXPECT_EQ(img.tracked_bytes(), 0u);
    EXPECT_EQ(tracker.current_bytes(), before);
    for (int round = 0; round < 2; ++round) {
      img.materialize();
      EXPECT_EQ(img.tracked_bytes(), plane_bytes(40, 30));
      EXPECT_EQ(tracker.current_bytes(), before + plane_bytes(40, 30));
      img.make_blank();
      EXPECT_TRUE(img.blank());
      EXPECT_EQ(img.tracked_bytes(), 0u);
      EXPECT_EQ(tracker.current_bytes(), before);
    }
    img.reset(20, 10);  // shrinking reuses the planes at the new size
    EXPECT_EQ(img.tracked_bytes(), plane_bytes(20, 10));
    EXPECT_EQ(img.pixels().size(), 200u);
    EXPECT_EQ(img.depths().size(), 200u);
  });
}

TEST(Image, CopyReRegistersItsTrackedBytes) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const pal::MemoryTracker& tracker = pal::rank_memory_tracker();
    Image a(16, 8, {9, 9, 9, 255});
    a.depth(3, 2) = 0.25f;
    const std::size_t with_one = tracker.current_bytes();
    const Image b = a;
    EXPECT_EQ(b.tracked_bytes(), plane_bytes(16, 8));
    EXPECT_EQ(tracker.current_bytes(), with_one + plane_bytes(16, 8));
    EXPECT_NE(b.pixels().data(), a.pixels().data());
    EXPECT_TRUE(std::ranges::equal(b.pixels(), a.pixels()));
    EXPECT_TRUE(std::ranges::equal(b.depths(), a.depths()));
    const Image blank_copy = Image::blank(16, 8);
    Image c = blank_copy;
    EXPECT_TRUE(c.blank());
    EXPECT_EQ(c.tracked_bytes(), 0u);
  });
}

TEST(Image, MovedFromImageIsEmpty) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const pal::MemoryTracker& tracker = pal::rank_memory_tracker();
    Image a(16, 8);
    const std::size_t with_one = tracker.current_bytes();
    Image b = std::move(a);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(a.blank());
    EXPECT_EQ(a.tracked_bytes(), 0u);
    EXPECT_TRUE(a.pixels().empty());
    EXPECT_EQ(b.tracked_bytes(), plane_bytes(16, 8));
    EXPECT_EQ(tracker.current_bytes(), with_one);  // moved, not copied
    Image c;
    c = std::move(b);
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.num_pixels(), 128);
    EXPECT_EQ(tracker.current_bytes(), with_one);
  });
}

TEST(Image, MakeBlankParksItsBuffer) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const pal::BufferPool& pool = pal::buffer_pool();
    Image img(64, 64);
    const std::size_t parked = pool.free_buffers();
    const std::size_t parked_bytes = pool.free_bytes();
    img.make_blank();
    EXPECT_EQ(img.width(), 64);
    EXPECT_EQ(pool.free_buffers(), parked + 1);
    EXPECT_GE(pool.free_bytes(), parked_bytes + plane_bytes(64, 64));
    {
      const Image gone(64, 64);  // takes the parked buffer back
      EXPECT_EQ(pool.free_buffers(), parked);
    }
    EXPECT_EQ(pool.free_buffers(), parked + 1);  // destruction parks too
  });
}

// ---- the drawn box ----

constexpr PixelBox kNoBox{};

TEST(Image, FreshAndClearedImagesHaveAnEmptyDrawnBox) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    Image img(16, 8, {1, 2, 3, 4});
    EXPECT_EQ(img.drawn(), kNoBox);
    const PixelBox whole{0, 16, 0, 8};
    auto draw = [&] {
      (void)img.pixels();
      ASSERT_EQ(img.drawn(), whole);
    };
    draw();
    img.reset(16, 8);
    EXPECT_EQ(img.drawn(), kNoBox);
    draw();
    img.clear({5, 6, 7, 8});
    EXPECT_EQ(img.drawn(), kNoBox);
    draw();
    img.make_blank();
    EXPECT_EQ(img.drawn(), kNoBox);
    img.materialize();
    EXPECT_EQ(img.drawn(), kNoBox);
    const Image blank = Image::blank(16, 8);
    EXPECT_EQ(blank.drawn(), kNoBox);
  });
}

TEST(Image, CopiesAndMovesCarryTheDrawnBox) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    Image a(16, 8);
    const PixelBox box{3, 9, 2, 5};
    a.canvas().grow(box);
    ASSERT_EQ(a.drawn(), box);
    const Image copied = a;
    EXPECT_EQ(copied.drawn(), box);
    Image assigned;
    assigned = copied;
    EXPECT_EQ(assigned.drawn(), box);
    Image moved = std::move(a);
    EXPECT_EQ(moved.drawn(), box);
    EXPECT_EQ(a.drawn(), kNoBox);  // NOLINT(bugprone-use-after-move)
    Image move_assigned;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned.drawn(), box);
    EXPECT_EQ(moved.drawn(), kNoBox);  // NOLINT(bugprone-use-after-move)
  });
}

TEST(Image, MutableAccessWidensTheDrawnBoxToTheWholeImage) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    const PixelBox whole{0, 16, 0, 8};
    const std::vector<std::function<void(Image&)>> accesses = {
        [](Image& img) { (void)img.pixels(); },
        [](Image& img) { (void)img.depths(); },
        [](Image& img) { (void)img.pixel(1, 1); },
        [](Image& img) { (void)img.depth(1, 1); },
    };
    for (const auto& access : accesses) {
      Image img(16, 8);
      img.canvas().grow({2, 3, 2, 3});
      const Image& read_only = img;
      (void)read_only.pixels();
      (void)read_only.depths();
      (void)read_only.pixel(1, 1);
      (void)read_only.depth(1, 1);
      EXPECT_EQ(img.drawn(), (PixelBox{2, 3, 2, 3}));  // reads do not widen
      access(img);
      EXPECT_EQ(img.drawn(), whole);
    }
    Image blank = Image::blank(16, 8);
    (void)blank.pixels();
    EXPECT_EQ(blank.drawn(), kNoBox);  // nothing to write into
  });
}

TEST(Image, CompositeOverUnionsTheDrawnBoxes) {
  comm::Runtime::run(1, [](comm::Communicator&) {
    Image a(16, 8), b(16, 8);
    a.canvas().grow({1, 4, 5, 7});
    b.canvas().grow({6, 9, 0, 2});
    a.composite_over(b);
    EXPECT_EQ(a.drawn(), (PixelBox{1, 9, 0, 7}));
    EXPECT_EQ(b.drawn(), (PixelBox{6, 9, 0, 2}));
    Image c(16, 8);
    c.composite_over(Image(16, 8));
    EXPECT_EQ(c.drawn(), kNoBox);
  });
}

/// Every pixel outside the drawn box is the background at +inf depth.
void expect_untouched_outside_box(const Image& img, Rgba background) {
  const PixelBox& box = img.drawn();
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (x >= box.x0 && x < box.x1 && y >= box.y0 && y < box.y1) continue;
      ASSERT_EQ(img.pixel(x, y), background) << x << "," << y;
      ASSERT_EQ(img.depth(x, y), std::numeric_limits<float>::infinity())
          << x << "," << y;
    }
  }
}

class CompositorP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CompositorP,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16, 33));

/// Each rank renders a horizontal strip; the composite must contain every
/// strip, nearest-depth resolved, identically for both algorithms.
TEST_P(CompositorP, TreeAndBinarySwapAgree) {
  const int p = GetParam();
  std::atomic<std::uint64_t> tree_hash{0}, swap_hash{0};
  std::atomic<int> failures{0};
  auto run = [&](CompositeAlgorithm algo, std::atomic<std::uint64_t>& hash) {
    comm::Runtime::run(p, [&](comm::Communicator& comm) {
      Image local(32, 32);
      local.clear(Rgba{0, 0, 0, 0});
      // Rank r owns rows [r*32/p, (r+1)*32/p) at depth 1, and additionally
      // covers row 0 at depth (rank+2) so depth resolution matters.
      const int y0 = comm.rank() * 32 / p;
      const int y1 = (comm.rank() + 1) * 32 / p;
      for (int y = y0; y < y1; ++y) {
        for (int x = 0; x < 32; ++x) {
          local.pixel(x, y) =
              Rgba{static_cast<std::uint8_t>(50 + comm.rank()), 0, 0, 255};
          local.depth(x, y) = 1.0f;
        }
      }
      for (int x = 0; x < 32; ++x) {
        local.pixel(x, 0) =
            Rgba{0, static_cast<std::uint8_t>(100 + comm.rank()), 0, 255};
        local.depth(x, 0) = static_cast<float>(comm.rank() + 2);
      }
      Image result = composite(comm, local, algo);
      if (comm.rank() == 0) {
        if (result.empty()) {
          ++failures;
          return;
        }
        // Row 0: every rank painted it green at depth rank+2 (rank 0's
        // overlay overwrote its own red strip there), so the nearest is
        // rank 0's green at depth 2.
        if (result.pixel(5, 0).g != 100) ++failures;
        // Every strip present.
        for (int r = 0; r < p; ++r) {
          const int y = (r * 32 / p + (r + 1) * 32 / p) / 2;
          if (y == 0) continue;
          if (result.pixel(16, y).r != 50 + r) ++failures;
        }
        hash = result.color_hash();
      } else if (!result.empty()) {
        ++failures;
      }
    });
  };
  run(CompositeAlgorithm::kTree, tree_hash);
  run(CompositeAlgorithm::kBinarySwap, swap_hash);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tree_hash.load(), swap_hash.load());
}

// ---- sparse compositing vs a serial dense reference ----

/// What each rank draws before compositing.
enum class Fill {
  kBlank,          // nothing
  kOnlyFirst,      // rank 0 alone draws
  kOnlySecond,     // rank 1 alone draws (rank 0 draws nothing)
  kOnlyLast,       // the last rank alone draws (a fold rank in binary
                   // swap when the size is not a power of two)
  kOnlyMiddle,     // one mid rank that is not a power of two
  kEvenLowHalf,    // even ranks draw in the image's low half; odd ranks
                   // draw nothing and own high-half swap strips
  kRangeEdges,     // the first and last pixel of every swap range
  kNanAndTies,     // NaN and +inf depths, equal depths across ranks
  kCovered,        // every pixel
};
constexpr Fill kAllFills[] = {Fill::kBlank,        Fill::kOnlyFirst,
                              Fill::kOnlySecond,   Fill::kOnlyLast,
                              Fill::kOnlyMiddle,   Fill::kEvenLowHalf,
                              Fill::kRangeEdges,   Fill::kNanAndTies,
                              Fill::kCovered};

/// How a rank that draws nothing hands its local image over.
enum class Idle {
  kDense,  // a dense background image at +inf depth
  kBlank,  // a blank image: no planes (what render_local produces)
};

// Odd sizes, so halved swap ranges are uneven.
constexpr int kFillWidth = 37;
constexpr int kFillHeight = 23;

/// First and last pixel of every range binary swap can own at up to 64
/// ranks.
std::vector<std::int64_t> swap_range_edges(std::int64_t npx) {
  std::vector<std::int64_t> edges;
  std::function<void(std::int64_t, std::int64_t, int)> split =
      [&](std::int64_t begin, std::int64_t end, int levels) {
        if (end <= begin) return;
        edges.push_back(begin);
        edges.push_back(end - 1);
        if (levels == 0) return;
        const std::int64_t mid = begin + (end - begin) / 2;
        split(begin, mid, levels - 1);
        split(mid, end, levels - 1);
      };
  split(0, npx, 6);
  return edges;
}

Image make_local(Fill fill, int rank, int size, Idle idle = Idle::kDense) {
  // A distinct, non-default background per rank: a blank source's colors
  // must never reach the composite, except where that rank's strip is
  // what binary swap gathers.
  const Rgba background{static_cast<std::uint8_t>(rank * 7),
                        static_cast<std::uint8_t>(rank * 13), 200, 0};
  Image img(kFillWidth, kFillHeight, background);
  const std::int64_t npx = img.num_pixels();
  bool drew = false;
  auto paint = [&](std::int64_t i, float depth) {
    img.pixels()[static_cast<std::size_t>(i)] =
        Rgba{static_cast<std::uint8_t>(40 + rank),
             static_cast<std::uint8_t>(i % 251), 7, 255};
    img.depths()[static_cast<std::size_t>(i)] = depth;
    drew = true;
  };
  auto paint_blob = [&] {
    for (std::int64_t i = npx / 3; i < npx / 2; ++i) {
      paint(i, 1.0f + static_cast<float>(i % 5));
    }
  };
  switch (fill) {
    case Fill::kBlank: break;
    case Fill::kOnlyFirst:
      if (rank == 0) paint_blob();
      break;
    case Fill::kOnlySecond:
      if (rank == std::min(1, size - 1)) paint_blob();
      break;
    case Fill::kOnlyLast:
      if (rank == size - 1) paint_blob();
      break;
    case Fill::kOnlyMiddle:
      if (rank == std::min(size / 2 | 1, size - 1)) paint_blob();
      break;
    case Fill::kEvenLowHalf:
      if (rank % 2 == 0) {
        for (std::int64_t i = rank % 3; i < npx / 2; i += 3) {
          paint(i, 1.0f + static_cast<float>((i + rank) % 4));
        }
      }
      break;
    case Fill::kRangeEdges:
      for (const std::int64_t i : swap_range_edges(npx)) {
        paint(i, static_cast<float>(1 + (rank + i) % 3));
      }
      break;
    case Fill::kNanAndTies:
      for (std::int64_t i = 0; i < npx; ++i) {
        switch ((i + rank) % 5) {
          case 0: paint(i, std::numeric_limits<float>::quiet_NaN()); break;
          case 1: break;  // stays at +inf
          default: paint(i, static_cast<float>((i * 7) % 3)); break;
        }
      }
      break;
    case Fill::kCovered:
      for (std::int64_t i = 0; i < npx; ++i) {
        paint(i, 1.0f + static_cast<float>((i + rank) % 7));
      }
      break;
  }
  if (!drew && idle == Idle::kBlank) {
    return Image::blank(kFillWidth, kFillHeight, background);
  }
  return img;
}

/// Pixels [lo, hi) of `src` over `dst`: the strictly nearer one wins, as
/// in depth_composite.
void dense_merge(Image& dst, const Image& src, std::int64_t lo,
                 std::int64_t hi) {
  for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi);
       ++i) {
    if (src.depths()[i] < dst.depths()[i]) {
      dst.pixels()[i] = src.pixels()[i];
      dst.depths()[i] = src.depths()[i];
    }
  }
}

/// composite_tree's schedule, run serially on dense images.
Image reference_tree(std::vector<Image> imgs) {
  for (Image& img : imgs) img.materialize();
  const int size = static_cast<int>(imgs.size());
  for (int stride = 1; stride < size; stride <<= 1) {
    for (int r = 0; r + stride < size; r += 2 * stride) {
      dense_merge(imgs[r], imgs[r + stride], 0, imgs[r].num_pixels());
    }
  }
  return std::move(imgs[0]);
}

/// composite_binary_swap's schedule, run serially on dense images.
Image reference_binary_swap(std::vector<Image> imgs) {
  for (Image& img : imgs) img.materialize();
  const int size = static_cast<int>(imgs.size());
  const std::int64_t npx = imgs[0].num_pixels();
  int pow2 = 1;
  while (pow2 * 2 <= size) pow2 *= 2;
  for (int r = pow2; r < size; ++r) dense_merge(imgs[r - pow2], imgs[r], 0, npx);
  std::vector<std::int64_t> begin(pow2, 0), end(pow2, npx);
  for (int stride = 1; stride < pow2; stride <<= 1) {
    const std::vector<Image> sent = imgs;  // every rank sends, then merges
    for (int r = 0; r < pow2; ++r) {
      const std::int64_t mid = begin[r] + (end[r] - begin[r]) / 2;
      if ((r & stride) == 0) {
        end[r] = mid;
      } else {
        begin[r] = mid;
      }
      dense_merge(imgs[r], sent[r ^ stride], begin[r], end[r]);
    }
  }
  Image result = imgs[0];
  for (int r = 1; r < pow2; ++r) {
    for (auto i = static_cast<std::size_t>(begin[r]);
         i < static_cast<std::size_t>(end[r]); ++i) {
      result.pixels()[i] = imgs[r].pixels()[i];
      result.depths()[i] = imgs[r].depths()[i];
    }
  }
  return result;
}

/// Composite `locals` (one per rank) with both algorithms and compare
/// rank 0's colors and depth bits with the serial dense replay of the same
/// schedule.
void expect_locals_match_reference(const std::vector<Image>& locals) {
  const int p = static_cast<int>(locals.size());
  for (const CompositeAlgorithm algo :
       {CompositeAlgorithm::kTree, CompositeAlgorithm::kBinarySwap}) {
    SCOPED_TRACE(::testing::Message()
                 << "algo="
                 << (algo == CompositeAlgorithm::kTree ? "tree" : "swap"));
    const Image expected = algo == CompositeAlgorithm::kTree
                               ? reference_tree(locals)
                               : reference_binary_swap(locals);
    // Plain vectors: an Image stays tied to its rank's memory tracker,
    // which does not outlive the run.
    std::vector<Rgba> colors;
    std::vector<float> depths;
    std::size_t result_tracked = 0;
    std::atomic<int> stray{0};
    comm::Runtime::run(p, [&](comm::Communicator& comm) {
      const Image result = composite(comm, locals[comm.rank()], algo);
      if (comm.rank() == 0) {
        colors.assign(result.pixels().begin(), result.pixels().end());
        depths.assign(result.depths().begin(), result.depths().end());
        result_tracked = result.tracked_bytes();
      } else if (!result.empty()) {
        ++stray;
      }
    });
    EXPECT_EQ(stray.load(), 0);
    EXPECT_EQ(result_tracked, expected.tracked_bytes());
    EXPECT_TRUE(std::ranges::equal(colors, expected.pixels()));
    ASSERT_EQ(depths.size(), expected.depths().size());
    EXPECT_EQ(std::memcmp(depths.data(), expected.depths().data(),
                          depths.size() * sizeof(float)),
              0);
  }
}

/// Composite every fill with both algorithms against the serial dense
/// reference.
void expect_matches_reference(int p, Idle idle) {
  for (const Fill fill : kAllFills) {
    SCOPED_TRACE(::testing::Message() << "fill=" << static_cast<int>(fill));
    std::vector<Image> locals;
    for (int r = 0; r < p; ++r) locals.push_back(make_local(fill, r, p, idle));
    expect_locals_match_reference(locals);
  }
}

/// Sending only drawn boxes must give rank 0 exactly the dense result:
/// colors and depths, bit for bit, NaN depths and ties included. These
/// locals are painted through pixels(), so their boxes are the whole
/// image.
TEST_P(CompositorP, MatchesSerialDenseReference) {
  expect_matches_reference(GetParam(), Idle::kDense);
}

/// Ranks that draw nothing pass blank locals: all blank, a blank rank 0
/// with one drawing rank (second, last, mid), blank binary-swap strip
/// owners. Rank 0 still gets the dense result, bit for bit.
TEST_P(CompositorP, BlankLocalsMatchSerialDenseReference) {
  const int p = GetParam();
  for (int r = 0; r < p; ++r) {
    const Image blank = make_local(Fill::kBlank, r, p, Idle::kBlank);
    ASSERT_TRUE(blank.blank());
    EXPECT_EQ(blank.tracked_bytes(), 0u);
  }
  expect_matches_reference(p, Idle::kBlank);
}

/// Where each rank's small mesh lands.
enum class Placement {
  kBorders,     // across an image border or corner, one per rank
  kSwapEdges,   // around the first and last pixel of binary-swap ranges,
                // most of which do not start on a row boundary
  kOneRank,     // one mid rank alone draws
  kBlank,       // no rank draws
};

/// The default camera over a kFillWidth x kFillHeight image, so that
/// at_pixel() maps pixel coordinates into its view.
RenderConfig fill_config(int rank) {
  RenderConfig cfg;
  cfg.width = kFillWidth;
  cfg.height = kFillHeight;
  cfg.colormap = ColorMap::grayscale(0.0, 1.0);
  cfg.background = Rgba{static_cast<std::uint8_t>(rank * 7),
                        static_cast<std::uint8_t>(rank * 13), 200, 0};
  return cfg;
}

/// The world point the default orthographic camera projects to pixel
/// coordinates (px, py) at `depth`.
Vec3 at_pixel(double px, double py, double depth) {
  const double aspect = static_cast<double>(kFillWidth) / kFillHeight;
  return {(px / kFillWidth - 0.5) * 2.0 * aspect,
          (0.5 - py / kFillHeight) * 2.0, Camera{}.eye().z - depth};
}

/// Appends the quad [x0, x1] x [y0, y1] (pixel coordinates) at `depth`.
void add_quad(TriangleMesh& mesh, double x0, double y0, double x1, double y1,
              double depth, double scalar) {
  const auto first = static_cast<std::int32_t>(mesh.vertices.size());
  for (const auto& [x, y] : {std::pair{x0, y0}, std::pair{x1, y0},
                             std::pair{x1, y1}, std::pair{x0, y1}}) {
    mesh.vertices.push_back(at_pixel(x, y, depth));
    mesh.scalars.push_back(scalar);
  }
  mesh.triangles.push_back({first, first + 1, first + 2});
  mesh.triangles.push_back({first, first + 2, first + 3});
}

TriangleMesh placed_mesh(Placement placement, int rank, int size) {
  TriangleMesh mesh;
  const double w = kFillWidth;
  const double h = kFillHeight;
  const double scalar = static_cast<double>(rank + 1) / (size + 1);
  const double depth = 1.0 + (rank * 5) % 7;
  switch (placement) {
    case Placement::kBorders: {
      // Eight border and corner spots, each straddling the image edge.
      const double spots[8][4] = {
          {-3, 4, 5, 9},           {w - 5, 6, w + 3, 12},
          {10, -3, 16, 4},         {14, h - 4, 22, h + 2},
          {-2, -2, 4, 3},          {w - 4, h - 3, w + 2, h + 2},
          {w - 6, -1.5, w + 1, 5}, {-1, h - 6, 3, h + 1}};
      for (int k = rank % 8; k < 8; k += std::max(size, 1)) {
        add_quad(mesh, spots[k][0], spots[k][1], spots[k][2], spots[k][3],
                 depth, scalar);
      }
      // A second rank on each spot once there are more ranks than spots,
      // shifted by a pixel so that depth resolution matters.
      if (rank >= 8) {
        const double* s = spots[rank % 8];
        add_quad(mesh, s[0] + 1, s[1] + 1, s[2] + 1, s[3] + 1, depth, scalar);
      }
      break;
    }
    case Placement::kSwapEdges: {
      const std::vector<std::int64_t> edges =
          swap_range_edges(static_cast<std::int64_t>(kFillWidth) *
                           kFillHeight);
      for (std::size_t k = static_cast<std::size_t>(rank); k < edges.size();
           k += static_cast<std::size_t>(size) * 3) {
        const double x = static_cast<double>(edges[k] % kFillWidth);
        const double y = static_cast<double>(edges[k] / kFillWidth);
        add_quad(mesh, x - 1.2, y - 0.9, x + 1.7, y + 1.4,
                 depth + static_cast<double>(k % 3), scalar);
      }
      break;
    }
    case Placement::kOneRank:
      if (rank == size / 2) add_quad(mesh, 9.3, 6.6, 24.2, 15.1, depth, scalar);
      break;
    case Placement::kBlank:
      break;
  }
  return mesh;
}

/// Locals drawn by the rasterizer, so their drawn boxes are tight: the
/// compositor sends only those boxes, and rank 0 must still get exactly
/// the dense result. A rank whose mesh writes no fragment passes a blank
/// local, as render_local does.
TEST_P(CompositorP, RasterizedLocalsMatchSerialDenseReference) {
  const int p = GetParam();
  for (const Placement placement : {Placement::kBorders, Placement::kSwapEdges,
                                    Placement::kOneRank, Placement::kBlank}) {
    SCOPED_TRACE(::testing::Message()
                 << "placement=" << static_cast<int>(placement));
    std::vector<Image> locals;
    int drawing = 0;
    int tight = 0;  // drawing locals whose box is not the whole image
    for (int r = 0; r < p; ++r) {
      const RenderConfig cfg = fill_config(r);
      Image local = Image::blank(cfg.width, cfg.height, cfg.background);
      rasterize(placed_mesh(placement, r, p), cfg, local);
      if (!local.blank()) {
        ++drawing;
        const PixelBox& box = local.drawn();
        if ((box.x1 - box.x0) * (box.y1 - box.y0) < local.num_pixels()) {
          ++tight;
        }
        expect_untouched_outside_box(local, cfg.background);
      }
      locals.push_back(std::move(local));
    }
    EXPECT_EQ(drawing == 0, placement == Placement::kBlank);
    // A box smaller than the image is what the compositor gets to skip.
    // With few ranks each one draws spots all over the image, so only the
    // lone mesh and the spread-out placements at 8+ ranks are tight.
    if (placement == Placement::kOneRank ||
        (placement != Placement::kBlank && p >= 8)) {
      EXPECT_GT(tight, 0);
    }
    expect_locals_match_reference(locals);
  }
}

/// Rasterizing and compositing on fibers: 64 ranks on two carriers draw
/// overlapping quads and composite them to rank 0, and the image must
/// hash exactly as it does on one carrier. CI also runs this under TSan.
TEST(Compositor, SixtyFourFibersOnTwoCarriersMatchOneCarrier) {
  constexpr int kRanks = 64;
  auto composite_hash = [](int carriers, bool* drawn) {
    std::atomic<std::uint64_t> hash{0};
    std::atomic<bool> blank{true};
    comm::Runtime::Options opts;
    opts.sched.backend = comm::SchedBackend::kMn;
    opts.sched.workers = carriers;
    const comm::RunReport report =
        comm::Runtime::run(kRanks, opts, [&](comm::Communicator& comm) {
          const int r = comm.rank();
          TriangleMesh mesh;
          const double x = (r % 8) * 4.0 - 2.0;
          const double y = (r / 8) * 3.0 - 2.0;
          add_quad(mesh, x, y, x + 15.5, y + 9.5, 1.0 + (r * 5) % 7,
                   (r + 1.0) / (kRanks + 1));
          add_quad(mesh, x + 3.0, y + 2.0, x + 7.0, y + 5.0, 0.5 + r % 3,
                   1.0 - (r + 1.0) / (kRanks + 1));
          Image local = render_local(comm, mesh, fill_config(0));
          Image result =
              composite(comm, std::move(local), CompositeAlgorithm::kTree);
          if (r == 0) {
            hash = result.color_hash();
            blank = result.blank();
          }
        });
    EXPECT_FALSE(report.failed) << report.failure_message;
    *drawn = !blank.load();
    return hash.load();
  };
  bool drawn_one = false, drawn_two = false;
  const std::uint64_t one = composite_hash(1, &drawn_one);
  EXPECT_TRUE(drawn_one);
  EXPECT_EQ(composite_hash(2, &drawn_two), one);
  EXPECT_TRUE(drawn_two);
}

/// Compositing cost must not depend on what the ranks drew: a blank run,
/// dense or with blank locals, and a fully covered run leave every rank at
/// the same virtual time.
TEST(Compositor, VirtualTimeIndependentOfContent) {
  for (const comm::SchedBackend backend :
       {comm::SchedBackend::kThreads, comm::SchedBackend::kMn}) {
    for (const int p : {5, 16}) {
      for (const CompositeAlgorithm algo :
           {CompositeAlgorithm::kTree, CompositeAlgorithm::kBinarySwap}) {
        auto clocks = [&](Fill fill, Idle idle) {
          std::vector<Image> locals;
          for (int r = 0; r < p; ++r) {
            locals.push_back(make_local(fill, r, p, idle));
          }
          comm::Runtime::Options opts;
          opts.machine = comm::cori_haswell();
          opts.sched.backend = backend;
          opts.sched.workers = 2;
          const comm::RunReport report =
              comm::Runtime::run(p, opts, [&](comm::Communicator& comm) {
                (void)composite(comm, locals[comm.rank()], algo);
              });
          std::vector<double> seconds;
          for (const comm::RankStats& r : report.ranks) {
            seconds.push_back(r.virtual_seconds);
          }
          return seconds;
        };
        SCOPED_TRACE(::testing::Message()
                     << comm::to_string(backend) << " p=" << p << " algo="
                     << (algo == CompositeAlgorithm::kTree ? "tree" : "swap"));
        const std::vector<double> covered =
            clocks(Fill::kCovered, Idle::kDense);
        EXPECT_GT(covered[0], 0.0);
        EXPECT_EQ(clocks(Fill::kBlank, Idle::kDense), covered);
        EXPECT_EQ(clocks(Fill::kBlank, Idle::kBlank), covered);
        EXPECT_EQ(clocks(Fill::kEvenLowHalf, Idle::kBlank), covered);
      }
    }
  }
}

/// render_local allocates a framebuffer only when a fragment lands: no
/// geometry, geometry entirely off screen, or a speck that reaches pixels
/// but covers no pixel center leaves the image blank and untracked, and
/// charges no raster time.
TEST(Compositor, RenderLocalIsBlankWithoutFragments) {
  const RenderConfig cfg = small_config();
  comm::Runtime::Options opts;
  opts.machine = comm::cori_haswell();
  comm::Runtime::run(1, opts, [&](comm::Communicator& comm) {
    const std::size_t before = pal::rank_memory_tracker().current_bytes();
    TriangleMesh none;
    TriangleMesh off_screen = unit_quad(0.0, 1.0);
    for (Vec3& v : off_screen.vertices) v.x += 100.0;
    // The image center is a pixel corner; this speck stays within 0.05
    // pixel of it.
    TriangleMesh speck;
    speck.vertices = {{0, 0, 0}, {1e-3, 0, 0}, {0, 1e-3, 0}};
    speck.scalars = {1.0, 1.0, 1.0};
    speck.triangles = {{0, 1, 2}};
    for (const TriangleMesh* mesh : {&none, &off_screen, &speck}) {
      const double t0 = comm.clock().now();
      const Image img = render_local(comm, *mesh, cfg);
      EXPECT_TRUE(img.blank());
      EXPECT_EQ(img.width(), cfg.width);
      EXPECT_EQ(img.height(), cfg.height);
      EXPECT_EQ(img.tracked_bytes(), 0u);
      EXPECT_EQ(pal::rank_memory_tracker().current_bytes(), before);
      EXPECT_EQ(comm.clock().now(), t0);
    }
    const Image drawn = render_local(comm, unit_quad(0.0, 1.0), cfg);
    EXPECT_FALSE(drawn.blank());
    EXPECT_EQ(drawn.tracked_bytes(),
              static_cast<std::size_t>(drawn.num_pixels()) *
                  (sizeof(Rgba) + sizeof(float)));
    EXPECT_EQ(drawn.color_hash(),
              render_mesh(unit_quad(0.0, 1.0), cfg).color_hash());
    EXPECT_GT(comm.clock().now(), 0.0);
  });
}

TEST(Compositor, VirtualTimeGrowsWithImageSize) {
  auto cost = [](int dim) {
    comm::Runtime::Options opts;
    opts.machine = comm::cori_haswell();
    auto report = comm::Runtime::run(8, opts, [&](comm::Communicator& comm) {
      Image local(dim, dim);
      (void)composite_tree(comm, local);
    });
    return report.max_virtual_seconds();
  };
  EXPECT_GT(cost(256), cost(32));
}

TEST(Png, Crc32KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(png::crc32(std::as_bytes(std::span(s, 9))), 0xCBF43926u);
}

TEST(Png, Adler32KnownVector) {
  // adler32("Wikipedia") = 0x11E60398.
  const char* s = "Wikipedia";
  EXPECT_EQ(png::adler32(std::as_bytes(std::span(s, 9))), 0x11E60398u);
}

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Png, DeflateInflateRoundTripText) {
  const std::string text =
      "in situ in situ in situ processing at extreme scale, "
      "in situ processing at extreme scale, repeated text compresses.";
  const auto raw = to_bytes(text);
  const auto compressed = png::deflate_fixed(raw);
  EXPECT_LT(compressed.size(), raw.size());  // repetition must compress
  auto inflated = png::inflate(compressed);
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(*inflated, raw);
}

TEST(Png, DeflateInflateRoundTripRandom) {
  pal::Rng rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 100u, 5000u, 70000u}) {
    std::vector<std::byte> raw(n);
    for (auto& b : raw) {
      b = static_cast<std::byte>(rng.next_below(7));  // low-entropy bytes
    }
    auto inflated = png::inflate(png::deflate_fixed(raw));
    ASSERT_TRUE(inflated.ok()) << "n=" << n;
    EXPECT_EQ(*inflated, raw) << "n=" << n;
  }
}

TEST(Png, StoredRoundTrip) {
  pal::Rng rng(9);
  std::vector<std::byte> raw(70000);  // forces multiple stored blocks
  for (auto& b : raw) b = static_cast<std::byte>(rng.next_below(256));
  auto inflated = png::inflate(png::deflate_stored(raw));
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(*inflated, raw);
}

TEST(Png, ZlibRoundTrip) {
  const auto raw = to_bytes("zlib wrapper round trip test data data data");
  for (bool compress : {true, false}) {
    auto back = png::zlib_decompress(png::zlib_compress(raw, compress));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, raw);
  }
}

TEST(Png, ZlibDetectsCorruption) {
  auto stream = png::zlib_compress(to_bytes("payload payload payload"));
  stream[stream.size() - 1] ^= std::byte{0xFF};  // corrupt adler
  EXPECT_FALSE(png::zlib_decompress(stream).ok());
}

TEST(Png, EncodeProducesValidStructure) {
  Image img(16, 8);
  img.clear(Rgba{10, 20, 30, 255});
  const auto data = png::encode(img);
  ASSERT_GT(data.size(), 8u);
  // PNG signature.
  EXPECT_EQ(data[0], std::byte{0x89});
  EXPECT_EQ(data[1], std::byte{'P'});
  // IHDR follows immediately with width 16 big-endian.
  EXPECT_EQ(static_cast<int>(data[16 + 3]), 16);  // width LSB at offset 19
  // Ends with IEND.
  const std::string tail(reinterpret_cast<const char*>(data.data()) +
                             data.size() - 8,
                         4);
  EXPECT_EQ(tail, "IEND");
}

TEST(Png, CompressedSmallerThanStoredForFlatImage) {
  Image img(128, 128);
  img.clear(Rgba{50, 60, 70, 255});
  const auto compressed = png::encode(img, {.compress = true});
  const auto stored = png::encode(img, {.compress = false});
  EXPECT_LT(compressed.size(), stored.size() / 4);
}

TEST(Png, IdatPayloadRoundTripsToRawScanlines) {
  Image img(3, 2);
  img.pixel(0, 0) = {1, 2, 3, 4};
  img.pixel(2, 1) = {9, 8, 7, 6};
  const auto data = png::encode(img, {.compress = true, .filter = false});
  // Locate IDAT chunk.
  std::size_t pos = 8;
  std::vector<std::byte> idat;
  while (pos + 8 <= data.size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len = (len << 8) | static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)]);
    }
    const std::string type(reinterpret_cast<const char*>(data.data()) + pos + 4, 4);
    if (type == "IDAT") {
      idat.assign(data.begin() + static_cast<std::ptrdiff_t>(pos + 8),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + 8 + len));
      break;
    }
    pos += 12 + len;
  }
  ASSERT_FALSE(idat.empty());
  auto raw = png::zlib_decompress(idat);
  ASSERT_TRUE(raw.ok());
  // 2 rows x (1 filter byte + 3*4 pixel bytes).
  ASSERT_EQ(raw->size(), 2u * 13u);
  EXPECT_EQ((*raw)[0], std::byte{0});              // filter none
  EXPECT_EQ((*raw)[1], std::byte{1});              // r of pixel (0,0)
  EXPECT_EQ((*raw)[13 + 1 + 8 + 3], std::byte{6}); // a of pixel (2,1)
}

TEST(Png, EncodeDecodeRoundTripRandomImages) {
  pal::Rng rng(31);
  for (const auto& [w, h] :
       std::vector<std::pair<int, int>>{{1, 1}, {7, 3}, {32, 32}, {65, 17}}) {
    Image img(w, h);
    for (Rgba& p : img.pixels()) {
      p = {static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256))};
    }
    for (const bool filter : {true, false}) {
      for (const bool compress : {true, false}) {
        auto decoded = png::decode(
            png::encode(img, {.compress = compress, .filter = filter}));
        ASSERT_TRUE(decoded.ok()) << w << "x" << h;
        EXPECT_EQ(decoded->width(), w);
        EXPECT_EQ(decoded->height(), h);
        EXPECT_EQ(decoded->color_hash(), img.color_hash())
            << "filter=" << filter << " compress=" << compress;
      }
    }
  }
}

TEST(Png, FilteringImprovesGradientCompression) {
  // Smooth gradients are where Sub/Up filtering pays off.
  Image img(128, 128);
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      img.pixel(x, y) = {static_cast<std::uint8_t>(x + y),
                         static_cast<std::uint8_t>(2 * x + 3),
                         static_cast<std::uint8_t>(255 - y), 255};
    }
  }
  const auto filtered = png::encode(img, {.compress = true, .filter = true});
  const auto unfiltered =
      png::encode(img, {.compress = true, .filter = false});
  EXPECT_LT(filtered.size(), unfiltered.size());
  // And both still decode correctly.
  EXPECT_EQ(png::decode(filtered)->color_hash(), img.color_hash());
  EXPECT_EQ(png::decode(unfiltered)->color_hash(), img.color_hash());
}

TEST(Png, DecodeRejectsGarbage) {
  std::vector<std::byte> junk(64, std::byte{0x42});
  EXPECT_FALSE(png::decode(junk).ok());
  EXPECT_FALSE(png::decode({}).ok());
}

TEST(Png, WriteFile) {
  Image img(8, 8);
  img.clear(Rgba{255, 0, 0, 255});
  const test_util::TempDir tmp;
  const std::string path = tmp.file("image.png");
  ASSERT_TRUE(png::write_file(path, img).ok());
  EXPECT_GT(std::filesystem::file_size(path), 50u);
}

TEST(Camera, OrthographicProjectionCentersTarget) {
  Camera cam = Camera::look_at({0, 0, 10}, {0, 0, 0}, {0, 1, 0});
  cam.set_ortho_half_height(2.0);
  const auto [x, y, depth] = cam.project({0, 0, 0});
  EXPECT_NEAR(x, 0.0, 1e-12);
  EXPECT_NEAR(y, 0.0, 1e-12);
  EXPECT_NEAR(depth, 10.0, 1e-12);
  const auto [x2, y2, d2] = cam.project({0, 2, 0});
  EXPECT_NEAR(y2, 1.0, 1e-12);  // top of view volume
}

TEST(Camera, PerspectiveShrinksWithDistance) {
  Camera cam = Camera::look_at({0, 0, 10}, {0, 0, 0}, {0, 1, 0},
                               Camera::Projection::kPerspective);
  const auto near_pt = cam.project({1, 0, 5});
  const auto far_pt = cam.project({1, 0, -5});
  EXPECT_GT(near_pt[0], far_pt[0]);
}

}  // namespace
}  // namespace insitu::render
