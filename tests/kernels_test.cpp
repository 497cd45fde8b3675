// Golden tests for the kernels:: dispatch variants: every variant of
// every primitive against the generic scalar reference, across empty /
// odd-length / denormal / NaN / infinity inputs. Kernels documented
// bit-identical must match exactly; reductions get relative tolerance;
// the transcendentals must stay both bit-identical across variants and
// within their documented ULP bounds against libm.

#include "kernels/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace insitu::kernels {
namespace {

/// memcmp equality that accepts empty ranges: the golden sweeps include
/// n = 0, where an empty vector's data() may be null, and memcmp requires
/// valid pointers even for zero bytes.
bool same_bytes(const void* a, const void* b, std::size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

/// Installs a variant for one test scope and restores the previous one.
class ScopedVariant {
 public:
  explicit ScopedVariant(Variant v) : saved_(active_variant()) {
    set_variant(v);
  }
  ~ScopedVariant() { set_variant(saved_); }

 private:
  Variant saved_;
};

const Variant kAllVariants[] = {Variant::kGeneric, Variant::kSimd};

/// The shapes the per-kernel sweeps run over: empty, single, vector
/// width, odd tails, and a chunk-sized range.
const std::int64_t kSizes[] = {0, 1, 3, 4, 7, 13, 64, 1000, 8192 + 5};

std::vector<double> make_values(std::int64_t n, std::uint32_t seed,
                                bool with_specials) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1000.0, 1000.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = uni(rng);
  if (with_specials && n >= 8) {
    v[0] = std::numeric_limits<double>::quiet_NaN();
    v[1] = std::numeric_limits<double>::infinity();
    v[2] = -std::numeric_limits<double>::infinity();
    v[3] = std::numeric_limits<double>::denorm_min();
    v[4] = -std::numeric_limits<double>::denorm_min();
    v[5] = 0.0;
    v[6] = -0.0;
    v[7] = std::numeric_limits<double>::max();
  }
  return v;
}

std::vector<std::uint8_t> make_skip(std::int64_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> s(static_cast<std::size_t>(n));
  for (auto& x : s) x = static_cast<std::uint8_t>(rng() % 3 == 0);
  return s;
}

double ulp_diff(double a, double b) {
  if (a == b) return 0.0;
  if (std::isnan(a) && std::isnan(b)) return 0.0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<double>::infinity();
  }
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  // Map to a monotonic integer line so the difference counts
  // representable doubles between a and b.
  if (ia < 0) ia = std::numeric_limits<std::int64_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int64_t>::min() - ib;
  return std::abs(static_cast<double>(ia - ib));
}

TEST(KernelsDispatch, VariantNamesRoundTrip) {
  for (const Variant v : kAllVariants) {
    EXPECT_TRUE(set_variant(variant_name(v)));
    EXPECT_EQ(active_variant(), v);
  }
  EXPECT_FALSE(set_variant("avx1024"));
  EXPECT_FALSE(set_variant("batched"));
  EXPECT_FALSE(set_variant("scalar"));
  set_variant(Variant::kSimd);
}

TEST(KernelsDispatch, StatsCountCallsElementsBytes) {
  ScopedVariant scope(Variant::kSimd);
  const StatsSnapshot before = stats_snapshot();
  std::vector<double> a(100, 1.0), b(100, 2.0), dst(100);
  lerp(dst.data(), a.data(), b.data(), 0.5, 100);
  const StatsSnapshot after = stats_snapshot();
  const auto& d0 = before.s[static_cast<int>(KernelId::kLerp)]
                           [static_cast<int>(Variant::kSimd)];
  const auto& d1 = after.s[static_cast<int>(KernelId::kLerp)]
                          [static_cast<int>(Variant::kSimd)];
  EXPECT_EQ(d1.calls - d0.calls, 1u);
  EXPECT_EQ(d1.elements - d0.elements, 100u);
  EXPECT_EQ(d1.bytes - d0.bytes, 2400u);
}

TEST(KernelsGolden, ReduceMoments) {
  for (const std::int64_t n : kSizes) {
    for (const bool with_skip : {false, true}) {
      const std::vector<double> x = make_values(n, 11, /*specials=*/false);
      const std::vector<std::uint8_t> skip = make_skip(n, 12);
      const std::uint8_t* sp = with_skip ? skip.data() : nullptr;
      ScopedVariant ref_scope(Variant::kGeneric);
      const Moments ref = reduce_moments(x.data(), n, sp);
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        const Moments got = reduce_moments(x.data(), n, sp);
        EXPECT_EQ(got.count, ref.count) << variant_name(v) << " n=" << n;
        EXPECT_EQ(got.min, ref.min) << variant_name(v) << " n=" << n;
        EXPECT_EQ(got.max, ref.max) << variant_name(v) << " n=" << n;
        EXPECT_NEAR(got.sum, ref.sum, std::abs(ref.sum) * 1e-12 + 1e-12);
        EXPECT_NEAR(got.sum_sq, ref.sum_sq,
                    std::abs(ref.sum_sq) * 1e-12 + 1e-12);
      }
    }
  }
}

TEST(KernelsGolden, ReduceMomentsIgnoresNaN) {
  // The select form drops NaN elements from min/max in every variant.
  std::vector<double> x = make_values(64, 13, /*specials=*/true);
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    const Moments got = reduce_moments(x.data(), 64, nullptr);
    EXPECT_EQ(got.max, std::numeric_limits<double>::infinity())
        << variant_name(v);
    EXPECT_EQ(got.min, -std::numeric_limits<double>::infinity())
        << variant_name(v);
    EXPECT_EQ(got.count, 64);
  }
}

TEST(KernelsGolden, HistogramBinBitIdentical) {
  for (const std::int64_t n : kSizes) {
    for (const bool with_skip : {false, true}) {
      const std::vector<double> x = make_values(n, 21, /*specials=*/true);
      const std::vector<std::uint8_t> skip = make_skip(n, 22);
      const std::uint8_t* sp = with_skip ? skip.data() : nullptr;
      const int bins = 17;
      std::vector<std::int64_t> ref(bins, 0);
      {
        ScopedVariant scope(Variant::kGeneric);
        histogram_bin(x.data(), n, sp, -1000.0, 2000.0, bins, ref.data());
      }
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        std::vector<std::int64_t> got(bins, 0);
        histogram_bin(x.data(), n, sp, -1000.0, 2000.0, bins, got.data());
        EXPECT_EQ(got, ref) << variant_name(v) << " n=" << n
                            << " skip=" << with_skip;
      }
    }
  }
}

TEST(KernelsGolden, HistogramBinDefinedForNaNAndOutOfRange) {
  const double x[] = {std::numeric_limits<double>::quiet_NaN(),
                      -1e300,
                      1e300,
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity(),
                      0.5};
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<std::int64_t> bins(4, 0);
    histogram_bin(x, 6, nullptr, 0.0, 1.0, 4, bins.data());
    EXPECT_EQ(bins[0], 3) << variant_name(v);  // NaN, -1e300, -inf
    EXPECT_EQ(bins[3], 2) << variant_name(v);  // 1e300, +inf clamp high
    EXPECT_EQ(bins[2], 1) << variant_name(v);  // 0.5 * 4 -> bin 2
  }
}

TEST(KernelsGolden, ElementwiseBitIdentical) {
  // fma_accumulate / lerp / plane_distance / magnitude3 are
  // per-element independent with a fixed operation order: every variant
  // must produce the same bits, specials included.
  for (const std::int64_t n : kSizes) {
    const std::vector<double> a = make_values(n, 31, /*specials=*/true);
    const std::vector<double> b = make_values(n, 32, /*specials=*/true);
    const std::vector<double> c = make_values(n, 33, /*specials=*/false);

    std::vector<double> ref_fma(static_cast<std::size_t>(n), 1.0);
    std::vector<double> ref_lerp(static_cast<std::size_t>(n), 0.0);
    std::vector<double> ref_plane(static_cast<std::size_t>(n), 0.0);
    std::vector<double> ref_mag(static_cast<std::size_t>(n), 0.0);
    {
      ScopedVariant scope(Variant::kGeneric);
      fma_accumulate(ref_fma.data(), a.data(), b.data(), n);
      lerp(ref_lerp.data(), a.data(), b.data(), 0.25, n);
      plane_distance(a.data(), b.data(), c.data(), n, 0.5, -0.5, 2.0, 0.1,
                     0.2, 0.3, ref_plane.data());
      magnitude3(a.data(), 1, b.data(), 1, c.data(), 1, n, ref_mag.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<double> fma(static_cast<std::size_t>(n), 1.0);
      std::vector<double> lp(static_cast<std::size_t>(n), 0.0);
      std::vector<double> pl(static_cast<std::size_t>(n), 0.0);
      std::vector<double> mg(static_cast<std::size_t>(n), 0.0);
      fma_accumulate(fma.data(), a.data(), b.data(), n);
      lerp(lp.data(), a.data(), b.data(), 0.25, n);
      plane_distance(a.data(), b.data(), c.data(), n, 0.5, -0.5, 2.0, 0.1,
                     0.2, 0.3, pl.data());
      magnitude3(a.data(), 1, b.data(), 1, c.data(), 1, n, mg.data());
      EXPECT_TRUE(same_bytes(fma.data(), ref_fma.data(),
                             static_cast<std::size_t>(n) * 8))
          << "fma " << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(lp.data(), ref_lerp.data(),
                             static_cast<std::size_t>(n) * 8))
          << "lerp " << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(pl.data(), ref_plane.data(),
                             static_cast<std::size_t>(n) * 8))
          << "plane " << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(mg.data(), ref_mag.data(),
                             static_cast<std::size_t>(n) * 8))
          << "magnitude " << variant_name(v) << " n=" << n;
    }
  }
}

TEST(KernelsGolden, Magnitude3Strided) {
  // AoS layout: component base pointers with stride 3.
  const std::int64_t n = 101;
  std::vector<double> aos(static_cast<std::size_t>(3 * n));
  for (auto& x : aos) x = static_cast<double>(&x - aos.data()) * 0.25 - 30.0;
  std::vector<double> ref(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double u = aos[static_cast<std::size_t>(3 * i)];
    const double v = aos[static_cast<std::size_t>(3 * i + 1)];
    const double w = aos[static_cast<std::size_t>(3 * i + 2)];
    ref[static_cast<std::size_t>(i)] = std::sqrt(u * u + v * v + w * w);
  }
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<double> got(static_cast<std::size_t>(n));
    magnitude3(aos.data(), 3, aos.data() + 1, 3, aos.data() + 2, 3, n,
               got.data());
    EXPECT_TRUE(same_bytes(got.data(), ref.data(),
                           static_cast<std::size_t>(n) * 8))
        << variant_name(v);
  }
}

/// `n` RGBA8 control colors from a seeded generator: ramps of every
/// length the simd variant unpacks into lanes, and longer ones it maps
/// one element at a time.
std::vector<std::uint8_t> make_controls(int n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> c(static_cast<std::size_t>(4 * n));
  for (auto& b : c) b = static_cast<std::uint8_t>(rng());
  return c;
}

TEST(KernelsGolden, ColormapBitIdentical) {
  for (const int ncontrols : {2, 3, 9, 10}) {
    const std::vector<std::uint8_t> ramp = make_controls(ncontrols, 52);
    const std::vector<double> s = make_values(1000, 53, /*specials=*/true);
    std::vector<std::uint8_t> ref(4 * s.size(), 9);
    {
      ScopedVariant scope(Variant::kGeneric);
      colormap_apply(s.data(), 1000, -900.0, 700.0, ramp.data(), ncontrols,
                     ref.data());
    }
    ScopedVariant scope(Variant::kSimd);
    std::vector<std::uint8_t> got(4 * s.size(), 9);
    colormap_apply(s.data(), 1000, -900.0, 700.0, ramp.data(), ncontrols,
                   got.data());
    EXPECT_EQ(got, ref) << "ncontrols=" << ncontrols;
  }
  const std::uint8_t controls[] = {0, 0, 0, 255, 200, 30, 0, 255,
                                   255, 210, 0, 255, 255, 255, 255, 255};
  for (const std::int64_t n : kSizes) {
    const std::vector<double> s = make_values(n, 51, /*specials=*/true);
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(4 * n), 9);
    {
      ScopedVariant scope(Variant::kGeneric);
      colormap_apply(s.data(), n, -500.0, 500.0, controls, 4, ref.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint8_t> got(static_cast<std::size_t>(4 * n), 9);
      colormap_apply(s.data(), n, -500.0, 500.0, controls, 4, got.data());
      EXPECT_EQ(got, ref) << variant_name(v) << " n=" << n;
      // Degenerate range: every scalar maps to the midpoint.
      colormap_apply(s.data(), n, 3.0, 3.0, controls, 4, got.data());
      std::vector<std::uint8_t> mid(static_cast<std::size_t>(4 * n), 9);
      {
        ScopedVariant ref_scope(Variant::kGeneric);
        colormap_apply(s.data(), n, 3.0, 3.0, controls, 4, mid.data());
      }
      EXPECT_EQ(got, mid) << variant_name(v) << " degenerate n=" << n;
    }
  }
}

TEST(KernelsGolden, DepthCompositeBitIdentical) {
  for (const std::int64_t n : kSizes) {
    std::mt19937 rng(61);
    std::vector<float> src_d(static_cast<std::size_t>(n)),
        dst_d0(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> src_c(static_cast<std::size_t>(4 * n)),
        dst_c0(static_cast<std::size_t>(4 * n));
    for (auto& d : src_d) d = static_cast<float>(rng() % 100) * 0.1f;
    for (auto& d : dst_d0) d = static_cast<float>(rng() % 100) * 0.1f;
    for (auto& c : src_c) c = static_cast<std::uint8_t>(rng());
    for (auto& c : dst_c0) c = static_cast<std::uint8_t>(rng());
    if (n >= 4) {
      src_d[0] = std::numeric_limits<float>::quiet_NaN();  // never wins
      src_d[1] = std::numeric_limits<float>::infinity();
      dst_d0[2] = std::numeric_limits<float>::quiet_NaN();  // always loses
      dst_d0[3] = std::numeric_limits<float>::infinity();
    }
    std::vector<float> ref_d = dst_d0;
    std::vector<std::uint8_t> ref_c = dst_c0;
    {
      ScopedVariant scope(Variant::kGeneric);
      depth_composite(ref_c.data(), ref_d.data(), src_c.data(),
                      src_d.data(), n);
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<float> d = dst_d0;
      std::vector<std::uint8_t> c = dst_c0;
      depth_composite(c.data(), d.data(), src_c.data(), src_d.data(), n);
      EXPECT_EQ(c, ref_c) << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(d.data(), ref_d.data(),
                             static_cast<std::size_t>(n) * 4))
          << variant_name(v) << " n=" << n;
    }
  }
}

/// A triangle soup for raster_mesh: projected vertices and index triples.
struct Mesh {
  std::vector<ScreenVertex> vertices;
  std::vector<std::array<std::int32_t, 3>> triangles;

  /// Appends a triangle with three vertices of its own.
  void add(const ScreenVertex& a, const ScreenVertex& b,
           const ScreenVertex& c) {
    const auto first = static_cast<std::int32_t>(vertices.size());
    vertices.insert(vertices.end(), {a, b, c});
    triangles.push_back({first, first + 1, first + 2});
  }
  void add(const Mesh& other) {
    for (const auto& t : other.triangles) {
      add(other.vertices[static_cast<std::size_t>(t[0])],
          other.vertices[static_cast<std::size_t>(t[1])],
          other.vertices[static_cast<std::size_t>(t[2])]);
    }
  }
};

/// A framebuffer for raster_mesh: RGBA8 colors with alpha 7 (no ramp
/// color has it, so a written pixel is always visible) and float depths,
/// random or all +inf.
struct Frame {
  int width;
  int height;
  std::vector<std::uint8_t> color;
  std::vector<float> depth;

  Frame(int w, int h, std::uint32_t seed, bool empty_depths = false)
      : width(w), height(h), color(4 * static_cast<std::size_t>(w * h)),
        depth(static_cast<std::size_t>(w * h)) {
    std::mt19937 rng(seed);
    for (std::size_t i = 0; i < color.size(); ++i) {
      color[i] = i % 4 == 3 ? 7 : static_cast<std::uint8_t>(rng());
    }
    for (float& d : depth) {
      switch (empty_depths ? 0 : rng() % 4) {
        case 0: d = std::numeric_limits<float>::infinity(); break;
        case 1: d = 0.25f; break;
        default: d = static_cast<float>(rng() % 100) * 0.01f; break;
      }
    }
  }

  RasterResult draw(const Mesh& mesh, const ColorRamp& ramp) {
    const RasterFrame frame{color.data(), depth.data(), width, height};
    return raster_mesh(mesh.vertices.data(), mesh.triangles.data(),
                       static_cast<std::int64_t>(mesh.triangles.size()),
                       frame, ramp);
  }

  bool same(const Frame& o) const {
    return color == o.color &&
           same_bytes(depth.data(), o.depth.data(), depth.size() * 4);
  }
};

bool same_result(const RasterResult& a, const RasterResult& b) {
  return a.fragments == b.fragments && a.tested == b.tested &&
         a.x0 == b.x0 && a.x1 == b.x1 && a.y0 == b.y0 && a.y1 == b.y1;
}

std::string describe(const RasterResult& r) {
  return "fragments " + std::to_string(r.fragments) + " tested " +
         std::to_string(r.tested) + " box [" + std::to_string(r.x0) + "," +
         std::to_string(r.x1) + ")x[" + std::to_string(r.y0) + "," +
         std::to_string(r.y1) + ")";
}

/// The raster_mesh contract of kernels.hpp, written out pixel by pixel
/// with std::lround for the channels: the reference both variants must
/// match in bytes, fragments, tested pixels and drawn box.
RasterResult reference_raster(const Mesh& mesh, const ColorRamp& ramp,
                              Frame& f) {
  RasterResult r;
  for (const auto& tri : mesh.triangles) {
    const ScreenVertex& a = mesh.vertices[static_cast<std::size_t>(tri[0])];
    const ScreenVertex& b = mesh.vertices[static_cast<std::size_t>(tri[1])];
    const ScreenVertex& c = mesh.vertices[static_cast<std::size_t>(tri[2])];
    const double area = (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
    if (area == 0.0) continue;
    const double inv_area = 1.0 / area;
    const int x0 =
        std::max(0, static_cast<int>(std::floor(std::min({a.x, b.x, c.x}))));
    const int x1 = std::min(
        f.width - 1, static_cast<int>(std::ceil(std::max({a.x, b.x, c.x}))));
    const int y0 =
        std::max(0, static_cast<int>(std::floor(std::min({a.y, b.y, c.y}))));
    const int y1 = std::min(
        f.height - 1, static_cast<int>(std::ceil(std::max({a.y, b.y, c.y}))));
    if (x1 < x0 || y1 < y0) continue;
    r.tested += static_cast<std::int64_t>(x1 - x0 + 1) * (y1 - y0 + 1);
    std::int64_t written = 0;
    for (int y = y0; y <= y1; ++y) {
      for (int x = x0; x <= x1; ++x) {
        const double px = x + 0.5;
        const double py = y + 0.5;
        const double w0 =
            ((b.x - px) * (c.y - py) - (c.x - px) * (b.y - py)) * inv_area;
        const double w1 =
            ((c.x - px) * (a.y - py) - (a.x - px) * (c.y - py)) * inv_area;
        const double w2 = 1.0 - w0 - w1;
        if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) continue;
        const auto i = static_cast<std::size_t>(y) * f.width + x;
        const auto d =
            static_cast<float>(w0 * a.depth + w1 * b.depth + w2 * c.depth);
        if (d >= f.depth[i] || d <= 0.0f) continue;
        const double s = w0 * a.scalar + w1 * b.scalar + w2 * c.scalar;
        double t =
            ramp.hi > ramp.lo ? (s - ramp.lo) / (ramp.hi - ramp.lo) : 0.5;
        if (!(t >= 0.0)) t = 0.0;
        if (t > 1.0) t = 1.0;
        const double scaled = t * (ramp.ncontrols - 1);
        const int idx = std::min(static_cast<int>(scaled), ramp.ncontrols - 2);
        const double frac = scaled - idx;
        for (int ch = 0; ch < 4; ++ch) {
          const double lo_ch = ramp.controls[4 * idx + ch];
          const double hi_ch = ramp.controls[4 * idx + 4 + ch];
          f.color[4 * i + static_cast<std::size_t>(ch)] =
              static_cast<std::uint8_t>(
                  std::lround(lo_ch + frac * (hi_ch - lo_ch)));
        }
        f.depth[i] = d;
        ++written;
      }
    }
    if (written == 0) continue;
    if (r.fragments == 0) {
      r.x0 = x0; r.x1 = x1 + 1; r.y0 = y0; r.y1 = y1 + 1;
    } else {
      r.x0 = std::min(r.x0, x0);
      r.x1 = std::max(r.x1, x1 + 1);
      r.y0 = std::min(r.y0, y0);
      r.y1 = std::max(r.y1, y1 + 1);
    }
    r.fragments += written;
  }
  return r;
}

constexpr int kFrameWidth = 67;  // odd: 4-lane chunks leave tails
constexpr int kFrameHeight = 41;

/// A triangle with the golden test's per-vertex depths and scalars.
Mesh make_tri(double ax, double ay, double bx, double by, double cx,
              double cy) {
  Mesh m;
  m.add({ax, ay, 0.5, -2.0}, {bx, by, 0.9, 0.3}, {cx, cy, 0.1, 3.0});
  return m;
}

/// The triangles the golden test draws: ordinary, clipped by every frame
/// edge, degenerate (zero and sliver area), NaN depths, a NaN scalar and
/// one behind the camera.
std::vector<Mesh> golden_triangles() {
  std::vector<Mesh> tris;
  tris.push_back(make_tri(3.0, 2.0, 60.0, 10.0, 20.0, 35.0));
  tris.push_back(make_tri(40.0, 30.0, 10.0, 5.0, 25.0, 38.5));  // clockwise
  tris.push_back(make_tri(-20.0, -7.0, 90.0, 12.0, 30.0, 70.0));  // clipped
  tris.push_back(make_tri(50.0, -30.0, 95.0, 20.0, 55.0, 60.0));  // clipped
  tris.push_back(make_tri(2.0, 2.0, 30.0, 16.0, 58.0, 30.0));     // zero area
  tris.push_back(make_tri(2.0, 2.0, 60.0, 30.0, 60.0, 30.0001));  // sliver
  Mesh nan_depth = make_tri(5.0, 5.0, 45.0, 8.0, 15.0, 40.0);
  nan_depth.vertices[1].depth = std::numeric_limits<double>::quiet_NaN();
  tris.push_back(nan_depth);
  // A NaN depth passes every depth test, so only the box keeps this
  // one from pixels past the frame's right edge.
  Mesh nan_clipped = make_tri(40.0, 5.0, 90.0, 20.0, 45.0, 38.0);
  nan_clipped.vertices[2].depth = std::numeric_limits<double>::quiet_NaN();
  tris.push_back(nan_clipped);
  Mesh nan_scalar = make_tri(30.0, 1.0, 66.0, 20.0, 35.0, 40.0);
  nan_scalar.vertices[2].scalar = std::numeric_limits<double>::quiet_NaN();
  tris.push_back(nan_scalar);
  Mesh behind = make_tri(10.0, 10.0, 50.0, 12.0, 20.0, 30.0);
  for (ScreenVertex& v : behind.vertices) v.depth = -1.0;
  tris.push_back(behind);
  return tris;
}

const std::uint8_t kCoolWarm[] = {59, 76, 192, 255, 221, 221, 221, 255,
                                  180, 4, 38, 255};

/// The golden ramps: ranged, degenerate (lo == hi) and over 8 segments.
std::vector<ColorRamp> golden_ramps(
    const std::vector<std::uint8_t>& long_ramp) {
  return {ColorRamp{kCoolWarm, 3, -1.0, 1.5},
          ColorRamp{kCoolWarm, 3, 2.0, 2.0},
          ColorRamp{long_ramp.data(), 10, -2.5, 3.5}};
}

std::vector<std::uint8_t> opaque_long_ramp() {
  std::vector<std::uint8_t> c = make_controls(10, 84);
  for (std::size_t i = 3; i < c.size(); i += 4) c[i] = 255;
  return c;
}

TEST(KernelsGolden, RasterMeshBitIdentical) {
  const std::vector<std::uint8_t> long_ramp = opaque_long_ramp();
  const std::vector<Mesh> tris = golden_triangles();
  for (const ColorRamp& ramp : golden_ramps(long_ramp)) {
    // Each triangle alone, from the same frame: the variants agree on
    // every byte, and the fragment count is the number of pixels written,
    // all inside the drawn box.
    for (std::size_t t = 0; t < tris.size(); ++t) {
      Frame ref(kFrameWidth, kFrameHeight, 81);
      RasterResult want;
      {
        ScopedVariant scope(Variant::kGeneric);
        want = ref.draw(tris[t], ramp);
      }
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        Frame got(kFrameWidth, kFrameHeight, 81);
        const Frame before = got;
        const RasterResult r = got.draw(tris[t], ramp);
        EXPECT_TRUE(same_result(r, want))
            << variant_name(v) << " tri " << t << ": " << describe(r);
        EXPECT_TRUE(got.same(ref)) << variant_name(v) << " tri " << t;
        std::int64_t written = 0;
        for (int y = 0; y < kFrameHeight; ++y) {
          for (int x = 0; x < kFrameWidth; ++x) {
            const auto i = static_cast<std::size_t>(y * kFrameWidth + x);
            if (got.color[4 * i + 3] == before.color[4 * i + 3]) {
              EXPECT_TRUE(same_bytes(&got.depth[i], &before.depth[i], 4));
              continue;
            }
            ++written;
            EXPECT_TRUE(x >= r.x0 && x < r.x1 && y >= r.y0 && y < r.y1)
                << variant_name(v) << " tri " << t;
          }
        }
        EXPECT_EQ(written, r.fragments) << variant_name(v) << " tri " << t;
      }
    }
    // All of them in order, in one call and in one call each: later
    // triangles depth-test against earlier fragments either way.
    Mesh all;
    for (const Mesh& tri : tris) all.add(tri);
    Frame ref(kFrameWidth, kFrameHeight, 82);
    {
      ScopedVariant scope(Variant::kGeneric);
      for (const Mesh& tri : tris) ref.draw(tri, ramp);
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      Frame one_call(kFrameWidth, kFrameHeight, 82);
      one_call.draw(all, ramp);
      EXPECT_TRUE(one_call.same(ref)) << variant_name(v);
      Frame per_triangle(kFrameWidth, kFrameHeight, 82);
      for (const Mesh& tri : tris) per_triangle.draw(tri, ramp);
      EXPECT_TRUE(per_triangle.same(ref)) << variant_name(v);
    }
  }
  // The ordinary triangles land fragments; the zero-area one and the one
  // behind the camera land none, and leave the drawn box empty.
  Frame frame(kFrameWidth, kFrameHeight, 83);
  const ColorRamp ramp{kCoolWarm, 3, -1.0, 1.5};
  EXPECT_GT(frame.draw(tris[0], ramp).fragments, 100);
  EXPECT_GT(frame.draw(tris[2], ramp).fragments, 100);
  const RasterResult zero_area = frame.draw(tris[4], ramp);
  EXPECT_EQ(zero_area.fragments, 0);
  EXPECT_EQ(zero_area.tested, 0);
  const RasterResult behind = frame.draw(tris.back(), ramp);
  EXPECT_EQ(behind.fragments, 0);
  EXPECT_GT(behind.tested, 0);
  EXPECT_EQ(behind.x1 - behind.x0, 0);
}

/// A random soup of `n` triangles around the frame: most overlap others
/// (overdraw), some reach past its edges, some have a NaN depth or scalar
/// or lie behind the camera, and some are zero-area or slivers.
Mesh random_soup(int n, int width, int height, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> ux(-0.2 * width, 1.2 * width);
  std::uniform_real_distribution<double> uy(-0.2 * height, 1.2 * height);
  std::uniform_real_distribution<double> size(0.5, 0.6 * (width + height));
  std::uniform_real_distribution<double> depth(0.05, 1.0);
  std::uniform_real_distribution<double> scalar(-3.0, 4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Mesh m;
  for (int i = 0; i < n; ++i) {
    const double x = ux(rng), y = uy(rng), r = size(rng);
    std::uniform_real_distribution<double> off(-r, r);
    ScreenVertex v[3];
    for (ScreenVertex& p : v) {
      p = {x + off(rng), y + off(rng), depth(rng), scalar(rng)};
    }
    switch (rng() % 16) {
      case 0: v[rng() % 3].depth = nan; break;
      case 1: v[rng() % 3].scalar = nan; break;
      case 2: v[0].depth = v[1].depth = v[2].depth = -0.5; break;
      case 3: v[2] = {v[0].x, v[0].y, v[2].depth, v[2].scalar}; break;
      case 4: v[2].x = v[1].x + 1e-4; v[2].y = v[1].y; break;  // sliver
      default: break;
    }
    m.add(v[0], v[1], v[2]);
  }
  return m;
}

/// `n` triangles that each cover exactly one pixel center, on distinct
/// pixels of an all-+inf frame, so the call writes exactly n fragments.
Mesh one_pixel_triangles(int n, int width) {
  Mesh m;
  for (int i = 0; i < n; ++i) {
    const double x = i % width;
    const double y = i / width;
    m.add({x + 0.1, y + 0.1, 0.5, 0.01 * i}, {x + 0.9, y + 0.3, 0.5, 0.5},
          {x + 0.4, y + 0.9, 0.5, 1.0});
  }
  return m;
}

/// Both variants against the per-pixel reference: frame bytes, fragment
/// and tested counts, and the drawn box.
void expect_matches_reference(const Mesh& mesh, const ColorRamp& ramp,
                              int width, int height, std::uint32_t seed,
                              bool empty_depths, const std::string& what) {
  Frame ref(width, height, seed, empty_depths);
  const RasterResult want = reference_raster(mesh, ramp, ref);
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    Frame got(width, height, seed, empty_depths);
    const RasterResult r = got.draw(mesh, ramp);
    EXPECT_TRUE(same_result(r, want))
        << variant_name(v) << " " << what << ": got " << describe(r)
        << ", want " << describe(want);
    EXPECT_TRUE(got.same(ref)) << variant_name(v) << " " << what;
  }
}

TEST(KernelsGolden, RasterMeshMatchesPerPixelReference) {
  const std::vector<std::uint8_t> long_ramp = opaque_long_ramp();
  const std::vector<ColorRamp> ramps = golden_ramps(long_ramp);
  // The golden triangles, one call for all of them.
  Mesh golden;
  for (const Mesh& tri : golden_triangles()) golden.add(tri);
  for (std::size_t k = 0; k < ramps.size(); ++k) {
    expect_matches_reference(golden, ramps[k], kFrameWidth, kFrameHeight, 91,
                             false, "golden ramp " + std::to_string(k));
  }
  // Random soups with overdraw, on frames down to one pixel wide (rows
  // shorter than one 4-pixel chunk) and one row high.
  const int shapes[][2] = {{67, 41}, {64, 32}, {1, 9}, {2, 7}, {3, 5},
                           {5, 1}, {13, 3}};
  for (const auto& shape : shapes) {
    for (std::size_t k = 0; k < ramps.size(); ++k) {
      for (const std::uint32_t seed : {1u, 2u, 3u}) {
        const Mesh soup = random_soup(300, shape[0], shape[1], seed);
        expect_matches_reference(
            soup, ramps[k], shape[0], shape[1], seed + 100, seed == 3,
            "soup " + std::to_string(shape[0]) + "x" +
                std::to_string(shape[1]) + " ramp " + std::to_string(k) +
                " seed " + std::to_string(seed));
      }
    }
  }
  // Fragment counts around the 256-fragment color batch: one short of it,
  // exactly one and two batches, and just past them.
  for (const int n : {1, 3, 4, 5, 252, 253, 255, 256, 257, 259, 260, 511,
                      512, 513, 1024}) {
    const Mesh mesh = one_pixel_triangles(n, kFrameWidth);
    Frame frame(kFrameWidth, kFrameHeight, 7, true);
    EXPECT_EQ(reference_raster(mesh, ramps[0], frame).fragments, n);
    for (const ColorRamp& ramp : ramps) {
      expect_matches_reference(mesh, ramp, kFrameWidth, kFrameHeight, 7, true,
                               "one-pixel triangles n=" + std::to_string(n));
    }
  }
  // One triangle with more fragments than a batch holds, drawn twice with
  // the second copy nearer: every pixel keeps the second copy's color.
  Mesh big = make_tri(-5.0, -5.0, 140.0, -5.0, -5.0, 90.0);
  Frame empty(kFrameWidth, kFrameHeight, 8, true);
  EXPECT_GT(reference_raster(big, ramps[0], empty).fragments, 256);
  Mesh nearer = big;
  for (ScreenVertex& v : nearer.vertices) {
    v.depth *= 0.5;
    v.scalar = 1.0 - v.scalar;
  }
  big.add(nearer);
  for (const ColorRamp& ramp : ramps) {
    expect_matches_reference(big, ramp, kFrameWidth, kFrameHeight, 8, true,
                             "big triangle drawn twice");
  }
}

/// Channel blends that sit on a rounding boundary: the ramp runs from
/// gray k to gray k + 1 over [0, 1], so scalar s blends to exactly k + s.
/// Every variant must round like std::lround, through colormap_apply and
/// through raster_mesh.
TEST(KernelsGolden, ColormapRoundsBoundariesLikeLround) {
  struct Case {
    int k;
    double s;
  };
  std::vector<Case> cases = {{0, 0.5},   {0, 0.49999999999999994},
                             {254, 0.5}, {254, 1.0},
                             {255, 0.0}, {255, 0.5}};
  for (const int k : {0, 1, 2, 7, 100, 127, 128, 200, 253, 254}) {
    cases.push_back({k, 0.5});
    cases.push_back({k, std::nextafter(k + 0.5, 0.0) - k});
  }
  for (const Case& c : cases) {
    const int k_hi = std::min(c.k + 1, 255);
    const double v = c.k + c.s * (k_hi - c.k);
    const auto want = static_cast<std::uint8_t>(std::lround(v));
    const auto ku = static_cast<std::uint8_t>(c.k);
    const auto hu = static_cast<std::uint8_t>(k_hi);
    const std::uint8_t controls[] = {ku, ku, ku, ku, hu, hu, hu, hu};
    const ColorRamp ramp{controls, 2, 0.0, 1.0};
    // A right triangle of area 16 with vertex a on pixel (0, 0)'s
    // center: that pixel's barycentrics are exactly (1, 0, 0), so its
    // scalar is exactly s. In a 4x1 frame the box spans one 4-pixel
    // chunk.
    Mesh tri;
    tri.add({0.5, 0.5, 1.0, c.s}, {4.5, 0.5, 1.0, 0.0}, {0.5, 4.5, 1.0, 0.0});
    for (const Variant var : kAllVariants) {
      ScopedVariant scope(var);
      SCOPED_TRACE(::testing::Message() << variant_name(var) << " k=" << c.k
                                        << " v=" << v);
      std::uint8_t out[4] = {9, 9, 9, 9};
      colormap_apply(&c.s, 1, 0.0, 1.0, controls, 2, out);
      for (const std::uint8_t ch : out) EXPECT_EQ(ch, want);
      std::vector<std::uint8_t> color(16, 9);
      std::vector<float> depth(4, std::numeric_limits<float>::infinity());
      const RasterFrame frame{color.data(), depth.data(), 4, 1};
      const RasterResult r =
          raster_mesh(tri.vertices.data(), tri.triangles.data(), 1, frame,
                      ramp);
      EXPECT_GE(r.fragments, 1);
      EXPECT_EQ(r.tested, 4);
      for (int ch = 0; ch < 4; ++ch) EXPECT_EQ(color[ch], want);
    }
  }
}

/// A block's field, as kernels.hpp spells it out: per point, the
/// oscillators' contributions added in deck order.
std::vector<double> reference_field(const GridBlock& b,
                                    const std::vector<OscillatorTerm>& terms,
                                    double init) {
  std::vector<double> f(static_cast<std::size_t>(b.nx * b.ny * b.nz), init);
  for (std::int64_t k = 0; k < b.nz; ++k) {
    for (std::int64_t j = 0; j < b.ny; ++j) {
      for (std::int64_t i = 0; i < b.nx; ++i) {
        const double x = b.ox + b.sx * static_cast<double>(b.i0 + i);
        const double y = b.oy + b.sy * static_cast<double>(b.j0 + j);
        const double z = b.oz + b.sz * static_cast<double>(b.k0 + k);
        double& v = f[static_cast<std::size_t>((k * b.ny + j) * b.nx + i)];
        for (const OscillatorTerm& o : terms) {
          const double dx = x - o.cx;
          const double dy = y - o.cy;
          const double dz = z - o.cz;
          const double r2 = dx * dx + dy * dy + dz * dz;
          v += std::exp(-r2 / o.denom) * o.tf;
        }
      }
    }
  }
  return f;
}

TEST(KernelsGolden, OscillatorAccumulateBitIdentical) {
  const std::vector<OscillatorTerm> terms = {
      {8.0, 2.0, 3.0, 18.0, 0.7},
      {3.5, -1.0, 6.25, 32.0, -0.4},
      {11.0, 4.5, 0.5, 12.5, 1.3}};
  for (const std::int64_t n : kSizes) {
    for (const std::int64_t rows : {std::int64_t{1}, std::int64_t{3}}) {
      const GridBlock block{n,   rows, 2,   0.25, -1.0, 0.5,
                            1.0, 0.5,  2.0, 17,   4,    1};
      const auto points = static_cast<std::size_t>(n * rows * 2);
      const std::vector<double> want = reference_field(block, terms, 0.25);
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        std::vector<double> got(points, 0.25);
        oscillator_accumulate(got.data(), block, terms.data(),
                              static_cast<std::int64_t>(terms.size()));
        EXPECT_TRUE(same_bytes(got.data(), want.data(), points * 8))
            << variant_name(v) << " n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(KernelsTranscendental, VexpUlpBoundAndCrossVariantBits) {
  std::mt19937 rng(81);
  std::uniform_real_distribution<double> uni(-708.0, 708.0);
  std::vector<double> x(20001);
  for (auto& v : x) v = uni(rng);
  x[0] = 0.0;
  x[1] = -0.0;
  x[2] = 1.0;
  x[3] = -708.0;
  x[4] = 708.0;
  x[5] = 1000.0;   // clamped
  x[6] = -1000.0;  // clamped
  x[7] = std::numeric_limits<double>::quiet_NaN();
  x[8] = 5e-324;  // denormal input
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<double> ref(x.size());
  {
    ScopedVariant scope(Variant::kGeneric);
    vexp(x.data(), ref.data(), n);
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(ref[i]));
      continue;
    }
    const double clamped = std::min(708.0, std::max(-708.0, x[i]));
    worst = std::max(worst, ulp_diff(ref[i], std::exp(clamped)));
  }
  EXPECT_LE(worst, kVexpMaxUlp) << "vexp worst-case ULP vs libm";
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<double> got(x.size());
    vexp(x.data(), got.data(), n);
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (std::isnan(ref[i])) {
        EXPECT_TRUE(std::isnan(got[i])) << variant_name(v) << " i=" << i;
        continue;
      }
      EXPECT_EQ(got[i], ref[i]) << variant_name(v) << " x=" << x[i];
    }
  }
}

TEST(KernelsTranscendental, VsinVcosUlpBoundAndCrossVariantBits) {
  std::mt19937 rng(91);
  std::uniform_real_distribution<double> uni(-1048576.0, 1048576.0);
  std::vector<double> x(20001);
  for (auto& v : x) v = uni(rng);
  x[0] = 0.0;
  x[1] = 1.5707963267948966;  // ~pi/2
  x[2] = 3.141592653589793;
  x[3] = -0.75;
  const std::int64_t n = static_cast<std::int64_t>(x.size());
  std::vector<double> ref_s(x.size()), ref_c(x.size());
  {
    ScopedVariant scope(Variant::kGeneric);
    vsin(x.data(), ref_s.data(), n);
    vcos(x.data(), ref_c.data(), n);
  }
  double worst_s = 0.0, worst_c = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst_s = std::max(worst_s, ulp_diff(ref_s[i], std::sin(x[i])));
    worst_c = std::max(worst_c, ulp_diff(ref_c[i], std::cos(x[i])));
  }
  EXPECT_LE(worst_s, kVsinMaxUlp) << "vsin worst-case ULP vs libm";
  EXPECT_LE(worst_c, kVcosMaxUlp) << "vcos worst-case ULP vs libm";
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<double> s(x.size()), c(x.size());
    vsin(x.data(), s.data(), n);
    vcos(x.data(), c.data(), n);
    EXPECT_TRUE(same_bytes(s.data(), ref_s.data(), x.size() * 8))
        << "vsin " << variant_name(v);
    EXPECT_TRUE(same_bytes(c.data(), ref_c.data(), x.size() * 8))
        << "vcos " << variant_name(v);
  }
}

TEST(KernelsReduction, QuantizeBitIdenticalAndErrorBounded) {
  for (const std::int64_t n : kSizes) {
    const std::vector<double> x = make_values(n, 61, /*specials=*/false);
    // Chunk-local affine coding: one (lo, step) per call here, as the
    // pipeline does per 256-value chunk.
    double lo = 0.0, hi = 0.0;
    for (const double v : x) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double step = (hi - lo) / 65535.0;
    const double inv_step = step > 0.0 ? 1.0 / step : 0.0;
    std::vector<std::uint16_t> ref_q(static_cast<std::size_t>(n) + 1, 0xabcd);
    std::vector<double> ref_d(static_cast<std::size_t>(n) + 1, -7.0);
    {
      ScopedVariant scope(Variant::kGeneric);
      quantize_encode(x.data(), n, lo, inv_step, ref_q.data());
      quantize_decode(ref_q.data(), n, lo, step, ref_d.data());
    }
    // Documented error bound: step/2 for finite in-range values (a hair
    // of slack for the inv_step rounding).
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(ref_d[static_cast<std::size_t>(i)] -
                         x[static_cast<std::size_t>(i)]),
                0.5000001 * step + 1e-12)
          << "n=" << n << " i=" << i;
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint16_t> q(static_cast<std::size_t>(n) + 1, 0xabcd);
      std::vector<double> d(static_cast<std::size_t>(n) + 1, -7.0);
      quantize_encode(x.data(), n, lo, inv_step, q.data());
      quantize_decode(q.data(), n, lo, step, d.data());
      EXPECT_EQ(ref_q, q) << "quantize_encode " << variant_name(v);
      EXPECT_TRUE(same_bytes(d.data(), ref_d.data(), d.size() * 8))
          << "quantize_decode " << variant_name(v);
    }
  }
}

TEST(KernelsReduction, QuantizeSpecialsAndDegenerateRange) {
  // NaN and below-range values take code 0; above-range saturates.
  const double lo = -1.0, step = 2.0 / 65535.0, inv_step = 1.0 / step;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double x[] = {nan, -inf, inf, -5.0, 5.0, lo, 1.0};
  std::uint16_t q[7];
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    quantize_encode(x, 7, lo, inv_step, q);
    EXPECT_EQ(0, q[0]) << variant_name(v);
    EXPECT_EQ(0, q[1]) << variant_name(v);
    EXPECT_EQ(65535, q[2]) << variant_name(v);
    EXPECT_EQ(0, q[3]) << variant_name(v);
    EXPECT_EQ(65535, q[4]) << variant_name(v);
    EXPECT_EQ(0, q[5]) << variant_name(v);
    EXPECT_EQ(65535, q[6]) << variant_name(v);
    // Degenerate chunk (step == 0): everything codes to 0 and decodes
    // to lo exactly.
    quantize_encode(x, 7, 4.0, 0.0, q);
    double d[7];
    quantize_decode(q, 7, 4.0, 0.0, d);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(0, q[i]) << variant_name(v);
      EXPECT_EQ(4.0, d[i]) << variant_name(v);
    }
  }
}

TEST(KernelsReduction, DeltaRoundTripIsBitLossless) {
  for (const std::int64_t n : kSizes) {
    const std::vector<double> x = make_values(n, 62, /*specials=*/true);
    std::vector<double> prev = make_values(n, 63, /*specials=*/true);
    std::vector<std::uint64_t> ref_w(static_cast<std::size_t>(n) + 1,
                                     0x1234u);
    {
      ScopedVariant scope(Variant::kGeneric);
      delta_encode(x.data(), prev.data(), n, ref_w.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint64_t> w(static_cast<std::size_t>(n) + 1, 0x1234u);
      std::vector<double> back(static_cast<std::size_t>(n) + 1, -7.0);
      delta_encode(x.data(), prev.data(), n, w.data());
      EXPECT_EQ(ref_w, w) << "delta_encode " << variant_name(v);
      delta_decode(w.data(), prev.data(), n, back.data());
      // Bit identity, not value equality: NaN payloads, signed zeros and
      // denormals must survive.
      EXPECT_TRUE(same_bytes(back.data(), x.data(),
                             static_cast<std::size_t>(n) * 8))
          << "delta_decode " << variant_name(v);
    }
    // Unchanged values XOR to zero words — the property RLE exploits.
    std::vector<std::uint64_t> self(static_cast<std::size_t>(n), 0x5678u);
    delta_encode(x.data(), x.data(), n, self.data());
    for (const std::uint64_t w : self) EXPECT_EQ(0u, w);
  }
}

TEST(KernelsReduction, SubsampleGatherExpandBitIdentical) {
  const int kComponents[] = {1, 3};
  const int kStrides[] = {1, 2, 3, 7};
  for (const std::int64_t tuples : kSizes) {
    for (const int comps : kComponents) {
      const std::vector<double> x =
          make_values(tuples * comps, 64, /*specials=*/true);
      for (const int stride : kStrides) {
        const std::int64_t kept_tuples =
            stride > 0 ? (tuples + stride - 1) / stride : tuples;
        // Scalar reference for both directions.
        std::vector<double> ref_kept(
            static_cast<std::size_t>(kept_tuples * comps), -7.0);
        std::vector<double> ref_full(static_cast<std::size_t>(tuples * comps),
                                     -7.0);
        for (std::int64_t t = 0; t < tuples; ++t) {
          const std::int64_t k = t / stride;
          for (int c = 0; c < comps; ++c) {
            if (t % stride == 0) {
              ref_kept[static_cast<std::size_t>(k * comps + c)] =
                  x[static_cast<std::size_t>(t * comps + c)];
            }
            ref_full[static_cast<std::size_t>(t * comps + c)] =
                x[static_cast<std::size_t>((t / stride) * stride * comps + c)];
          }
        }
        for (const Variant v : kAllVariants) {
          ScopedVariant scope(v);
          std::vector<double> kept(
              static_cast<std::size_t>(kept_tuples * comps) + 1, -9.0);
          const std::int64_t got =
              subsample_gather(x.data(), tuples, comps, stride, kept.data());
          EXPECT_EQ(kept_tuples, got) << variant_name(v);
          EXPECT_TRUE(same_bytes(kept.data(), ref_kept.data(),
                                 ref_kept.size() * 8))
              << "gather " << variant_name(v) << " tuples=" << tuples
              << " comps=" << comps << " stride=" << stride;
          std::vector<double> full(
              static_cast<std::size_t>(tuples * comps) + 1, -9.0);
          subsample_expand(kept.data(), tuples, comps, stride, full.data());
          EXPECT_TRUE(same_bytes(full.data(), ref_full.data(),
                                 ref_full.size() * 8))
              << "expand " << variant_name(v) << " tuples=" << tuples
              << " comps=" << comps << " stride=" << stride;
        }
      }
    }
  }
}

}  // namespace
}  // namespace insitu::kernels
