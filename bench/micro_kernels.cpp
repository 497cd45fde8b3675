// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// figure-level benches: histogram binning, autocorrelation updates, slice
// and isosurface extraction, rasterization, DEFLATE, compositing merges,
// the PHASTA solver step, the collective rendezvous, and the fiber and
// rank park/wake round trips. These quantify the *real* (wall-clock) cost
// of the substrate on the host machine, complementing the virtual-clock
// results.

#include <benchmark/benchmark.h>

#include <cmath>
#include <mutex>

#include "analysis/contour.hpp"
#include "analysis/histogram.hpp"
#include "comm/runtime.hpp"
#include "data/image_data.hpp"
#include "exec/fiber.hpp"
#include "io/block_io.hpp"
#include "kernels/kernels.hpp"
#include "pal/buffer_pool.hpp"
#include "proxy/phasta.hpp"
#include "render/compositor.hpp"
#include "render/png.hpp"
#include "render/rasterizer.hpp"

namespace {

using namespace insitu;

data::ImageDataPtr make_grid_with_field(std::int64_t n) {
  data::IndexBox box;
  box.cells = {n, n, n};
  auto img = std::make_shared<data::ImageData>(box, data::Vec3{},
                                               data::Vec3{1, 1, 1});
  auto values = data::DataArray::create<double>("s", img->num_points(), 1);
  double* dst = values->component_base<double>(0);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    const data::Vec3 p = img->point(i);
    dst[i] = std::sin(0.4 * p.x) * std::cos(0.3 * p.y) + 0.1 * p.z;
  }
  img->point_fields().add(values);
  return img;
}

void BM_HistogramBinning(benchmark::State& state) {
  const auto n = state.range(0);
  auto img = make_grid_with_field(n);
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    data::MultiBlockDataSet mesh(1);
    mesh.add_block(0, img);
    for (auto _ : state) {
      auto r = analysis::compute_histogram(comm, mesh, "s",
                                           data::Association::kPoint, 64);
      benchmark::DoNotOptimize(r);
    }
  });
  state.SetItemsProcessed(state.iterations() * img->num_points());
}
BENCHMARK(BM_HistogramBinning)->Arg(16)->Arg(32);

void BM_SliceExtraction(benchmark::State& state) {
  auto img = make_grid_with_field(state.range(0));
  for (auto _ : state) {
    auto mesh = analysis::slice_axis(*img, "s", 2, state.range(0) / 2.0);
    benchmark::DoNotOptimize(mesh);
  }
  state.SetItemsProcessed(state.iterations() * img->num_cells());
}
BENCHMARK(BM_SliceExtraction)->Arg(16)->Arg(32);

/// A 48x48xN ImageData block: one rank's share of the oscillator_render
/// workload at N = 96 (a 96^3 grid over 4 ranks), at global cell offset
/// (x0, y0).
data::ImageDataPtr make_column_with_field(std::int64_t n, std::int64_t x0 = 0,
                                          std::int64_t y0 = 0) {
  data::IndexBox box;
  box.offset = {x0, y0, 0};
  box.cells = {48, 48, n};
  auto img = std::make_shared<data::ImageData>(box, data::Vec3{},
                                               data::Vec3{1, 1, 1});
  auto values = data::DataArray::create<double>("s", img->num_points(), 1);
  double* dst = values->component_base<double>(0);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    const data::Vec3 p = img->point(i);
    dst[i] = std::sin(0.4 * p.x) * std::cos(0.3 * p.y) + 0.01 * p.z;
  }
  img->point_fields().add(values);
  return img;
}

/// The Catalyst slice's extract stage on one block: an axis-2 plane
/// through the middle, which cuts one cell layer.
void BM_SliceAxis(benchmark::State& state) {
  auto img = make_column_with_field(state.range(0));
  for (auto _ : state) {
    auto mesh = analysis::slice_axis(*img, "s", 2, state.range(0) / 2.0 + 0.25);
    benchmark::DoNotOptimize(mesh);
  }
  state.SetItemsProcessed(state.iterations() * img->num_cells());
}
BENCHMARK(BM_SliceAxis)->Arg(96);

void BM_Isosurface(benchmark::State& state) {
  auto img = make_grid_with_field(state.range(0));
  for (auto _ : state) {
    auto mesh = analysis::isosurface(*img, "s", 0.3);
    benchmark::DoNotOptimize(mesh);
  }
  state.SetItemsProcessed(state.iterations() * img->num_cells());
}
BENCHMARK(BM_Isosurface)->Arg(16)->Arg(32);

/// An isosurface of a 24^3 field, whose sheets overlap on screen, so
/// pixels are drawn more than once.
void BM_Rasterize(benchmark::State& state) {
  auto img = make_grid_with_field(24);
  auto mesh = analysis::isosurface(*img, "s", 0.3);
  render::RenderConfig cfg;
  cfg.width = static_cast<int>(state.range(0));
  cfg.height = static_cast<int>(state.range(1));
  cfg.camera = render::default_slice_camera(img->bounds());
  render::Image target(cfg.width, cfg.height);
  for (auto _ : state) {
    target.clear(cfg.background);
    benchmark::DoNotOptimize(render::rasterize(*mesh, cfg, target));
  }
  state.SetItemsProcessed(state.iterations() * mesh->num_triangles());
}
BENCHMARK(BM_Rasterize)
    ->Args({256, 256})
    ->Args({512, 512})
    ->Args({1920, 1080});

/// The Catalyst slice's rasterize stage on one rank at 1920x1080: that
/// block's slice, drawn into a fresh framebuffer (render_local allocates
/// it on the first triangle, as every step does).
void BM_RenderLocal(benchmark::State& state) {
  auto img = make_column_with_field(96);
  auto mesh = analysis::slice_axis(*img, "s", 2, 48.25);
  render::RenderConfig cfg;
  cfg.width = static_cast<int>(state.range(0));
  cfg.height = static_cast<int>(state.range(1));
  cfg.camera = render::default_slice_camera(img->bounds(), 2);
  cfg.colormap = render::ColorMap::cool_warm(-1.0, 1.0);
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    for (auto _ : state) {
      render::Image local = render::render_local(comm, *mesh, cfg);
      benchmark::DoNotOptimize(local.pixels().data());
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(state.iterations() * mesh->num_triangles());
}
BENCHMARK(BM_RenderLocal)->Args({1920, 1080});

void BM_DeflateFixed(benchmark::State& state) {
  // Pseudocolor-image-like data: smooth with repeats.
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i / 16) & 0xFF);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::png::deflate_fixed(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeflateFixed)->Arg(1 << 16)->Arg(1 << 20);

void BM_PngEncode(benchmark::State& state) {
  render::Image img(static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(1)));
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.pixel(x, y) = {static_cast<std::uint8_t>(x),
                         static_cast<std::uint8_t>(y), 128, 255};
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::png::encode(img));
  }
  state.SetBytesProcessed(state.iterations() * img.num_pixels() * 4);
}
BENCHMARK(BM_PngEncode)
    ->Args({256, 256})
    ->Args({512, 512})
    ->Args({1920, 1080});

/// The Catalyst slice's composite stage at 1920x1080 on 4 ranks: each
/// rank rasterizes the slice of its 48x48x96 block of a 96^3 grid, so its
/// local's drawn box is one screen quadrant, and every iteration runs the
/// whole binomial tree to rank 0. Rank 0 drives the loop; refreshing each
/// rank's local (a copy, since compositing consumes it) is not timed.
void BM_CompositeTree(benchmark::State& state) {
  render::RenderConfig cfg;
  cfg.width = static_cast<int>(state.range(0));
  cfg.height = static_cast<int>(state.range(1));
  data::Bounds global;
  global.expand({0, 0, 0});
  global.expand({96, 96, 96});
  cfg.camera = render::default_slice_camera(global, 2);
  cfg.colormap = render::ColorMap::cool_warm(-1.0, 1.0);
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    const int r = comm.rank();
    auto block = make_column_with_field(96, 48 * (r % 2), 48 * (r / 2));
    auto mesh = analysis::slice_axis(*block, "s", 2, 48.25);
    render::Image drawn = render::Image::blank(cfg.width, cfg.height);
    render::rasterize(*mesh, cfg, drawn);
    for (;;) {
      int more = r == 0 && state.KeepRunning() ? 1 : 0;
      comm.broadcast_value(more, 0);
      if (more == 0) break;
      if (r == 0) state.PauseTiming();
      render::Image local = drawn;
      comm.barrier();
      if (r == 0) state.ResumeTiming();
      render::Image result = render::composite_tree(comm, std::move(local));
      benchmark::DoNotOptimize(result.pixels().data());
      benchmark::ClobberMemory();
    }
  });
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_CompositeTree)->Args({1920, 1080})->UseRealTime();

void BM_ImageCompositeMerge(benchmark::State& state) {
  render::Image a(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(0)));
  render::Image b = a;
  for (std::int64_t i = 0; i < b.num_pixels(); ++i) {
    b.depths()[static_cast<std::size_t>(i)] = static_cast<float>(i % 3);
  }
  for (auto _ : state) {
    a.composite_over(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * a.num_pixels());
}
BENCHMARK(BM_ImageCompositeMerge)->Arg(512)->Arg(1024);

// ---- pooled-memory / bulk-copy kernels ----

data::DataArrayPtr make_array(std::int64_t tuples, data::Layout layout) {
  auto a = data::DataArray::create<double>("v", tuples, 3, layout);
  for (std::int64_t i = 0; i < tuples; ++i) {
    for (int c = 0; c < 3; ++c) a->set(i, c, 0.25 * static_cast<double>(i + c));
  }
  return a;
}

void BM_DeepCopyAos(benchmark::State& state) {
  auto a = make_array(state.range(0), data::Layout::kAos);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a->deep_copy());  // contiguous: single memcpy
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a->size_bytes()));
}
BENCHMARK(BM_DeepCopyAos)->Arg(1 << 12)->Arg(1 << 16);

void BM_DeepCopySoa(benchmark::State& state) {
  auto a = make_array(state.range(0), data::Layout::kSoa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a->deep_copy());  // per-component memcpy
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a->size_bytes()));
}
BENCHMARK(BM_DeepCopySoa)->Arg(1 << 12)->Arg(1 << 16);

void BM_DeepCopyStrided(benchmark::State& state) {
  // Non-unit stride: the typed-gather fallback.
  const std::int64_t tuples = state.range(0);
  std::vector<double> raw(static_cast<std::size_t>(4 * tuples));
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<double>(i);
  }
  auto a = data::DataArray::wrap_typed("v", data::DataType::kFloat64, tuples,
                                       1, {raw.data() + 1}, {4},
                                       data::Layout::kSoa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a->deep_copy());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a->size_bytes()));
}
BENCHMARK(BM_DeepCopyStrided)->Arg(1 << 12)->Arg(1 << 16);

void BM_ToBytesSoa(benchmark::State& state) {
  // SoA source packs to AoS wire order: the typed gather, not memcpy.
  auto a = make_array(state.range(0), data::Layout::kSoa);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a->to_bytes());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(a->size_bytes()));
}
BENCHMARK(BM_ToBytesSoa)->Arg(1 << 12)->Arg(1 << 16);

void BM_PoolAcquireRelease(benchmark::State& state) {
  pal::BufferPool pool;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  pool.release(pool.acquire(bytes));  // warm: steady state is all hits
  for (auto _ : state) {
    std::vector<std::byte> buf = pool.acquire(bytes);
    benchmark::DoNotOptimize(buf.data());
    pool.release(std::move(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease)->Arg(1 << 10)->Arg(1 << 20);

void BM_MallocAcquireRelease(benchmark::State& state) {
  // The unpooled comparison: a fresh vector per step.
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<std::byte> buf;
    buf.reserve(bytes);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MallocAcquireRelease)->Arg(1 << 10)->Arg(1 << 20);

void BM_SerializeBlock(benchmark::State& state) {
  auto img = make_grid_with_field(state.range(0));
  pal::PooledBuffer buf;
  std::size_t blob = 0;
  for (auto _ : state) {
    buf.bytes().clear();
    blob = io::serialize_block_into(*img, buf.bytes());
    benchmark::DoNotOptimize(buf.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blob));
}
BENCHMARK(BM_SerializeBlock)->Arg(16)->Arg(32);

// One PHASTA solver step on one rank at the phasta_10k per-rank size
// (4^3 hex cells, 384 tets, 125 nodes): the jet forcing pass plus four
// Jacobi sweeps over the node adjacency.
void BM_PhastaStep(benchmark::State& state) {
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    proxy::PhastaConfig cfg;
    cfg.cells_per_rank = {4, 4, 4};
    proxy::PhastaSim sim(comm, cfg);
    sim.initialize();
    for (auto _ : state) {
      sim.step();
      benchmark::DoNotOptimize(sim.pressure().data());
      benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * sim.num_nodes());
  });
}
BENCHMARK(BM_PhastaStep);

// ---- kernel-dispatch primitives, per variant ----
//
// state.range(0) selects the dispatch variant (0 generic, 1 simd),
// state.range(1) the element count. Items/sec is elements/sec, so the
// two variants of one primitive are directly comparable.

void use_variant(benchmark::State& state) {
  const auto v = static_cast<kernels::Variant>(state.range(0));
  kernels::set_variant(v);
  state.SetLabel(std::string(kernels::variant_name(v)));
}

std::vector<double> kernel_input(std::int64_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.001 * static_cast<double>(i));
  }
  return v;
}

constexpr std::int64_t kKernelN = 1 << 16;

void BM_KernelReduceMoments(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  for (auto _ : state) {
    kernels::Moments m = kernels::reduce_moments(
        x.data(), static_cast<std::int64_t>(x.size()), nullptr);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelReduceMoments)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelHistogramBin(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  std::vector<std::int64_t> bins(64, 0);
  for (auto _ : state) {
    kernels::histogram_bin(x.data(), static_cast<std::int64_t>(x.size()),
                           nullptr, -1.0, 2.0, 64, bins.data());
    benchmark::DoNotOptimize(bins.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelHistogramBin)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelLerp(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> a = kernel_input(state.range(1));
  std::vector<double> b(a.rbegin(), a.rend());
  std::vector<double> dst(a.size());
  for (auto _ : state) {
    kernels::lerp(dst.data(), a.data(), b.data(), 0.37,
                  static_cast<std::int64_t>(a.size()));
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size()));
}
BENCHMARK(BM_KernelLerp)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelColormap(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  const std::uint8_t controls[8] = {0, 0, 255, 255, 255, 0, 0, 255};
  std::vector<std::uint8_t> out(4 * x.size());
  for (auto _ : state) {
    kernels::colormap_apply(x.data(), static_cast<std::int64_t>(x.size()),
                            -1.0, 1.0, controls, 2, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelColormap)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelDepthComposite(benchmark::State& state) {
  use_variant(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint8_t> src_c(4 * n, 0x7F);
  std::vector<float> src_d(n), dst_d0(n);
  for (std::size_t i = 0; i < n; ++i) {
    src_d[i] = static_cast<float>(i % 3);
    dst_d0[i] = static_cast<float>((i + 1) % 3);
  }
  std::vector<std::uint8_t> dst_c(4 * n, 0);
  std::vector<float> dst_d = dst_d0;
  for (auto _ : state) {
    kernels::depth_composite(dst_c.data(), dst_d.data(), src_c.data(),
                             src_d.data(), static_cast<std::int64_t>(n));
    benchmark::DoNotOptimize(dst_c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelDepthComposite)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelOscillator(benchmark::State& state) {
  use_variant(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<double> dst(n, 0.0);
  const kernels::GridBlock row{static_cast<std::int64_t>(n), 1, 1, 0.0, 0.0,
                               0.0, 1.0, 1.0, 1.0, 0, 0, 0};
  const kernels::OscillatorTerm osc{100.0, 2.0, 3.0, 50.0, 0.8};
  for (auto _ : state) {
    kernels::oscillator_accumulate(dst.data(), row, &osc, 1);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelOscillator)->ArgsProduct({{0, 1}, {1 << 12}});

void BM_KernelVexp(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  std::vector<double> out(x.size());
  for (auto _ : state) {
    kernels::vexp(x.data(), out.data(), static_cast<std::int64_t>(x.size()));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelVexp)->ArgsProduct({{0, 1}, {1 << 14}});

void BM_KernelQuantizeEncode(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  std::vector<std::uint16_t> q(x.size());
  for (auto _ : state) {
    kernels::quantize_encode(x.data(), static_cast<std::int64_t>(x.size()),
                             -1.0, 65535.0 / 2.0, q.data());
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelQuantizeEncode)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelQuantizeDecode(benchmark::State& state) {
  use_variant(state);
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<std::uint16_t> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::uint16_t>(i * 2654435761u >> 16);
  }
  std::vector<double> out(n);
  for (auto _ : state) {
    kernels::quantize_decode(q.data(), static_cast<std::int64_t>(n), -1.0,
                             2.0 / 65535.0, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KernelQuantizeDecode)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelDeltaEncode(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  std::vector<double> prev(x.rbegin(), x.rend());
  std::vector<std::uint64_t> w(x.size());
  for (auto _ : state) {
    kernels::delta_encode(x.data(), prev.data(),
                          static_cast<std::int64_t>(x.size()), w.data());
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_KernelDeltaEncode)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelDeltaDecode(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> prev = kernel_input(state.range(1));
  std::vector<std::uint64_t> w(prev.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = i % 7 == 0 ? 0x3ff0000000000000ull + i : 0;  // RLE-like mix
  }
  std::vector<double> out(prev.size());
  for (auto _ : state) {
    kernels::delta_decode(w.data(), prev.data(),
                          static_cast<std::int64_t>(prev.size()), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(prev.size()));
}
BENCHMARK(BM_KernelDeltaDecode)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelSubsampleGather(benchmark::State& state) {
  use_variant(state);
  const std::vector<double> x = kernel_input(state.range(1));
  const std::int64_t tuples = static_cast<std::int64_t>(x.size()) / 3;
  std::vector<double> kept(static_cast<std::size_t>((tuples + 3) / 4) * 3);
  for (auto _ : state) {
    const std::int64_t n =
        kernels::subsample_gather(x.data(), tuples, 3, 4, kept.data());
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(kept.data());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_KernelSubsampleGather)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_KernelSubsampleExpand(benchmark::State& state) {
  use_variant(state);
  const std::int64_t tuples = state.range(1) / 3;
  const std::vector<double> kept =
      kernel_input(((tuples + 3) / 4) * 3);
  std::vector<double> out(static_cast<std::size_t>(tuples) * 3);
  for (auto _ : state) {
    kernels::subsample_expand(kept.data(), tuples, 3, 4, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * tuples);
}
BENCHMARK(BM_KernelSubsampleExpand)->ArgsProduct({{0, 1}, {kKernelN}});

void BM_AllreduceRendezvous(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(p, [](comm::Communicator& comm) {
      std::vector<double> v(256, 1.0);
      for (int i = 0; i < 50; ++i) {
        comm.allreduce(std::span<double>(v), comm::ReduceOp::kSum);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_AllreduceRendezvous)->Arg(2)->Arg(8);

// Park/wake round trip of the M:N scheduler: two fibers on one carrier
// hand a turn back and forth through a WaitSet, so each round trip is two
// parks, two wakes and two fiber switches. state.range(0) round trips per
// scheduler run amortize its setup; the counter is round trips per second.
void BM_FiberPingPong(benchmark::State& state) {
  const std::int64_t trips = state.range(0);
  for (auto _ : state) {
    std::mutex mutex;
    exec::WaitSet waiters;
    int turn = 0;
    exec::FiberScheduler::Options options;
    options.workers = 1;
    exec::FiberScheduler scheduler(options);
    for (int self = 0; self < 2; ++self) {
      scheduler.spawn([&, self] {
        for (std::int64_t i = 0; i < trips; ++i) {
          std::unique_lock<std::mutex> lock(mutex);
          waiters.wait(lock, [&] { return turn == self; });
          turn = 1 - self;
          waiters.notify_all();
        }
      });
    }
    scheduler.run();
  }
  state.counters["round_trips_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * trips),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FiberPingPong)->Arg(1 << 16)->UseRealTime();

// The same round trip between two SPMD ranks: Runtime::run under
// sched=mn on one carrier, rank 0 sends a one-byte token and rank 1
// sends it back. Unlike BM_FiberPingPong each switch here also moves the
// runtime's per-rank state, and each message goes through the
// communicator's mailbox, metrics and virtual clock.
void BM_RankPingPong(benchmark::State& state) {
  const std::int64_t trips = state.range(0);
  comm::Runtime::Options options;
  options.sched.backend = comm::SchedBackend::kMn;
  options.sched.workers = 1;
  for (auto _ : state) {
    comm::Runtime::run(2, options, [trips](comm::Communicator& comm) {
      const int peer = 1 - comm.rank();
      const std::byte token{1};
      for (std::int64_t i = 0; i < trips; ++i) {
        if (comm.rank() == 0) {
          comm.send(peer, 0, std::span<const std::byte>(&token, 1));
          benchmark::DoNotOptimize(comm.recv(peer, 0));
        } else {
          benchmark::DoNotOptimize(comm.recv(peer, 0));
          comm.send(peer, 0, std::span<const std::byte>(&token, 1));
        }
      }
    });
  }
  state.counters["round_trips_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * trips),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RankPingPong)->Arg(1 << 14)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
