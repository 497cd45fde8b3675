// Steady-state allocation gate: once a PHASTA rank is warm, the work that
// repeats every step must not touch the global heap. This binary replaces
// the global operator new with one that counts calls on the calling
// thread, and asserts a count of zero for each repeated piece:
//   * a TraceScope opened with no trace sink and a name too long for the
//     std::string inline buffer;
//   * PhastaSim::step() after the first step;
//   * PhastaDataAdaptor::mesh(false) + release_data() after the first
//     step (the grid is built once per run).
// It also counts large allocations (>= 256 KiB, where malloc maps fresh
// pages that the OS must zero-fill) for the oscillator + 1920x1080
// Catalyst-slice rank-step: after step 2 the framebuffer, the slice
// geometry and the projection scratch are all reused, so a rank makes
// none, except that a rank which sends a compositing message allocates
// that message (its receiver frees it).
// Rank bodies run under sched=threads, so a rank stays on one OS thread
// and the thread-local count sees exactly that rank's allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "miniapp/adaptor.hpp"
#include "miniapp/oscillator.hpp"
#include "obs/trace.hpp"
#include "proxy/phasta.hpp"

namespace {

thread_local std::int64_t t_allocations = 0;
thread_local std::int64_t t_large_allocations = 0;

constexpr std::size_t kLargeBytes = std::size_t{256} << 10;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (size >= kLargeBytes) ++t_large_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace insitu {
namespace {

/// Global operator new calls made by `body` on this thread.
template <typename F>
std::int64_t allocations_in(F&& body) {
  const std::int64_t before = t_allocations;
  body();
  return t_allocations - before;
}

comm::Runtime::Options threads_options() {
  comm::Runtime::Options options;
  options.sched.backend = comm::SchedBackend::kThreads;
  return options;
}

proxy::PhastaConfig small_phasta() {
  proxy::PhastaConfig cfg;
  cfg.cells_per_rank = {4, 4, 4};
  return cfg;
}

TEST(SteadyStateAlloc, CounterSeesAllocations) {
  const std::int64_t n = allocations_in([] {
    auto* p = new std::int64_t(7);
    delete p;
  });
  EXPECT_EQ(n, 1);
}

TEST(SteadyStateAlloc, TraceScopeWithoutSinkAllocatesNothing) {
  // 21 bytes: past libstdc++'s 15-byte inline string buffer.
  static constexpr const char* kName = "catalyst.encode_write";
  const std::int64_t n = allocations_in([] {
    obs::TraceScope span(obs::Category::kBackend, kName);
    span.arg("bytes", 1.0);
  });
  EXPECT_EQ(n, 0);
}

TEST(SteadyStateAlloc, PhastaStepAllocatesNothingAfterTheFirst) {
  std::int64_t later = -1;
  comm::Runtime::run(1, threads_options(), [&](comm::Communicator& comm) {
    proxy::PhastaSim sim(comm, small_phasta());
    sim.initialize();
    sim.step();
    later = allocations_in([&] {
      for (int s = 0; s < 4; ++s) sim.step();
    });
  });
  EXPECT_EQ(later, 0);
}

TEST(SteadyStateAlloc, PhastaMeshAndReleaseAllocateNothingAfterTheFirst) {
  std::int64_t first = -1;
  std::int64_t later = -1;
  bool ok = true;
  comm::Runtime::run(1, threads_options(), [&](comm::Communicator& comm) {
    proxy::PhastaSim sim(comm, small_phasta());
    sim.initialize();
    proxy::PhastaDataAdaptor adaptor(sim);
    adaptor.set_communicator(&comm);
    auto mesh_and_release = [&] {
      const StatusOr<data::MultiBlockPtr> mesh = adaptor.mesh(false);
      ok = ok && mesh.ok() && adaptor.release_data().ok();
    };
    sim.step();
    first = allocations_in(mesh_and_release);
    later = 0;
    for (int s = 0; s < 4; ++s) {
      sim.step();
      later += allocations_in(mesh_and_release);
    }
  });
  EXPECT_TRUE(ok);
  EXPECT_GT(first, 0);  // the one full build of the grid
  EXPECT_EQ(later, 0);
}

/// Large allocations per rank for each oscillator + 1080p Catalyst-slice
/// step after the second: result[rank][step].
std::vector<std::vector<std::int64_t>> slice_step_large_allocations(
    int ranks) {
  constexpr int kSteps = 6;
  constexpr int kWarmSteps = 2;
  std::vector<std::vector<std::int64_t>> large(
      static_cast<std::size_t>(ranks));
  const comm::RunReport report = comm::Runtime::run(
      ranks, threads_options(), [&](comm::Communicator& comm) {
        miniapp::OscillatorConfig cfg;
        cfg.global_cells = {64, 64, 64};
        cfg.dt = 0.05;
        cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic,
                            {32, 32, 32}, 20.0, 6.28, 0.0}};
        miniapp::OscillatorSim sim(comm, cfg);
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);
        backends::CatalystSliceConfig cs;
        cs.image_width = 1920;
        cs.image_height = 1080;
        core::InSituBridge bridge(&comm);
        bridge.add_analysis(std::make_shared<backends::CatalystSlice>(cs));
        EXPECT_TRUE(bridge.initialize().ok());
        auto& mine = large[static_cast<std::size_t>(comm.rank())];
        for (int s = 0; s < kSteps; ++s) {
          const std::int64_t before = t_large_allocations;
          sim.step();
          EXPECT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());
          if (s >= kWarmSteps) mine.push_back(t_large_allocations - before);
        }
        EXPECT_TRUE(bridge.finalize().ok());
      });
  EXPECT_FALSE(report.failed) << report.failure_message;
  return large;
}

TEST(SteadyStateAlloc, CounterSeesLargeAllocations) {
  const std::int64_t before = t_large_allocations;
  const std::vector<std::byte> big(kLargeBytes);
  const std::vector<std::byte> small(kLargeBytes - 1);
  EXPECT_EQ(t_large_allocations - before, 1);
}

TEST(SteadyStateAlloc, SliceRankStepOnOneRankMakesNoLargeAllocation) {
  const auto large = slice_step_large_allocations(1);
  ASSERT_EQ(large.size(), 1u);
  ASSERT_FALSE(large[0].empty());
  for (std::size_t s = 0; s < large[0].size(); ++s) {
    EXPECT_EQ(large[0][s], 0) << "step " << s + 2;
  }
}

TEST(SteadyStateAlloc, SliceRankStepAllocatesOnlyCompositingMessages) {
  const auto large = slice_step_large_allocations(4);
  ASSERT_EQ(large.size(), 4u);
  for (std::size_t r = 0; r < large.size(); ++r) {
    ASSERT_FALSE(large[r].empty());
    for (std::size_t s = 0; s < large[r].size(); ++s) {
      // Rank 0 only receives; every other rank sends one message.
      EXPECT_LE(large[r][s], r == 0 ? 0 : 1)
          << "rank " << r << " step " << s + 2;
    }
  }
}

}  // namespace
}  // namespace insitu
