// Steady-state allocation gate: once a PHASTA rank is warm, the work that
// repeats every step must not touch the global heap. This binary replaces
// the global operator new with one that counts calls on the calling
// thread, and asserts a count of zero for each repeated piece:
//   * a TraceScope opened with no trace sink and a name too long for the
//     std::string inline buffer;
//   * PhastaSim::step() after the first step;
//   * PhastaDataAdaptor::mesh(false) + release_data() after the first
//     step (the grid is built once per run).
// Rank bodies run under sched=threads, so a rank stays on one OS thread
// and the thread-local count sees exactly that rank's allocations.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "comm/runtime.hpp"
#include "obs/trace.hpp"
#include "proxy/phasta.hpp"

namespace {

thread_local std::int64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
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

}  // namespace
}  // namespace insitu
