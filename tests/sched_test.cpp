// M:N scheduler tests: rank-count > worker-count multiplexing,
// threads/mn result equivalence, seed-replay determinism, large-rank
// collective completion, rank state following its fiber (spans, memory
// trackers, per-rank pools), the fiber switch itself (stack alignment,
// floating-point modes, exceptions, deep stacks), and the bench-side
// ranks=/sched= parsing. The whole binary
// also runs under the TSan CI job; SchedTest.TsanStressManyRanksFewWorkers
// is the dedicated data-race stressor.

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "comm/sched.hpp"
#include "exec/fiber.hpp"
#include "obs/trace.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::comm {
namespace {

Runtime::Options mn_options(int workers) {
  Runtime::Options options;
  options.sched.backend = SchedBackend::kMn;
  options.sched.workers = workers;
  return options;
}

/// A pipeline-shaped workload touching every blocking primitive: compute
/// skew, p2p ring traffic, reductions, a barrier, and a gather.
void mixed_workload(Communicator& comm, std::vector<double>* rank_times,
                    std::atomic<int>* failures) {
  const int rank = comm.rank();
  const int size = comm.size();
  comm.advance_compute(0.001 * (rank % 7));

  // Ring: send to the right, receive from the left.
  const std::vector<double> payload(8, static_cast<double>(rank));
  comm.send(
      (rank + 1) % size, 17,
      std::as_bytes(std::span<const double>(payload)));
  const std::vector<std::byte> got = comm.recv((rank + size - 1) % size, 17);
  double first = 0.0;
  std::memcpy(&first, got.data(), sizeof first);
  if (first != static_cast<double>((rank + size - 1) % size)) ++(*failures);

  const long sum =
      comm.allreduce_value(static_cast<long>(rank), ReduceOp::kSum);
  if (sum != static_cast<long>(size) * (size - 1) / 2) ++(*failures);

  comm.barrier();
  const std::vector<double> mine{static_cast<double>(rank)};
  (void)comm.gatherv(std::span<const double>(mine), 0);

  if (rank_times != nullptr) {
    (*rank_times)[static_cast<std::size_t>(rank)] = comm.clock().now();
  }
}

TEST(SchedTest, ManyRanksFewWorkersCompletes) {
  const int ranks = 64;
  std::vector<double> times(static_cast<std::size_t>(ranks), 0.0);
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, mn_options(/*workers=*/2), [&](Communicator& comm) {
        mixed_workload(comm, &times, &failures);
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(failures.load(), 0);
  for (const double t : times) EXPECT_GT(t, 0.0);
}

TEST(SchedTest, MatchesThreadBackendBitExactly) {
  for (const int ranks : {4, 16, 64}) {
    std::vector<double> threads_times(static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> mn_times(static_cast<std::size_t>(ranks), 0.0);
    std::atomic<int> failures{0};

    Runtime::Options threads_options;
    threads_options.sched.backend = SchedBackend::kThreads;
    Runtime::run(ranks, threads_options, [&](Communicator& comm) {
      mixed_workload(comm, &threads_times, &failures);
    });
    Runtime::run(ranks, mn_options(2), [&](Communicator& comm) {
      mixed_workload(comm, &mn_times, &failures);
    });

    EXPECT_EQ(failures.load(), 0);
    // Bit-identical, not approximately equal: scheduling must not leak
    // into virtual time.
    EXPECT_EQ(threads_times, mn_times) << "at " << ranks << " ranks";
  }
}

TEST(SchedTest, SeedReplayIsDeterministic) {
  const int ranks = 32;
  std::vector<std::vector<double>> replays;
  for (int replay = 0; replay < 2; ++replay) {
    std::vector<double> times(static_cast<std::size_t>(ranks), 0.0);
    std::atomic<int> failures{0};
    Runtime::Options options = mn_options(3);
    options.seed = 99;
    Runtime::run(ranks, options, [&](Communicator& comm) {
      // Rng-dependent compute makes any cross-rank rng mixup visible.
      comm.advance_compute(0.0001 * comm.rng().next_double());
      mixed_workload(comm, &times, &failures);
    });
    EXPECT_EQ(failures.load(), 0);
    replays.push_back(times);
  }
  EXPECT_EQ(replays[0], replays[1]);
}

TEST(SchedTest, CollectivesCompleteAtThousandRanks) {
  const int ranks = 1024;
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, mn_options(4), [&](Communicator& comm) {
        const long sum = comm.allreduce_value(
            static_cast<long>(comm.rank()), ReduceOp::kSum);
        if (sum != static_cast<long>(ranks) * (ranks - 1) / 2) ++failures;
        comm.barrier();
        int v = comm.rank() == 0 ? 31337 : -1;
        comm.broadcast_value(v, 0);
        if (v != 31337) ++failures;
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(failures.load(), 0);
}

// The TSan job's dedicated stressor: many fibers ping-ponging across few
// carriers maximizes migrations and park/wake races. Kept smaller than
// the functional tests so instrumented runs stay fast.
TEST(SchedTest, TsanStressManyRanksFewWorkers) {
  const int ranks = 48;
  std::atomic<int> failures{0};
  for (int round = 0; round < 3; ++round) {
    Runtime::Options options = mn_options(2);
    options.seed = 7 + static_cast<std::uint64_t>(round);
    const RunReport report =
        Runtime::run(ranks, options, [&](Communicator& comm) {
          mixed_workload(comm, nullptr, &failures);
        });
    EXPECT_FALSE(report.failed);
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(SchedTest, SpansSurviveWorkerMigration) {
  const int ranks = 16;
  Runtime::Options options = mn_options(2);
  options.observe.trace = true;
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, options, [&](Communicator& comm) {
        mixed_workload(comm, nullptr, &failures);
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(report.trace.nranks, ranks);
  // Every rank recorded comm spans, attributed to itself, with sane
  // nesting depths — even though its continuation migrated carriers.
  std::vector<int> spans_per_rank(static_cast<std::size_t>(ranks), 0);
  for (const obs::TraceEvent& e : report.trace.events) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, ranks);
    EXPECT_GE(e.depth, 0);
    ++spans_per_rank[static_cast<std::size_t>(e.rank)];
  }
  for (const int n : spans_per_rank) EXPECT_GT(n, 0);
}

TEST(SchedTest, MemoryChargesFollowTheRank) {
  const int ranks = 8;
  const RunReport report =
      Runtime::run(ranks, mn_options(2), [&](Communicator& comm) {
        // Rank r holds (r+1) KiB live across a blocking point.
        const std::size_t bytes =
            static_cast<std::size_t>(comm.rank() + 1) * 1024;
        pal::TrackedBytes tracked(bytes);
        comm.barrier();
      });
  for (const RankStats& r : report.ranks) {
    EXPECT_GE(r.mem_high_water,
              static_cast<std::size_t>(r.rank + 1) * 1024)
        << "rank " << r.rank;
    EXPECT_EQ(r.mem_final, 0u) << "rank " << r.rank;
  }
}

// Everything in a rank's RankLocal block must stay with the rank while it
// parks and resumes (under mn, possibly on the other carrier): open span
// depth, its memory tracker under a tenant parent, and its own pool.
class RankState : public ::testing::TestWithParam<SchedBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, RankState,
    ::testing::Values(SchedBackend::kThreads, SchedBackend::kMn),
    [](const auto& info) { return to_string(info.param); });

TEST_P(RankState, FollowsTheRankAcrossParks) {
  const int ranks = 16;
  const int rounds = 4;
  Runtime::Options options;
  options.sched.backend = GetParam();
  options.sched.workers = 2;
  options.observe.trace = true;
  pal::MemoryTracker tenant_tracker;
  options.tenant.tracker = &tenant_tracker;
  const auto own_bytes = [](int rank) {
    return static_cast<std::size_t>(rank + 1) * 1024;
  };
  const pal::BufferPoolStats caller_start = pal::buffer_pool().stats();
  std::vector<const pal::BufferPool*> pools(static_cast<std::size_t>(ranks));

  const RunReport report =
      Runtime::run(ranks, options, [&](Communicator& comm) {
        obs::TraceScope outer(obs::Category::kOther, "test.outer");
        pools[static_cast<std::size_t>(comm.rank())] = &pal::buffer_pool();
        for (int round = 0; round < rounds; ++round) {
          comm.barrier();  // park, then acquire on whichever carrier resumed
          pal::PooledBuffer buffer(256);
          const pal::TrackedBytes held(own_bytes(comm.rank()));
          obs::TraceScope inner(obs::Category::kOther, "test.inner");
          comm.barrier();  // every rank holds its bytes here at once
          EXPECT_EQ(&pal::buffer_pool(),
                    pools[static_cast<std::size_t>(comm.rank())]);
        }  // the buffer goes back after a park, too
      });
  EXPECT_FALSE(report.failed);

  std::vector<int> outer_spans(static_cast<std::size_t>(ranks), 0);
  std::vector<int> inner_spans(static_cast<std::size_t>(ranks), 0);
  for (const obs::TraceEvent& e : report.trace.events) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, ranks);
    if (e.name == "test.outer") {
      EXPECT_EQ(e.depth, 0) << "rank " << e.rank;
      ++outer_spans[static_cast<std::size_t>(e.rank)];
    } else if (e.name == "test.inner") {
      EXPECT_EQ(e.depth, 1) << "rank " << e.rank;
      ++inner_spans[static_cast<std::size_t>(e.rank)];
    }
  }
  for (int r = 0; r < ranks; ++r) {
    EXPECT_EQ(outer_spans[static_cast<std::size_t>(r)], 1) << "rank " << r;
    EXPECT_EQ(inner_spans[static_cast<std::size_t>(r)], rounds) << "rank " << r;
  }

  std::size_t total = 0;
  for (const RankStats& r : report.ranks) {
    EXPECT_EQ(r.mem_high_water, own_bytes(r.rank)) << "rank " << r.rank;
    EXPECT_EQ(r.mem_final, 0u) << "rank " << r.rank;
    total += own_bytes(r.rank);
  }
  EXPECT_EQ(tenant_tracker.high_water_bytes(), total);
  EXPECT_EQ(tenant_tracker.current_bytes(), 0u);

  // One pool per rank: each misses once, then reuses its own buffer.
  EXPECT_EQ(std::set<const pal::BufferPool*>(pools.begin(), pools.end()).size(),
            static_cast<std::size_t>(ranks));
  const pal::BufferPoolStats pooled = bench::pool_stats(report.metrics);
  EXPECT_EQ(pooled.misses, static_cast<std::uint64_t>(ranks));
  EXPECT_EQ(pooled.hits, static_cast<std::uint64_t>(ranks * (rounds - 1)));
  EXPECT_EQ(pooled.releases, static_cast<std::uint64_t>(ranks * rounds));
  // Nothing fell through to the calling thread's own pool.
  const pal::BufferPoolStats caller = pal::buffer_pool().stats();
  EXPECT_EQ(caller.hits + caller.misses + caller.releases,
            caller_start.hits + caller_start.misses + caller_start.releases);
}

TEST(SchedTest, FiberStacksAreRecycled) {
  Runtime::run(32, mn_options(2), [](Communicator& comm) { comm.barrier(); });
  // After a run every retired stack sits in the process-wide free list.
  EXPECT_GT(exec::FiberScheduler::pooled_stack_bytes(), 0u);
  const std::size_t before = exec::FiberScheduler::pooled_stack_bytes();
  Runtime::run(32, mn_options(2), [](Communicator& comm) { comm.barrier(); });
  // The second run reuses the first run's stacks instead of growing the
  // pool.
  EXPECT_EQ(exec::FiberScheduler::pooled_stack_bytes(), before);
}

// ---- the fiber switch itself ----
//
// Each case runs under one carrier (every switch is fiber <-> the same
// carrier) and under four (fibers migrate between carriers at parks).

/// Round-robin baton: fiber `i` of `n` runs its turn when turn % n == i,
/// so every fiber parks and is woken by another once per round.
struct Baton {
  std::mutex mutex;
  exec::WaitSet waiters;
  int turn = 0;

  void pass(int self, int n) {
    std::unique_lock<std::mutex> lock(mutex);
    waiters.wait(lock, [&] { return turn % n == self; });
    ++turn;
    waiters.notify_all();
  }
};

void run_fibers(int carriers, int n, const std::function<void(int)>& body) {
  exec::FiberScheduler::Options options;
  options.workers = carriers;
  exec::FiberScheduler scheduler(options);
  for (int i = 0; i < n; ++i) {
    scheduler.spawn([&body, i] { body(i); });
  }
  scheduler.run();
}

/// Offset of the caller's stack pointer from 16-byte alignment at the
/// call into this function (the ABI requires 0).
__attribute__((noinline)) std::uintptr_t call_site_misalignment() {
  // The frame address is the stack pointer at the call plus the pushed
  // return address and frame pointer: aligned exactly when the call was.
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0)) % 16;
}

/// Rounding mode as both floating-point units see it.
int rounding_mode() {
#if defined(__x86_64__)
  // fegetround reads the x87 control word; check MXCSR agrees.
  const unsigned sse = _mm_getcsr() & 0x6000u;
  const unsigned want = fegetround() == FE_TOWARDZERO ? 0x6000u
                        : fegetround() == FE_TONEAREST ? 0x0000u
                                                       : 0xffffu;
  if (sse != want) return -1;
#endif
  return fegetround();
}

/// Recurses `depth` frames of ~1 KiB each, parking at the bottom.
__attribute__((noinline)) int deep_recurse(int depth, Baton& baton, int self,
                                           int n) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(depth);
  frame[sizeof frame - 1] = static_cast<char>(depth);
  if (depth == 0) {
    baton.pass(self, n);
    return frame[0];
  }
  return deep_recurse(depth - 1, baton, self, n) + frame[sizeof frame - 1];
}

/// Throws from a callee frame, so the unwind crosses a frame boundary.
__attribute__((noinline)) void throw_from_frame(int self) {
  throw std::runtime_error("fiber " + std::to_string(self));
}

class FiberSwitch : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Carriers, FiberSwitch, ::testing::Values(1, 4));

TEST_P(FiberSwitch, StackIsAlignedAtEntryAndAfterPark) {
  const int n = 8;
  Baton baton;
  std::atomic<int> misaligned{0};
  run_fibers(GetParam(), n, [&](int self) {
    if (call_site_misalignment() != 0) ++misaligned;
    for (int round = 0; round < 3; ++round) {
      baton.pass(self, n);
      if (call_site_misalignment() != 0) ++misaligned;
    }
  });
  EXPECT_EQ(misaligned.load(), 0);
}

TEST_P(FiberSwitch, RoundingModeStaysWithItsContext) {
  const int n = 8;
  const int carrier_mode = rounding_mode();
  ASSERT_EQ(carrier_mode, FE_TONEAREST);
  Baton baton;
  std::atomic<int> wrong_in_fiber{0};
  std::atomic<int> wrong_at_entry{0};
  run_fibers(GetParam(), n, [&](int self) {
    // A new fiber starts with its carrier's modes. Fiber 0 sets its mode
    // and parks before the fibers after it start on its carrier, so a
    // mode that leaked into the carrier shows up here.
    if (self != 0 && rounding_mode() != FE_TONEAREST) ++wrong_at_entry;
    const int mine = self == 0 ? FE_TOWARDZERO : FE_TONEAREST;
    if (self == 0) std::fesetround(FE_TOWARDZERO);
    for (int round = 0; round < 6; ++round) {
      baton.pass(self, n);  // park; possibly resume on another carrier
      if (rounding_mode() != mine) ++wrong_in_fiber;
    }
    if (self == 0) std::fesetround(FE_TONEAREST);
  });
  EXPECT_EQ(wrong_in_fiber.load(), 0);
  EXPECT_EQ(wrong_at_entry.load(), 0);
  EXPECT_EQ(rounding_mode(), carrier_mode);
}

TEST_P(FiberSwitch, ExceptionCaughtAcrossAPark) {
  const int n = 6;
  const int rounds = 3;
  Baton baton;
  std::atomic<int> caught{0};
  std::atomic<int> clobbered{0};
  run_fibers(GetParam(), n, [&](int self) {
    // Its address escapes, so under ASan with stack-use-after-return
    // detection it lives in the fiber's fake stack across every park
    // while other fibers throw.
    int sentinel = self;
    asm volatile("" : : "r"(&sentinel) : "memory");
    for (int round = 0; round < rounds; ++round) {
      try {
        baton.pass(self, n);
        throw_from_frame(self);
      } catch (const std::runtime_error& e) {
        if (e.what() == "fiber " + std::to_string(self)) ++caught;
      }
      if (sentinel != self) ++clobbered;
    }
  });
  EXPECT_EQ(caught.load(), n * rounds);
  EXPECT_EQ(clobbered.load(), 0);
}

TEST_P(FiberSwitch, DeepRecursionFitsTheDefaultStack) {
  // ~200 KiB of frames on the default 256 KiB stack, parked at the
  // deepest point while the other fibers run.
  const int n = 4;
  const int depth = 190;
  Baton baton;
  std::atomic<int> finished{0};
  run_fibers(GetParam(), n, [&](int self) {
    (void)deep_recurse(depth, baton, self, n);
    ++finished;
  });
  EXPECT_EQ(finished.load(), n);
}

// Keyed-wakeup semantics of exec::WaitSet on the plain-thread path (the
// fiber path is exercised end-to-end by every mn-backend test above).
// Predicates are flag-driven, so a waiter can only finish if its own
// flag was set — "the wrong waiter was woken" shows up as a hang on the
// final join, never as a flaky sleep-based assertion.
TEST(WaitSetKeys, NotifyKeyWakesOnlyMatchingWaiters) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag1 = false;
  bool flag2 = false;
  std::atomic<bool> done1{false};
  std::atomic<bool> done2{false};
  std::thread t1([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, 1, [&] { return flag1; });
    done1 = true;
  });
  std::thread t2([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, 2, [&] { return flag2; });
    done2 = true;
  });
  {
    std::lock_guard<std::mutex> lock(m);
    flag2 = true;
    ws.notify_key(2);
  }
  t2.join();
  EXPECT_TRUE(done2.load());
  EXPECT_FALSE(done1.load());  // flag1 unset: t1 must still be parked
  {
    std::lock_guard<std::mutex> lock(m);
    flag1 = true;
    ws.notify_key(1);
  }
  t1.join();
  EXPECT_TRUE(done1.load());
}

TEST(WaitSetKeys, AnyKeyWaiterMatchesEveryNotify) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag = false;
  std::atomic<bool> done{false};
  std::thread t([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, exec::WaitSet::kAnyKey, [&] { return flag; });
    done = true;
  });
  {
    std::lock_guard<std::mutex> lock(m);
    flag = true;
    ws.notify_key(42);  // unrelated key must still wake an any-key waiter
  }
  t.join();
  EXPECT_TRUE(done.load());
}

TEST(WaitSetKeys, NotifyAllWakesEveryKey) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag = false;
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    waiters.emplace_back([&ws, &m, &flag, &done, key] {
      std::unique_lock<std::mutex> lock(m);
      ws.wait_key(lock, key, [&] { return flag; });
      ++done;
    });
  }
  {
    std::lock_guard<std::mutex> lock(m);
    flag = true;
    ws.notify_all();
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(done.load(), 4);
}

TEST(WaitSetKeys, FlagWaiterRechecksAfterNonMatchingNotify) {
  exec::WaitSet ws;
  std::mutex m;
  std::atomic<bool> ready{false};
  std::atomic<bool> entered{false};
  std::atomic<bool> done{false};
  bool saw_ready = false;
  bool held_lock = true;
  std::thread t([&] {
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    ws.wait_flag(lock, 1, ready);
    saw_ready = ready.load();
    held_lock = lock.owns_lock();
    done = true;
  });
  while (!entered.load()) std::this_thread::yield();
  {
    // Taking the mutex proves the waiter is blocked inside wait_flag.
    std::lock_guard<std::mutex> lock(m);
    ws.notify_all();  // wakes the thread waiter; its flag is still false
  }
  // A waiter that returned on the notify alone would be done by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());
  {
    std::lock_guard<std::mutex> lock(m);
    ready.store(true, std::memory_order_release);
    ws.notify_key(1);
  }
  t.join();
  EXPECT_TRUE(saw_ready);
  EXPECT_FALSE(held_lock);  // wait_flag returns with the mutex released
}

TEST(SchedTest, BackendNamesRoundTrip) {
  EXPECT_EQ(parse_sched_backend("threads"), SchedBackend::kThreads);
  EXPECT_EQ(parse_sched_backend("mn"), SchedBackend::kMn);
  EXPECT_FALSE(parse_sched_backend("").has_value());
  EXPECT_FALSE(parse_sched_backend("fibers").has_value());
  EXPECT_STREQ(to_string(SchedBackend::kThreads), "threads");
  EXPECT_STREQ(to_string(SchedBackend::kMn), "mn");
}

TEST(SchedTest, ParseRanksListAcceptsValidLists) {
  std::string error;
  EXPECT_EQ(bench::parse_ranks_list("8", &error),
            std::vector<int>({8}));
  EXPECT_EQ(bench::parse_ranks_list("4,8,16", &error),
            std::vector<int>({4, 8, 16}));
  EXPECT_EQ(bench::parse_ranks_list("10240", &error),
            std::vector<int>({10240}));
}

TEST(SchedTest, ParseRanksListRejectsBadInput) {
  for (const char* bad :
       {"", "0", "-1", "4,-8", "4,0", "8x", "x8", " 8", "+8", "4,,8", "4,",
        "2147483648", "999999999999999999999", "3.5"}) {
    std::string error;
    EXPECT_FALSE(bench::parse_ranks_list(bad, &error).has_value())
        << "accepted '" << bad << "'";
    EXPECT_FALSE(error.empty()) << "no message for '" << bad << "'";
  }
}

TEST(SchedTest, ObsSessionParsesDashedAndKeyValueFlagsAlike) {
  // ObsSession installs its sched and kernels choices as process
  // defaults; put both back for the rest of the binary.
  struct RestoreDefaults {
    SchedBackend sched = default_sched_backend();
    kernels::Variant variant = kernels::active_variant();
    ~RestoreDefaults() {
      set_default_sched_backend(sched);
      kernels::set_variant(variant);
    }
  } restore;
  const char* dashed[] = {"bench",   "--sched", "mn", "--kernels",
                          "generic", "--ranks", "4,8"};
  const char* key_value[] = {"bench", "sched=mn", "kernels=generic",
                             "ranks=4,8"};
  std::string sched[2];
  std::string variant[2];
  std::vector<int> ranks[2];
  {
    const bench::ObsSession obs(7, dashed);
    sched[0] = obs.sched_backend_name();
    variant[0] = obs.kernels_variant();
    ranks[0] = obs.ranks_override();
  }
  {
    const bench::ObsSession obs(4, key_value);
    sched[1] = obs.sched_backend_name();
    variant[1] = obs.kernels_variant();
    ranks[1] = obs.ranks_override();
  }
  EXPECT_EQ(sched[0], "mn");
  EXPECT_EQ(variant[0], "generic");
  EXPECT_EQ(ranks[0], std::vector<int>({4, 8}));
  EXPECT_EQ(sched[1], sched[0]);
  EXPECT_EQ(variant[1], variant[0]);
  EXPECT_EQ(ranks[1], ranks[0]);
}

}  // namespace
}  // namespace insitu::comm
