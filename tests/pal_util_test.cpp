#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "pal/memory_tracker.hpp"
#include "pal/rank_local.hpp"
#include "pal/rng.hpp"
#include "pal/table.hpp"
#include "pal/timer.hpp"

namespace insitu::pal {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng base(7);
  Rng s0 = base.split(0);
  Rng s1 = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (s0.next_u64() == s1.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit over 1000 draws
}

TEST(Rng, GaussianMoments) {
  Rng rng(99);
  double sum = 0.0, sumsq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sumsq += g * g;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(MemoryTracker, HighWaterMark) {
  MemoryTracker t;
  t.allocate(100);
  t.allocate(50);
  EXPECT_EQ(t.current_bytes(), 150u);
  EXPECT_EQ(t.high_water_bytes(), 150u);
  t.release(120);
  EXPECT_EQ(t.current_bytes(), 30u);
  EXPECT_EQ(t.high_water_bytes(), 150u);
  t.allocate(10);
  EXPECT_EQ(t.high_water_bytes(), 150u);
}

TEST(MemoryTracker, ReleaseBelowZeroClamps) {
  MemoryTracker t;
  t.allocate(10);
  t.release(100);
  EXPECT_EQ(t.current_bytes(), 0u);
}

TEST(MemoryTracker, TrackedBytesRaii) {
  rank_memory_tracker().reset();
  {
    TrackedBytes block(1000);
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 1000u);
    TrackedBytes moved = std::move(block);
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 1000u);
    moved.resize(2000);
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 2000u);
  }
  EXPECT_EQ(rank_memory_tracker().current_bytes(), 0u);
  EXPECT_EQ(rank_memory_tracker().high_water_bytes(), 2000u);
}

TEST(MemoryTracker, PerThreadIsolation) {
  rank_memory_tracker().reset();
  rank_memory_tracker().allocate(500);
  std::size_t other_thread_bytes = 12345;
  std::thread t([&] {
    rank_memory_tracker().reset();
    other_thread_bytes = rank_memory_tracker().current_bytes();
  });
  t.join();
  EXPECT_EQ(other_thread_bytes, 0u);
  EXPECT_EQ(rank_memory_tracker().current_bytes(), 500u);
  rank_memory_tracker().reset();
}

TEST(MemoryTracker, ConcurrentChargesKeepExactTotals) {
  MemoryTracker t;
  constexpr int kThreads = 8;
  constexpr int kIterations = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      for (int k = 0; k < kIterations; ++k) {
        t.allocate(64);
        t.release(64);
      }
      t.allocate(100);  // left allocated: final total is exact
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.current_bytes(), static_cast<std::size_t>(kThreads) * 100);
  // High-water is at least the surviving allocations and can never exceed
  // the worst-case sum of simultaneous transients.
  EXPECT_GE(t.high_water_bytes(), static_cast<std::size_t>(kThreads) * 100);
  EXPECT_LE(t.high_water_bytes(),
            static_cast<std::size_t>(kThreads) * (100 + 64));
}

TEST(MemoryTracker, ScopedAdoptionRedirectsCharges) {
  MemoryTracker rank_tracker;
  rank_memory_tracker().reset();
  std::thread worker([&rank_tracker] {
    RankLocal block;
    block.tracker = &rank_tracker;
    ScopedRankLocal install(&block);
    rank_memory_tracker().allocate(256);
    EXPECT_EQ(rank_memory_tracker().current_bytes(), 256u);
  });
  worker.join();
  EXPECT_EQ(rank_tracker.current_bytes(), 256u);
  EXPECT_EQ(rank_memory_tracker().current_bytes(), 0u);
}

TEST(MemoryTracker, ScopedAdoptionRestoresOnExit) {
  MemoryTracker other;
  RankLocal block;
  block.tracker = &other;
  {
    ScopedRankLocal install(&block);
    TrackedBytes block(42);
    EXPECT_EQ(other.current_bytes(), 42u);
  }
  EXPECT_EQ(other.current_bytes(), 0u);
  rank_memory_tracker().reset();
  rank_memory_tracker().allocate(7);
  EXPECT_EQ(rank_memory_tracker().current_bytes(), 7u);
  EXPECT_EQ(other.current_bytes(), 0u);
  rank_memory_tracker().reset();
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.nanoseconds(), 0);
}

TEST(PhaseTimer, Accumulates) {
  PhaseTimer p;
  p.add(1.0);
  p.add(3.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.total(), 6.0);
  EXPECT_EQ(p.count(), 3);
  EXPECT_DOUBLE_EQ(p.mean(), 2.0);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 3.0);
}

TEST(PhaseTimer, EmptyIsZero) {
  PhaseTimer p;
  EXPECT_FALSE(p.has_samples());
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_DOUBLE_EQ(p.min(), 0.0);
  EXPECT_DOUBLE_EQ(p.max(), 0.0);
}

TEST(PhaseTimer, FirstSampleInitializesMinAndMax) {
  // A first sample above zero must become the min (not be clamped against
  // a zero-initialized state), and a negative first sample must become
  // the max.
  PhaseTimer p;
  p.add(5.0);
  EXPECT_TRUE(p.has_samples());
  EXPECT_DOUBLE_EQ(p.min(), 5.0);
  EXPECT_DOUBLE_EQ(p.max(), 5.0);

  PhaseTimer n;
  n.add(-2.0);
  EXPECT_DOUBLE_EQ(n.min(), -2.0);
  EXPECT_DOUBLE_EQ(n.max(), -2.0);
  n.add(-1.0);
  EXPECT_DOUBLE_EQ(n.min(), -2.0);
  EXPECT_DOUBLE_EQ(n.max(), -1.0);
}

TEST(PhaseTimer, ResetReturnsToEmpty) {
  PhaseTimer p;
  p.add(1.0);
  p.add(2.0);
  p.reset();
  EXPECT_FALSE(p.has_samples());
  EXPECT_EQ(p.count(), 0);
  EXPECT_DOUBLE_EQ(p.total(), 0.0);
  EXPECT_DOUBLE_EQ(p.min(), 0.0);
  EXPECT_DOUBLE_EQ(p.max(), 0.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.min(), 3.0);
  EXPECT_DOUBLE_EQ(p.max(), 3.0);
}

TEST(TablePrinter, RendersAlignedTable) {
  TablePrinter t("Demo");
  t.set_header({"config", "time (s)"});
  t.add_row({"baseline", "1.5"});
  t.add_row({"histogram-long-name", "2"});
  t.add_note("a note");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("baseline"), std::string::npos);
  EXPECT_NE(out.find("histogram-long-name"), std::string::npos);
  EXPECT_NE(out.find("* a note"), std::string::npos);
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::num(1.5), "1.5");
  EXPECT_EQ(TablePrinter::num(2.0), "2");
  EXPECT_EQ(TablePrinter::num(0.1234, 2), "0.12");
}

TEST(TablePrinter, ByteFormatting) {
  EXPECT_EQ(TablePrinter::bytes(512), "512 B");
  EXPECT_EQ(TablePrinter::bytes(2048), "2 KiB");
  EXPECT_EQ(TablePrinter::bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

}  // namespace
}  // namespace insitu::pal
