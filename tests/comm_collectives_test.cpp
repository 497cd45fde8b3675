#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "comm/coll.hpp"
#include "comm/runtime.hpp"
#include "comm/sched.hpp"
#include "obs/metrics.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::comm {
namespace {

class CollectivesTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

TEST_P(CollectivesTest, BarrierSynchronizesVirtualTime) {
  const int p = GetParam();
  std::vector<double> times(static_cast<std::size_t>(p));
  Runtime::run(p, [&](Communicator& comm) {
    // Stagger ranks in virtual time, then barrier.
    comm.advance_compute(0.1 * comm.rank());
    comm.barrier();
    times[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  // All ranks leave the barrier at (or after) the slowest rank's entry.
  const double slowest_entry = 0.1 * (p - 1);
  for (double t : times) EXPECT_GE(t, slowest_entry);
  // And all at the same instant.
  for (double t : times) EXPECT_DOUBLE_EQ(t, times[0]);
}

TEST_P(CollectivesTest, BroadcastDeliversRootData) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const int root = p > 2 ? 2 : 0;
    std::vector<double> data;
    if (comm.rank() == root) data = {1.0, 2.0, 3.0, 4.0};
    comm.broadcast(data, root);
    if (data != std::vector<double>({1.0, 2.0, 3.0, 4.0})) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, BroadcastValue) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    int v = comm.rank() == 0 ? 77 : -1;
    comm.broadcast_value(v, 0);
    if (v != 77) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, ReduceSumToRoot) {
  const int p = GetParam();
  std::atomic<long> root_result{-1};
  Runtime::run(p, [&](Communicator& comm) {
    const long mine = comm.rank() + 1;
    const long sum = comm.reduce_value(mine, ReduceOp::kSum, 0);
    if (comm.rank() == 0) root_result = sum;
  });
  EXPECT_EQ(root_result.load(), static_cast<long>(p) * (p + 1) / 2);
}

TEST_P(CollectivesTest, AllreduceMinMax) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const double mine = static_cast<double>(comm.rank());
    if (comm.allreduce_value(mine, ReduceOp::kMin) != 0.0) ++failures;
    if (comm.allreduce_value(mine, ReduceOp::kMax) != p - 1.0) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, AllreduceVectorElementwise) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    std::vector<int> v = {comm.rank(), 1, -comm.rank()};
    comm.allreduce(std::span<int>(v), ReduceOp::kSum);
    const int ranksum = p * (p - 1) / 2;
    if (v[0] != ranksum || v[1] != p || v[2] != -ranksum) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, AllreduceProd) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const double r = comm.allreduce_value(2.0, ReduceOp::kProd);
    if (r != std::pow(2.0, p)) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, GathervConcatenatesInRankOrder) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    // Rank r contributes r+1 copies of its rank id.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1),
                          comm.rank());
    auto gathered = comm.gatherv(std::span<const int>(mine), 0);
    if (comm.rank() == 0) {
      if (gathered.size() != static_cast<std::size_t>(p)) {
        ++failures;
        return;
      }
      for (int r = 0; r < p; ++r) {
        if (gathered[static_cast<std::size_t>(r)].size() !=
            static_cast<std::size_t>(r + 1)) {
          ++failures;
        }
        for (int x : gathered[static_cast<std::size_t>(r)]) {
          if (x != r) ++failures;
        }
      }
    } else if (!gathered.empty()) {
      ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, AllgatherValue) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    auto all = comm.allgather_value(comm.rank() * 10);
    if (all.size() != static_cast<std::size_t>(p)) ++failures;
    for (int r = 0; r < p; ++r) {
      if (all[static_cast<std::size_t>(r)] != r * 10) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, ExscanSum) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    // Prefix of (rank+1): exscan at rank r = sum_{i<r} (i+1) = r(r+1)/2.
    const long mine = comm.rank() + 1;
    const long prefix = comm.exscan_value(mine, ReduceOp::kSum);
    const long expect = static_cast<long>(comm.rank()) * (comm.rank() + 1) / 2;
    if (prefix != expect) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, BackToBackCollectivesDoNotInterleave) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    for (int iter = 0; iter < 50; ++iter) {
      const int sum = comm.allreduce_value(1, ReduceOp::kSum);
      if (sum != p) ++failures;
      int v = iter;
      comm.broadcast_value(v, iter % p);
      if (v != iter) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(CollectivesTest, SplitFormsCorrectSubgroups) {
  const int p = GetParam();
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const int color = comm.rank() % 2;
    Communicator sub = comm.split(color, comm.rank());
    const int expected_size = p / 2 + ((p % 2 == 1 && color == 0) ? 1 : 0);
    if (sub.size() != expected_size) ++failures;
    // New ranks are ordered by old rank within the color.
    if (sub.rank() != comm.rank() / 2) ++failures;
    // The subcommunicator must be usable for collectives.
    const int subsum = sub.allreduce_value(1, ReduceOp::kSum);
    if (subsum != sub.size()) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(CollectivesVirtualTime, AllreduceCostGrowsWithRankCount) {
  auto vtime_at = [](int p) {
    Runtime::Options opts;
    opts.machine = cori_haswell();
    RunReport report = Runtime::run(p, opts, [](Communicator& comm) {
      std::vector<double> v(1024, 1.0);
      comm.allreduce(std::span<double>(v), ReduceOp::kSum);
    });
    return report.max_virtual_seconds();
  };
  const double t4 = vtime_at(4);
  const double t32 = vtime_at(32);
  EXPECT_GT(t32, t4);  // log2(32)=5 stages vs log2(4)=2
}

TEST(CollectivesVirtualTime, RootReduceSlowerThanNonRootEntry) {
  Runtime::Options opts;
  opts.machine = cori_haswell();
  std::vector<double> times(8);
  Runtime::run(8, opts, [&](Communicator& comm) {
    std::vector<double> v(1 << 16, 1.0);
    std::vector<double> out(v.size());
    comm.reduce(std::span<const double>(v), std::span<double>(out),
                ReduceOp::kSum, 0);
    times[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  for (double t : times) EXPECT_GT(t, 0.0);
}

TEST(CollectivesStress, SixtyFourRanksMixedTraffic) {
  // A larger world exercising collectives + p2p + split concurrently.
  const int p = 64;
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](Communicator& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      if (comm.allreduce_value(1, ReduceOp::kSum) != p) ++failures;
      const int next = (comm.rank() + 1) % p;
      const int prev = (comm.rank() + p - 1) % p;
      const int token = comm.rank() * 3 + iter;
      comm.send_values(next, iter, std::span<const int>(&token, 1));
      auto got = comm.recv_values<int>(prev, iter);
      if (got[0] != prev * 3 + iter) ++failures;
      Communicator half = comm.split(comm.rank() % 2, comm.rank());
      if (half.allreduce_value(1, ReduceOp::kSum) != p / 2) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

/// Restores the process-default collective engine/arity on scope exit so
/// engine-matrix tests cannot leak their overrides into later tests.
struct CollEngineGuard {
  CollEngine engine = default_coll_engine();
  int arity = default_coll_arity();
  ~CollEngineGuard() {
    set_default_coll_engine(engine);
    set_default_coll_arity(arity);
  }
};

/// Everything a rank observes from a mixed collective workload, bit-for
/// bit: the defaulted operator== makes "engines are interchangeable" a
/// one-line assertion. The float fields go through memcpy'd bit patterns
/// so -ffast-math-style tolerance can never creep in.
struct RankDigest {
  double vtime = 0.0;
  std::uint64_t sum_bits = 0;     ///< chained float allreduce
  std::uint64_t gather_hash = 0;  ///< FNV of root's gatherv concatenation
  std::uint64_t sub_bits = 0;     ///< allreduce on a split subgroup
  bool operator==(const RankDigest&) const = default;
};

/// Order-sensitive mixed workload: chained float sums (non-associative),
/// a ragged gatherv hashed at the root, a split + subgroup reduction, and
/// enough compute skew that rendezvous order would differ if the engine
/// let it matter.
std::vector<RankDigest> run_digest_matrix(CollEngine engine, int arity,
                                          int ranks, SchedBackend backend) {
  set_default_coll_engine(engine);
  set_default_coll_arity(arity);
  std::vector<RankDigest> out(static_cast<std::size_t>(ranks));
  Runtime::Options options;
  options.sched.backend = backend;
  Runtime::run(ranks, options, [&](Communicator& comm) {
    const int rank = comm.rank();
    comm.advance_compute(0.0001 * (rank % 5));
    double value = (rank + 1) * 1e-7 + (rank % 3) / 3.0;
    for (int i = 0; i < 4; ++i) {
      value = comm.allreduce_value(value, ReduceOp::kSum) / comm.size() +
              rank * 1e-9;
    }
    RankDigest digest;
    std::memcpy(&digest.sum_bits, &value, sizeof value);

    std::vector<std::int32_t> mine(static_cast<std::size_t>(rank % 3 + 1),
                                   rank);
    auto gathered = comm.gatherv(std::span<const std::int32_t>(mine), 0);
    std::uint64_t hash = 14695981039346656037ull;
    if (rank == 0) {
      for (const auto& block : gathered) {
        for (const std::int32_t v : block) {
          hash ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
          hash *= 1099511628211ull;
        }
      }
    }
    comm.broadcast_value(hash, 0);
    digest.gather_hash = hash;

    Communicator sub = comm.split(rank % 2, rank);
    double subv = sub.allreduce_value(value + sub.rank(), ReduceOp::kSum);
    comm.barrier();
    std::memcpy(&digest.sub_bits, &subv, sizeof subv);
    digest.vtime = comm.clock().now();
    out[static_cast<std::size_t>(rank)] = digest;
  });
  return out;
}

TEST(CollectiveEngines, TreeMatchesFlatAcrossAritiesAndSizes) {
  CollEngineGuard guard;
  // The canonical combine schedule is fixed by (P, arity) for BOTH
  // engines, so flat and tree must agree bit-for-bit at every arity —
  // including sizes that leave ragged last blocks at every tree level.
  for (const int ranks : {5, 16, 33, 64, 129}) {
    for (const int arity : {2, 4, 8}) {
      const auto flat = run_digest_matrix(CollEngine::kFlat, arity, ranks,
                                          SchedBackend::kThreads);
      const auto tree = run_digest_matrix(CollEngine::kTree, arity, ranks,
                                          SchedBackend::kThreads);
      EXPECT_EQ(flat, tree) << ranks << " ranks, arity " << arity;
    }
  }
}

TEST(CollectiveEngines, BackendsAgreeOnTreeResults) {
  CollEngineGuard guard;
  for (const int ranks : {16, 129}) {
    for (const int arity : {2, 8}) {
      const auto threads = run_digest_matrix(CollEngine::kTree, arity, ranks,
                                             SchedBackend::kThreads);
      const auto mn = run_digest_matrix(CollEngine::kTree, arity, ranks,
                                        SchedBackend::kMn);
      EXPECT_EQ(threads, mn) << ranks << " ranks, arity " << arity;
    }
  }
}

TEST(CollectiveEngines, FloatAllreduceIsRunToRunDeterministic) {
  CollEngineGuard guard;
  // Regression for the latent arrival-order combine: under mn the
  // rendezvous order varies run to run, so only a canonical schedule
  // keeps non-associative float sums bit-identical across repeats.
  const auto first =
      run_digest_matrix(CollEngine::kTree, 4, 64, SchedBackend::kMn);
  const auto second =
      run_digest_matrix(CollEngine::kTree, 4, 64, SchedBackend::kMn);
  EXPECT_EQ(first, second);
}

TEST(CollectiveEngines, SubgroupCollectivesInterleaveWithParent) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kTree);
  set_default_coll_arity(4);
  const int p = 48;
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const int color = comm.rank() % 3;
    Communicator sub = comm.split(color, comm.rank());
    for (int iter = 0; iter < 8; ++iter) {
      // Colors issue different numbers of subgroup rounds between parent
      // rounds, so parent and child slot trees are mid-flight at once
      // and generations advance at different rates per group.
      for (int k = 0; k <= color; ++k) {
        if (sub.allreduce_value(1, ReduceOp::kSum) != sub.size()) ++failures;
      }
      if (comm.allreduce_value(1, ReduceOp::kSum) != p) ++failures;
      comm.barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(CollectiveEngines, TreeAllgatherBlobsAliasOneTable) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kTree);
  set_default_coll_arity(4);
  const int p = 24;
  std::vector<const void*> first_blob(static_cast<std::size_t>(p), nullptr);
  std::vector<BlobTablePtr> tables(static_cast<std::size_t>(p));
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const int rank = comm.rank();
    const double mine = rank * 1.5;
    BlobTablePtr table =
        comm.allgather_blobs(std::as_bytes(std::span<const double>(&mine, 1)));
    if (table->size() != static_cast<std::size_t>(p)) ++failures;
    for (int r = 0; r < p; ++r) {
      double v = 0.0;
      std::memcpy(&v, (*table)[static_cast<std::size_t>(r)]->data(), sizeof v);
      if (v != r * 1.5) ++failures;
    }
    first_blob[static_cast<std::size_t>(rank)] = (*table)[0]->data();
    tables[static_cast<std::size_t>(rank)] = table;  // outlive the round
    // Later rounds reuse the slots; the published table must stay put.
    comm.barrier();
    (void)comm.allreduce_value(1, ReduceOp::kSum);
  });
  EXPECT_EQ(failures.load(), 0);
  // Zero-copy: every rank aliases the same shared storage.
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(first_blob[static_cast<std::size_t>(r)], first_blob[0])
        << "rank " << r;
  }
  // The shared table is still readable after the runtime tore down.
  double v = 0.0;
  std::memcpy(&v, (*tables[3])[5]->data(), sizeof v);
  EXPECT_EQ(v, 7.5);
}

TEST(CollectiveEngines, FlatAllgatherBlobsCopyPerRank) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kFlat);
  const int p = 8;
  std::vector<const void*> first_blob(static_cast<std::size_t>(p), nullptr);
  // Tables stay alive together; otherwise the allocator could hand a
  // freed blob's address to another rank's copy and fake an alias.
  std::vector<BlobTablePtr> tables(static_cast<std::size_t>(p));
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const double mine = comm.rank() * 2.0;
    BlobTablePtr table =
        comm.allgather_blobs(std::as_bytes(std::span<const double>(&mine, 1)));
    for (int r = 0; r < p; ++r) {
      double v = 0.0;
      std::memcpy(&v, (*table)[static_cast<std::size_t>(r)]->data(), sizeof v);
      if (v != r * 2.0) ++failures;
    }
    first_blob[static_cast<std::size_t>(comm.rank())] = (*table)[0]->data();
    tables[static_cast<std::size_t>(comm.rank())] = std::move(table);
  });
  EXPECT_EQ(failures.load(), 0);
  // The flat engine reproduces the original per-reader deep copy (the
  // ablation baseline), so no two ranks share blob storage.
  for (int a = 0; a < p; ++a) {
    for (int b = a + 1; b < p; ++b) {
      EXPECT_NE(first_blob[static_cast<std::size_t>(a)],
                first_blob[static_cast<std::size_t>(b)])
          << a << " vs " << b;
    }
  }
}

TEST(CollectiveEngines, BackToBackRoundsReuseSlots) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kTree);
  set_default_coll_arity(2);  // 33 ranks -> a 6-level tree
  const int p = 33;
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    for (int iter = 0; iter < 60; ++iter) {
      if (comm.allreduce_value(1, ReduceOp::kSum) != p) ++failures;
      int v = iter;
      comm.broadcast_value(v, iter % p);
      if (v != iter) ++failures;
      if (iter % 5 == 0) {
        const std::int32_t mine = comm.rank();
        auto g = comm.gatherv(std::span<const std::int32_t>(&mine, 1),
                              iter % p);
        if (comm.rank() == iter % p &&
            g.size() != static_cast<std::size_t>(p)) {
          ++failures;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

// The TSan job's collective-engine stressor: a thousand fibers on few
// carriers force heavy park/wake traffic through every tree level.
TEST(CollectiveEngines, TsanStressThousandFiberCollectives) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kTree);
  set_default_coll_arity(8);
  const int ranks = 1024;
  std::atomic<int> failures{0};
  Runtime::Options options;
  options.sched.backend = SchedBackend::kMn;
  options.sched.workers = 4;
  const RunReport report =
      Runtime::run(ranks, options, [&](Communicator& comm) {
        for (int iter = 0; iter < 3; ++iter) {
          comm.barrier();
          if (comm.allreduce_value(1, ReduceOp::kSum) != ranks) ++failures;
          if (iter == 1) {
            const std::int32_t mine = comm.rank();
            auto g =
                comm.gatherv(std::span<const std::int32_t>(&mine, 1), 0);
            if (comm.rank() == 0 &&
                g.size() != static_cast<std::size_t>(ranks)) {
              ++failures;
            }
          }
        }
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(failures.load(), 0);
}

/// Back-to-back allreduce rounds where every third rank receives a
/// point-to-point message between rounds, from a partner that sends only
/// after its own round returned. The partners (and everyone else) reach
/// the next round while the receivers have not yet read the previous
/// round's outcome, so next-round arrivals overtake unread outcomes in
/// every slot. Returns the number of wrong results.
int overtaking_rounds(Communicator& comm, int rounds) {
  const int rank = comm.rank();
  const long p = comm.size();
  const bool receiver = rank % 3 == 0 && rank + 1 < comm.size();
  const bool sender = rank % 3 == 1;
  int wrong = 0;
  for (int round = 0; round < rounds; ++round) {
    const long sum = comm.allreduce_value(static_cast<long>(rank + round),
                                          ReduceOp::kSum);
    if (sum != p * (p - 1) / 2 + p * round) ++wrong;
    if (sender) {
      const std::int32_t tag_round = round;
      comm.send_values(rank - 1, 5, std::span<const std::int32_t>(&tag_round, 1));
    } else if (receiver) {
      const auto got = comm.recv_values<std::int32_t>(rank + 1, 5);
      if (got.size() != 1 || got[0] != round) ++wrong;
    }
  }
  return wrong;
}

class CollectiveHandoff
    : public ::testing::TestWithParam<std::tuple<int, SchedBackend>> {};

INSTANTIATE_TEST_SUITE_P(
    ArityAndBackend, CollectiveHandoff,
    ::testing::Combine(::testing::Values(2, 64),
                       ::testing::Values(SchedBackend::kThreads,
                                         SchedBackend::kMn)),
    [](const auto& info) {
      return "arity" + std::to_string(std::get<0>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST_P(CollectiveHandoff, OvertakenOutcomesStayCorrect) {
  CollEngineGuard guard;
  set_default_coll_engine(CollEngine::kTree);
  set_default_coll_arity(std::get<0>(GetParam()));
  Runtime::Options options;
  options.sched.backend = std::get<1>(GetParam());
  options.sched.workers = 4;
  const int ranks = 24;
  const int rounds = 2000;
  std::atomic<int> world_wrong{0};
  std::atomic<int> child_wrong{0};
  const RunReport report =
      Runtime::run(ranks, options, [&](Communicator& comm) {
        world_wrong += overtaking_rounds(comm, rounds);
        Communicator child = comm.split(comm.rank() % 2, comm.rank());
        child_wrong += overtaking_rounds(child, rounds);
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(world_wrong.load(), 0);
  EXPECT_EQ(child_wrong.load(), 0);
}

TEST(CollectiveEngines, KnobsRoundTrip) {
  EXPECT_EQ(parse_coll_engine("flat"), CollEngine::kFlat);
  EXPECT_EQ(parse_coll_engine("tree"), CollEngine::kTree);
  EXPECT_FALSE(parse_coll_engine("").has_value());
  EXPECT_FALSE(parse_coll_engine("ring").has_value());
  EXPECT_STREQ(to_string(CollEngine::kFlat), "flat");
  EXPECT_STREQ(to_string(CollEngine::kTree), "tree");
  CollEngineGuard guard;
  set_default_coll_arity(1);  // below kMinCollArity: clamped, not honored
  EXPECT_EQ(default_coll_arity(), kMinCollArity);
}

TEST(RunReport, AggregatesStats) {
  RunReport report = Runtime::run(4, [](Communicator& comm) {
    comm.advance_compute(1.0 + comm.rank());
    pal::rank_memory_tracker().allocate(100 * (comm.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(report.max_virtual_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(report.mean_virtual_seconds(), 2.5);
  EXPECT_EQ(report.total_high_water_bytes(), 100u + 200u + 300u + 400u);
  EXPECT_EQ(report.max_high_water_bytes(), 400u);
  EXPECT_FALSE(report.failed);
}

TEST(RunReport, CapturesRankFailure) {
  RunReport report = Runtime::run(4, [](Communicator& comm) {
    if (comm.rank() == 2) throw std::runtime_error("injected failure");
    // Other ranks do no collective so they don't deadlock on rank 2.
  });
  EXPECT_TRUE(report.failed);
  EXPECT_NE(report.failure_message.find("injected failure"),
            std::string::npos);
}

/// comm.bytes_sent{op=allreduce|reduce|bcast} counts each call's
/// contribution exactly once, on the parent communicator and on a split()
/// child (whose handles bind separately), under both sched backends.
TEST(CollectiveBytes, CountedOncePerCall) {
  constexpr int kRanks = 6;
  constexpr int kCalls = 5;
  constexpr std::size_t kDoubles = 3;
  constexpr double kPerCall = kDoubles * sizeof(double);
  auto calls = [&](Communicator& comm) {
    std::vector<double> values(kDoubles, 1.0);
    std::vector<double> out(kDoubles);
    for (int i = 0; i < kCalls; ++i) {
      comm.allreduce(std::span<double>(values), ReduceOp::kSum);
      comm.reduce(std::span<const double>(values), std::span<double>(out),
                  ReduceOp::kMax, /*root=*/0);
      comm.broadcast(values, /*root=*/0);
    }
  };
  for (const SchedBackend backend :
       {SchedBackend::kThreads, SchedBackend::kMn}) {
    for (const bool child : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(backend)
                   << (child ? " split child" : " parent"));
      Runtime::Options opts;
      opts.sched.backend = backend;
      opts.sched.workers = 2;
      const RunReport report = Runtime::run(kRanks, opts, [&](Communicator& c) {
        if (child) {
          Communicator half = c.split(c.rank() % 2, c.rank());
          calls(half);
        } else {
          calls(c);
        }
      });
      std::map<std::string, double> bytes;
      for (const obs::MetricSample& s : report.metrics) {
        if (s.key.rfind("comm.bytes_sent{", 0) == 0) bytes[s.key] = s.value;
      }
      const int roots = child ? 2 : 1;  // bcast counts at the root only
      EXPECT_EQ(bytes["comm.bytes_sent{op=allreduce}"],
                kRanks * kCalls * kPerCall);
      EXPECT_EQ(bytes["comm.bytes_sent{op=reduce}"],
                kRanks * kCalls * kPerCall);
      EXPECT_EQ(bytes["comm.bytes_sent{op=bcast}"],
                roots * kCalls * kPerCall);
    }
  }
}

}  // namespace
}  // namespace insitu::comm
