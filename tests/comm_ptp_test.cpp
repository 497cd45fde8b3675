#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "comm/runtime.hpp"

namespace insitu::comm {
namespace {

TEST(PointToPoint, SendRecvRoundTrip) {
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload = {3.14, 2.71};
      comm.send_values(1, /*tag=*/7, std::span<const double>(payload));
    } else {
      auto got = comm.recv_values<double>(0, 7);
      if (got != std::vector<double>({3.14, 2.71})) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, TagsAreMatchedNotOrdered) {
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> a = {1}, b = {2};
      comm.send_values(1, /*tag=*/10, std::span<const int>(a));
      comm.send_values(1, /*tag=*/20, std::span<const int>(b));
    } else {
      // Receive in the opposite order from the sends.
      auto second = comm.recv_values<int>(0, 20);
      auto first = comm.recv_values<int>(0, 10);
      if (second != std::vector<int>({2})) ++failures;
      if (first != std::vector<int>({1})) ++failures;
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, SameTagIsFifo) {
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v = {i};
        comm.send_values(1, 5, std::span<const int>(v));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        auto got = comm.recv_values<int>(0, 5);
        if (got[0] != i) ++failures;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, RecvAnyReportsSource) {
  std::atomic<int> failures{0};
  Runtime::run(4, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      int seen_sources = 0;
      for (int i = 0; i < 3; ++i) {
        int src = -1;
        auto payload = comm.recv_any(/*tag=*/1, &src);
        if (payload.size() != sizeof(int)) ++failures;
        int value = 0;
        std::memcpy(&value, payload.data(), sizeof value);
        if (value != src * 100) ++failures;
        seen_sources |= 1 << src;
      }
      if (seen_sources != 0b1110) ++failures;
    } else {
      const int value = comm.rank() * 100;
      comm.send_values(0, 1, std::span<const int>(&value, 1));
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, ProbeSeesQueuedMessage) {
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> v = {9};
      comm.send_values(1, 3, std::span<const int>(v));
      comm.barrier();
    } else {
      comm.barrier();  // After the barrier the message must be queued.
      if (!comm.probe(0, 3)) ++failures;
      if (comm.probe(0, 4)) ++failures;  // wrong tag
      (void)comm.recv_values<int>(0, 3);
      if (comm.probe(0, 3)) ++failures;  // drained
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, VirtualArrivalRespectsSenderTimeline) {
  std::vector<double> recv_time(2, 0.0);
  Runtime::Options opts;
  opts.machine = cori_haswell();
  Runtime::run(2, opts, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.advance_compute(5.0);  // Sender is busy for 5 virtual seconds.
      std::vector<std::byte> payload(1024);
      comm.send(1, 0, payload);
    } else {
      (void)comm.recv(0, 0);
      recv_time[1] = comm.clock().now();
    }
  });
  // Receiver cannot observe the message before the sender produced it.
  EXPECT_GE(recv_time[1], 5.0);
}

TEST(PointToPoint, LargeMessageCostsMoreVirtualTime) {
  auto transit = [](std::size_t bytes) {
    double t = 0.0;
    Runtime::Options opts;
    opts.machine = cori_haswell();
    Runtime::run(2, opts, [&](Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<std::byte> payload(bytes);
        comm.send(1, 0, payload);
      } else {
        (void)comm.recv(0, 0);
        t = comm.clock().now();
      }
    });
    return t;
  };
  EXPECT_GT(transit(10 << 20), transit(1 << 10));
}

/// The modeled-bytes send moves its payload but charges transit for the
/// modeled size: the receiver sees the arrival time of a dense send of
/// that size, while comm.bytes_sent counts the bytes actually moved.
TEST(PointToPoint, ModeledSendChargesModeledBytes) {
  struct Outcome {
    double arrival = 0.0;
    std::size_t received = 0;
    double bytes_sent = -1.0;
  };
  for (const SchedBackend backend :
       {SchedBackend::kThreads, SchedBackend::kMn}) {
    SCOPED_TRACE(to_string(backend));
    constexpr std::size_t kModeled = 64 << 10;
    constexpr std::size_t kPayload = 24;
    auto run = [&](const std::function<void(Communicator&)>& send) {
      Outcome out;
      Runtime::Options opts;
      opts.machine = cori_haswell();
      opts.sched.backend = backend;
      opts.sched.workers = 2;
      const RunReport report = Runtime::run(2, opts, [&](Communicator& comm) {
        if (comm.rank() == 0) {
          send(comm);
        } else {
          out.received = comm.recv(0, 0).size();
          out.arrival = comm.clock().now();
        }
      });
      for (const obs::MetricSample& s : report.metrics) {
        if (s.key == "comm.bytes_sent{op=p2p}") out.bytes_sent = s.value;
      }
      return out;
    };
    const Outcome dense = run([](Communicator& comm) {
      comm.send(1, 0, std::vector<std::byte>(kModeled));
    });
    const Outcome modeled = run([](Communicator& comm) {
      comm.send(1, 0, std::vector<std::byte>(kPayload), kModeled);
    });
    const Outcome small = run([](Communicator& comm) {
      comm.send(1, 0, std::vector<std::byte>(kPayload));
    });
    EXPECT_EQ(modeled.arrival, dense.arrival);
    EXPECT_GT(modeled.arrival, small.arrival);
    EXPECT_EQ(modeled.received, kPayload);
    EXPECT_EQ(modeled.bytes_sent, static_cast<double>(kPayload));
    EXPECT_EQ(dense.bytes_sent, static_cast<double>(kModeled));
  }
}

TEST(PointToPoint, ManyToOneFunnel) {
  // The GLEAN-style aggregation pattern: all ranks funnel to rank 0.
  const int p = 16;
  std::atomic<long> total{0};
  Runtime::run(p, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      long sum = 0;
      for (int i = 0; i < p - 1; ++i) {
        auto v = comm.recv_any(2);
        long x = 0;
        std::memcpy(&x, v.data(), sizeof x);
        sum += x;
      }
      total = sum;
    } else {
      const long mine = comm.rank();
      comm.send_values(0, 2, std::span<const long>(&mine, 1));
    }
  });
  EXPECT_EQ(total.load(), static_cast<long>(p) * (p - 1) / 2);
}

TEST(PointToPoint, RingExchange) {
  const int p = 8;
  std::atomic<int> failures{0};
  Runtime::run(p, [&](Communicator& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    const int token = comm.rank() * 7;
    comm.send_values(next, 0, std::span<const int>(&token, 1));
    auto got = comm.recv_values<int>(prev, 0);
    if (got[0] != prev * 7) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, DeepCrossTagQueuesMatchExactly) {
  // 64 messages across 8 tags drained in reverse tag order: every take
  // must hit its (src, tag) bucket's front directly — under the old
  // single-deque mailbox each of these receives rescanned the full
  // queue.
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int tag = 0; tag < 8; ++tag) {
        for (int i = 0; i < 8; ++i) {
          const int v = tag * 100 + i;
          comm.send_values(1, tag, std::span<const int>(&v, 1));
        }
      }
    } else {
      for (int tag = 7; tag >= 0; --tag) {
        for (int i = 0; i < 8; ++i) {
          auto got = comm.recv_values<int>(0, tag);
          if (got[0] != tag * 100 + i) ++failures;
        }
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, RecvAnyIsFifoPerTag) {
  // Any-source receives must drain the tag's globally oldest message
  // first (the per-tag seq index), preserving per-sender FIFO.
  std::atomic<int> failures{0};
  Runtime::run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        comm.send_values(1, 4, std::span<const int>(&i, 1));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int src = -1;
        auto payload = comm.recv_any(4, &src);
        int v = 0;
        std::memcpy(&v, payload.data(), sizeof v);
        if (src != 0 || v != i) ++failures;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, ExactRecvPicksItsSourceNotArrivalOrder) {
  // Ranks 1 and 2 both queue messages on one tag before rank 0 receives
  // anything (the barrier guarantees it); exact-source receives must
  // match per-bucket regardless of which source delivered first, and a
  // trailing recv_any gets the oldest leftover.
  std::atomic<int> failures{0};
  Runtime::run(3, [&](Communicator& comm) {
    const int tag = 9;
    if (comm.rank() == 0) {
      comm.barrier();
      auto from2 = comm.recv_values<int>(2, tag);
      if (from2[0] != 200) ++failures;
      auto from1 = comm.recv_values<int>(1, tag);
      if (from1[0] != 100) ++failures;
      int src = -1;
      auto rest = comm.recv_any(tag, &src);
      int v = 0;
      std::memcpy(&v, rest.data(), sizeof v);
      if (src != 1 || v != 101) ++failures;
      if (comm.probe(2, tag)) ++failures;  // bucket (2, tag) is drained
      if (!comm.probe(1, tag)) ++failures;  // (1, tag) still holds 102
      (void)comm.recv_values<int>(1, tag);
    } else {
      for (int i = 0; i < (comm.rank() == 1 ? 3 : 1); ++i) {
        const int v = comm.rank() * 100 + i;
        comm.send_values(0, tag, std::span<const int>(&v, 1));
      }
      comm.barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(PointToPoint, StartupModelChargesLaunchCost) {
  Runtime::Options opts;
  opts.machine = cori_haswell();
  opts.model_startup = true;
  RunReport report = Runtime::run(4, opts, [](Communicator&) {});
  EXPECT_GT(report.max_virtual_seconds(), 0.0);
}

}  // namespace
}  // namespace insitu::comm
