// Property-based / fuzz suites over the substrates' core invariants:
// random array layouts round-trip, random collective sequences stay
// consistent, random decompositions tile exactly, random deflate inputs
// round-trip, random BP streams reject corruption without crashing.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "backends/adios_bp.hpp"
#include "backends/libsim.hpp"
#include "comm/runtime.hpp"
#include "data/image_data.hpp"
#include "io/block_io.hpp"
#include "miniapp/oscillator.hpp"
#include "pal/config.hpp"
#include "pal/rng.hpp"
#include "render/png.hpp"

namespace insitu {
namespace {

class SeededFuzz : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeededFuzz, ::testing::Range(0, 8));

TEST_P(SeededFuzz, DataArrayLayoutsRoundTripThroughBytes) {
  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 11);
  for (int trial = 0; trial < 8; ++trial) {
    const auto tuples = static_cast<std::int64_t>(rng.next_below(200));
    const int comps = static_cast<int>(rng.next_below(4)) + 1;
    const data::Layout layout = rng.next_below(2) == 0
                                    ? data::Layout::kAos
                                    : data::Layout::kSoa;
    auto a = data::DataArray::create<double>("fuzz", tuples, comps, layout);
    for (std::int64_t i = 0; i < tuples; ++i) {
      for (int c = 0; c < comps; ++c) {
        a->set(i, c, rng.uniform(-1e6, 1e6));
      }
    }
    auto bytes = a->to_bytes();
    auto back = data::DataArray::from_bytes("fuzz", a->type(), tuples, comps,
                                            bytes);
    ASSERT_TRUE(back.ok());
    for (std::int64_t i = 0; i < tuples; ++i) {
      for (int c = 0; c < comps; ++c) {
        ASSERT_EQ((*back)->get(i, c), a->get(i, c));
      }
    }
    // Deep copy equals the original too.
    auto copy = a->deep_copy();
    for (std::int64_t i = 0; i < tuples; ++i) {
      for (int c = 0; c < comps; ++c) {
        ASSERT_EQ(copy->get(i, c), a->get(i, c));
      }
    }
  }
}

TEST_P(SeededFuzz, DecompositionTilesArbitraryGrids) {
  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  for (int trial = 0; trial < 12; ++trial) {
    const std::array<std::int64_t, 3> global = {
        static_cast<std::int64_t>(rng.next_below(60)) + 4,
        static_cast<std::int64_t>(rng.next_below(60)) + 4,
        static_cast<std::int64_t>(rng.next_below(60)) + 4};
    const int ranks = static_cast<int>(rng.next_below(31)) + 1;
    std::int64_t total = 0;
    for (int r = 0; r < ranks; ++r) {
      const data::IndexBox box = data::decompose_regular(global, ranks, r);
      total += box.cell_count();
      for (int a = 0; a < 3; ++a) {
        const auto ax = static_cast<std::size_t>(a);
        ASSERT_GE(box.cells[ax], 0);
        ASSERT_GE(box.offset[ax], 0);
        ASSERT_LE(box.offset[ax] + box.cells[ax], global[ax]);
      }
    }
    ASSERT_EQ(total, global[0] * global[1] * global[2])
        << "grid " << global[0] << "x" << global[1] << "x" << global[2]
        << " ranks " << ranks;
  }
}

TEST_P(SeededFuzz, RandomCollectiveSequencesStayConsistent) {
  pal::Rng seq_rng(static_cast<std::uint64_t>(GetParam()) * 509 + 3);
  const int p = static_cast<int>(seq_rng.next_below(7)) + 2;
  // Pre-generate a random program of collective ops (same for all ranks).
  std::vector<int> program(30);
  for (auto& op : program) {
    op = static_cast<int>(seq_rng.next_below(5));
  }
  std::atomic<int> failures{0};
  comm::Runtime::run(p, [&](comm::Communicator& comm) {
    long state = comm.rank() + 1;
    for (std::size_t step = 0; step < program.size(); ++step) {
      switch (program[step]) {
        case 0: {  // allreduce sum of a deterministic value
          const long sum =
              comm.allreduce_value<long>(state % 97, comm::ReduceOp::kSum);
          long expect = 0;
          // Every rank's state is deterministic given the program: verify
          // via a second reduction of a canonical recomputation.
          const long again =
              comm.allreduce_value<long>(state % 97, comm::ReduceOp::kSum);
          expect = again;
          if (sum != expect) ++failures;
          state += sum;
          break;
        }
        case 1: {  // broadcast from a rotating root
          long v = comm.rank() == static_cast<int>(step) % comm.size()
                       ? state
                       : -1;
          comm.broadcast_value(v, static_cast<int>(step) % comm.size());
          state ^= v;
          break;
        }
        case 2: {  // barrier
          comm.barrier();
          break;
        }
        case 3: {  // allgather and fold
          auto all = comm.allgather_value(state % 1009);
          if (all.size() != static_cast<std::size_t>(comm.size())) {
            ++failures;
          }
          state += std::accumulate(all.begin(), all.end(), 0L);
          break;
        }
        case 4: {  // max reduce to root 0 then broadcast back
          const long m = comm.reduce_value(state, comm::ReduceOp::kMax, 0);
          long out = comm.rank() == 0 ? m : 0;
          comm.broadcast_value(out, 0);
          if (out < state) ++failures;  // max >= own value
          state = out;
          break;
        }
        default: break;
      }
    }
    // All ranks must converge to identical state (every op above is
    // symmetric in its effect on `state` after the final case-4 sync).
    const long lo = comm.allreduce_value(state, comm::ReduceOp::kMin);
    const long hi = comm.allreduce_value(state, comm::ReduceOp::kMax);
    if (program.back() == 4 && lo != hi) ++failures;
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(SeededFuzz, DeflateRoundTripsMixedEntropy) {
  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 8191 + 5);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = rng.next_below(40000);
    std::vector<std::byte> data(n);
    // Mixed content: runs, text-ish bytes, and noise.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t run = std::min<std::size_t>(
          rng.next_below(200) + 1, n - i);
      const int mode = static_cast<int>(rng.next_below(3));
      if (mode == 0) {
        const auto b = static_cast<std::byte>(rng.next_below(256));
        for (std::size_t j = 0; j < run; ++j) data[i + j] = b;
      } else if (mode == 1) {
        for (std::size_t j = 0; j < run; ++j) {
          data[i + j] = static_cast<std::byte>('a' + (j % 26));
        }
      } else {
        for (std::size_t j = 0; j < run; ++j) {
          data[i + j] = static_cast<std::byte>(rng.next_below(256));
        }
      }
      i += run;
    }
    auto inflated = render::png::inflate(render::png::deflate_fixed(data));
    ASSERT_TRUE(inflated.ok());
    ASSERT_EQ(*inflated, data);
  }
}

TEST_P(SeededFuzz, BlockIoSurvivesTruncationWithoutCrashing) {
  data::IndexBox box;
  box.cells = {3, 3, 3};
  data::ImageData block(box, data::Vec3{}, data::Vec3{1, 1, 1});
  auto values = data::DataArray::create<double>("v", block.num_points(), 1);
  block.point_fields().add(values);
  std::vector<std::byte> bytes;
  io::serialize_block_into(block, bytes);

  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t cut = rng.next_below(bytes.size());
    auto result = io::deserialize_block(
        std::span<const std::byte>(bytes).subspan(0, cut));
    // Must fail cleanly (truncation can never produce a full block).
    EXPECT_FALSE(result.ok());
  }
}

TEST_P(SeededFuzz, BpStreamSurvivesBitFlips) {
  data::MultiBlockDataSet mesh(1);
  data::IndexBox box;
  box.cells = {4, 4, 4};
  auto block = std::make_shared<data::ImageData>(box, data::Vec3{},
                                                 data::Vec3{1, 1, 1});
  block->point_fields().add(
      data::DataArray::create<double>("v", block->num_points(), 1));
  mesh.add_block(0, block);
  std::vector<std::byte> bytes;
  backends::bp_serialize_into(mesh, bytes);

  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 73 + 9);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<std::byte> corrupted = bytes;
    // Flip a byte in the header region (sizes/counts) — must not crash;
    // either a clean error or a (possibly nonsense but bounded) mesh.
    const std::size_t at = rng.next_below(std::min<std::size_t>(64, bytes.size()));
    corrupted[at] ^= static_cast<std::byte>(1 + rng.next_below(255));
    auto result = backends::bp_deserialize(corrupted);
    if (result.ok()) {
      EXPECT_LE((*result)->num_local_blocks(), 4u);
    }
  }
}

TEST_P(SeededFuzz, TextParsersNeverCrashOnGarbage) {
  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 653 + 2);
  const char charset[] =
      "abcdefghijklmnopqrstuvwxyz0123456789 =.[]#;\n\t-+_\"";
  for (int trial = 0; trial < 20; ++trial) {
    std::string text;
    const std::size_t len = rng.next_below(400);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(charset[rng.next_below(sizeof charset - 1)]);
    }
    // All three text parsers must return cleanly (ok or error), never
    // crash or hang.
    (void)pal::Config::from_text(text);
    (void)miniapp::parse_oscillators(text);
    (void)backends::parse_session(text);
  }
}

TEST_P(SeededFuzz, PngDecodeNeverCrashesOnMutatedStreams) {
  render::Image img(16, 16);
  img.clear(render::Rgba{100, 50, 25, 255});
  const std::vector<std::byte> good = render::png::encode(img);
  pal::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 13);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<std::byte> bad = good;
    const std::size_t flips = rng.next_below(4) + 1;
    for (std::size_t f = 0; f < flips; ++f) {
      bad[rng.next_below(bad.size())] ^=
          static_cast<std::byte>(1 + rng.next_below(255));
    }
    auto result = render::png::decode(bad);
    if (result.ok()) {
      // Mutations that slip through must still produce a bounded image.
      EXPECT_LE(result->num_pixels(), 1 << 20);
    }
  }
}

}  // namespace
}  // namespace insitu
