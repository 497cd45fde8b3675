#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>

#include "comm/runtime.hpp"
#include "data/image_data.hpp"
#include "io/block_io.hpp"
#include "io/lustre_model.hpp"
#include "io/writers.hpp"
#include "test_temp_dir.hpp"

namespace insitu::io {
namespace {

using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::MultiBlockDataSet;
using data::Vec3;

std::shared_ptr<ImageData> make_block(int rank) {
  IndexBox box;
  box.cells = {4, 4, 4};
  box.offset = {4 * rank, 0, 0};
  auto img = std::make_shared<ImageData>(box, Vec3{1, 2, 3}, Vec3{0.5, 1, 2});
  auto pts = DataArray::create<double>("field", img->num_points(), 1);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    pts->set(i, 0, static_cast<double>(rank * 1000 + i));
  }
  img->point_fields().add(pts);
  auto cells = DataArray::create<float>("cellf", img->num_cells(), 2);
  for (std::int64_t i = 0; i < img->num_cells(); ++i) {
    cells->set(i, 0, static_cast<float>(i));
    cells->set(i, 1, static_cast<float>(-i));
  }
  img->cell_fields().add(cells);
  return img;
}

TEST(BlockIo, SerializeDeserializeRoundTrip) {
  auto block = make_block(3);
  auto bytes = serialize_block(*block);
  auto back = deserialize_block(bytes);
  ASSERT_TRUE(back.ok());
  const ImageData& restored = **back;
  EXPECT_EQ(restored.box().offset[0], 12);
  EXPECT_EQ(restored.box().cells[1], 4);
  EXPECT_EQ(restored.origin().x, 1.0);
  EXPECT_EQ(restored.spacing().z, 2.0);
  ASSERT_TRUE(restored.point_fields().has("field"));
  ASSERT_TRUE(restored.cell_fields().has("cellf"));
  for (std::int64_t i = 0; i < restored.num_points(); ++i) {
    EXPECT_EQ(restored.point_fields().get("field")->get(i),
              block->point_fields().get("field")->get(i));
  }
  EXPECT_EQ(restored.cell_fields().get("cellf")->num_components(), 2);
  EXPECT_EQ(restored.cell_fields().get("cellf")->get(5, 1), -5.0);
}

TEST(BlockIo, RejectsGarbage) {
  std::vector<std::byte> junk(100, std::byte{0x5A});
  EXPECT_FALSE(deserialize_block(junk).ok());
  std::vector<std::byte> tiny(4);
  EXPECT_FALSE(deserialize_block(tiny).ok());
}

TEST(BlockIo, FileRoundTrip) {
  const test_util::TempDir tmp;
  const std::string path = tmp.file("block.bin");
  auto block = make_block(1);
  ASSERT_TRUE(write_file_bytes(path, serialize_block(*block)).ok());
  auto bytes = read_file_bytes(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(deserialize_block(*bytes).ok());
}

TEST(BlockIo, MissingFileIsNotFound) {
  const test_util::TempDir tmp;
  auto r = read_file_bytes(tmp.file("missing.bin"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(LustreModel, Table1Calibration) {
  // Table 1 (Cori): VTK multi-file vs MPI-IO one-timestep write costs.
  //   cores   size    VTK I/O   MPI-IO
  //   812     2 GB    0.12 s    0.40 s
  //   6496    16 GB   0.67 s    3.17 s
  //   45440   123 GB  9.05 s    22.87 s
  LustreModel model(comm::cori_haswell().fs);
  const int stripes = comm::cori_haswell().fs.default_stripe_count;
  struct Row {
    int cores;
    double gib;
    double vtk;
    double mpiio;
  };
  const Row rows[] = {{812, 2, 0.12, 0.40},
                      {6496, 16, 0.67, 3.17},
                      {45440, 123, 9.05, 22.87}};
  for (const Row& row : rows) {
    const auto total = static_cast<std::uint64_t>(row.gib * (1ull << 30));
    const auto per_rank = total / static_cast<std::uint64_t>(row.cores);
    const double vtk = model.file_per_rank_write_time(row.cores, per_rank);
    const double mpiio =
        model.collective_write_time(row.cores, total, stripes);
    // Shape requirements: within 2.5x of the paper's numbers, and MPI-IO
    // slower than file-per-rank at every scale.
    EXPECT_GT(vtk, row.vtk / 2.5) << row.cores;
    EXPECT_LT(vtk, row.vtk * 2.5) << row.cores;
    EXPECT_GT(mpiio, row.mpiio / 2.5) << row.cores;
    EXPECT_LT(mpiio, row.mpiio * 2.5) << row.cores;
    EXPECT_GT(mpiio, vtk) << row.cores;
  }
}

TEST(LustreModel, ZeroWorkIsFree) {
  LustreModel model(comm::cori_haswell().fs);
  EXPECT_EQ(model.file_per_rank_write_time(0, 100), 0.0);
  EXPECT_EQ(model.file_per_rank_write_time(4, 0), 0.0);
  EXPECT_EQ(model.collective_write_time(4, 0, 8), 0.0);
  EXPECT_EQ(model.read_time(0, 100), 0.0);
}

TEST(LustreModel, InterferenceIsMedianOneAndSeeded) {
  LustreModel model(comm::cori_haswell().fs);
  pal::Rng rng(5);
  double log_sum = 0.0;
  int above = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const double f = model.interference(rng);
    EXPECT_GT(f, 0.0);
    log_sum += std::log(f);
    if (f > 1.0) ++above;
  }
  EXPECT_NEAR(log_sum / n, 0.0, 0.05);      // median ~1
  EXPECT_NEAR(above, n / 2, n / 10);        // symmetric in log space
  // Determinism.
  pal::Rng a(9), b(9);
  EXPECT_EQ(model.interference(a), model.interference(b));
}

TEST(LustreModel, NoInterferenceWhenSigmaZero) {
  LustreModel model(comm::localhost_model().fs);
  pal::Rng rng(1);
  EXPECT_EQ(model.interference(rng), 1.0);
}

class WriterTest : public ::testing::Test {
 protected:
  test_util::TempDir tmp_;
  std::string dir_ = tmp_.str();
};

TEST_F(WriterTest, MultiFileWriteThenPostHocRead) {
  const int writers = 4;
  // Write phase at `writers` ranks.
  comm::Runtime::run(writers, [&](comm::Communicator& comm) {
    MultiBlockDataSet mesh(writers);
    mesh.add_block(comm.rank(), make_block(comm.rank()));
    VtkMultiFileWriter writer(dir_, LustreModel(comm::cori_haswell().fs));
    auto cost = writer.write_step(comm, mesh, /*step=*/0);
    ASSERT_TRUE(cost.ok());
    EXPECT_GT(*cost, 0.0);
    EXPECT_GT(writer.last_local_bytes(), 0u);
  });
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator{}),
            writers);

  // Read phase at 10% concurrency... rounded up to 1 reader here.
  std::atomic<int> blocks_read{0};
  comm::Runtime::run(1, [&](comm::Communicator& comm) {
    PostHocReader reader(dir_, LustreModel(comm::cori_haswell().fs));
    auto mesh = reader.read_step(comm, 0, writers);
    ASSERT_TRUE(mesh.ok());
    blocks_read = static_cast<int>((*mesh)->num_local_blocks());
    // Verify payload made the round trip.
    for (std::size_t b = 0; b < (*mesh)->num_local_blocks(); ++b) {
      const auto& block = *(*mesh)->block(b);
      ASSERT_TRUE(block.point_fields().has("field"));
      const auto id = (*mesh)->block_id(b);
      EXPECT_EQ(block.point_fields().get("field")->get(0),
                static_cast<double>(id * 1000));
    }
    EXPECT_GT(comm.clock().now(), 0.0);  // read cost charged
  });
  EXPECT_EQ(blocks_read.load(), writers);
}

TEST_F(WriterTest, PostHocReadSplitsBlocksAcrossReaders) {
  const int writers = 8;
  comm::Runtime::run(writers, [&](comm::Communicator& comm) {
    MultiBlockDataSet mesh(writers);
    mesh.add_block(comm.rank(), make_block(comm.rank()));
    VtkMultiFileWriter writer(dir_, LustreModel(comm::cori_haswell().fs));
    ASSERT_TRUE(writer.write_step(comm, mesh, 0).ok());
  });
  std::atomic<int> total{0};
  comm::Runtime::run(2, [&](comm::Communicator& comm) {
    PostHocReader reader(dir_, LustreModel(comm::cori_haswell().fs));
    auto mesh = reader.read_step(comm, 0, writers);
    ASSERT_TRUE(mesh.ok());
    EXPECT_EQ((*mesh)->num_local_blocks(), 4u);
    total += static_cast<int>((*mesh)->num_local_blocks());
  });
  EXPECT_EQ(total.load(), writers);
}

TEST_F(WriterTest, CollectiveWriterProducesSingleFile) {
  const int writers = 4;
  comm::Runtime::run(writers, [&](comm::Communicator& comm) {
    MultiBlockDataSet mesh(writers);
    mesh.add_block(comm.rank(), make_block(comm.rank()));
    CollectiveWriter writer(dir_, LustreModel(comm::cori_haswell().fs));
    auto cost = writer.write_step(comm, mesh, 7);
    ASSERT_TRUE(cost.ok());
    EXPECT_GT(*cost, 0.0);
  });
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    ++files;
    EXPECT_NE(entry.path().filename().string().find("shared_step_000007"),
              std::string::npos);
  }
  EXPECT_EQ(files, 1);
}

TEST_F(WriterTest, CollectiveCostExceedsMultiFileCost) {
  // Table 1's headline: "multi-file VTK I/O ... should be faster than a
  // more traditional, but slower, MPI-IO approach".
  double multi = 0.0, collective = 0.0;
  comm::Runtime::run(4, [&](comm::Communicator& comm) {
    MultiBlockDataSet mesh(4);
    mesh.add_block(comm.rank(), make_block(comm.rank()));
    LustreModel model(comm::cori_haswell().fs);
    model.params();  // no-op: keep model const-correct
    VtkMultiFileWriter w1(dir_, model, /*write_to_disk=*/false);
    CollectiveWriter w2(dir_, model, /*write_to_disk=*/false);
    auto c1 = w1.write_step(comm, mesh, 0);
    auto c2 = w2.write_step(comm, mesh, 0);
    if (comm.rank() == 0) {
      multi = *c1;
      collective = *c2;
    }
  });
  EXPECT_GT(collective, 0.0);
  EXPECT_GT(multi, 0.0);
}

}  // namespace
}  // namespace insitu::io
