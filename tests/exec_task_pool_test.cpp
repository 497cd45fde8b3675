#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/image_data.hpp"
#include "data/multiblock.hpp"
#include "exec/snapshot.hpp"
#include "exec/task_pool.hpp"

namespace insitu::exec {
namespace {

TEST(TaskPool, StressManyTasksReturnResults) {
  TaskPool pool(4);
  constexpr int kTasks = 1000;
  std::vector<std::future<int>> futures;
  futures.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < kTasks; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(TaskPool, ExceptionPropagatesThroughFuture) {
  TaskPool pool(2);
  std::future<int> ok = pool.submit([] { return 7; });
  std::future<int> bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(TaskPool, ShutdownRunsQueuedTasks) {
  std::atomic<int> count{0};
  {
    TaskPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&count] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++count;
      });
    }
    pool.shutdown();  // drains before joining; idempotent with the dtor
    EXPECT_EQ(count.load(), 16);
  }
  EXPECT_EQ(count.load(), 16);
}

// ---- snapshot ----

TEST(Snapshot, DeepCopiesZeroCopyAndSharesOwned) {
  data::IndexBox box;
  box.cells = {2, 2, 2};
  auto img = std::make_shared<data::ImageData>(box, data::Vec3{},
                                               data::Vec3{1, 1, 1});
  const std::int64_t npts = img->num_points();
  std::vector<double> sim_buffer(static_cast<std::size_t>(npts));
  std::iota(sim_buffer.begin(), sim_buffer.end(), 0.0);
  img->point_fields().add(
      data::DataArray::wrap_aos("wrapped", sim_buffer.data(), npts, 1));
  auto owned = data::DataArray::create<double>("owned", npts, 1);
  for (std::int64_t i = 0; i < npts; ++i) owned->set(i, 0, 100.0 + i);
  img->point_fields().add(owned);
  auto mesh = std::make_shared<data::MultiBlockDataSet>(1);
  mesh->add_block(0, img);

  auto snap = snapshot_mesh(*mesh);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->copied_bytes, static_cast<std::size_t>(npts) * 8);
  EXPECT_EQ(snap->shared_bytes, static_cast<std::size_t>(npts) * 8);

  // The simulation overwrites its buffer (as it would on the next step);
  // the snapshot must be unaffected.
  for (auto& v : sim_buffer) v = -1.0;

  auto block = snap->mesh->block(0);
  auto snap_wrapped = block->point_fields().get("wrapped");
  ASSERT_NE(snap_wrapped, nullptr);
  EXPECT_FALSE(snap_wrapped->is_zero_copy());
  for (std::int64_t i = 0; i < npts; ++i) {
    EXPECT_DOUBLE_EQ(snap_wrapped->get(i), static_cast<double>(i));
  }
  // Owned arrays are shared, not duplicated.
  EXPECT_EQ(block->point_fields().get("owned").get(), owned.get());
}

TEST(Snapshot, PreservesGeometryAndBlockIds) {
  data::IndexBox box;
  box.cells = {3, 2, 1};
  auto img = std::make_shared<data::ImageData>(
      box, data::Vec3{1.0, 2.0, 3.0}, data::Vec3{0.5, 0.5, 0.5});
  auto mesh = std::make_shared<data::MultiBlockDataSet>(4);
  mesh->add_block(2, img);

  auto snap = snapshot_mesh(*mesh);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->mesh->num_local_blocks(), mesh->num_local_blocks());
  EXPECT_EQ(snap->mesh->num_global_blocks(), 4);
  EXPECT_EQ(snap->mesh->block_id(0), 2);
  const auto& out =
      static_cast<const data::ImageData&>(*snap->mesh->block(0));
  EXPECT_NE(snap->mesh->block(0).get(), img.get());  // new dataset object
  EXPECT_EQ(out.num_points(), img->num_points());
  EXPECT_EQ(out.num_cells(), img->num_cells());
}

}  // namespace
}  // namespace insitu::exec
