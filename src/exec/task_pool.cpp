#include "exec/task_pool.hpp"

#include <utility>

namespace insitu::exec {

TaskPool::TaskPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

TaskPool::~TaskPool() { shutdown(); }

void TaskPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  not_empty_.notify_one();
}

void TaskPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown requested and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task routes exceptions into the future
  }
}

void TaskPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace insitu::exec
