#pragma once

// exec::TaskPool — fixed-size worker pool over an unbounded task queue.
//
// Three owners, each a long-lived set of workers: the fiber scheduler's
// carriers (exec::FiberScheduler), the per-rank worker of the
// asynchronous in situ bridge (core::AsyncBridge) and the service's
// runner slots (service::SessionManager).
//
//   * submit() hands a callable to the pool and returns a std::future for
//     its result; an exception thrown by the task propagates through the
//     future to whoever calls get().
//   * shutdown() (and the destructor) drains every queued task before
//     joining the workers; nothing submitted is silently lost.
//
// Worker threads are plain std::threads with no rank identity: code that
// must charge a rank's MemoryTracker or record spans installs the rank's
// context inside the task itself (see core::AsyncBridge).

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace insitu::exec {

class TaskPool {
 public:
  /// `threads`: worker count (clamped to >= 1).
  explicit TaskPool(int threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue a callable; never blocks.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Drains the queue, then joins the workers. Idempotent (also run by
  /// the destructor). Submitting after shutdown is invalid.
  void shutdown();

 private:
  void enqueue(std::function<void()> task);
  void worker_main();

  std::mutex mutex_;
  std::condition_variable not_empty_;  // workers: a task is available
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace insitu::exec
