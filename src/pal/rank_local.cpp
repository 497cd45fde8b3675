#include "pal/rank_local.hpp"

#include "pal/buffer_pool.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::pal {

// The only rank-confined thread-locals in the program: the installed
// block, and what a thread without one falls back to.
namespace {
thread_local RankLocal* t_installed = nullptr;
thread_local RankLocal t_own_block;
thread_local MemoryTracker t_own_tracker;
thread_local BufferPool t_own_pool;
}  // namespace

RankLocal& rank_local() {
  return t_installed != nullptr ? *t_installed : t_own_block;
}

RankLocal* exchange_rank_local(RankLocal* block) {
  RankLocal* previous = t_installed;
  t_installed = block;
  return previous;
}

MemoryTracker& rank_memory_tracker() {
  MemoryTracker* tracker = rank_local().tracker;
  return tracker != nullptr ? *tracker : t_own_tracker;
}

BufferPool& buffer_pool() {
  BufferPool* pool = rank_local().pool;
  return pool != nullptr ? *pool : t_own_pool;
}

}  // namespace insitu::pal
