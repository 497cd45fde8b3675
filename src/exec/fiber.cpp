#include "exec/fiber.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "exec/task_pool.hpp"

#if INSITU_EXEC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#if INSITU_EXEC_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace insitu::exec {

namespace {

thread_local Fiber* t_current_fiber = nullptr;

// ---- context switch ----
//
// seed_context(ctx, stack, bytes, fiber) prepares `ctx` so that the first
// switch into it runs Fiber::entry(fiber) on [stack, stack + bytes);
// switch_context(from, to) saves the running context into `from` and
// resumes `to`.

#if defined(__x86_64__)

// Defined in fiber_switch.S.
extern "C" {
// Saves the callee-saved registers and floating-point control state on
// the current stack, stores the stack pointer to *save, and resumes the
// context whose stack pointer is `load`.
void insitu_exec_switch(void** save, void* load);
// Outermost frame of every fiber: calls r13(r12), i.e. Fiber::entry.
void insitu_exec_fiber_start();
}

// The frame insitu_exec_switch pops, lowest address first.
struct SeedFrame {
  std::uint16_t fpu_cw;
  std::uint16_t pad0[3];
  std::uint32_t mxcsr;
  std::uint32_t pad1;
  void* r15;
  void* r14;
  void* r13;  // entry function
  void* r12;  // its argument
  void* rbx;
  void* rbp;
  void* ret;  // insitu_exec_fiber_start
};
static_assert(sizeof(SeedFrame) == 72);

void seed_context(SwitchContext& ctx, void* stack, std::size_t bytes,
                  void (*entry)(Fiber*), Fiber* fiber) {
  // The trampoline's call must see a 16-byte aligned stack, so the frame
  // ends 16 bytes below the (aligned) top: after the ret pops `ret`,
  // rsp == top - 16. The 16 bytes above stay unused.
  auto top = reinterpret_cast<std::uintptr_t>(stack) + bytes;
  top &= ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<SeedFrame*>(top - 16 - sizeof(SeedFrame));
  *frame = SeedFrame{};
  // A new fiber starts with its first carrier's floating-point modes,
  // as a getcontext/makecontext pair would have captured them.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  frame->mxcsr = mxcsr;
  frame->fpu_cw = fpu_cw;
  frame->r13 = reinterpret_cast<void*>(entry);
  frame->r12 = fiber;
  frame->ret = reinterpret_cast<void*>(&insitu_exec_fiber_start);
  ctx.sp = frame;
}

inline void switch_context(SwitchContext& from, SwitchContext& to) {
  insitu_exec_switch(&from.sp, to.sp);
}

#else  // !__x86_64__: portable fallback

// makecontext passes only int arguments; the fiber being started is
// already published as the carrier's current fiber, so read it there.
thread_local void (*t_start_entry)(Fiber*) = nullptr;

void fiber_start() { t_start_entry(t_current_fiber); }

void seed_context(SwitchContext& ctx, void* stack, std::size_t bytes,
                  void (*entry)(Fiber*), Fiber* /*fiber*/) {
  t_start_entry = entry;
  ::getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = bytes;
  ctx.uc.uc_link = nullptr;  // explicit switch-back only
  ::makecontext(&ctx.uc, &fiber_start, 0);
}

inline void switch_context(SwitchContext& from, SwitchContext& to) {
  ::swapcontext(&from.uc, &to.uc);
}

#endif

constexpr std::size_t kDefaultStackBytes = 256 * 1024;

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

// ---- stack cache ----
//
// Fiber stacks are mmap'd (one guard page below the usable range; the
// stack grows down into it) rather than drawn from pal::buffer_pool: a
// vector-backed pool would memset-commit the full stack on resize —
// gigabytes of touched pages at 45K ranks — while MAP_NORESERVE plus
// lazy faulting commits only what each rank actually uses. Retired
// stacks go to a process-wide free list keyed by size, with
// madvise(MADV_DONTNEED) returning their pages to the OS, so a long
// run's RSS tracks live stack usage, not cumulative fiber count.

struct StackCache {
  std::mutex mutex;
  // usable-size -> blocks (block = guard page + usable pages)
  std::map<std::size_t, std::vector<void*>> free_blocks;
  std::size_t pooled_bytes = 0;
  // Guardless-slab fallback (see acquire_stack_block): current slab
  // carve-out state, one entry per block size in use.
  struct Slab {
    char* next = nullptr;
    char* end = nullptr;
  };
  std::map<std::size_t, Slab> slabs;
  bool guardless = false;
};

constexpr int kSlabBlocks = 64;  // stacks carved per guardless slab

// Above this many fibers a scheduler requests guardless slab stacks up
// front: 2 VMAs x fibers would otherwise brush against vm.max_map_count
// (default 65530) somewhere past ~32K concurrent stacks.
constexpr std::size_t kGuardlessFiberThreshold = 8192;

StackCache& stack_cache() {
  static StackCache* cache = new StackCache();  // leaked: process lifetime
  return *cache;
}

/// Carves one block out of the current guardless slab for `usable`,
/// mapping a fresh slab when the current one is exhausted. Caller holds
/// cache.mutex. Returns nullptr if the slab mmap itself fails.
void* acquire_from_slab(StackCache& cache, std::size_t usable) {
  const std::size_t block_bytes = page_size() + usable;
  StackCache::Slab& slab = cache.slabs[usable];
  if (slab.next == slab.end) {
    void* mem =
        ::mmap(nullptr, block_bytes * kSlabBlocks, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) return nullptr;
    slab.next = static_cast<char*>(mem);
    slab.end = slab.next + block_bytes * kSlabBlocks;
  }
  char* block = slab.next;
  slab.next += block_bytes;
  return block;
}

/// Returns the block base. Usable stack is [base + page, base + page +
/// usable); with `guard` the base page is PROT_NONE so an overrun faults
/// instead of silently corrupting a neighbouring allocation.
///
/// Every guarded stack costs two kernel VMAs (the mprotect splits the
/// mapping), so tens of thousands of concurrent fibers exhaust
/// vm.max_map_count (default 65530) long before they exhaust memory.
/// Callers that know they will host that many fibers pass guard=false
/// and blocks are carved kSlabBlocks at a time from shared slabs — one
/// VMA per slab — trading per-fiber overflow detection for a ~128x
/// smaller map-table footprint.
void* acquire_stack_block(std::size_t usable, bool guard) {
  StackCache& cache = stack_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    auto it = cache.free_blocks.find(usable);
    if (it != cache.free_blocks.end() && !it->second.empty()) {
      void* block = it->second.back();
      it->second.pop_back();
      cache.pooled_bytes -= usable;
      return block;
    }
    if (!guard || cache.guardless) {
      void* block = acquire_from_slab(cache, usable);
      if (block != nullptr) return block;
      std::fprintf(stderr,
                   "fiber: mmap of a %d-stack slab (%zu-byte stacks) failed; "
                   "out of address space or vm.max_map_count\n",
                   kSlabBlocks, usable);
      std::abort();
    }
  }
  const std::size_t page = page_size();
  void* block = ::mmap(nullptr, page + usable, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (block == MAP_FAILED) {
    // Likely the VMA table, not memory: fall back to guardless slabs for
    // the rest of the process. (If the table is already full this mmap
    // fails too and we abort with the message above.)
    std::lock_guard<std::mutex> lock(cache.mutex);
    if (!cache.guardless) {
      cache.guardless = true;
      std::fprintf(stderr,
                   "fiber: per-stack mmap failed; switching to guardless "
                   "slab stacks (check vm.max_map_count)\n");
    }
    block = acquire_from_slab(cache, usable);
    if (block == nullptr) {
      std::fprintf(stderr, "fiber: mmap of %zu-byte stack failed\n", usable);
      std::abort();
    }
    return block;
  }
  if (::mprotect(block, page, PROT_NONE) != 0) {
    // The split failed (usually the VMA table); the page stays writable,
    // so the stack simply has no guard. Stop splitting future stacks.
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.guardless = true;
  }
  return block;
}

void release_stack_block(void* block, std::size_t usable) {
  const std::size_t page = page_size();
  ::madvise(static_cast<char*>(block) + page, usable, MADV_DONTNEED);
  StackCache& cache = stack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.free_blocks[usable].push_back(block);
  cache.pooled_bytes += usable;
}

}  // namespace

void Fiber::entry(Fiber* fiber) {
  fiber->landed();
  fiber->body_();
  fiber->body_ = nullptr;  // release captured state while still alive
  fiber->state_.store(State::kFinished, std::memory_order_release);
  fiber->suspend();
  // Unreachable: the carrier never resumes a finished fiber.
}

void Fiber::landed() {
#if INSITU_EXEC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_carrier_bottom_,
                                  &asan_carrier_size_);
#endif
}

void Fiber::suspend() {
#if INSITU_EXEC_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_parent_, 0);
#endif
#if INSITU_EXEC_ASAN_FIBERS
  // A finished fiber never comes back: passing no save slot lets ASan
  // free its fake stack.
  const bool finished =
      state_.load(std::memory_order_relaxed) == State::kFinished;
  __sanitizer_start_switch_fiber(finished ? nullptr : &asan_fake_stack_,
                                 asan_carrier_bottom_, asan_carrier_size_);
#endif
  switch_context(context_, *return_context_);
  landed();
}

// ---- WaitSet ----

void WaitSet::wait_key(std::unique_lock<std::mutex>& lock,
                       std::uint64_t key) {
  Fiber* fiber = t_current_fiber;
  if (fiber == nullptr) {
    // The waiter's key stays registered while it blocks so notify_key can
    // skip the condition variable entirely when no thread waiter matches.
    // Insert/erase both run under the caller's mutex; cv_.wait reacquires
    // it before returning.
    const auto it = cv_keys_.insert(key);
    cv_.wait(lock);
    cv_keys_.erase(it);
    return;
  }
  park(fiber, lock, key);  // resumes here once a waker re-enqueued us
  lock.lock();
}

void WaitSet::wait_flag(std::unique_lock<std::mutex>& lock, std::uint64_t key,
                        const std::atomic<bool>& ready) {
  Fiber* fiber = t_current_fiber;
  if (fiber == nullptr) {
    const auto it = cv_keys_.insert(key);
    while (!ready.load(std::memory_order_acquire)) cv_.wait(lock);
    cv_keys_.erase(it);
    lock.unlock();
    return;
  }
  while (!ready.load(std::memory_order_acquire)) {
    park(fiber, lock, key);
    if (ready.load(std::memory_order_acquire)) return;
    lock.lock();  // woken without the flag: re-check under the mutex
  }
  lock.unlock();
}

void WaitSet::park(Fiber* fiber, std::unique_lock<std::mutex>& lock,
                   std::uint64_t key) {
  // Register under the caller's mutex: any notify after our unlock runs
  // with the mutex held, so it observes both the registration and the
  // kParking state, and resolves the park/wake race through the CAS
  // protocol in FiberScheduler::wake / resume.
  fibers_.emplace_back(fiber, key);
  fiber->state_.store(Fiber::State::kParking, std::memory_order_release);
  lock.unlock();
  fiber->suspend();
}

void WaitSet::notify_all() { notify_key(kAnyKey); }

void WaitSet::notify_key(std::uint64_t key) {
  if (!cv_keys_.empty() &&
      (key == kAnyKey || cv_keys_.count(key) > 0 ||
       cv_keys_.count(kAnyKey) > 0)) {
    // One condition variable serves every thread waiter; wake them all
    // and let non-matching ones re-wait (spurious wakeups are already
    // part of the contract).
    cv_.notify_all();
  }
  if (fibers_.empty()) return;
  waking_.clear();
  auto keep = fibers_.begin();
  for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
    if (key == kAnyKey || it->second == key || it->second == kAnyKey) {
      waking_.push_back(it->first);
    } else {
      *keep++ = *it;
    }
  }
  fibers_.erase(keep, fibers_.end());
  if (waking_.empty()) return;
  // Every fiber parked on one WaitSet belongs to the same scheduler.
  FiberScheduler* scheduler = waking_.front()->scheduler();
  assert(std::all_of(
      waking_.begin(), waking_.end(),
      [scheduler](const Fiber* f) { return f->scheduler() == scheduler; }));
  scheduler->wake(waking_);
}

// ---- FiberScheduler ----

FiberScheduler::FiberScheduler(Options options) {
  workers_ = options.workers > 0
                 ? options.workers
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));
  stack_bytes_ = round_up_pages(
      options.stack_bytes > 0 ? options.stack_bytes : kDefaultStackBytes);
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::spawn(std::function<void()> body) {
  auto fiber = std::make_unique<Fiber>();
  fiber->body_ = std::move(body);
  fiber->scheduler_ = this;
  std::lock_guard<std::mutex> lock(mutex_);
  ready_.push_back(fiber.get());
  fibers_.push_back(std::move(fiber));
}

void FiberScheduler::run() {
  if (fibers_.empty()) return;
  guard_stacks_ = fibers_.size() < kGuardlessFiberThreshold;
  const int carriers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(workers_), fibers_.size()));
  carriers_ = std::make_unique<TaskPool>(carriers);
  for (int i = 0; i < carriers; ++i) {
    carriers_->submit([this] { carrier_main(); });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return finished_ == fibers_.size(); });
  stop_ = true;
  ready_cv_.notify_all();
  lock.unlock();
  carriers_->shutdown();
  carriers_.reset();
}

void FiberScheduler::carrier_main() {
  for (;;) {
    Fiber* fiber = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!stop_ && ready_.empty()) {
        ++idle_;
        ready_cv_.wait(lock);
        --idle_;
      }
      if (ready_.empty()) return;  // stop_ set and nothing runnable
      fiber = ready_.front();
      ready_.pop_front();
    }
    resume(fiber);
  }
}

void FiberScheduler::resume(Fiber* fiber) {
  if (fiber->stack_block_ == nullptr) {
    // First run: allocate the stack and seed it to enter Fiber::entry.
    fiber->stack_bytes_ = stack_bytes_;
    fiber->stack_block_ = acquire_stack_block(stack_bytes_, guard_stacks_);
    seed_context(fiber->context_,
                 static_cast<char*>(fiber->stack_block_) + page_size(),
                 stack_bytes_, &Fiber::entry, fiber);
#if INSITU_EXEC_TSAN_FIBERS
    fiber->tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  SwitchContext carrier_context;
  // Fibers migrate between carriers: the return path must be the context
  // of *this* resume call, never a stale one from a previous carrier.
  fiber->return_context_ = &carrier_context;
  fiber->state_.store(Fiber::State::kRunning, std::memory_order_relaxed);
  // The rank-local pointer is switched state, like the floating-point
  // control words: the fiber runs with the block it last had installed,
  // and the carrier gets its own back when the fiber switches out.
  pal::RankLocal* carrier_local = pal::exchange_rank_local(fiber->rank_local_);
  t_current_fiber = fiber;
#if INSITU_EXEC_TSAN_FIBERS
  fiber->tsan_parent_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(fiber->tsan_fiber_, 0);
#endif
#if INSITU_EXEC_ASAN_FIBERS
  void* carrier_fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      &carrier_fake_stack,
      static_cast<char*>(fiber->stack_block_) + page_size(),
      fiber->stack_bytes_);
#endif
  switch_context(carrier_context, fiber->context_);
#if INSITU_EXEC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(carrier_fake_stack, nullptr, nullptr);
#endif
  // Back on the carrier: the fiber either parked or finished.
  t_current_fiber = nullptr;
  fiber->rank_local_ = pal::exchange_rank_local(carrier_local);

  if (fiber->state_.load(std::memory_order_acquire) ==
      Fiber::State::kFinished) {
#if INSITU_EXEC_TSAN_FIBERS
    __tsan_destroy_fiber(fiber->tsan_fiber_);
    fiber->tsan_fiber_ = nullptr;
#endif
    release_stack_block(fiber->stack_block_, fiber->stack_bytes_);
    fiber->stack_block_ = nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    if (++finished_ == fibers_.size()) done_cv_.notify_all();
    return;
  }

  // The fiber announced a park (kParking). Complete it: publish kParked
  // so a waker both flips the state and enqueues. If a waker already
  // flipped kParking to kReady, the notify landed before the switch-out
  // finished and the enqueue is on us.
  Fiber::State expected = Fiber::State::kParking;
  if (!fiber->state_.compare_exchange_strong(expected, Fiber::State::kParked,
                                             std::memory_order_acq_rel)) {
    enqueue(fiber);
  }
}

bool FiberScheduler::claim(Fiber* fiber) {
  Fiber::State state = fiber->state_.load(std::memory_order_acquire);
  for (;;) {
    switch (state) {
      case Fiber::State::kParked:
        // Fully switched out: make it ready; the caller hands it to a
        // carrier.
        if (fiber->state_.compare_exchange_weak(state, Fiber::State::kReady,
                                                std::memory_order_acq_rel)) {
          return true;
        }
        break;  // state reloaded; re-dispatch
      case Fiber::State::kParking:
        // Still unwinding onto its carrier: flip the state; that carrier
        // sees its park CAS fail and does the enqueue itself.
        if (fiber->state_.compare_exchange_weak(state, Fiber::State::kReady,
                                                std::memory_order_acq_rel)) {
          return false;
        }
        break;
      default:
        return false;  // kReady / kRunning / kFinished: spurious notify
    }
  }
}

void FiberScheduler::wake(std::vector<Fiber*>& fibers) {
  auto claimed_end = fibers.begin();
  for (Fiber* fiber : fibers) {
    if (claim(fiber)) *claimed_end++ = fiber;
  }
  if (claimed_end == fibers.begin()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ready_.insert(ready_.end(), fibers.begin(), claimed_end);
  signal_idle(static_cast<std::size_t>(claimed_end - fibers.begin()));
}

void FiberScheduler::enqueue(Fiber* fiber) {
  std::lock_guard<std::mutex> lock(mutex_);
  ready_.push_back(fiber);
  signal_idle(1);
}

void FiberScheduler::signal_idle(std::size_t runnable) {
  // idle_ may still count a carrier that was signalled but has not yet
  // re-taken the mutex; that only costs a spare notify. A carrier that
  // is not counted is running and checks ready_ before it sleeps.
  if (runnable >= idle_) {
    if (idle_ > 0) ready_cv_.notify_all();
    return;
  }
  for (std::size_t i = 0; i < runnable; ++i) ready_cv_.notify_one();
}

std::size_t FiberScheduler::pooled_stack_bytes() {
  StackCache& cache = stack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.pooled_bytes;
}

}  // namespace insitu::exec
