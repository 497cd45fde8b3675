#pragma once

// exec::FiberScheduler — M:N scheduling of rank continuations.
//
// The SPMD runtime used to launch one OS thread per virtual rank, which
// caps *executed* scale at a few dozen ranks. Here each virtual rank is a
// fiber: a pooled, schedulable continuation with its own (small, lazily
// committed) stack, multiplexed onto the workers of an exec::TaskPool.
// A fiber runs until it would block at a message-match point — a receive
// with no matching message, a collective rendezvous that is not yet
// complete — and then *parks*: it registers itself with the WaitSet
// guarding the condition, switches back to its carrier worker, and the
// worker picks up the next runnable fiber. When the condition is
// notified the fiber re-enters the ready queue and resumes on whichever
// worker frees up first (fibers migrate between carriers). A rank's
// own state — memory tracker, buffer pool, observability sinks, log
// label — lives in one pal::RankLocal block behind one thread-local
// pointer, and every switch carries that pointer along: resume installs
// the fiber's pointer on the carrier and takes it back at switch-out,
// exactly as the switch keeps the floating-point control words.
//
// This is what lets the full pipeline — collectives, compositing
// ladders, in transit staging — really *execute* at 10K+ virtual ranks
// on one machine (docs/SCALING.md): the cost per rank drops from an OS
// thread (~8 MiB stack, kernel scheduling) to a fiber (~256 KiB virtual,
// a few touched pages, user-space switches only at match points).
//
// Determinism: the scheduler makes no ordering decisions the thread
// backend does not already make. Message matching stays FIFO per
// (source, tag), collective combines happen in arrival order exactly as
// before, and virtual time is pure arithmetic over agreed values — so
// virtual times, histograms, and image hashes are bit-identical between
// the `threads` and `mn` backends (bench/ablation_sched gates this).
//
// Blocking in a fiber through plain condition variables (e.g. waiting on
// a std::future from a TaskPool) is *safe* but pins the carrier for the
// duration; only WaitSet-based waits release the worker. All comm-layer
// match points use WaitSet.
//
// Switching: on x86-64 a switch is a few instructions of assembly that
// save the callee-saved registers, MXCSR and the x87 control word on the
// outgoing stack and swap stack pointers — no system call. Elsewhere the
// same interface wraps ucontext's swapcontext. Unlike swapcontext, the
// x86-64 switch does not save or restore the signal mask, so a fiber runs
// with whatever mask its current carrier has; nothing in src/ changes a
// signal mask, and code that did would have it follow the carrier, not
// the fiber. Nor does it support x86 shadow stacks (CET SHSTK): the
// switch lives in fiber_switch.S, which declares no shadow-stack
// property, so binaries linking it are marked incompatible and run with
// shadow stacks off.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "pal/rank_local.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define INSITU_EXEC_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define INSITU_EXEC_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) && !defined(INSITU_EXEC_TSAN_FIBERS)
#define INSITU_EXEC_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(INSITU_EXEC_ASAN_FIBERS)
#define INSITU_EXEC_ASAN_FIBERS 1
#endif
#ifndef INSITU_EXEC_TSAN_FIBERS
#define INSITU_EXEC_TSAN_FIBERS 0
#endif
#ifndef INSITU_EXEC_ASAN_FIBERS
#define INSITU_EXEC_ASAN_FIBERS 0
#endif

namespace insitu::exec {

class FiberScheduler;

/// A suspended execution context: what switch_context saves and resumes.
#if defined(__x86_64__)
struct SwitchContext {
  void* sp = nullptr;  ///< saved stack pointer; registers sit above it
};
#else
struct SwitchContext {
  ucontext_t uc;
};
#endif

/// One rank continuation. Created by FiberScheduler::spawn; lives until
/// its body returns. All members are managed by the scheduler.
class Fiber {
 public:
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Scheduler this fiber belongs to.
  FiberScheduler* scheduler() const { return scheduler_; }

 private:
  friend class FiberScheduler;
  friend class WaitSet;

  enum class State : int {
    kReady,    ///< in the ready queue (or about to be enqueued by owner)
    kRunning,  ///< executing on a carrier worker
    kParking,  ///< announced a park; still unwinding onto its carrier
    kParked,   ///< fully switched out; a waker may enqueue it
    kFinished  ///< body returned
  };

  /// First code to run on the fiber's stack; never returns.
  static void entry(Fiber* fiber);

  /// Switch from the fiber back to its carrier. Must be called on the
  /// fiber, with no locks held, after state_ was set to kParking (or
  /// kFinished by entry()).
  void suspend();

  /// Sanitizer bookkeeping on the fiber side of a switch: called right
  /// after landing on the fiber's stack (first entry or a resume).
  void landed();

  SwitchContext context_;                    // where the fiber last left off
  SwitchContext* return_context_ = nullptr;  // the current carrier's context
  std::atomic<State> state_{State::kReady};
  std::function<void()> body_;
  // The fiber's installed rank block while it is switched out (null
  // until the body installs one); see FiberScheduler::resume.
  pal::RankLocal* rank_local_ = nullptr;
  FiberScheduler* scheduler_ = nullptr;
  void* stack_block_ = nullptr;  // mmap block (guard page + stack)
  std::size_t stack_bytes_ = 0;  // usable stack size (excludes guard)

#if INSITU_EXEC_TSAN_FIBERS
  // TSan must be told about user-space context switches or it sees one OS
  // thread interleaving unrelated stacks and reports phantom races.
  void* tsan_fiber_ = nullptr;   // this fiber's TSan identity
  void* tsan_parent_ = nullptr;  // the hosting carrier's TSan identity
#endif
#if INSITU_EXEC_ASAN_FIBERS
  // ASan tracks which stack is live; every switch is bracketed by
  // __sanitizer_start/finish_switch_fiber so stack-use-after-return's
  // fake frames and stack bounds follow the fiber.
  void* asan_fake_stack_ = nullptr;         // this fiber's fake stack
  const void* asan_carrier_bottom_ = nullptr;  // hosting carrier's stack
  std::size_t asan_carrier_size_ = 0;
#endif
};

/// Condition-variable lookalike that understands fibers. Non-fiber
/// callers block on an internal std::condition_variable exactly like
/// before; fiber callers park and release their carrier worker. Both
/// kinds of waiter are woken by notify_all(). All calls must hold the
/// one mutex that guards the associated state (the same discipline as a
/// condition variable). Every fiber waiting on one WaitSet must belong to
/// the same FiberScheduler: a notify hands its fibers over in one batch.
///
/// Waiters may additionally register under a 64-bit wakeup key
/// (wait_key) so wakers can target just the waiters a state change can
/// actually unblock (notify_key) instead of stampeding every waiter.
/// Keys only filter wakeups — they carry no data, and the usual
/// predicate-loop discipline still applies. Fiber waiters are woken
/// exactly by key; thread waiters share one condition variable, so a
/// matching notify may wake non-matching thread waiters spuriously
/// (harmless, and no notify is issued at all when no thread waiter can
/// match).
class WaitSet {
 public:
  /// Matches every key, in both directions: an any-key waiter is woken
  /// by every notify, and notify_key(kAnyKey) behaves like notify_all.
  static constexpr std::uint64_t kAnyKey = ~std::uint64_t{0};

  /// Block until notified. Spurious wakeups happen (exactly as with a
  /// condition variable): always wait in a predicate loop.
  void wait(std::unique_lock<std::mutex>& lock) { wait_key(lock, kAnyKey); }

  template <typename Predicate>
  void wait(std::unique_lock<std::mutex>& lock, Predicate predicate) {
    while (!predicate()) wait(lock);
  }

  /// Block until a notify matching `key` (notify_all, notify_key(key),
  /// or notify_key(kAnyKey)). Spurious wakeups happen.
  void wait_key(std::unique_lock<std::mutex>& lock, std::uint64_t key);

  template <typename Predicate>
  void wait_key(std::unique_lock<std::mutex>& lock, std::uint64_t key,
                Predicate predicate) {
    while (!predicate()) wait_key(lock, key);
  }

  /// Block under `key` until `ready` reads true, and return with `lock`
  /// *released*. The waker stores true to `ready` (release) while holding
  /// the mutex, then notifies; whatever it wrote before that store is
  /// visible to the waiter. A woken fiber checks its flag and returns
  /// without re-taking the mutex; a thread waiter (which may wake
  /// spuriously) re-checks the flag under the mutex before returning.
  void wait_flag(std::unique_lock<std::mutex>& lock, std::uint64_t key,
                 const std::atomic<bool>& ready);

  /// Wake every registered waiter (cv waiters and parked fibers). Must be
  /// called while holding the mutex the waiters registered under; safe
  /// from plain threads and fibers alike.
  void notify_all();

  /// Wake only the waiters registered under `key` (plus any-key waiters).
  /// Same locking discipline as notify_all.
  void notify_key(std::uint64_t key);

 private:
  /// Registers `fiber` under `key`, releases `lock`, and switches out;
  /// returns on the fiber once a notify re-enqueued it (lock released).
  void park(Fiber* fiber, std::unique_lock<std::mutex>& lock,
            std::uint64_t key);

  std::condition_variable cv_;
  std::vector<std::pair<Fiber*, std::uint64_t>> fibers_;
  std::vector<Fiber*> waking_;  // notify_key scratch, reused across calls
  std::multiset<std::uint64_t> cv_keys_;  // keys of blocked cv waiters
};

class TaskPool;

/// Runs N spawned fibers to completion on M TaskPool workers (M << N).
/// Usage: construct, spawn() every fiber, then run() once; run() blocks
/// the caller until all fibers finish. Not reusable after run().
class FiberScheduler {
 public:
  struct Options {
    /// Carrier workers; <= 0 means one per hardware thread.
    int workers = 0;
    /// Usable stack bytes per fiber (rounded up to whole pages); 0 means
    /// the 256 KiB default. Stacks are mmap'd with a guard page below
    /// and recycled through a process-wide free list, so only the pages
    /// a rank actually touches ever become resident. Very large runs
    /// (>= 8192 fibers) drop the per-stack guard pages and carve stacks
    /// from shared slabs instead, keeping the kernel VMA count far below
    /// vm.max_map_count at 45K+ fibers.
    std::size_t stack_bytes = 0;
  };

  explicit FiberScheduler(Options options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Create a runnable fiber. Must be called before run().
  void spawn(std::function<void()> body);

  /// Run every spawned fiber to completion. Blocks the calling thread
  /// (which does not itself carry fibers).
  void run();

  /// Resolved worker count.
  int workers() const { return workers_; }

  /// Number of fibers spawned so far.
  std::size_t size() const { return fibers_.size(); }

  /// Make a batch of this scheduler's parked (or parking) fibers
  /// runnable again, as WaitSet notifies hand them over. Safe from any
  /// thread; fibers that are already ready/running/finished are ignored.
  /// Every fiber the wake claims goes onto the ready queue under one lock
  /// acquisition, and only as many idle carriers are signalled as there
  /// are fibers to run. Overwrites `fibers`.
  void wake(std::vector<Fiber*>& fibers);

  /// Stacks parked in the process-wide free list, in bytes (test hook).
  static std::size_t pooled_stack_bytes();

 private:
  friend class Fiber;
  friend class WaitSet;

  void carrier_main();
  void resume(Fiber* fiber);
  void enqueue(Fiber* fiber);
  /// The park/wake CAS: true if the caller now owns enqueueing `fiber`.
  static bool claim(Fiber* fiber);
  /// Signals up to `runnable` idle carriers (mutex_ held).
  void signal_idle(std::size_t runnable);

  int workers_ = 1;
  std::size_t stack_bytes_ = 0;
  // Whether stacks get a PROT_NONE guard page. run() turns this off for
  // very large fiber counts, where the 2-VMAs-per-guarded-stack cost
  // would exhaust vm.max_map_count (see fiber.cpp).
  bool guard_stacks_ = true;

  std::mutex mutex_;
  std::condition_variable ready_cv_;  // carriers: a fiber is runnable
  std::condition_variable done_cv_;   // run(): all fibers finished
  std::deque<Fiber*> ready_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::size_t idle_ = 0;  // carriers blocked on ready_cv_ (under mutex_)
  std::size_t finished_ = 0;
  bool stop_ = false;

  std::unique_ptr<TaskPool> carriers_;
};

}  // namespace insitu::exec
