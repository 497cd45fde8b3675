#pragma once

// pal::RankLocal — everything that belongs to one simulated rank rather
// than to the OS thread running it, in one block reached through one
// thread-local pointer.
//
// comm::Runtime fills one RankLocal per rank (memory tracker, buffer
// pool, observability sinks, rank id for the log label) and installs it
// with ScopedRankLocal at the top of the rank body, under every
// scheduler backend; an async worker installs a copy of its rank's block
// the same way. Under the fiber scheduler the pointer is the only rank
// state a switch touches: FiberScheduler::resume installs the fiber's
// pointer before switching in and takes it back after switching out, so
// the block follows its rank across carriers while each carrier keeps
// its own.
//
// The accessors are deliberately out of line (defined in rank_local.cpp).
// Inlined, a thread-local read lets the compiler keep the address of
// *this* carrier's slot in a register across a call that parks the fiber
// and resumes it on another carrier; an opaque call re-reads it every
// time. Hold the returned RankLocal& itself across a park, never the slot.
//
// A thread with no installed block sees its own empty block (rank -1,
// the process-default pool, no metrics or trace sinks) and charges its
// own private MemoryTracker, so pal code is safe to call anywhere.
//
// pal sits below obs: the obs sinks are pointers to forward-declared
// types, and pal includes and links nothing above itself.

namespace insitu::obs {
class MetricsRegistry;
class TraceRecorder;
namespace live {
class FlightRecorder;
}
}  // namespace insitu::obs

namespace insitu::pal {

class BufferPool;
class MemoryTracker;

struct RankLocal {
  /// Rank id; -1 on a thread that is not running a rank. Logs from a
  /// rank (or from an async worker acting for it) read "[rank N]".
  int rank = -1;
  /// Charged by rank_memory_tracker(); null -> the thread's own tracker.
  MemoryTracker* tracker = nullptr;
  /// Returned by buffer_pool(); null -> the process default pool.
  BufferPool* pool = nullptr;

  // ---- observability (read through obs::metrics() / obs::tracer()) ----
  obs::MetricsRegistry* metrics = nullptr;  // null -> process fallback registry
  obs::TraceRecorder* trace = nullptr;      // null -> tracing disabled
  /// Optional flight-recorder ring fed by TraceScope even when full
  /// tracing is off (installed by the Runtime when a TelemetryHub is
  /// attached).
  obs::live::FlightRecorder* flight = nullptr;
  /// Open TraceScope count; each span records the value at its
  /// construction as its nesting depth, making parent/child structure
  /// exact (and deterministic) for offline analysis.
  int span_depth = 0;
  /// Reads the rank's virtual clock (type-erased: pal and obs cannot see
  /// comm::VirtualClock).
  double (*virtual_now_fn)(const void*) = nullptr;
  const void* virtual_clock = nullptr;

  double virtual_now() const {
    return virtual_now_fn == nullptr ? 0.0 : virtual_now_fn(virtual_clock);
  }
};

/// The calling thread's installed block, or its own empty block.
RankLocal& rank_local();

/// Installs `block` (null: none) as the calling thread's block and
/// returns the previously installed one. The fiber scheduler calls this
/// around every switch; everything else uses ScopedRankLocal.
RankLocal* exchange_rank_local(RankLocal* block);

/// RAII install/restore of the calling thread's block. The block must
/// outlive the scope.
class ScopedRankLocal {
 public:
  explicit ScopedRankLocal(RankLocal* block)
      : saved_(exchange_rank_local(block)) {}
  ~ScopedRankLocal() { exchange_rank_local(saved_); }

  ScopedRankLocal(const ScopedRankLocal&) = delete;
  ScopedRankLocal& operator=(const ScopedRankLocal&) = delete;

 private:
  RankLocal* saved_;
};

}  // namespace insitu::pal
