#pragma once

// Structured trace recorder: begin/end spans in both wall time and
// virtual (modeled cluster) time, one recorder per simulated rank.
//
// Instrumented code opens a RAII TraceScope; if no recorder is installed
// for the calling thread (tracing disabled, or code running outside the
// SPMD Runtime) the scope is a no-op costing one pal::rank_local() call.
//
// Span naming contract (docs/OBSERVABILITY.md): `<module>.<operation>`,
// optionally suffixed with `:<instance>` for a specific backend/analysis,
// e.g. `bridge.execute`, `backend.execute:catalyst-slice`, `comm.barrier`.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/context.hpp"

namespace insitu::obs {

/// Coarse span grouping, exported as the Chrome trace "cat" field.
enum class Category {
  kSim,      // miniapp / proxy-app compute
  kBridge,   // InSituBridge phases
  kBackend,  // backend execute stages
  kComm,     // communicator collectives / p2p
  kIo,       // file writers and readers
  kAnalysis, // analysis kernels
  kOther,
};

const char* to_string(Category category);

/// Number of Category values (array-index friendly: kSim..kOther are 0-6).
inline constexpr int kCategoryCount = 7;

/// Inverse of to_string(); unknown names map to Category::kOther.
Category category_from_string(std::string_view name);

/// Small numeric annotation attached to a span (bytes, counts, ...).
struct TraceArg {
  std::string key;
  double value = 0.0;
};

/// One completed span. Wall times are nanoseconds relative to the
/// recorder's epoch (install time); virtual times are absolute seconds on
/// the owning rank's virtual clock.
struct TraceEvent {
  std::string name;
  Category category = Category::kOther;
  int rank = 0;
  /// Nesting depth at construction (0 = top level on its track). Events
  /// are recorded in destruction (post-) order, so a track's stream plus
  /// depths reconstructs the span forest exactly (obs/analyze).
  int depth = 0;
  std::int64_t wall_begin_ns = 0;
  std::int64_t wall_dur_ns = 0;
  double virt_begin_s = 0.0;
  double virt_dur_s = 0.0;
  std::vector<TraceArg> args;
};

/// All spans of one run, in recording order per rank.
struct TraceLog {
  std::vector<TraceEvent> events;
  int nranks = 0;
};

/// Track id of rank r's async analysis worker: r + kWorkerTrackOffset.
/// The Chrome exporter names these tracks "rank r worker" and sorts them
/// after the rank tracks; nothing else may use rank ids in this range.
inline constexpr int kWorkerTrackOffset = 1000;

/// Per-rank span buffer. Thread-confined: only the owning rank thread
/// records; the Runtime harvests after join. A worker thread serving a
/// rank gets its *own* recorder (typically on track rank +
/// kWorkerTrackOffset, sharing the rank recorder's epoch so wall times
/// align) whose events the owner later merges back via absorb().
class TraceRecorder {
 public:
  using Epoch = std::chrono::steady_clock::time_point;

  explicit TraceRecorder(int rank)
      : TraceRecorder(rank, std::chrono::steady_clock::now()) {}
  TraceRecorder(int rank, Epoch epoch) : rank_(rank), epoch_(epoch) {}

  int rank() const { return rank_; }
  Epoch epoch() const { return epoch_; }

  std::int64_t wall_now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  void record(TraceEvent event) {
    event.rank = rank_;
    events_.push_back(std::move(event));
  }

  /// Append events recorded elsewhere, keeping their own rank/track ids
  /// (unlike record(), which stamps this recorder's rank).
  void absorb(std::vector<TraceEvent> events) {
    events_.insert(events_.end(),
                   std::make_move_iterator(events.begin()),
                   std::make_move_iterator(events.end()));
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> take_events() { return std::move(events_); }

 private:
  int rank_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
};

namespace detail {
/// Out-of-line flight-ring hooks (defined in live/flight_recorder.cpp) so
/// this header does not depend on the live module.
std::int64_t flight_wall_now_ns(const live::FlightRecorder* flight);
void flight_record(live::FlightRecorder* flight, const TraceEvent& event);
}  // namespace detail

/// RAII span guard. Construction snapshots wall + virtual begin times,
/// destruction records the completed event into the rank's recorder
/// and/or the rank's flight-recorder ring. With neither installed the
/// scope is a no-op costing one call to pal::rank_local().
class TraceScope {
 public:
  TraceScope(Category category, const char* name)
      : TraceScope(category, std::string(name)) {}

  /// `name` is copied only when a sink is active, so a caller can keep a
  /// prebuilt span name and pay nothing while tracing is off.
  TraceScope(Category category, const std::string& name) {
    pal::RankLocal& ctx = pal::rank_local();
    recorder_ = ctx.trace;
    flight_ = ctx.flight;
    if (recorder_ == nullptr && flight_ == nullptr) return;
    event_.name = name;
    event_.category = category;
    event_.depth = ctx.span_depth++;
    // With both sinks active the recorder's epoch wins, so trace and
    // flight timestamps stay mutually comparable.
    event_.wall_begin_ns = recorder_ != nullptr
                               ? recorder_->wall_now_ns()
                               : detail::flight_wall_now_ns(flight_);
    event_.virt_begin_s = ctx.virtual_now();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Attach a numeric annotation (no-op when tracing is disabled;
  /// flight events are fixed-size and carry no args).
  TraceScope& arg(const char* key, double value) {
    if (recorder_ != nullptr) event_.args.push_back({key, value});
    return *this;
  }

  bool active() const { return recorder_ != nullptr; }

  ~TraceScope() {
    if (recorder_ == nullptr && flight_ == nullptr) return;
    pal::RankLocal& ctx = pal::rank_local();
    --ctx.span_depth;
    const std::int64_t wall_now = recorder_ != nullptr
                                      ? recorder_->wall_now_ns()
                                      : detail::flight_wall_now_ns(flight_);
    event_.wall_dur_ns = wall_now - event_.wall_begin_ns;
    event_.virt_dur_s = ctx.virtual_now() - event_.virt_begin_s;
    if (flight_ != nullptr) detail::flight_record(flight_, event_);
    if (recorder_ != nullptr) recorder_->record(std::move(event_));
  }

 private:
  TraceRecorder* recorder_ = nullptr;
  live::FlightRecorder* flight_ = nullptr;
  TraceEvent event_;
};

}  // namespace insitu::obs
