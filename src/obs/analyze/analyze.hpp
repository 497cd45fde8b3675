#pragma once

// Trace analysis: turns raw span logs (RunReport::trace, or an imported
// Chrome-trace export) into the paper-style performance breakdowns —
// per-span aggregation with self vs. total virtual time and parent
// attribution, per-phase (category) cost splits, and critical-path /
// overlap extraction across the `rank N` and `rank N worker` tracks.
//
// Everything here runs on the *virtual* timeline, so results are
// deterministic: byte-identical across hosts and scheduler backends
// (`sched=` changes wall time only). Wall statistics are carried along
// for profiling this implementation but never drive any derived value.
//
// Structure recovery relies on TraceEvent::depth: per track, events arrive
// in destruction (post-) order, so an event at depth d adopts every
// not-yet-claimed event at depth d+1 as a direct child. This is exact —
// no interval-containment heuristics, no tie-breaking on timestamps.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace insitu::obs::analyze {

/// Virtual seconds a span spent in each direct parent ("-" = top level).
struct ParentStat {
  std::string parent;
  std::uint64_t count = 0;
  double virt_s = 0.0;
};

/// Aggregated statistics for one span name.
struct SpanStat {
  std::string name;
  Category category = Category::kOther;
  std::uint64_t count = 0;
  double total_virt_s = 0.0;  ///< sum of span durations
  double self_virt_s = 0.0;   ///< total minus direct children's durations
  std::int64_t total_wall_ns = 0;
  std::vector<ParentStat> parents;  ///< sorted by parent name

  double mean_virt_s() const {
    return count == 0 ? 0.0 : total_virt_s / static_cast<double>(count);
  }
};

/// Per-track phase totals: self virtual time by category, coverage, span.
struct TrackStat {
  int track = 0;  ///< tid: rank, or rank + kWorkerTrackOffset for workers
  std::array<double, kCategoryCount> self_virt_s{};
  double traced_virt_s = 0.0;  ///< sum of top-level span durations
  double begin_s = 0.0;        ///< first span begin (virtual)
  double end_s = 0.0;          ///< last span end (virtual)

  bool is_worker() const { return track >= kWorkerTrackOffset; }
  int rank() const {
    return is_worker() ? track - kWorkerTrackOffset : track;
  }
};

/// Mean per-rank phase split of the per-step work: `miniapp.step` trees
/// feed the sim phase, `bridge.execute` trees split by category, and
/// `io.read_step*` trees feed the io phase of post hoc pipelines. total()
/// equals the bench-reported step time (per-step sim + per-step analysis).
struct StepBreakdown {
  std::array<double, kCategoryCount> per_step_s{};
  /// Steps per track (max): miniapp.step count, or bridge.execute count
  /// for post hoc pipelines that have no simulation loop.
  std::uint64_t steps = 0;

  double total() const;
};

/// Everything derived from one run's TraceLog in a single pass.
struct TraceAnalysis {
  std::vector<SpanStat> spans;    ///< sorted by name
  std::vector<TrackStat> tracks;  ///< sorted by track id
  StepBreakdown step;
  int nranks = 0;

  /// Mean self virtual seconds per rank (sim-plane tracks only).
  std::array<double, kCategoryCount> mean_rank_phase_s() const;
  /// Mean self virtual seconds per worker track ({} when no workers).
  std::array<double, kCategoryCount> mean_worker_phase_s() const;
  /// Mean traced (top-level-covered) virtual seconds per rank track.
  double mean_rank_traced_s() const;
  /// Run end-to-end: last span end across every track.
  double end_to_end_s() const;
  bool has_worker_tracks() const;
};

TraceAnalysis analyze_trace(const TraceLog& log);

/// Per-span aggregation restricted to one track (rank or worker tid).
std::vector<SpanStat> aggregate_track_spans(const TraceLog& log, int track);

/// Sim-plane vs worker-plane overlap for one rank (async runs).
struct RankOverlap {
  int rank = 0;
  double sim_busy_s = 0.0;     ///< top-level span time on the rank track
  double worker_busy_s = 0.0;  ///< top-level span time on the worker track
  double overlap_s = 0.0;      ///< time both tracks were busy
  double end_s = 0.0;          ///< later of the two tracks' last span ends

  /// Fraction of worker work hidden behind the simulation.
  double overlap_fraction() const {
    return worker_busy_s <= 0.0 ? 0.0 : overlap_s / worker_busy_s;
  }
};

/// One overlap row per rank that has a worker track (empty for sync runs).
std::vector<RankOverlap> rank_overlaps(const TraceLog& log);

/// One aggregated segment of the critical path walk.
struct CriticalSegment {
  std::string name;  ///< top-level span name, or "(idle)" for gaps
  bool worker = false;
  std::uint64_t count = 0;
  double virt_s = 0.0;
};

/// Critical-path approximation for the run: on the rank whose tracks
/// finish last, attribute every instant of [0, end] to the worker-track
/// top-level span covering it, else the rank-track span, else "(idle)".
/// Segment durations sum to end_s exactly, so async-overlap wins show up
/// as sim-plane spans vanishing from the path rather than as idle time.
struct CriticalPath {
  int rank = 0;
  double end_s = 0.0;
  std::vector<CriticalSegment> segments;  ///< sorted by virt_s desc, name
};

CriticalPath critical_path(const TraceLog& log);

}  // namespace insitu::obs::analyze
