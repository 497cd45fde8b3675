#include "obs/analyze/analyze.hpp"

#include <algorithm>
#include <cstddef>

namespace insitu::obs::analyze {

namespace {

/// A top-level (depth 0) span on one track, in begin order.
struct TopInterval {
  double begin = 0.0;
  double end = 0.0;
  const std::string* name = nullptr;
};

/// Accumulators shared by whole-log and single-track aggregation.
struct Accumulator {
  std::map<std::string, SpanStat> spans;
  // (child name, parent name) -> edge stats; parent "-" = top level.
  std::map<std::pair<std::string, std::string>, ParentStat> edges;

  std::vector<SpanStat> finalize() {
    for (auto& [key, edge] : edges) {
      edge.parent = key.second;
      spans[key.first].parents.push_back(edge);
    }
    std::vector<SpanStat> out;
    out.reserve(spans.size());
    for (auto& [name, stat] : spans) {
      stat.name = name;
      out.push_back(std::move(stat));
    }
    return out;  // map order == sorted by name; parents sorted likewise
  }
};

/// Sweeps one track's events (post-order + depth) once, recovering the
/// span forest exactly: an event at depth d adopts every unclaimed event
/// at depth d+1 as a direct child.
class TrackSweep {
 public:
  TrackSweep(int track, Accumulator& acc) : track_(track), acc_(acc) {
    stat_.track = track;
  }

  void add(const TraceEvent& e) {
    const std::size_t d = static_cast<std::size_t>(e.depth < 0 ? 0 : e.depth);
    if (pending_.size() <= d + 1) pending_.resize(d + 2);

    double child_total = 0.0;
    for (const Child& c : pending_[d + 1]) {
      child_total += c.virt_dur_s;
      ParentStat& edge = acc_.edges[{*c.name, e.name}];
      ++edge.count;
      edge.virt_s += c.virt_dur_s;
    }
    pending_[d + 1].clear();
    const double self = e.virt_dur_s - child_total;

    SpanStat& stat = acc_.spans[e.name];
    stat.category = e.category;
    ++stat.count;
    stat.total_virt_s += e.virt_dur_s;
    stat.self_virt_s += self;
    stat.total_wall_ns += e.wall_dur_ns;

    const auto cat = static_cast<std::size_t>(e.category);
    stat_.self_virt_s[cat] += self;
    window_[cat] += self;

    if (first_) {
      stat_.begin_s = e.virt_begin_s;
      first_ = false;
    } else {
      stat_.begin_s = std::min(stat_.begin_s, e.virt_begin_s);
    }
    stat_.end_s = std::max(stat_.end_s, e.virt_begin_s + e.virt_dur_s);

    pending_[d].push_back({&e.name, e.virt_dur_s});
    if (e.depth <= 0) close_top(e);
  }

  /// Flush top-level parent edges; returns the per-track stats.
  TrackStat finish() {
    if (!pending_.empty()) {
      for (const Child& c : pending_[0]) {
        ParentStat& edge = acc_.edges[{*c.name, "-"}];
        ++edge.count;
        edge.virt_s += c.virt_dur_s;
      }
      pending_[0].clear();
    }
    return stat_;
  }

  const std::vector<TopInterval>& top_intervals() const { return tops_; }
  const std::array<double, kCategoryCount>& step_window() const {
    return step_window_;
  }
  /// Steps on this track: miniapp.step count for executed sims,
  /// bridge.execute count for post hoc (staged) pipelines.
  std::uint64_t steps() const { return std::max(sim_steps_, exec_steps_); }

 private:
  struct Child {
    const std::string* name;
    double virt_dur_s;
  };

  void close_top(const TraceEvent& e) {
    stat_.traced_virt_s += e.virt_dur_s;
    tops_.push_back({e.virt_begin_s, e.virt_begin_s + e.virt_dur_s, &e.name});
    // Per-step work: the subtree of a top-level event is exactly the
    // events accumulated into the window since the previous top close.
    // Step trees: the simulation's step, the bridge's execute, and the
    // top-level post hoc reads/writes around them (fig11/fig12
    // workflows; in situ runs nest io under bridge.execute instead).
    const bool is_step = e.name == "miniapp.step" ||
                         e.name == "bridge.execute" ||
                         e.name.rfind("io.read_step", 0) == 0 ||
                         e.name.rfind("io.write_step", 0) == 0;
    if (is_step) {
      for (int c = 0; c < kCategoryCount; ++c) {
        step_window_[static_cast<std::size_t>(c)] +=
            window_[static_cast<std::size_t>(c)];
      }
      if (e.name == "miniapp.step") ++sim_steps_;
      if (e.name == "bridge.execute") ++exec_steps_;
    }
    window_ = {};
  }

  int track_;
  Accumulator& acc_;
  TrackStat stat_;
  bool first_ = true;
  std::vector<std::vector<Child>> pending_;
  std::vector<TopInterval> tops_;
  std::array<double, kCategoryCount> window_{};
  std::array<double, kCategoryCount> step_window_{};
  std::uint64_t sim_steps_ = 0;
  std::uint64_t exec_steps_ = 0;
};

/// Per-track event pointers in record (post-) order.
std::map<int, std::vector<const TraceEvent*>> split_tracks(
    const TraceLog& log) {
  std::map<int, std::vector<const TraceEvent*>> out;
  for (const TraceEvent& e : log.events) out[e.rank].push_back(&e);
  return out;
}

double busy_seconds(const std::vector<TopInterval>& intervals) {
  double sum = 0.0;
  for (const TopInterval& i : intervals) sum += i.end - i.begin;
  return sum;
}

/// Intersection time of two begin-sorted, non-overlapping interval lists.
double overlap_seconds(const std::vector<TopInterval>& a,
                       const std::vector<TopInterval>& b) {
  double sum = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double lo = std::max(a[i].begin, b[j].begin);
    const double hi = std::min(a[i].end, b[j].end);
    if (hi > lo) sum += hi - lo;
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return sum;
}

}  // namespace

double StepBreakdown::total() const {
  double sum = 0.0;
  for (const double v : per_step_s) sum += v;
  return sum;
}

double TraceAnalysis::end_to_end_s() const {
  double out = 0.0;
  for (const TrackStat& t : tracks) out = std::max(out, t.end_s);
  return out;
}

bool TraceAnalysis::has_worker_tracks() const {
  for (const TrackStat& t : tracks) {
    if (t.is_worker()) return true;
  }
  return false;
}

TraceAnalysis analyze_trace(const TraceLog& log) {
  TraceAnalysis out;
  out.nranks = log.nranks;

  Accumulator acc;
  std::array<double, kCategoryCount> step_sum{};
  std::uint64_t max_steps = 0;
  int step_tracks = 0;
  for (const auto& [track, events] : split_tracks(log)) {
    TrackSweep sweep(track, acc);
    for (const TraceEvent* e : events) sweep.add(*e);
    out.tracks.push_back(sweep.finish());
    if (track < kWorkerTrackOffset && sweep.steps() > 0) {
      ++step_tracks;
      max_steps = std::max(max_steps, sweep.steps());
      for (int c = 0; c < kCategoryCount; ++c) {
        step_sum[static_cast<std::size_t>(c)] +=
            sweep.step_window()[static_cast<std::size_t>(c)];
      }
    }
  }
  out.spans = acc.finalize();
  out.step.steps = max_steps;
  if (step_tracks > 0 && max_steps > 0) {
    const double denom = static_cast<double>(step_tracks) *
                         static_cast<double>(max_steps);
    for (int c = 0; c < kCategoryCount; ++c) {
      out.step.per_step_s[static_cast<std::size_t>(c)] =
          step_sum[static_cast<std::size_t>(c)] / denom;
    }
  }
  return out;
}

std::vector<RankOverlap> rank_overlaps(const TraceLog& log) {
  std::vector<RankOverlap> out;
  Accumulator acc;  // discarded; the sweep also yields top intervals
  std::map<int, std::vector<TopInterval>> tops;
  for (const auto& [track, events] : split_tracks(log)) {
    TrackSweep sweep(track, acc);
    for (const TraceEvent* e : events) sweep.add(*e);
    sweep.finish();
    tops[track] = sweep.top_intervals();
  }
  for (const auto& [track, intervals] : tops) {
    if (track < kWorkerTrackOffset) continue;
    const int rank = track - kWorkerTrackOffset;
    RankOverlap o;
    o.rank = rank;
    o.worker_busy_s = busy_seconds(intervals);
    const auto sim = tops.find(rank);
    if (sim != tops.end()) {
      o.sim_busy_s = busy_seconds(sim->second);
      o.overlap_s = overlap_seconds(sim->second, intervals);
      if (!sim->second.empty()) o.end_s = sim->second.back().end;
    }
    if (!intervals.empty()) o.end_s = std::max(o.end_s, intervals.back().end);
    out.push_back(o);
  }
  return out;
}

CriticalPath critical_path(const TraceLog& log) {
  CriticalPath out;
  Accumulator acc;
  std::map<int, std::vector<TopInterval>> tops;
  for (const auto& [track, events] : split_tracks(log)) {
    TrackSweep sweep(track, acc);
    for (const TraceEvent* e : events) sweep.add(*e);
    sweep.finish();
    tops[track] = sweep.top_intervals();
  }

  // The run ends when the last track goes quiet; that track's rank owns
  // the critical path.
  int last_track = 0;
  for (const auto& [track, intervals] : tops) {
    if (intervals.empty()) continue;
    if (out.end_s == 0.0 || intervals.back().end > out.end_s) {
      out.end_s = intervals.back().end;
      last_track = track;
    }
  }
  out.rank = last_track >= kWorkerTrackOffset
                 ? last_track - kWorkerTrackOffset
                 : last_track;

  const std::vector<TopInterval> empty;
  const auto find_or_empty = [&](int track) -> const std::vector<TopInterval>& {
    const auto it = tops.find(track);
    return it == tops.end() ? empty : it->second;
  };
  const std::vector<TopInterval>& sim = find_or_empty(out.rank);
  const std::vector<TopInterval>& worker =
      find_or_empty(out.rank + kWorkerTrackOffset);

  // Boundary sweep over [0, end]: worker span wins, then sim span, then
  // idle. Deterministic, and segment durations sum to end_s exactly.
  std::vector<double> bounds{0.0, out.end_s};
  for (const auto* list : {&sim, &worker}) {
    for (const TopInterval& i : *list) {
      bounds.push_back(i.begin);
      bounds.push_back(i.end);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::map<std::pair<std::string, bool>, CriticalSegment> segments;
  std::size_t si = 0, wi = 0;
  const TopInterval* last_attr = nullptr;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const double lo = bounds[b];
    const double hi = bounds[b + 1];
    if (lo >= out.end_s) break;
    while (wi < worker.size() && worker[wi].end <= lo) ++wi;
    while (si < sim.size() && sim[si].end <= lo) ++si;
    const TopInterval* cover = nullptr;
    bool is_worker = false;
    if (wi < worker.size() && worker[wi].begin <= lo) {
      cover = &worker[wi];
      is_worker = true;
    } else if (si < sim.size() && sim[si].begin <= lo) {
      cover = &sim[si];
    }
    const std::string name = cover != nullptr ? *cover->name : "(idle)";
    CriticalSegment& seg = segments[{name, is_worker}];
    seg.name = name;
    seg.worker = is_worker;
    seg.virt_s += std::min(hi, out.end_s) - lo;
    if (cover != last_attr || cover == nullptr) ++seg.count;
    last_attr = cover;
  }

  for (auto& [key, seg] : segments) out.segments.push_back(std::move(seg));
  std::sort(out.segments.begin(), out.segments.end(),
            [](const CriticalSegment& a, const CriticalSegment& b) {
              if (a.virt_s != b.virt_s) return a.virt_s > b.virt_s;
              return a.name < b.name;
            });
  return out;
}

}  // namespace insitu::obs::analyze
