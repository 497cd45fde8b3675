#pragma once

// AsyncBridge: the asynchronous counterpart of InSituBridge (§5.2's
// "execution time can be overlapped with the simulation" discussion).
//
// Same contract as the synchronous bridge — add_analysis / initialize /
// execute / finalize — but execute() only *snapshots* the adaptor's data
// (deep-copying zero-copy arrays so the simulation may overwrite its
// buffers) and hands the step to a per-rank worker thread. Analyses then
// run overlapped with subsequent simulation compute, on an analysis-plane
// communicator whose collectives advance a worker-owned virtual clock.
//
// Virtual-timeline semantics (deterministic; see comm/overlap.hpp):
//   * each step's hand-off time is agreed across ranks with a simulation-
//     plane barrier, and each job's finish time with an analysis-plane
//     barrier, so every rank replays the identical schedule;
//   * the simulation clock pays only snapshot memcpy + hand-off (plus any
//     kBlock stall); analysis cost lands on the worker clock;
//   * finalize() joins the planes: the simulation clock observes the
//     drained analysis timeline, making end-to-end time
//     max(simulation, analysis drain) — the paper's idealized overlap.
//
// Backpressure is governed by BackpressurePolicy and queue_depth exactly
// like the in transit transports' bounded staging queues (io/flexpath):
// kBlock never drops (and is golden-tested byte-identical to the sync
// bridge), kDropOldest / kLatestOnly trade completeness for bounded lag.

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "comm/overlap.hpp"
#include "comm/virtual_clock.hpp"
#include "core/analysis_adaptor.hpp"
#include "core/bridge.hpp"
#include "core/data_adaptor.hpp"
#include "exec/fiber.hpp"
#include "exec/snapshot.hpp"
#include "exec/task_pool.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "pal/memory_tracker.hpp"
#include "pal/rank_local.hpp"
#include "pal/rng.hpp"

namespace insitu::core {

struct AsyncBridgeOptions {
  comm::BackpressurePolicy policy = comm::BackpressurePolicy::kBlock;
  /// Maximum snapshots outstanding (running + waiting) per rank; mirrors
  /// the in transit transports' queue_depth knob.
  int queue_depth = 2;
};

class AsyncBridge {
 public:
  explicit AsyncBridge(comm::Communicator* comm,
                       AsyncBridgeOptions options = {});
  ~AsyncBridge();

  AsyncBridge(const AsyncBridge&) = delete;
  AsyncBridge& operator=(const AsyncBridge&) = delete;

  void add_analysis(AnalysisAdaptorPtr analysis) {
    analyses_.push_back(std::move(analysis));
  }
  std::size_t num_analyses() const { return analyses_.size(); }

  /// Initialize analyses (simulation clock; one-time cost) and start the
  /// analysis plane: split communicator, worker clock, worker thread.
  Status initialize();

  /// Snapshot the adaptor's data and enqueue it for the worker. Returns
  /// false once any (already finished) analysis requested a stop; an
  /// analysis error surfaces on a later execute() or on finalize().
  StatusOr<bool> execute(DataAdaptor& adaptor, double time, long step);

  /// Drain the queue, run analysis finalize on the worker plane, join the
  /// analysis timeline into the simulation clock, stop the worker.
  Status finalize();

  const BridgeTimings& timings() const { return timings_; }
  const AsyncBridgeOptions& options() const { return options_; }
  /// Snapshots discarded by backpressure so far.
  long total_dropped() const { return model_.total_dropped(); }
  /// Steps whose analyses actually ran to completion.
  long executed_steps() const { return executed_steps_; }

 private:
  struct JobResult {
    double finish = 0.0;  // agreed analysis-plane finish time
    bool keep_running = true;
    Status status;
  };
  /// Hand-off cell between the worker thread and the rank. Waiting goes
  /// through exec::WaitSet rather than std::future so that, under the
  /// `mn` scheduler, a rank fiber blocked on its worker *parks* and
  /// releases its carrier — a future wait would pin the carrier while the
  /// worker's analysis-plane barrier waits for ranks that can no longer
  /// be scheduled (deadlock with fewer carriers than ranks).
  struct ResultSlot {
    std::mutex mutex;
    exec::WaitSet ready;
    std::optional<JobResult> value;
  };
  struct Pending {
    exec::MeshSnapshot snapshot;
    double time = 0.0;
    double enqueue = 0.0;
    std::shared_ptr<ResultSlot> result;
    bool started = false;
    /// Cached once the worker's result is collected; the overlap model may
    /// ask for a released job's finish time more than once.
    std::optional<JobResult> resolved;
  };

  comm::OverlapQueueModel::Hooks hooks();
  void start_job(long step);
  double resolve_job(long step);
  void drop_job(long step);
  static JobResult await_result(ResultSlot& slot);

  comm::Communicator* comm_;
  AsyncBridgeOptions options_;
  std::vector<AnalysisAdaptorPtr> analyses_;
  BridgeTimings timings_;
  comm::OverlapQueueModel model_;
  bool initialized_ = false;

  // ---- analysis plane ----
  comm::VirtualClock worker_clock_;
  pal::Rng base_worker_rng_;  // per-job streams split off per step
  pal::Rng worker_rng_;
  std::optional<comm::Communicator> worker_comm_;
  std::unique_ptr<exec::TaskPool> pool_;  // one worker per rank
  std::map<long, Pending> pending_;
  std::unique_ptr<obs::TraceRecorder> worker_trace_;
  pal::RankLocal worker_local_;  // installed by every worker job

  long executed_steps_ = 0;
  bool stop_requested_ = false;
  Status first_error_;
};

}  // namespace insitu::core
