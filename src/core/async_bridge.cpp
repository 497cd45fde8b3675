#include "core/async_bridge.hpp"

#include <cstdint>
#include <utility>

#include "core/staged_adaptor.hpp"
#include "obs/metrics.hpp"

namespace insitu::core {

namespace {

double worker_virtual_now(const void* clock) {
  return static_cast<const comm::VirtualClock*>(clock)->now();
}

}  // namespace

AsyncBridge::AsyncBridge(comm::Communicator* comm, AsyncBridgeOptions options)
    : comm_(comm),
      options_(options),
      model_(options.policy, options.queue_depth) {}

AsyncBridge::~AsyncBridge() {
  if (pool_ != nullptr) pool_->shutdown();
}

Status AsyncBridge::initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("bridge already initialized");
  }
  obs::TraceScope span(obs::Category::kBridge, "bridge.initialize");
  const double start = comm_->clock().now();

  // Analysis plane: a split gives the worker collectives their own
  // rendezvous state; sibling() rebinds them to the worker-owned clock and
  // rng so overlapped analyses never advance simulation time.
  base_worker_rng_ = comm_->rng().split(0x776f726bULL);  // "work"
  worker_rng_ = base_worker_rng_;
  worker_comm_.emplace(
      comm_->split(0, comm_->rank()).sibling(&worker_clock_, &worker_rng_));

  for (const auto& analysis : analyses_) {
    obs::TraceScope backend_span(obs::Category::kBackend,
                                 "backend.initialize:" + analysis->name());
    const double t0 = comm_->clock().now();
    INSITU_RETURN_IF_ERROR(analysis->initialize(*comm_));
    obs::metrics()
        .histogram("backend.initialize.seconds",
                   {{"backend", analysis->name()}})
        .record(comm_->clock().now() - t0);
  }

  // The analysis timeline cannot begin before setup completed.
  worker_clock_.observe(comm_->clock().now());

  // Copied from the rank's block: the worker charges this rank's memory
  // tracker, allocates through the rank's (possibly tenant-partitioned)
  // buffer pool, logs under its rank, and records spans on the rank's
  // worker track against the worker clock.
  worker_local_ = pal::rank_local();
  // Resolved here: with no block installed, the rank thread's own tracker.
  worker_local_.tracker = &pal::rank_memory_tracker();
  if (obs::tracer() != nullptr) {
    worker_trace_ = std::make_unique<obs::TraceRecorder>(
        obs::tracer()->rank() + obs::kWorkerTrackOffset,
        obs::tracer()->epoch());
  }
  worker_local_.trace = worker_trace_.get();
  worker_local_.virtual_now_fn = worker_virtual_now;
  worker_local_.virtual_clock = &worker_clock_;
  // The copy was taken inside the bridge.initialize span; the worker
  // track is its own span forest, so nesting restarts at zero.
  worker_local_.span_depth = 0;

  pool_ = std::make_unique<exec::TaskPool>(1);

  timings_.initialize_seconds = comm_->clock().now() - start;
  obs::metrics()
      .histogram("bridge.initialize.seconds")
      .record(timings_.initialize_seconds);
  initialized_ = true;
  return Status::Ok();
}

comm::OverlapQueueModel::Hooks AsyncBridge::hooks() {
  comm::OverlapQueueModel::Hooks h;
  h.start = [this](long step) { start_job(step); };
  h.finish = [this](long step) { return resolve_job(step); };
  h.drop = [this](long step) { drop_job(step); };
  return h;
}

void AsyncBridge::start_job(long step) {
  auto it = pending_.find(step);
  if (it == pending_.end() || it->second.started) return;
  Pending& p = it->second;
  p.started = true;
  const double time = p.time;
  const double enq = p.enqueue;
  p.result = std::make_shared<ResultSlot>();
  // The slot is captured by value: it outlives a pending_ erase, so the
  // worker can always deliver even if the entry is dropped meanwhile.
  (void)pool_->submit(
      [this, slot = p.result, mesh = std::move(p.snapshot.mesh), time, step,
       enq]() mutable {
        pal::ScopedRankLocal install(&worker_local_);
        // Step-keyed stream: a job's randomness does not depend on how
        // many jobs ran before it, so drop policies cannot perturb the
        // steps that do execute.
        worker_rng_ = base_worker_rng_.split(static_cast<std::uint64_t>(step) +
                                             1);
        worker_clock_.observe(enq);

        JobResult out;
        obs::TraceScope job_span(obs::Category::kBridge, "exec.job");
        job_span.arg("step", static_cast<double>(step));

        StagedDataAdaptor staged(std::move(mesh));
        staged.set_time(time, step);
        staged.set_communicator(&*worker_comm_);
        for (const auto& analysis : analyses_) {
          obs::TraceScope backend_span(obs::Category::kBackend,
                                       "backend.execute:" + analysis->name());
          const double t0 = worker_clock_.now();
          StatusOr<bool> cont = analysis->execute(staged);
          if (!cont.ok()) {
            if (out.status.ok()) out.status = cont.status();
          } else {
            out.keep_running = out.keep_running && *cont;
          }
          obs::metrics()
              .histogram("backend.execute.seconds",
                         {{"backend", analysis->name()}})
              .record(worker_clock_.now() - t0);
        }
        const Status released = staged.release_data();
        if (out.status.ok() && !released.ok()) out.status = released;
        // Retire the snapshot here, while the rank's tracker is adopted:
        // recycle hands the deep-copied buffers straight back to the pool
        // so the next step's snapshot reuses them.
        if (StatusOr<data::MultiBlockPtr> staged_mesh = staged.mesh(false);
            staged_mesh.ok()) {
          exec::recycle_mesh(**staged_mesh);
        }
        staged.set_mesh(nullptr);
        // Agree on the finish time even when an analysis failed, so the
        // ranks stay collectively aligned on the analysis plane.
        worker_comm_->barrier();
        out.finish = worker_clock_.now();
        std::lock_guard<std::mutex> lock(slot->mutex);
        slot->value = std::move(out);
        slot->ready.notify_all();
      });
}

AsyncBridge::JobResult AsyncBridge::await_result(ResultSlot& slot) {
  std::unique_lock<std::mutex> lock(slot.mutex);
  slot.ready.wait(lock, [&slot] { return slot.value.has_value(); });
  return std::move(*slot.value);
}

double AsyncBridge::resolve_job(long step) {
  auto it = pending_.find(step);
  if (it == pending_.end() || !it->second.started) return 0.0;
  Pending& p = it->second;
  if (!p.resolved.has_value()) {
    p.resolved = await_result(*p.result);
    ++executed_steps_;
    if (!p.resolved->keep_running) stop_requested_ = true;
    if (first_error_.ok() && !p.resolved->status.ok()) {
      first_error_ = p.resolved->status;
    }
  }
  return p.resolved->finish;
}

void AsyncBridge::drop_job(long step) {
  // Erasing releases the snapshot's deep copies on the rank's tracker.
  pending_.erase(step);
  obs::metrics().counter("bridge.dropped_steps").add(1);
}

StatusOr<bool> AsyncBridge::execute(DataAdaptor& adaptor, double time,
                                    long step) {
  if (!initialized_) {
    return Status::FailedPrecondition("bridge not initialized");
  }
  if (!first_error_.ok()) return first_error_;
  adaptor.set_communicator(comm_);
  adaptor.set_time(time, step);

  obs::TraceScope span(obs::Category::kBridge, "bridge.execute");
  span.arg("step", static_cast<double>(step));
  const double start = comm_->clock().now();

  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh, adaptor.full_mesh());
  INSITU_ASSIGN_OR_RETURN(exec::MeshSnapshot snap, exec::snapshot_mesh(*mesh));
  comm_->clock().advance(comm_->machine().memcpy_time(snap.copied_bytes));
  obs::metrics()
      .counter("bridge.snapshot.bytes")
      .add(static_cast<std::int64_t>(snap.copied_bytes));
  INSITU_RETURN_IF_ERROR(adaptor.release_data());

  // Agree on the hand-off time so every rank's overlap model replays the
  // identical admit/drop/stall schedule.
  comm_->barrier();
  const double enq = comm_->clock().now();

  Pending pending;
  pending.snapshot = std::move(snap);
  pending.time = time;
  pending.enqueue = enq;
  pending_.emplace(step, std::move(pending));

  const comm::OverlapQueueModel::Admission adm =
      model_.submit(step, enq, hooks());
  if (!adm.admitted) {
    // The incoming snapshot itself was refused (queue of one, running).
    pending_.erase(step);
    obs::metrics().counter("bridge.dropped_steps").add(1);
  }
  // A kBlock stall is simulation-visible time.
  if (adm.enqueue_time > enq) comm_->clock().observe(adm.enqueue_time);
  obs::metrics()
      .gauge("bridge.queue.depth")
      .set(static_cast<double>(model_.outstanding()));

  const double elapsed = comm_->clock().now() - start;
  timings_.analysis_per_step.add(elapsed);
  obs::metrics().histogram("bridge.execute.seconds").record(elapsed);
  return !stop_requested_;
}

Status AsyncBridge::finalize() {
  if (!initialized_) {
    return Status::FailedPrecondition("bridge not initialized");
  }
  obs::TraceScope span(obs::Category::kBridge, "bridge.finalize");
  const double start = comm_->clock().now();

  // Agree on when the drain begins; analysis finalize starts no earlier.
  comm_->barrier();
  const double drain_start = comm_->clock().now();

  for (const long step : model_.drain(hooks())) resolve_job(step);

  // One-time analysis finalize on the analysis plane (it may reduce
  // whole-run state, e.g. a final gather).
  auto fin = std::make_shared<ResultSlot>();
  (void)pool_->submit([this, fin, drain_start] {
    pal::ScopedRankLocal install(&worker_local_);
    worker_clock_.observe(drain_start);
    JobResult out;
    for (const auto& analysis : analyses_) {
      obs::TraceScope backend_span(obs::Category::kBackend,
                                   "backend.finalize:" + analysis->name());
      const double t0 = worker_clock_.now();
      const Status st = analysis->finalize(*worker_comm_);
      if (out.status.ok() && !st.ok()) out.status = st;
      obs::metrics()
          .histogram("backend.finalize.seconds",
                     {{"backend", analysis->name()}})
          .record(worker_clock_.now() - t0);
    }
    worker_comm_->barrier();
    out.finish = worker_clock_.now();
    std::lock_guard<std::mutex> lock(fin->mutex);
    fin->value = std::move(out);
    fin->ready.notify_all();
  });
  const JobResult fin_result = await_result(*fin);
  if (first_error_.ok() && !fin_result.status.ok()) {
    first_error_ = fin_result.status;
  }

  // Join the planes: end-to-end = max(simulation, analysis drain).
  comm_->clock().observe(fin_result.finish);

  pool_->shutdown();
  pool_.reset();
  pending_.clear();
  if (worker_trace_ != nullptr && obs::tracer() != nullptr) {
    obs::tracer()->absorb(worker_trace_->take_events());
  }
  obs::metrics().gauge("bridge.queue.depth").set(0.0);

  timings_.finalize_seconds = comm_->clock().now() - start;
  obs::metrics()
      .histogram("bridge.finalize.seconds")
      .record(timings_.finalize_seconds);
  initialized_ = false;
  return first_error_;
}

}  // namespace insitu::core
