#include "core/bridge.hpp"

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace insitu::core {

Status InSituBridge::initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("bridge already initialized");
  }
  obs::TraceScope span(obs::Category::kBridge, "bridge.initialize");
  const double start = comm_->clock().now();
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
  timings_.initialize_seconds = comm_->clock().now() - start;
  obs::metrics()
      .histogram("bridge.initialize.seconds")
      .record(timings_.initialize_seconds);
  initialized_ = true;
  return Status::Ok();
}

StatusOr<bool> InSituBridge::execute(DataAdaptor& adaptor, double time,
                                     long step) {
  if (!initialized_) {
    return Status::FailedPrecondition("bridge not initialized");
  }
  adaptor.set_communicator(comm_);
  adaptor.set_time(time, step);

  obs::TraceScope span(obs::Category::kBridge, "bridge.execute");
  span.arg("step", static_cast<double>(step));
  const double start = comm_->clock().now();
  bool keep_running = true;
  for (std::size_t i = 0; i < analyses_.size(); ++i) {
    AnalysisAdaptor& analysis = *analyses_[i];
    ExecuteHandles& h = execute_handles_[i];
    if (h.span.empty()) h.span = "backend.execute:" + analysis.name();
    obs::TraceScope backend_span(obs::Category::kBackend, h.span);
    const double t0 = comm_->clock().now();
    INSITU_ASSIGN_OR_RETURN(bool cont, analysis.execute(adaptor));
    if (h.seconds == nullptr) {
      h.seconds = &obs::metrics().histogram("backend.execute.seconds",
                                            {{"backend", analysis.name()}});
    }
    h.seconds->record(comm_->clock().now() - t0);
    keep_running = keep_running && cont;
  }
  INSITU_RETURN_IF_ERROR(adaptor.release_data());
  const double elapsed = comm_->clock().now() - start;
  timings_.analysis_per_step.add(elapsed);
  if (execute_seconds_ == nullptr) {
    execute_seconds_ = &obs::metrics().histogram("bridge.execute.seconds");
  }
  execute_seconds_->record(elapsed);
  return keep_running;
}

Status InSituBridge::finalize() {
  if (!initialized_) {
    return Status::FailedPrecondition("bridge not initialized");
  }
  obs::TraceScope span(obs::Category::kBridge, "bridge.finalize");
  const double start = comm_->clock().now();
  for (const auto& analysis : analyses_) {
    obs::TraceScope backend_span(obs::Category::kBackend,
                                 "backend.finalize:" + analysis->name());
    const double t0 = comm_->clock().now();
    INSITU_RETURN_IF_ERROR(analysis->finalize(*comm_));
    obs::metrics()
        .histogram("backend.finalize.seconds", {{"backend", analysis->name()}})
        .record(comm_->clock().now() - t0);
  }
  timings_.finalize_seconds = comm_->clock().now() - start;
  obs::metrics()
      .histogram("bridge.finalize.seconds")
      .record(timings_.finalize_seconds);
  initialized_ = false;
  return Status::Ok();
}

}  // namespace insitu::core
