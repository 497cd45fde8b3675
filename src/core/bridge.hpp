#pragma once

// InSituBridge: "a simple mechanism to assemble the analysis workflow,
// i.e., to initialize the data adaptor and execute selected analysis
// routines" (§3.2).
//
// A typical instrumented simulation:
//   bridge.add_analysis(...);       // during simulation initialization
//   bridge.initialize();
//   for each step:
//     adaptor.update(sim state);    // simulation-specific data adaptor
//     bridge.execute(adaptor, time, step);
//   bridge.finalize();
//
// The bridge also records the paper's timing structure — one-time costs
// (initialize / finalize) and recurring per-step analysis cost — in
// *virtual* seconds, so bench binaries can print Fig 5/6-style rows.

#include <string>
#include <vector>

#include "core/analysis_adaptor.hpp"
#include "core/data_adaptor.hpp"
#include "obs/metrics.hpp"
#include "pal/timer.hpp"

namespace insitu::core {

/// The paper's phase breakdown for one run.
struct BridgeTimings {
  double initialize_seconds = 0.0;       ///< analysis init (one-time)
  double finalize_seconds = 0.0;         ///< finalize (one-time)
  pal::PhaseTimer analysis_per_step;     ///< recurring analysis cost
};

class InSituBridge {
 public:
  explicit InSituBridge(comm::Communicator* comm) : comm_(comm) {}

  void add_analysis(AnalysisAdaptorPtr analysis) {
    analyses_.push_back(std::move(analysis));
    execute_handles_.emplace_back();
  }
  std::size_t num_analyses() const { return analyses_.size(); }

  /// Initialize all registered analyses (one-time cost).
  Status initialize();

  /// Pass the current timestep through every analysis. Returns false if
  /// any analysis requested the simulation stop.
  StatusOr<bool> execute(DataAdaptor& adaptor, double time, long step);

  /// Finalize all analyses (one-time cost).
  Status finalize();

  const BridgeTimings& timings() const { return timings_; }

 private:
  // Per-analysis execute span name and backend.execute.seconds handle,
  // built on the analysis's first successful execute so the per-step
  // path neither concatenates strings nor looks up the registry.
  struct ExecuteHandles {
    std::string span;
    obs::Histogram* seconds = nullptr;
  };

  comm::Communicator* comm_;
  std::vector<AnalysisAdaptorPtr> analyses_;
  std::vector<ExecuteHandles> execute_handles_;
  obs::Histogram* execute_seconds_ = nullptr;  ///< bridge.execute.seconds
  BridgeTimings timings_;
  bool initialized_ = false;
};

}  // namespace insitu::core
