#pragma once

// Histogram analysis (§3.3):
//
// "At any given time step, the processes perform two reductions to
//  determine the minimum and maximum values on the grid. Each processor
//  divides the range into the prescribed number of bins and fills the
//  histogram of its local data. The histograms are reduced to the root
//  process. The only extra storage required is proportional to the number
//  of bins in the histogram."

#include <cstdint>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/analysis_adaptor.hpp"
#include "data/multiblock.hpp"

namespace insitu::analysis {

struct HistogramResult {
  double min = 0.0;
  double max = 0.0;
  std::vector<std::int64_t> bins;  ///< populated on the root rank only

  /// Total count across bins (root only).
  std::int64_t total() const;
};

/// Reusable scratch for compute_histogram. Keeping one of these per
/// analysis makes the steady-state step reallocation-free: the bins, the
/// densified values and the ghost mask reuse the capacity grown on the
/// first step.
struct HistogramScratch {
  std::vector<std::int64_t> local_bins;
  std::vector<double> gather;      ///< densified values (non-f64 layouts)
  std::vector<std::uint8_t> skip;  ///< ghost mask fed to the kernels
};

/// Distributed histogram of the named array. Ghost-flagged cells are
/// excluded for cell arrays. Collective over `comm`; the returned bins are
/// populated on rank 0. Virtual clock is charged with the modeled binning
/// cost, on top of the real collective costs. `scratch` (optional) lets
/// repeated calls reuse its buffers.
StatusOr<HistogramResult> compute_histogram(comm::Communicator& comm,
                                            const data::MultiBlockDataSet& mesh,
                                            const std::string& array,
                                            data::Association association,
                                            int num_bins,
                                            HistogramScratch* scratch = nullptr);

/// AnalysisAdaptor wrapper: computes the histogram each step; retains the
/// most recent result (root rank).
class HistogramAnalysis final : public core::AnalysisAdaptor {
 public:
  HistogramAnalysis(std::string array, data::Association association,
                    int num_bins)
      : array_(std::move(array)),
        association_(association),
        num_bins_(num_bins) {}

  std::string name() const override { return "histogram"; }

  StatusOr<bool> execute(core::DataAdaptor& data) override;

  const HistogramResult& last_result() const { return last_; }
  long steps_processed() const { return steps_; }

 private:
  std::string array_;
  data::Association association_;
  int num_bins_;
  HistogramResult last_;
  HistogramScratch scratch_;
  long steps_ = 0;
};

}  // namespace insitu::analysis
