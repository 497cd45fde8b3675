#include "analysis/histogram.hpp"

#include <algorithm>
#include <limits>

#include "analysis/kernel_view.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {

std::int64_t HistogramResult::total() const {
  std::int64_t n = 0;
  for (const std::int64_t b : bins) n += b;
  return n;
}

StatusOr<HistogramResult> compute_histogram(
    comm::Communicator& comm, const data::MultiBlockDataSet& mesh,
    const std::string& array, data::Association association, int num_bins,
    HistogramScratch* scratch) {
  if (num_bins <= 0) {
    return Status::InvalidArgument("histogram needs num_bins > 0");
  }
  HistogramScratch call_scratch;  // one-shot callers get fresh buffers
  HistogramScratch& s = scratch != nullptr ? *scratch : call_scratch;

  // Pass 1: local min/max over all blocks, one fused moments reduction
  // per block. Dense float64 arrays feed the kernel zero-copy; other
  // layouts gather through the generic accessor into the block-sized
  // scratch.
  double local_min = std::numeric_limits<double>::max();
  double local_max = std::numeric_limits<double>::lowest();
  std::int64_t local_values = 0;
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh.block(b);
    const data::DataArrayPtr values = block.fields(association).get(array);
    if (values == nullptr || values->num_tuples() == 0) continue;
    const std::int64_t n = values->num_tuples();
    const kernels::Moments m = kernels::reduce_moments(
        dense_values(*values, 0, n, s.gather), n,
        ghost_skip(block, association, n, s.skip));
    local_min = std::min(local_min, m.min);
    local_max = std::max(local_max, m.max);
    local_values += m.count;
  }

  // The two global reductions the paper describes.
  const double global_min = comm.allreduce_value(local_min, comm::ReduceOp::kMin);
  const double global_max = comm.allreduce_value(local_max, comm::ReduceOp::kMax);

  HistogramResult result;
  result.min = global_min;
  result.max = global_max;

  // Pass 2: local binning; histogram_bin accumulates into local_bins.
  // Charge the modeled per-value cost; two sweeps (range + binning) at
  // roughly one update each.
  std::vector<std::int64_t>& local_bins = s.local_bins;
  local_bins.assign(static_cast<std::size_t>(num_bins), 0);
  const double width =
      global_max > global_min ? (global_max - global_min) : 1.0;
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh.block(b);
    const data::DataArrayPtr values = block.fields(association).get(array);
    if (values == nullptr || values->num_tuples() == 0) continue;
    const std::int64_t n = values->num_tuples();
    kernels::histogram_bin(dense_values(*values, 0, n, s.gather), n,
                           ghost_skip(block, association, n, s.skip),
                           global_min, width, num_bins, local_bins.data());
  }
  comm.advance_compute(
      comm.machine().compute_time(static_cast<std::uint64_t>(2 * local_values)));

  // Final reduce of the bin counts to the root.
  result.bins.assign(static_cast<std::size_t>(num_bins), 0);
  comm.reduce(std::span<const std::int64_t>(local_bins),
              std::span<std::int64_t>(result.bins), comm::ReduceOp::kSum, 0);
  if (comm.rank() != 0) result.bins.clear();
  return result;
}

StatusOr<bool> HistogramAnalysis::execute(core::DataAdaptor& data) {
  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(data.add_array(*mesh, association_, array_));
  INSITU_ASSIGN_OR_RETURN(
      HistogramResult result,
      compute_histogram(*data.communicator(), *mesh, array_, association_,
                        num_bins_, &scratch_));
  last_ = std::move(result);
  ++steps_;
  return true;
}

}  // namespace insitu::analysis
