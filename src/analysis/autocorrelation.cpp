#include "analysis/autocorrelation.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/kernel_view.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {

namespace {

/// Geometric center of element `i` (point: the point; cell: corner mean).
data::Vec3 element_center(const data::DataSet& block,
                          data::Association association, std::int64_t i,
                          std::vector<std::int64_t>& scratch) {
  if (association == data::Association::kPoint) return block.point(i);
  block.cell_points(i, scratch);
  data::Vec3 center;
  for (const std::int64_t p : scratch) center = center + block.point(p);
  return center * (1.0 / static_cast<double>(scratch.size()));
}

}  // namespace

StatusOr<bool> Autocorrelation::execute(core::DataAdaptor& data) {
  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(data.add_array(*mesh, association_, array_));

  if (blocks_.empty()) {
    blocks_.resize(mesh->num_local_blocks());
  } else if (blocks_.size() != mesh->num_local_blocks()) {
    return Status::FailedPrecondition(
        "autocorrelation: block count changed mid-run");
  }

  std::int64_t local_updates = 0;
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh->block(b);
    INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                            block.fields(association_).require(array_));
    BlockState& state = blocks_[b];
    const std::int64_t n = values->num_tuples();
    if (state.values_per_step == 0) {
      state.values_per_step = n;
      const std::size_t slots =
          static_cast<std::size_t>(window_) * static_cast<std::size_t>(n);
      state.history.assign(slots, 0.0);
      state.correlation.assign(slots, 0.0);
      state.tracked = pal::TrackedBytes(2 * slots * sizeof(double));
      state.centers.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        state.centers.push_back(
            element_center(block, association_, i, cell_scratch_));
      }
    } else if (state.values_per_step != n) {
      return Status::FailedPrecondition(
          "autocorrelation: array size changed mid-run");
    }

    // Update running correlations against the circular history, then store
    // the current step into the history slot it displaces. Delay-outer with
    // a fused multiply-accumulate per delay row: each (delay, i) cell still
    // receives exactly one product per step, in unchanged step order, so
    // the running sums stay bit-identical to the element-outer original.
    const int usable_delays =
        static_cast<int>(std::min<long>(window_, steps_));
    const std::size_t un = static_cast<std::size_t>(n);
    const double* now = dense_values(*values, 0, n, value_scratch_);
    for (int delay = 1; delay <= usable_delays; ++delay) {
      const long past_step = steps_ - delay;
      const double* past =
          state.history.data() + static_cast<std::size_t>(past_step % window_) * un;
      double* corr = state.correlation.data() +
                     static_cast<std::size_t>(delay - 1) * un;
      kernels::fma_accumulate(corr, past, now, n);
    }
    std::copy_n(now, un,
                state.history.begin() +
                    static_cast<std::ptrdiff_t>(
                        static_cast<std::size_t>(steps_ % window_) * un));
    local_updates += n * (usable_delays + 1);
  }

  data.communicator()->advance_compute(
      data.communicator()->machine().compute_time(
          static_cast<std::uint64_t>(local_updates)));
  ++steps_;
  return true;
}

Status Autocorrelation::finalize(comm::Communicator& comm) {
  // For each delay: select the local top-k (correlation, position) pairs,
  // gather them to the root, and merge. This is the end-of-run reduction
  // that makes the paper's autocorrelation finalize cost non-negligible
  // (Fig 5's grey bars).
  struct WirePeak {
    double correlation;
    double x, y, z;
  };
  peaks_.assign(static_cast<std::size_t>(window_), {});
  // One candidate buffer for every delay: each delay offers every value.
  std::size_t candidates = 0;
  for (const BlockState& state : blocks_) {
    candidates += static_cast<std::size_t>(state.values_per_step);
  }
  std::vector<WirePeak> local;
  local.reserve(candidates);
  for (int delay = 1; delay <= window_; ++delay) {
    local.clear();
    for (const BlockState& state : blocks_) {
      const std::size_t un = static_cast<std::size_t>(state.values_per_step);
      const std::size_t base = static_cast<std::size_t>(delay - 1) * un;
      for (std::size_t i = 0; i < un; ++i) {
        const double c = state.correlation[base + i];
        local.push_back(WirePeak{c, state.centers[i].x, state.centers[i].y,
                                 state.centers[i].z});
      }
    }
    const std::size_t keep =
        std::min<std::size_t>(static_cast<std::size_t>(top_k_), local.size());
    std::partial_sort(local.begin(), local.begin() + static_cast<std::ptrdiff_t>(keep),
                      local.end(), [](const WirePeak& a, const WirePeak& b) {
                        return a.correlation > b.correlation;
                      });
    local.resize(keep);
    comm.advance_compute(comm.machine().compute_time(
        static_cast<std::uint64_t>(local.size() + 1)));

    auto gathered =
        comm.gatherv(std::span<const WirePeak>(local), /*root=*/0);
    if (comm.rank() == 0) {
      std::vector<WirePeak> all;
      for (const auto& chunk : gathered) {
        all.insert(all.end(), chunk.begin(), chunk.end());
      }
      const std::size_t final_keep =
          std::min<std::size_t>(static_cast<std::size_t>(top_k_), all.size());
      std::partial_sort(all.begin(),
                        all.begin() + static_cast<std::ptrdiff_t>(final_keep),
                        all.end(), [](const WirePeak& a, const WirePeak& b) {
                          return a.correlation > b.correlation;
                        });
      auto& out = peaks_[static_cast<std::size_t>(delay - 1)];
      for (std::size_t i = 0; i < final_keep; ++i) {
        out.push_back(Peak{all[i].correlation,
                           data::Vec3{all[i].x, all[i].y, all[i].z}});
      }
    }
  }
  return Status::Ok();
}

std::size_t Autocorrelation::buffer_bytes() const {
  std::size_t total = 0;
  for (const BlockState& state : blocks_) total += state.tracked.bytes();
  return total;
}

}  // namespace insitu::analysis
