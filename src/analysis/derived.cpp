#include "analysis/derived.hpp"

#include <cmath>

#include "kernels/kernels.hpp"

namespace insitu::analysis {

StatusOr<data::DataArrayPtr> velocity_magnitude(
    const data::DataArray& velocity, const std::string& output_name) {
  if (velocity.num_components() != 3) {
    return Status::InvalidArgument(
        "velocity_magnitude: expected 3 components, got " +
        std::to_string(velocity.num_components()));
  }
  const std::int64_t n = velocity.num_tuples();
  data::DataArrayPtr out = data::DataArray::create<double>(output_name, n, 1);
  double* dst = out->component_base<double>(0);
  if (velocity.type() == data::DataType::kFloat64) {
    // Any layout (AoS, SoA, strided) via the per-component strides.
    kernels::magnitude3(velocity.component_base<double>(0),
                        velocity.component_stride(0),
                        velocity.component_base<double>(1),
                        velocity.component_stride(1),
                        velocity.component_base<double>(2),
                        velocity.component_stride(2), n, dst);
    return out;
  }
  std::vector<double> u(static_cast<std::size_t>(n));
  std::vector<double> v(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    u[static_cast<std::size_t>(i)] = velocity.get(i, 0);
    v[static_cast<std::size_t>(i)] = velocity.get(i, 1);
    w[static_cast<std::size_t>(i)] = velocity.get(i, 2);
  }
  kernels::magnitude3(u.data(), 1, v.data(), 1, w.data(), 1, n, dst);
  return out;
}

StatusOr<data::DataArrayPtr> vorticity_magnitude(
    const data::ImageData& grid, const data::DataArray& velocity,
    const std::string& output_name) {
  if (velocity.num_components() != 3) {
    return Status::InvalidArgument(
        "vorticity_magnitude: expected 3 components");
  }
  if (velocity.num_tuples() != grid.num_points()) {
    return Status::InvalidArgument(
        "vorticity_magnitude: velocity must be per-point");
  }

  const std::int64_t nx = grid.point_dim(0);
  const std::int64_t ny = grid.point_dim(1);
  const std::int64_t nz = grid.point_dim(2);
  const data::Vec3 h = grid.spacing();
  data::DataArrayPtr out =
      data::DataArray::create<double>(output_name, grid.num_points(), 1);
  double* dst = out->component_base<double>(0);

  // d(component c)/d(axis), central where possible, one-sided at edges.
  auto derivative = [&](std::int64_t i, std::int64_t j, std::int64_t k,
                        int component, int axis) {
    std::int64_t lo_i = i, hi_i = i, lo_j = j, hi_j = j, lo_k = k, hi_k = k;
    const std::int64_t dim = axis == 0 ? nx : axis == 1 ? ny : nz;
    std::int64_t& lo = axis == 0 ? lo_i : axis == 1 ? lo_j : lo_k;
    std::int64_t& hi = axis == 0 ? hi_i : axis == 1 ? hi_j : hi_k;
    if (lo > 0) --lo;
    if (hi < dim - 1) ++hi;
    const double span =
        (axis == 0 ? h.x : axis == 1 ? h.y : h.z) * static_cast<double>(hi - lo);
    if (span == 0.0) return 0.0;
    const double f_hi = velocity.get(grid.point_id(hi_i, hi_j, hi_k), component);
    const double f_lo = velocity.get(grid.point_id(lo_i, lo_j, lo_k), component);
    return (f_hi - f_lo) / span;
  };

  for (std::int64_t k = 0; k < nz; ++k) {
    for (std::int64_t j = 0; j < ny; ++j) {
      for (std::int64_t i = 0; i < nx; ++i) {
        const double wx = derivative(i, j, k, 2, 1) - derivative(i, j, k, 1, 2);
        const double wy = derivative(i, j, k, 0, 2) - derivative(i, j, k, 2, 0);
        const double wz = derivative(i, j, k, 1, 0) - derivative(i, j, k, 0, 1);
        dst[grid.point_id(i, j, k)] = std::sqrt(wx * wx + wy * wy + wz * wz);
      }
    }
  }
  return out;
}

StatusOr<data::DataArrayPtr> cell_data_to_point_data(
    const data::DataSet& dataset, const data::DataArray& cell_array,
    const std::string& output_name) {
  if (cell_array.num_tuples() != dataset.num_cells()) {
    return Status::InvalidArgument(
        "cell_data_to_point_data: array is not per-cell");
  }
  const int ncomp = cell_array.num_components();
  data::DataArrayPtr out = data::DataArray::create<double>(
      output_name, dataset.num_points(), ncomp);
  std::vector<double> weight(static_cast<std::size_t>(dataset.num_points()),
                             0.0);
  std::vector<std::int64_t> cell_points;
  const std::int64_t ncells = dataset.num_cells();
  for (std::int64_t c = 0; c < ncells; ++c) {
    if (dataset.is_ghost_cell(c)) continue;
    dataset.cell_points(c, cell_points);
    for (const std::int64_t p : cell_points) {
      weight[static_cast<std::size_t>(p)] += 1.0;
      for (int comp = 0; comp < ncomp; ++comp) {
        out->set(p, comp, out->get(p, comp) + cell_array.get(c, comp));
      }
    }
  }
  const std::int64_t npoints = dataset.num_points();
  for (std::int64_t p = 0; p < npoints; ++p) {
    const double w = weight[static_cast<std::size_t>(p)];
    if (w > 0.0) {
      for (int comp = 0; comp < ncomp; ++comp) {
        out->set(p, comp, out->get(p, comp) / w);
      }
    }
  }
  return out;
}

}  // namespace insitu::analysis
