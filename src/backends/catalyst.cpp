#include "backends/catalyst.hpp"

#include <cmath>
#include <optional>

#include "analysis/contour.hpp"
#include "analysis/derived.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace insitu::backends {

std::size_t edition_executable_bytes(CatalystEdition edition) {
  switch (edition) {
    case CatalystEdition::kFull: return 480ull << 20;
    case CatalystEdition::kRenderingBase: return 153ull << 20;  // §4.2.1
    case CatalystEdition::kExtractsOnly: return 60ull << 20;
  }
  return 0;
}

CatalystSlice::CatalystSlice(CatalystSliceConfig config)
    : config_(std::move(config)) {
  render_.width = config_.image_width;
  render_.height = config_.image_height;
  render_.colormap = render::ColorMap::by_name(
      config_.colormap, config_.scalar_min, config_.scalar_max);
}

Status CatalystSlice::initialize(comm::Communicator& comm) {
  // Pipeline construction: cheap and rank-local (Fig 5 shows Catalyst
  // analysis-init as minimal).
  comm.advance_compute(2e-3);
  return Status::Ok();
}

StatusOr<bool> CatalystSlice::execute(core::DataAdaptor& data) {
  comm::Communicator& comm = *data.communicator();
  if (data.time_step() % config_.every_n_steps != 0) return true;
  // One framebuffer per rank: the previous composite's planes go back to
  // the pool now, to come out again as this step's local image.
  last_image_ = render::Image();

  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(
      data.add_array(*mesh, config_.association, config_.array));

  // Global bounds: union of local bounds (needed for camera + slice).
  const data::Bounds local = mesh->local_bounds();
  std::array<double, 3> lo = {local.lo.x, local.lo.y, local.lo.z};
  std::array<double, 3> hi = {local.hi.x, local.hi.y, local.hi.z};
  comm.allreduce(std::span<double>(lo), comm::ReduceOp::kMin);
  comm.allreduce(std::span<double>(hi), comm::ReduceOp::kMax);
  data::Bounds global;
  global.expand({lo[0], lo[1], lo[2]});
  global.expand({hi[0], hi[1], hi[2]});

  double slice_value = config_.value;
  if (std::isnan(slice_value)) {
    const data::Vec3 c = global.center();
    slice_value = config_.axis == 0 ? c.x : config_.axis == 1 ? c.y : c.z;
  }

  CatalystStepCosts costs;
  const double t0 = comm.clock().now();

  // One span per pipeline stage; emplace() closes the previous stage's
  // span before opening the next.
  std::optional<obs::TraceScope> stage;
  stage.emplace(obs::Category::kBackend, "catalyst.extract");

  // Stage 1: ranks whose domains intersect the plane extract + render,
  // into the instance's mesh, which keeps its capacity step to step.
  geometry_.clear();
  std::int64_t scanned_cells = 0;
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh->block(b);
    const data::Bounds bb = block.bounds();
    const double blo = config_.axis == 0   ? bb.lo.x
                       : config_.axis == 1 ? bb.lo.y
                                           : bb.lo.z;
    const double bhi = config_.axis == 0   ? bb.hi.x
                       : config_.axis == 1 ? bb.hi.y
                                           : bb.hi.z;
    if (slice_value < blo || slice_value > bhi) continue;
    std::string slice_array = config_.array;
    if (config_.association == data::Association::kCell) {
      // CellDataToPointData: the rendering path interpolates point data.
      const std::string point_name = config_.array + "_point";
      if (!block.point_fields().has(point_name)) {
        INSITU_ASSIGN_OR_RETURN(
            data::DataArrayPtr cells,
            block.cell_fields().require(config_.array));
        INSITU_ASSIGN_OR_RETURN(
            data::DataArrayPtr points,
            analysis::cell_data_to_point_data(block, *cells, point_name));
        const_cast<data::DataSet&>(block).point_fields().add(points);
        comm.advance_compute(comm.machine().compute_time(
            static_cast<std::uint64_t>(block.num_cells()), 8.0));
      }
      slice_array = point_name;
    }
    INSITU_RETURN_IF_ERROR(analysis::slice_axis(
        block, slice_array, config_.axis, slice_value, geometry_));
    scanned_cells += block.num_cells();
  }
  comm.advance_compute(comm.machine().compute_time(
      static_cast<std::uint64_t>(scanned_cells), /*work_per_cell=*/2.0));
  costs.extract = comm.clock().now() - t0;

  // Stage 1b: local rasterization.
  stage.emplace(obs::Category::kBackend, "catalyst.rasterize");
  const double t1 = comm.clock().now();
  render_.camera = render::default_slice_camera(global, config_.axis);
  render::Image local_image = render::render_local(comm, geometry_, render_);
  costs.rasterize = comm.clock().now() - t1;

  // Stage 2: compositing to rank 0.
  stage.emplace(obs::Category::kBackend, "catalyst.composite");
  const double t2 = comm.clock().now();
  render::Image composite =
      render::composite(comm, std::move(local_image), config_.compositing);
  costs.composite = comm.clock().now() - t2;

  // Stage 3: rank 0 encodes (serial zlib) and writes.
  stage.emplace(obs::Category::kBackend, "catalyst.encode_write");
  const double t3 = comm.clock().now();
  bool keep_running = true;
  if (comm.rank() == 0) {
    const std::uint64_t raw_bytes =
        static_cast<std::uint64_t>(composite.num_pixels()) * 4;
    if (config_.compress_png) {
      comm.advance_compute(comm.machine().compress_time(raw_bytes));
    } else {
      comm.advance_compute(comm.machine().memcpy_time(raw_bytes));
    }
    if (!config_.output_directory.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "/catalyst_%06ld.png",
                    data.time_step());
      INSITU_RETURN_IF_ERROR(render::png::write_file(
          config_.output_directory + name, composite,
          {.compress = config_.compress_png}));
      obs::metrics()
          .counter("io.bytes_written", {{"writer", "png"}})
          .add(static_cast<std::int64_t>(raw_bytes));
    }
    if (live_viewer) keep_running = live_viewer(composite, data.time_step());
    last_image_ = std::move(composite);
    ++images_;
  }
  costs.encode_write = comm.clock().now() - t3;
  stage.reset();
  last_costs_ = costs;

  // Steering decisions propagate to every rank.
  int keep = keep_running ? 1 : 0;
  comm.broadcast_value(keep, 0);
  return keep == 1;
}

}  // namespace insitu::backends
