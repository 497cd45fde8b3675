#include "backends/libsim.hpp"

#include <cmath>
#include <optional>

#include "analysis/contour.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pal/config.hpp"
#include "render/png.hpp"

namespace insitu::backends {

StatusOr<LibsimSession> parse_session(const std::string& text) {
  INSITU_ASSIGN_OR_RETURN(pal::Config cfg, pal::Config::from_text(text));
  LibsimSession session;
  session.array = cfg.get_string_or("session.array", session.array);
  session.colormap = cfg.get_string_or("session.colormap", session.colormap);
  session.scalar_min = cfg.get_double_or("session.min", session.scalar_min);
  session.scalar_max = cfg.get_double_or("session.max", session.scalar_max);
  session.image_width =
      static_cast<int>(cfg.get_int_or("session.width", session.image_width));
  session.image_height =
      static_cast<int>(cfg.get_int_or("session.height", session.image_height));

  for (int i = 0;; ++i) {
    const std::string prefix = "plot" + std::to_string(i) + ".";
    if (!cfg.has(prefix + "type")) break;
    LibsimPlot plot;
    INSITU_ASSIGN_OR_RETURN(std::string type, cfg.get_string(prefix + "type"));
    if (type == "slice") {
      plot.type = LibsimPlot::Type::kSlice;
      plot.axis = static_cast<int>(cfg.get_int_or(prefix + "axis", 2));
      if (plot.axis < 0 || plot.axis > 2) {
        return Status::InvalidArgument("libsim session: bad axis in " + prefix);
      }
    } else if (type == "isosurface") {
      plot.type = LibsimPlot::Type::kIsosurface;
    } else {
      return Status::InvalidArgument("libsim session: unknown plot type '" +
                                     type + "'");
    }
    INSITU_ASSIGN_OR_RETURN(plot.value, cfg.get_double(prefix + "value"));
    session.plots.push_back(plot);
  }
  if (session.plots.empty()) {
    return Status::InvalidArgument("libsim session: no plots defined");
  }
  return session;
}

Status LibsimRender::initialize(comm::Communicator& comm) {
  INSITU_ASSIGN_OR_RETURN(session_, parse_session(config_.session_text));
  render_.width = session_.image_width;
  render_.height = session_.image_height;
  render_.colormap = render::ColorMap::by_name(
      session_.colormap, session_.scalar_min, session_.scalar_max);
  // "This overhead currently represents per-rank configuration file
  // checks" (§4.1.3): every rank stats/reads configuration, serialized at
  // the filesystem — cost grows with rank count.
  const double per_rank_check = 75e-6;
  comm.advance_compute(per_rank_check * comm.size());
  return Status::Ok();
}

StatusOr<bool> LibsimRender::execute(core::DataAdaptor& data) {
  comm::Communicator& comm = *data.communicator();
  last_execute_seconds_ = 0.0;
  if (data.time_step() % config_.every_n_steps != 0) return true;
  const double start = comm.clock().now();
  // One framebuffer per rank: the previous composite's planes go back to
  // the pool now, to come out again as this step's local image.
  last_image_ = render::Image();

  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(
      data.add_array(*mesh, data::Association::kPoint, session_.array));

  // Global bounds for the camera.
  const data::Bounds local = mesh->local_bounds();
  std::array<double, 3> lo = {local.lo.x, local.lo.y, local.lo.z};
  std::array<double, 3> hi = {local.hi.x, local.hi.y, local.hi.z};
  comm.allreduce(std::span<double>(lo), comm::ReduceOp::kMin);
  comm.allreduce(std::span<double>(hi), comm::ReduceOp::kMax);
  data::Bounds global;
  global.expand({lo[0], lo[1], lo[2]});
  global.expand({hi[0], hi[1], hi[2]});

  std::optional<obs::TraceScope> stage;
  stage.emplace(obs::Category::kBackend, "libsim.extract");

  // Extract all plots into one triangle soup, which keeps its capacity
  // step to step.
  geometry_.clear();
  std::int64_t scanned_cells = 0;
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh->block(b);
    for (const LibsimPlot& plot : session_.plots) {
      if (plot.type == LibsimPlot::Type::kSlice) {
        INSITU_RETURN_IF_ERROR(analysis::slice_axis(
            block, session_.array, plot.axis, plot.value, geometry_));
      } else {
        INSITU_RETURN_IF_ERROR(analysis::isosurface(
            block, session_.array, plot.value, geometry_));
      }
      scanned_cells += block.num_cells();
    }
  }
  comm.advance_compute(comm.machine().compute_time(
      static_cast<std::uint64_t>(scanned_cells), /*work_per_cell=*/3.0));

  // Render with a slightly oblique view so isosurfaces read as 3D.
  stage.emplace(obs::Category::kBackend, "libsim.rasterize");
  const data::Vec3 center = global.center();
  const data::Vec3 ext = global.extent();
  const double radius = 0.5 * std::max({ext.x, ext.y, ext.z, 1e-9});
  render_.camera = render::Camera::look_at(
      center + data::Vec3{2.5 * radius, 1.8 * radius, 3.2 * radius}, center,
      data::Vec3{0, 1, 0});
  render_.camera.set_ortho_half_height(1.8 * radius);
  render::Image local_image = render::render_local(comm, geometry_, render_);

  // Libsim path: binary-swap compositing.
  stage.emplace(obs::Category::kBackend, "libsim.composite");
  render::Image composite =
      render::composite_binary_swap(comm, std::move(local_image));

  stage.emplace(obs::Category::kBackend, "libsim.encode_write");
  if (comm.rank() == 0) {
    const std::uint64_t raw_bytes =
        static_cast<std::uint64_t>(composite.num_pixels()) * 4;
    comm.advance_compute(config_.compress_png
                             ? comm.machine().compress_time(raw_bytes)
                             : comm.machine().memcpy_time(raw_bytes));
    if (!config_.output_directory.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "/libsim_%06ld.png", data.time_step());
      INSITU_RETURN_IF_ERROR(render::png::write_file(
          config_.output_directory + name, composite,
          {.compress = config_.compress_png}));
      obs::metrics()
          .counter("io.bytes_written", {{"writer", "png"}})
          .add(static_cast<std::int64_t>(raw_bytes));
    }
    last_image_ = std::move(composite);
    ++images_;
  }
  stage.reset();
  last_execute_seconds_ = comm.clock().now() - start;
  return true;
}

}  // namespace insitu::backends
