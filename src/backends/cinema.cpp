#include "backends/cinema.hpp"

#include "obs/trace.hpp"

#include <cmath>
#include <sstream>

#include "analysis/contour.hpp"
#include "analysis/derived.hpp"
#include "io/block_io.hpp"
#include "render/compositor.hpp"
#include "render/png.hpp"
#include "render/rasterizer.hpp"

namespace insitu::backends {

Status CinemaExtract::initialize(comm::Communicator& comm) {
  if (config_.camera_phi < 1 || config_.camera_theta < 1) {
    return Status::InvalidArgument("cinema: camera counts must be >= 1");
  }
  if (config_.iso_fraction <= 0.0 || config_.iso_fraction >= 1.0) {
    return Status::InvalidArgument("cinema: iso_fraction must be in (0,1)");
  }
  comm.advance_compute(1e-3);
  return Status::Ok();
}

StatusOr<bool> CinemaExtract::execute(core::DataAdaptor& data) {
  comm::Communicator& comm = *data.communicator();
  if (data.time_step() % config_.every_n_steps != 0) return true;
  obs::TraceScope span(obs::Category::kBackend, "cinema.extract");

  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(
      data.add_array(*mesh, config_.association, config_.array));

  // Global bounds + global field range (two small allreduces).
  const data::Bounds local = mesh->local_bounds();
  std::array<double, 4> lo = {local.lo.x, local.lo.y, local.lo.z,
                              std::numeric_limits<double>::max()};
  std::array<double, 4> hi = {local.hi.x, local.hi.y, local.hi.z,
                              std::numeric_limits<double>::lowest()};
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataArrayPtr values =
        mesh->block(b)->fields(config_.association).get(config_.array);
    if (values == nullptr || values->num_tuples() == 0) continue;
    const auto [vlo, vhi] = values->range();
    lo[3] = std::min(lo[3], vlo);
    hi[3] = std::max(hi[3], vhi);
  }
  comm.allreduce(std::span<double>(lo), comm::ReduceOp::kMin);
  comm.allreduce(std::span<double>(hi), comm::ReduceOp::kMax);
  data::Bounds global;
  global.expand({lo[0], lo[1], lo[2]});
  global.expand({hi[0], hi[1], hi[2]});
  const double isovalue =
      lo[3] + config_.iso_fraction * (hi[3] - lo[3]);

  // Extract the isosurface once per step (per-point data required).
  analysis::TriangleMesh geometry;
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh->block(b);
    std::string array = config_.array;
    if (config_.association == data::Association::kCell) {
      const std::string point_name = config_.array + "_point";
      if (!block.point_fields().has(point_name)) {
        INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr cells,
                                block.cell_fields().require(config_.array));
        INSITU_ASSIGN_OR_RETURN(
            data::DataArrayPtr points,
            analysis::cell_data_to_point_data(block, *cells, point_name));
        const_cast<data::DataSet&>(block).point_fields().add(points);
      }
      array = point_name;
    }
    INSITU_ASSIGN_OR_RETURN(analysis::TriangleMesh part,
                            analysis::isosurface(block, array, isovalue));
    geometry.append(part);
    comm.advance_compute(comm.machine().compute_time(
        static_cast<std::uint64_t>(block.num_cells()), 3.0));
  }

  // Camera sweep: phi around the vertical axis, theta above the horizon.
  const data::Vec3 center = global.center();
  const data::Vec3 ext = global.extent();
  const double radius = 0.5 * std::max({ext.x, ext.y, ext.z, 1e-9});
  for (int ti = 0; ti < config_.camera_theta; ++ti) {
    const double theta =
        (ti + 1) * (M_PI / 2.0) / (config_.camera_theta + 1);
    for (int pi = 0; pi < config_.camera_phi; ++pi) {
      const double phi = 2.0 * M_PI * pi / config_.camera_phi;
      const data::Vec3 eye =
          center + data::Vec3{std::cos(phi) * std::cos(theta),
                              std::sin(theta),
                              std::sin(phi) * std::cos(theta)} *
                       (3.5 * radius);
      render::RenderConfig rc;
      rc.width = config_.image_width;
      rc.height = config_.image_height;
      rc.camera = render::Camera::look_at(eye, center, {0, 1, 0});
      rc.camera.set_ortho_half_height(1.3 * radius);
      rc.colormap =
          render::ColorMap::by_name(config_.colormap, lo[3], hi[3]);
      render::Image composited = render::composite_tree(
          comm, render::render_local(comm, geometry, rc));
      if (comm.rank() == 0) {
        const std::uint64_t raw =
            static_cast<std::uint64_t>(composited.num_pixels()) * 4;
        comm.advance_compute(config_.compress_png
                                 ? comm.machine().compress_time(raw)
                                 : comm.machine().memcpy_time(raw));
        if (!config_.output_directory.empty()) {
          char name[96];
          std::snprintf(name, sizeof name, "/step_%06ld_phi%02d_theta%02d.png",
                        data.time_step(), pi, ti);
          INSITU_RETURN_IF_ERROR(render::png::write_file(
              config_.output_directory + name, composited,
              {.compress = config_.compress_png}));
        }
        last_hash_ = composited.color_hash();
        ++images_;
      }
    }
  }
  if (comm.rank() == 0) steps_.push_back(data.time_step());
  return true;
}

std::string CinemaExtract::index_text() const {
  std::ostringstream out;
  out << "# cinema-like image database index\n";
  out << "pattern = step_{step:06d}_phi{phi:02d}_theta{theta:02d}.png\n";
  out << "phi = " << config_.camera_phi << "\n";
  out << "theta = " << config_.camera_theta << "\n";
  out << "array = " << config_.array << "\n";
  out << "iso_fraction = " << config_.iso_fraction << "\n";
  out << "steps =";
  for (const long s : steps_) out << " " << s;
  out << "\n";
  return out.str();
}

Status CinemaExtract::finalize(comm::Communicator& comm) {
  if (comm.rank() == 0 && !config_.output_directory.empty()) {
    const std::string text = index_text();
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    INSITU_RETURN_IF_ERROR(
        io::write_file_bytes(config_.output_directory + "/index.cdb", bytes));
  }
  return Status::Ok();
}

}  // namespace insitu::backends
