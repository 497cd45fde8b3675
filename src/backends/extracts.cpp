#include "backends/extracts.hpp"

#include "obs/trace.hpp"

#include <cstring>

#include "analysis/contour.hpp"
#include "io/block_io.hpp"

namespace insitu::backends {

std::vector<std::byte> serialize_mesh(const analysis::TriangleMesh& mesh) {
  std::vector<std::byte> out;
  auto append = [&out](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const std::byte*>(data);
    out.insert(out.end(), p, p + bytes);
  };
  const std::int64_t nv = static_cast<std::int64_t>(mesh.vertices.size());
  const std::int64_t nt = static_cast<std::int64_t>(mesh.triangles.size());
  append(&nv, sizeof nv);
  append(&nt, sizeof nt);
  append(mesh.vertices.data(), mesh.vertices.size() * sizeof(data::Vec3));
  append(mesh.scalars.data(), mesh.scalars.size() * sizeof(double));
  append(mesh.triangles.data(),
         mesh.triangles.size() * sizeof(std::array<std::int32_t, 3>));
  return out;
}

StatusOr<analysis::TriangleMesh> deserialize_mesh(
    std::span<const std::byte> bytes) {
  std::int64_t nv = 0, nt = 0;
  if (bytes.size() < sizeof nv + sizeof nt) {
    return Status::OutOfRange("extract: truncated header");
  }
  std::memcpy(&nv, bytes.data(), sizeof nv);
  std::memcpy(&nt, bytes.data() + sizeof nv, sizeof nt);
  if (nv < 0 || nt < 0) {
    return Status::InvalidArgument("extract: negative counts");
  }
  const std::size_t expected =
      sizeof nv + sizeof nt +
      static_cast<std::size_t>(nv) * (sizeof(data::Vec3) + sizeof(double)) +
      static_cast<std::size_t>(nt) * sizeof(std::array<std::int32_t, 3>);
  if (bytes.size() != expected) {
    return Status::OutOfRange("extract: size mismatch");
  }
  analysis::TriangleMesh mesh;
  std::size_t offset = sizeof nv + sizeof nt;
  // An empty section skips its memcpy: an empty vector's data() may be
  // null, and memcpy requires valid pointers even for zero bytes.
  const auto read_section = [&](auto& out, std::size_t count) {
    out.resize(count);
    const std::size_t section = count * sizeof(out[0]);
    if (section != 0) std::memcpy(out.data(), bytes.data() + offset, section);
    offset += section;
  };
  read_section(mesh.vertices, static_cast<std::size_t>(nv));
  read_section(mesh.scalars, static_cast<std::size_t>(nv));
  read_section(mesh.triangles, static_cast<std::size_t>(nt));
  // Validate indices.
  for (const auto& tri : mesh.triangles) {
    for (const std::int32_t v : tri) {
      if (v < 0 || v >= nv) {
        return Status::InvalidArgument("extract: bad triangle index");
      }
    }
  }
  return mesh;
}

StatusOr<bool> ExtractWriter::execute(core::DataAdaptor& data) {
  comm::Communicator& comm = *data.communicator();
  if (data.time_step() % config_.every_n_steps != 0) return true;
  obs::TraceScope span(obs::Category::kBackend, "extracts.write");

  INSITU_ASSIGN_OR_RETURN(data::MultiBlockPtr mesh,
                          data.mesh(/*structure_only=*/false));
  INSITU_RETURN_IF_ERROR(
      data.add_array(*mesh, data::Association::kPoint, config_.array));

  analysis::TriangleMesh local;
  std::uint64_t field_bytes = 0;
  for (std::size_t b = 0; b < mesh->num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh->block(b);
    const data::DataArrayPtr field =
        block.point_fields().get(config_.array);
    if (field != nullptr) field_bytes += field->size_bytes();
    analysis::TriangleMesh part;
    if (config_.kind == ExtractConfig::Kind::kSlice) {
      INSITU_ASSIGN_OR_RETURN(
          part, analysis::slice_axis(block, config_.array, config_.axis,
                                     config_.value));
    } else {
      INSITU_ASSIGN_OR_RETURN(
          part, analysis::isosurface(block, config_.array, config_.value));
    }
    local.append(part);
    comm.advance_compute(comm.machine().compute_time(
        static_cast<std::uint64_t>(block.num_cells()), 3.0));
  }

  // Weld duplicated marching-tet vertices before shipping.
  local.weld(1e-9);
  // Gather extracts to rank 0 (extracts are small, this is cheap).
  const std::vector<std::byte> packed = serialize_mesh(local);
  auto gathered =
      comm.gatherv(std::span<const std::byte>(packed), /*root=*/0);
  std::uint64_t total_field = field_bytes;
  comm.allreduce(std::span<std::uint64_t>(&total_field, 1),
                 comm::ReduceOp::kSum);
  if (comm.rank() == 0) {
    analysis::TriangleMesh global;
    for (const auto& blob : gathered) {
      INSITU_ASSIGN_OR_RETURN(analysis::TriangleMesh part,
                              deserialize_mesh(blob));
      global.append(part);
    }
    const std::vector<std::byte> out = serialize_mesh(global);
    last_triangles_ = static_cast<std::int64_t>(global.num_triangles());
    last_extract_bytes_ = out.size();
    last_field_bytes_ = total_field;
    if (!config_.output_directory.empty()) {
      char name[64];
      std::snprintf(name, sizeof name, "/extract_%06ld.tri",
                    data.time_step());
      INSITU_RETURN_IF_ERROR(
          io::write_file_bytes(config_.output_directory + name, out));
    }
    ++extracts_;
  }
  return true;
}

}  // namespace insitu::backends
