#include "exec/snapshot.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/image_data.hpp"
#include "data/rectilinear_grid.hpp"
#include "data/structured_grid.hpp"
#include "data/unstructured_grid.hpp"

namespace insitu::exec {

namespace {

using data::DataArrayPtr;
using data::DataSetPtr;

// Zero-copy wraps are copied (the simulation will reuse that memory);
// owned arrays are shared: the data model never mutates them in place
// after publication.
DataArrayPtr snap_array(const DataArrayPtr& array, MeshSnapshot* stats) {
  if (array == nullptr) return nullptr;
  if (!array->is_zero_copy()) {
    stats->shared_bytes += array->size_bytes();
    return array;
  }
  stats->copied_bytes += array->size_bytes();
  return array->deep_copy();
}

Status snap_fields(const data::FieldCollection& in, data::FieldCollection& out,
                   MeshSnapshot* stats) {
  // names() iterates the underlying map in key order, so snapshot layout
  // (and therefore downstream byte output) is deterministic.
  for (const std::string& name : in.names()) {
    DataArrayPtr copy = snap_array(in.get(name), stats);
    if (copy == nullptr) {
      return Status::Internal("snapshot: field '" + name + "' vanished");
    }
    out.add(std::move(copy));
  }
  return Status::Ok();
}

StatusOr<DataSetPtr> snap_dataset(const data::DataSet& in,
                                  MeshSnapshot* stats) {
  DataSetPtr out;
  switch (in.kind()) {
    case data::DataSetKind::kImageData: {
      const auto& img = static_cast<const data::ImageData&>(in);
      out = std::make_shared<data::ImageData>(img.box(), img.origin(),
                                              img.spacing());
      break;
    }
    case data::DataSetKind::kRectilinearGrid: {
      const auto& grid = static_cast<const data::RectilinearGrid&>(in);
      out = std::make_shared<data::RectilinearGrid>(
          snap_array(grid.coords_array(0), stats),
          snap_array(grid.coords_array(1), stats),
          snap_array(grid.coords_array(2), stats));
      break;
    }
    case data::DataSetKind::kStructuredGrid: {
      const auto& grid = static_cast<const data::StructuredGrid&>(in);
      out = std::make_shared<data::StructuredGrid>(
          snap_array(grid.points_array(), stats),
          std::array<std::int64_t, 3>{grid.point_dim(0), grid.point_dim(1),
                                      grid.point_dim(2)});
      break;
    }
    case data::DataSetKind::kUnstructuredGrid: {
      const auto& grid = static_cast<const data::UnstructuredGrid&>(in);
      const std::int64_t ncells = grid.num_cells();
      std::vector<data::CellType> types;
      types.reserve(static_cast<std::size_t>(ncells));
      for (std::int64_t c = 0; c < ncells; ++c) {
        types.push_back(grid.cell_type(c));
      }
      out = std::make_shared<data::UnstructuredGrid>(
          snap_array(grid.points_array(), stats), grid.connectivity(),
          grid.offsets(), std::move(types));
      break;
    }
  }
  if (out == nullptr) {
    return Status::Internal("snapshot: unknown dataset kind");
  }
  INSITU_RETURN_IF_ERROR(
      snap_fields(in.point_fields(), out->point_fields(), stats));
  INSITU_RETURN_IF_ERROR(
      snap_fields(in.cell_fields(), out->cell_fields(), stats));
  return out;
}

}  // namespace

StatusOr<MeshSnapshot> snapshot_mesh(const data::MultiBlockDataSet& mesh) {
  MeshSnapshot snapshot;
  snapshot.mesh =
      std::make_shared<data::MultiBlockDataSet>(mesh.num_global_blocks());
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    INSITU_ASSIGN_OR_RETURN(DataSetPtr block,
                            snap_dataset(*mesh.block(b), &snapshot));
    snapshot.mesh->add_block(mesh.block_id(b), std::move(block));
  }
  return snapshot;
}

}  // namespace insitu::exec
