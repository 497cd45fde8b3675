#include "backends/adios_bp.hpp"

#include <cstring>

#include "data/image_data.hpp"
#include "io/block_io.hpp"

namespace insitu::backends {

namespace {
template <typename T>
void append_value(std::vector<std::byte>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof value);
}

template <typename T>
Status read_value(std::span<const std::byte>& in, T& value) {
  if (in.size() < sizeof value) {
    return Status::OutOfRange("bp: truncated stream");
  }
  std::memcpy(&value, in.data(), sizeof value);
  in = in.subspan(sizeof value);
  return Status::Ok();
}
}  // namespace

std::vector<std::byte> BpIndex::serialize() const {
  std::vector<std::byte> out;
  append_value(out, step);
  append_value(out, num_blocks);
  append_value(out, payload_bytes);
  append_value(out, static_cast<std::int32_t>(array_names.size()));
  for (const std::string& name : array_names) {
    append_value(out, static_cast<std::int32_t>(name.size()));
    const auto* p = reinterpret_cast<const std::byte*>(name.data());
    out.insert(out.end(), p, p + name.size());
  }
  return out;
}

StatusOr<BpIndex> BpIndex::deserialize(std::span<const std::byte> bytes) {
  BpIndex index;
  INSITU_RETURN_IF_ERROR(read_value(bytes, index.step));
  INSITU_RETURN_IF_ERROR(read_value(bytes, index.num_blocks));
  INSITU_RETURN_IF_ERROR(read_value(bytes, index.payload_bytes));
  std::int32_t names = 0;
  INSITU_RETURN_IF_ERROR(read_value(bytes, names));
  for (std::int32_t i = 0; i < names; ++i) {
    std::int32_t len = 0;
    INSITU_RETURN_IF_ERROR(read_value(bytes, len));
    if (bytes.size() < static_cast<std::size_t>(len)) {
      return Status::OutOfRange("bp index: truncated name");
    }
    index.array_names.emplace_back(
        reinterpret_cast<const char*>(bytes.data()),
        static_cast<std::size_t>(len));
    bytes = bytes.subspan(static_cast<std::size_t>(len));
  }
  return index;
}

void bp_serialize_into(const data::MultiBlockDataSet& mesh,
                       std::vector<std::byte>& out) {
  append_value(out, mesh.num_global_blocks());
  append_value(out, static_cast<std::int64_t>(mesh.num_local_blocks()));
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    const auto* img =
        dynamic_cast<const data::ImageData*>(mesh.block(b).get());
    if (img == nullptr) continue;  // only ImageData travels via BP here
    append_value(out, mesh.block_id(b));
    // Frame size is patched in after the fact so the block serializes
    // straight into `out` with no per-block temporary.
    const std::size_t size_pos = out.size();
    append_value(out, std::int64_t{0});
    const auto blob_size =
        static_cast<std::int64_t>(io::serialize_block_into(*img, out));
    std::memcpy(out.data() + size_pos, &blob_size, sizeof blob_size);
  }
}

StatusOr<data::MultiBlockPtr> bp_deserialize(
    std::span<const std::byte> bytes) {
  std::int64_t global_blocks = 0, local_blocks = 0;
  INSITU_RETURN_IF_ERROR(read_value(bytes, global_blocks));
  INSITU_RETURN_IF_ERROR(read_value(bytes, local_blocks));
  auto mesh = std::make_shared<data::MultiBlockDataSet>(global_blocks);
  for (std::int64_t b = 0; b < local_blocks; ++b) {
    std::int64_t id = 0, size = 0;
    INSITU_RETURN_IF_ERROR(read_value(bytes, id));
    INSITU_RETURN_IF_ERROR(read_value(bytes, size));
    if (bytes.size() < static_cast<std::size_t>(size)) {
      return Status::OutOfRange("bp: truncated block payload");
    }
    INSITU_ASSIGN_OR_RETURN(
        data::ImageDataPtr block,
        io::deserialize_block(bytes.subspan(0, static_cast<std::size_t>(size))));
    bytes = bytes.subspan(static_cast<std::size_t>(size));
    mesh->add_block(id, block);
  }
  return mesh;
}

BpIndex bp_index_for(const data::MultiBlockDataSet& mesh, long step) {
  BpIndex index;
  index.step = step;
  index.num_blocks = static_cast<std::int64_t>(mesh.num_local_blocks());
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    const data::DataSet& block = *mesh.block(b);
    index.payload_bytes += block.point_fields().payload_bytes() +
                           block.cell_fields().payload_bytes();
    if (b == 0) {
      index.array_names = block.point_fields().names();
      for (const auto& name : block.cell_fields().names()) {
        index.array_names.push_back(name);
      }
    }
  }
  return index;
}

}  // namespace insitu::backends
