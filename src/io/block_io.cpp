#include "io/block_io.hpp"

#include <cstdio>
#include <cstring>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace insitu::io {

namespace {

constexpr std::uint64_t kMagic = 0x49535654'4B303031ull;  // "ISVTK001"

void append_raw(std::vector<std::byte>& out, const void* data,
                std::size_t bytes) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + bytes);
}

template <typename T>
void append_value(std::vector<std::byte>& out, const T& value) {
  append_raw(out, &value, sizeof value);
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
  Status read(T& value) {
    if (pos_ + sizeof value > data_.size()) {
      return Status::OutOfRange("block_io: truncated stream");
    }
    std::memcpy(&value, data_.data() + pos_, sizeof value);
    pos_ += sizeof value;
    return Status::Ok();
  }

  StatusOr<std::span<const std::byte>> read_span(std::size_t bytes) {
    if (pos_ + bytes > data_.size()) {
      return Status::OutOfRange("block_io: truncated stream");
    }
    auto span = data_.subspan(pos_, bytes);
    pos_ += bytes;
    return span;
  }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

void append_array(std::vector<std::byte>& out, const data::DataArray& array,
                  std::uint8_t association) {
  append_value(out, association);
  append_value(out, static_cast<std::uint8_t>(array.type()));
  append_value(out, static_cast<std::int32_t>(array.num_components()));
  append_value(out, array.num_tuples());
  append_value(out, static_cast<std::int32_t>(array.name().size()));
  append_raw(out, array.name().data(), array.name().size());
  array.append_bytes(out);  // AoS packing straight into the stream
}

}  // namespace

std::size_t serialize_block_into(const data::ImageData& block,
                                 std::vector<std::byte>& out) {
  const std::size_t start = out.size();
  append_value(out, kMagic);
  for (int a = 0; a < 3; ++a) append_value(out, block.box().offset[static_cast<std::size_t>(a)]);
  for (int a = 0; a < 3; ++a) append_value(out, block.box().cells[static_cast<std::size_t>(a)]);
  append_value(out, block.origin());
  append_value(out, block.spacing());
  const auto npoint = static_cast<std::int32_t>(block.point_fields().count());
  const auto ncell = static_cast<std::int32_t>(block.cell_fields().count());
  append_value(out, npoint + ncell);
  for (const auto& name : block.point_fields().names()) {
    append_array(out, *block.point_fields().get(name), /*association=*/0);
  }
  for (const auto& name : block.cell_fields().names()) {
    append_array(out, *block.cell_fields().get(name), /*association=*/1);
  }
  return out.size() - start;
}

StatusOr<data::ImageDataPtr> deserialize_block(
    std::span<const std::byte> bytes) {
  Cursor cursor(bytes);
  std::uint64_t magic = 0;
  INSITU_RETURN_IF_ERROR(cursor.read(magic));
  if (magic != kMagic) {
    return Status::InvalidArgument("block_io: bad magic");
  }
  data::IndexBox box;
  for (int a = 0; a < 3; ++a) {
    INSITU_RETURN_IF_ERROR(cursor.read(box.offset[static_cast<std::size_t>(a)]));
  }
  for (int a = 0; a < 3; ++a) {
    INSITU_RETURN_IF_ERROR(cursor.read(box.cells[static_cast<std::size_t>(a)]));
  }
  data::Vec3 origin, spacing;
  INSITU_RETURN_IF_ERROR(cursor.read(origin));
  INSITU_RETURN_IF_ERROR(cursor.read(spacing));
  auto block = std::make_shared<data::ImageData>(box, origin, spacing);

  std::int32_t num_arrays = 0;
  INSITU_RETURN_IF_ERROR(cursor.read(num_arrays));
  for (std::int32_t i = 0; i < num_arrays; ++i) {
    std::uint8_t association = 0, type_raw = 0;
    std::int32_t components = 0, name_len = 0;
    std::int64_t tuples = 0;
    INSITU_RETURN_IF_ERROR(cursor.read(association));
    INSITU_RETURN_IF_ERROR(cursor.read(type_raw));
    INSITU_RETURN_IF_ERROR(cursor.read(components));
    INSITU_RETURN_IF_ERROR(cursor.read(tuples));
    INSITU_RETURN_IF_ERROR(cursor.read(name_len));
    INSITU_ASSIGN_OR_RETURN(auto name_span,
                            cursor.read_span(static_cast<std::size_t>(name_len)));
    std::string name(reinterpret_cast<const char*>(name_span.data()),
                     name_span.size());
    const auto type = static_cast<data::DataType>(type_raw);
    const std::size_t payload_bytes = static_cast<std::size_t>(tuples) *
                                      static_cast<std::size_t>(components) *
                                      data::size_of(type);
    INSITU_ASSIGN_OR_RETURN(auto payload, cursor.read_span(payload_bytes));
    INSITU_ASSIGN_OR_RETURN(
        data::DataArrayPtr array,
        data::DataArray::from_bytes(std::move(name), type, tuples, components,
                                    payload));
    block->fields(association == 0 ? data::Association::kPoint
                                   : data::Association::kCell)
        .add(array);
  }
  return block;
}

Status write_file_bytes(const std::string& path,
                        std::span<const std::byte> bytes) {
  obs::TraceScope span(obs::Category::kIo, "io.write_file");
  span.arg("bytes", static_cast<double>(bytes.size()));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  obs::metrics()
      .counter("io.bytes_written", {{"writer", "file"}})
      .add(static_cast<std::int64_t>(bytes.size()));
  return Status::Ok();
}

StatusOr<std::vector<std::byte>> read_file_bytes(const std::string& path) {
  std::vector<std::byte> bytes;
  INSITU_RETURN_IF_ERROR(read_file_bytes_into(path, bytes));
  return bytes;
}

Status read_file_bytes_into(const std::string& path,
                            std::vector<std::byte>& out) {
  obs::TraceScope span(obs::Category::kIo, "io.read_file");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out.clear();
  out.resize(static_cast<std::size_t>(size));
  const std::size_t got = std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return Status::Internal("short read from '" + path + "'");
  }
  span.arg("bytes", static_cast<double>(out.size()));
  obs::metrics()
      .counter("io.bytes_read", {{"reader", "file"}})
      .add(static_cast<std::int64_t>(out.size()));
  return Status::Ok();
}

std::string block_file_name(const std::string& directory, long step,
                            std::int64_t block_id) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "/step_%06ld_block_%06lld.isvtk", step,
                static_cast<long long>(block_id));
  return directory + buf;
}

}  // namespace insitu::io
