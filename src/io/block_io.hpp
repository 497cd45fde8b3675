#pragma once

// Serialization of ImageData blocks (+ attribute arrays) to a simple
// self-describing binary format — the stand-in for VTK's .vti files in the
// post hoc pipeline. Real bytes are written/read at executed scale; the
// LustreModel supplies the cluster-scale timing.

#include <string>

#include "data/image_data.hpp"
#include "pal/status.hpp"

namespace insitu::io {

/// Append one block, with all its point/cell arrays, serialized to `out`
/// without intermediate buffers (the zero-churn path: writers reuse one
/// pooled buffer across steps). Returns the number of bytes appended.
std::size_t serialize_block_into(const data::ImageData& block,
                                 std::vector<std::byte>& out);

/// Inverse of serialize_block_into.
StatusOr<data::ImageDataPtr> deserialize_block(
    std::span<const std::byte> bytes);

/// Write bytes to / read bytes from a file. The `_into` reader fills a
/// caller-owned (typically pooled) buffer instead of allocating.
Status write_file_bytes(const std::string& path,
                        std::span<const std::byte> bytes);
StatusOr<std::vector<std::byte>> read_file_bytes(const std::string& path);
Status read_file_bytes_into(const std::string& path,
                            std::vector<std::byte>& out);

/// Canonical per-step, per-block filename inside a dataset directory.
std::string block_file_name(const std::string& directory, long step,
                            std::int64_t block_id);

}  // namespace insitu::io
