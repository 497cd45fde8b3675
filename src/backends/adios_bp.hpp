#pragma once

// BP-like self-describing serialization (the ADIOS role in §2.2.3: "it
// marshals the memory and metadata to make such code self-describing and
// adaptable to new situations"). A BP stream carries a variable index
// (metadata) plus per-block payloads; the index can travel separately,
// which is exactly what the FlexPath-like transport's `advance` phase
// (metadata sync) does.

#include <string>

#include "data/multiblock.hpp"
#include "io/reduction.hpp"
#include "pal/status.hpp"

namespace insitu::backends {

/// Compact metadata describing a BP stream (what `adios::advance` moves).
struct BpIndex {
  long step = 0;
  std::int64_t num_blocks = 0;
  std::uint64_t payload_bytes = 0;
  std::vector<std::string> array_names;

  std::vector<std::byte> serialize() const;
  static StatusOr<BpIndex> deserialize(std::span<const std::byte> bytes);
};

/// Serialize a rank's MultiBlock (ImageData blocks) into a BP payload.
std::vector<std::byte> bp_serialize(const data::MultiBlockDataSet& mesh);

/// Append the BP payload to `out` with no intermediate per-block buffers;
/// the staging writers reuse one pooled buffer across steps through this.
void bp_serialize_into(const data::MultiBlockDataSet& mesh,
                       std::vector<std::byte>& out);

/// Inverse of bp_serialize.
StatusOr<data::MultiBlockPtr> bp_deserialize(std::span<const std::byte> bytes);

/// Build the index for a mesh at a given step.
BpIndex bp_index_for(const data::MultiBlockDataSet& mesh, long step);

/// "an analysis adaptor may use ADIOS to save the data out to an ADIOS BP
/// file": one file per rank per step. bp_read_file also accepts
/// io::ReductionPipeline streams.
Status bp_write_file(const std::string& path,
                     const data::MultiBlockDataSet& mesh);
StatusOr<data::MultiBlockPtr> bp_read_file(const std::string& path);

}  // namespace insitu::backends
