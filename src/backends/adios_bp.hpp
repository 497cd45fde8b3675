#pragma once

// BP-like self-describing serialization (the ADIOS role in §2.2.3: "it
// marshals the memory and metadata to make such code self-describing and
// adaptable to new situations"). A BP stream carries a variable index
// (metadata) plus per-block payloads; the index can travel separately,
// which is exactly what the FlexPath-like transport's `advance` phase
// (metadata sync) does.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/multiblock.hpp"
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

/// Append the BP payload of a rank's MultiBlock (ImageData blocks) to
/// `out` with no intermediate per-block buffers; the staging writers
/// reuse one pooled buffer across steps through this.
void bp_serialize_into(const data::MultiBlockDataSet& mesh,
                       std::vector<std::byte>& out);

/// Inverse of bp_serialize_into.
StatusOr<data::MultiBlockPtr> bp_deserialize(std::span<const std::byte> bytes);

/// Build the index for a mesh at a given step.
BpIndex bp_index_for(const data::MultiBlockDataSet& mesh, long step);

}  // namespace insitu::backends
