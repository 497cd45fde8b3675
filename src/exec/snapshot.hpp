#pragma once

// exec::snapshot_mesh — decouple analysis input from live simulation memory.
//
// The asynchronous bridge hands each time step's data to a worker thread,
// but zero-copy arrays wrap buffers the simulation overwrites on its next
// step. A snapshot therefore deep-copies every zero-copy array into owned
// storage (automatically charged to the calling rank's MemoryTracker, so
// Fig-7-style memory rows show the async footprint), while arrays the
// data model already owns are immutable from the simulation's point of
// view and are shared without copying. Geometry follows the same rule:
// analytic descriptions (ImageData boxes, structured dims) are copied by
// value, zero-copy coordinate arrays deep, owned ones shared.

#include <cstddef>

#include "data/multiblock.hpp"
#include "pal/status.hpp"

namespace insitu::exec {

struct MeshSnapshot {
  data::MultiBlockPtr mesh;
  std::size_t copied_bytes = 0;  ///< deep-copied out of zero-copy wraps
  std::size_t shared_bytes = 0;  ///< shared with already-owned arrays
};

/// Snapshot one rank's multiblock view. Runs entirely on the caller; the
/// caller charges the modeled memcpy cost for `copied_bytes` to whichever
/// clock owns the copy (the simulation clock, for the async bridge).
/// Snapshot copies allocate through pal::buffer_pool(), so dropping one
/// step's snapshot on the rank hands its buffers to the next step's.
StatusOr<MeshSnapshot> snapshot_mesh(const data::MultiBlockDataSet& mesh);

}  // namespace insitu::exec
