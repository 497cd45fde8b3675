#pragma once

// DataAdaptor: the simulation-facing half of the SENSEI generic data
// interface (§3.2).
//
// "The data adaptor provides a mapping between simulation data structures
//  and the VTK data model. ... By providing an API that encourages lazy
//  mapping to VTK data model for the mesh and attribute arrays, the data
//  adaptor avoids any work to map simulation data to VTK data when not
//  needed. Thus when no analysis is enabled, the SENSEI instrumentation
//  overhead is almost nonexistent."
//
// A simulation implements this interface once; analyses and in situ
// infrastructure backends consume it without knowing which simulation
// produced the data.

#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "data/multiblock.hpp"
#include "pal/status.hpp"

namespace insitu::core {

class DataAdaptor {
 public:
  virtual ~DataAdaptor() = default;

  // ---- simulation time state (set by the bridge each step) ----
  double time() const { return time_; }
  long time_step() const { return time_step_; }
  void set_time(double time, long step) {
    time_ = time;
    time_step_ = step;
  }

  /// The simulation's communicator (never null during execution).
  comm::Communicator* communicator() const { return comm_; }
  void set_communicator(comm::Communicator* comm) { comm_ = comm; }

  // ---- lazy data access ----

  /// Construct (lazily) the mesh for this rank. With `structure_only` the
  /// adaptor may omit geometry arrays (metadata-only queries).
  virtual StatusOr<data::MultiBlockPtr> mesh(bool structure_only) = 0;

  /// Attach the named simulation array to a mesh previously returned by
  /// mesh(). Zero-copy wherever the simulation layout allows.
  virtual Status add_array(data::MultiBlockDataSet& mesh,
                           data::Association association,
                           const std::string& name) = 0;

  /// Names of arrays the simulation can expose for the association.
  virtual std::vector<std::string> available_arrays(
      data::Association association) const = 0;

  /// Convenience: mesh() with every available array of both associations
  /// attached. Backends that forward whole timesteps (ADIOS/FlexPath) use it.
  StatusOr<data::MultiBlockPtr> full_mesh();

  /// Drop any cached mapping so simulation memory can be reused. Called by
  /// the bridge at the end of each in situ invocation.
  virtual Status release_data() = 0;

 private:
  double time_ = 0.0;
  long time_step_ = 0;
  comm::Communicator* comm_ = nullptr;
};

}  // namespace insitu::core
