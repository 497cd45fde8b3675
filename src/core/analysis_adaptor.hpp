#pragma once

// AnalysisAdaptor: the analysis-facing half of the SENSEI generic data
// interface (§3.2).
//
// "The analysis adaptor passes the data described in form of VTK data
//  objects to any analysis code, doing any necessary transformations."
//
// An analysis written against DataAdaptor runs unchanged whether it is
// invoked directly (subroutine-style), via ParaView-Catalyst-like or
// VisIt-Libsim-like backends, or at the far end of an ADIOS/FlexPath-like
// in transit transport — the paper's "write once, use anywhere" property.

#include <string>

#include "core/data_adaptor.hpp"
#include "pal/status.hpp"

namespace insitu::core {

class AnalysisAdaptor {
 public:
  virtual ~AnalysisAdaptor() = default;

  /// Human-readable name used in timing reports.
  virtual std::string name() const = 0;

  /// One-time setup (allocate state, open connections, parse sessions).
  virtual Status initialize(comm::Communicator& comm) {
    (void)comm;
    return Status::Ok();
  }

  /// Process the current timestep. Returns false to request the
  /// simulation stop (steering), true to continue.
  virtual StatusOr<bool> execute(DataAdaptor& data) = 0;

  /// One-time teardown (final reductions, close files/connections).
  virtual Status finalize(comm::Communicator& comm) {
    (void)comm;
    return Status::Ok();
  }
};

using AnalysisAdaptorPtr = std::shared_ptr<AnalysisAdaptor>;

}  // namespace insitu::core
