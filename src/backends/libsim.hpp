#pragma once

// LibsimLike: the VisIt-Libsim-style in situ backend.
//
// Libsim traits reproduced from the paper:
//   * visualizations are specified by *session files* "saved from the
//     VisIt GUI, which can specify more complex visualizations" (§2.2.3) —
//     here a small ini dialect parsed at initialize();
//   * initialization performs "per-rank configuration file checks",
//     producing the ~3.5 s one-time cost at 45K ranks Fig 5 calls out;
//   * the Libsim-slice study renders at 1600x1600 and composites with a
//     different algorithm than Catalyst (binary swap here);
//   * AVF-LESLIE's session: "3 isosurfaces and 3 slice planes of vorticity
//     magnitude", executed every 5th step.
//
// Session file format:
//   [session]
//   array = vorticity_magnitude
//   colormap = heat
//   min = 0      ; scalar range for pseudocolor
//   max = 5
//   width = 1600
//   height = 1600
//   [plot0]
//   type = slice          ; or isosurface
//   axis = 0              ; slice: 0/1/2
//   value = 3.14          ; slice coordinate or isovalue
//   ...more [plotN] sections...

#include <string>
#include <vector>

#include "core/analysis_adaptor.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"

namespace insitu::backends {

struct LibsimPlot {
  enum class Type { kSlice, kIsosurface };
  Type type = Type::kSlice;
  int axis = 2;
  double value = 0.0;
};

struct LibsimSession {
  std::string array = "data";
  std::string colormap = "heat";
  double scalar_min = 0.0;
  double scalar_max = 1.0;
  int image_width = 1600;
  int image_height = 1600;
  std::vector<LibsimPlot> plots;
};

/// Parse the session dialect above.
StatusOr<LibsimSession> parse_session(const std::string& text);

struct LibsimConfig {
  std::string session_text;  ///< contents of the session file
  int every_n_steps = 1;     ///< AVF-LESLIE renders 1 of every 5 steps
  bool compress_png = true;
  std::string output_directory;  ///< empty = keep images in memory only
};

class LibsimRender final : public core::AnalysisAdaptor {
 public:
  explicit LibsimRender(LibsimConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "libsim-render"; }

  Status initialize(comm::Communicator& comm) override;
  StatusOr<bool> execute(core::DataAdaptor& data) override;

  const LibsimSession& session() const { return session_; }
  const render::Image& last_image() const { return last_image_; }
  long images_produced() const { return images_; }
  /// Virtual seconds spent in the last execute() on this rank (0 when the
  /// step was skipped by every_n_steps) — Fig 16's sawtooth.
  double last_execute_seconds() const { return last_execute_seconds_; }

 private:
  LibsimConfig config_;
  LibsimSession session_;
  /// Image size and colormap from the session, set at initialize(); each
  /// step sets the camera.
  render::RenderConfig render_;
  analysis::TriangleMesh geometry_;  ///< this rank's plots, reused per step
  render::Image last_image_;
  long images_ = 0;
  double last_execute_seconds_ = 0.0;
};

}  // namespace insitu::backends
