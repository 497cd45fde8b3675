#pragma once

// CatalystLike: the ParaView-Catalyst-style in situ backend.
//
// Reproduces the Catalyst-slice configuration of §4.1.3: "extracting a 2D
// slice from a 3D volume, then rendering the result using a pseudocoloring
// ... First, only those ranks whose domains intersect the slice plane will
// extract and render the slice geometry. Second, there is a costly
// compositing operation ... to ultimately produce a final composite image
// on a single rank, which then writes the image to disk." Default image
// size 1920x1080 (the paper's Catalyst resolution), tree compositing, PNG
// written by rank 0 with the serial DEFLATE cost the PHASTA study
// dissects.
//
// Catalyst "Editions" (reduced feature builds, §2.2.3) are modeled by
// their executable footprint so the PHASTA executable-size observations
// can be reported.

#include <functional>
#include <string>

#include "core/analysis_adaptor.hpp"
#include "render/compositor.hpp"
#include "render/png.hpp"
#include "render/rasterizer.hpp"

namespace insitu::backends {

enum class CatalystEdition {
  kFull,           ///< all of ParaView linked in
  kRenderingBase,  ///< rendering + a small filter subset (the paper's pick)
  kExtractsOnly,   ///< no rendering, data extracts only
};

/// Static-link executable footprint contribution of an edition, bytes
/// (§4.2.1: 153 MB statically linked with the rendering edition).
std::size_t edition_executable_bytes(CatalystEdition edition);

struct CatalystSliceConfig {
  std::string array = "data";
  data::Association association = data::Association::kPoint;
  int axis = 2;
  /// Slice coordinate; NaN = domain center along `axis`.
  double value = std::numeric_limits<double>::quiet_NaN();
  int image_width = 1920;
  int image_height = 1080;
  std::string colormap = "cool_warm";
  double scalar_min = -1.0;
  double scalar_max = 1.0;
  render::CompositeAlgorithm compositing = render::CompositeAlgorithm::kTree;
  bool compress_png = true;  ///< false reproduces the "skip compression" ablation
  /// Empty = don't touch disk (bench mode); otherwise PNGs land here.
  std::string output_directory;
  int every_n_steps = 1;
  CatalystEdition edition = CatalystEdition::kRenderingBase;
};

/// Per-step cost breakdown on this rank (virtual seconds).
struct CatalystStepCosts {
  double extract = 0.0;
  double rasterize = 0.0;
  double composite = 0.0;
  double encode_write = 0.0;
  double total() const { return extract + rasterize + composite + encode_write; }
};

class CatalystSlice final : public core::AnalysisAdaptor {
 public:
  explicit CatalystSlice(CatalystSliceConfig config);

  std::string name() const override { return "catalyst-slice"; }

  Status initialize(comm::Communicator& comm) override;
  StatusOr<bool> execute(core::DataAdaptor& data) override;

  /// Most recent composited image (rank 0; empty elsewhere).
  const render::Image& last_image() const { return last_image_; }
  const CatalystStepCosts& last_costs() const { return last_costs_; }
  long images_produced() const { return images_; }

  /// Optional live-viewer hook (the ParaView "Live" connection): invoked
  /// on rank 0 with each composited image; returning false stops the
  /// simulation (steering).
  std::function<bool(const render::Image&, long step)> live_viewer;

 private:
  CatalystSliceConfig config_;
  /// Image size and colormap, fixed by the config; each step sets the
  /// camera.
  render::RenderConfig render_;
  analysis::TriangleMesh geometry_;  ///< this rank's slice, reused per step
  render::Image last_image_;
  CatalystStepCosts last_costs_;
  long images_ = 0;
};

}  // namespace insitu::backends
