#pragma once

// Temporal feature tracking.
//
// §4.2.3 motivates per-step in situ output with feature tracking: "the
// simulation changes significantly over a 100 time steps, making it
// difficult to track features. Producing images for every time step makes
// it possible to observe gradual changes in the simulation and easily
// track features." This analysis does the tracking itself, in situ:
// threshold-segment the field into connected components each step, merge
// fragments across rank boundaries, and match features across steps by
// centroid proximity so each feature keeps a persistent identity.

#include <vector>

#include "core/analysis_adaptor.hpp"
#include "data/image_data.hpp"
#include "data/types.hpp"

namespace insitu::analysis {

/// One segmented feature (connected super-threshold region).
struct Feature {
  long id = -1;            ///< persistent track id (assigned on root)
  std::int64_t size = 0;   ///< points in the region
  data::Vec3 centroid;     ///< value-weighted center
  double peak = 0.0;       ///< maximum field value inside
};

/// The tracked state after one step.
struct FeatureStepRecord {
  long step = 0;
  std::vector<Feature> features;
  int births = 0;  ///< features first seen this step
  int deaths = 0;  ///< tracks that disappeared this step
};

struct FeatureTrackerConfig {
  std::string array = "data";
  double threshold = 0.5;
  /// Fragments (from different blocks/ranks) with centroids closer than
  /// this are merged into one feature — stitches regions that span rank
  /// boundaries.
  double merge_distance = 3.0;
  /// A feature this close to a previous-step feature continues its track.
  double track_distance = 4.0;
  /// Ignore specks smaller than this many points.
  std::int64_t min_size = 2;
};

/// Connected components (6-connectivity) of {value >= threshold} over the
/// per-point scalar of one uniform-grid block. Exposed for tests.
std::vector<Feature> segment_block(const data::ImageData& grid,
                                   const data::DataArray& values,
                                   double threshold, std::int64_t min_size);

class FeatureTracker final : public core::AnalysisAdaptor {
 public:
  explicit FeatureTracker(FeatureTrackerConfig config)
      : config_(std::move(config)) {}

  std::string name() const override { return "feature-tracker"; }

  StatusOr<bool> execute(core::DataAdaptor& data) override;

  /// Per-step records (root rank only).
  const std::vector<FeatureStepRecord>& history() const { return history_; }

 private:
  FeatureTrackerConfig config_;
  std::vector<FeatureStepRecord> history_;
  std::vector<Feature> current_;
  long next_track_id_ = 0;
};

}  // namespace insitu::analysis
