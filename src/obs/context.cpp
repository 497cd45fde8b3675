#include "obs/context.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace insitu::obs {

MetricsRegistry& fallback_metrics() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& metrics() {
  MetricsRegistry* installed = pal::rank_local().metrics;
  return installed != nullptr ? *installed : fallback_metrics();
}

TraceRecorder* tracer() { return pal::rank_local().trace; }

const char* to_string(Category category) {
  switch (category) {
    case Category::kSim: return "sim";
    case Category::kBridge: return "bridge";
    case Category::kBackend: return "backend";
    case Category::kComm: return "comm";
    case Category::kIo: return "io";
    case Category::kAnalysis: return "analysis";
    case Category::kOther: return "other";
  }
  return "?";
}

Category category_from_string(std::string_view name) {
  for (int i = 0; i < kCategoryCount; ++i) {
    const Category c = static_cast<Category>(i);
    if (name == to_string(c)) return c;
  }
  return Category::kOther;
}

}  // namespace insitu::obs
