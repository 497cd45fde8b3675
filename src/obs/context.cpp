#include "obs/context.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pal/buffer_pool.hpp"

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

void publish_pool_stats(const pal::BufferPoolStats& stats) {
  if (stats.hits + stats.misses + stats.releases == 0) return;
  MetricsRegistry& registry = metrics();
  const auto add = [&registry](const char* name, std::uint64_t value) {
    registry.counter(name).add(static_cast<std::int64_t>(value));
  };
  add("pool.bytes_allocated", stats.bytes_allocated);
  add("pool.bytes_reused", stats.bytes_reused);
  add("pool.evictions", stats.evictions);
  add("pool.hits", stats.hits);
  add("pool.misses", stats.misses);
  add("pool.releases", stats.releases);
}

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
