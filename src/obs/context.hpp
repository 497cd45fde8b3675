#pragma once

// Per-rank observability context.
//
// A rank's private MetricsRegistry, optional TraceRecorder and flight
// ring, open-span depth and virtual-clock reader are fields of its
// pal::RankLocal block (pal/rank_local.hpp), which the SPMD Runtime
// installs for the rank body. Instrumented code reaches them through
// obs::metrics() / obs::tracer() (and TraceScope through
// pal::rank_local()) and never needs plumbing.
//
// Outside the Runtime (unit tests, ad-hoc tools) no block is installed:
// metrics() falls back to a process-wide registry and tracer() returns
// null, so instrumentation is always safe to call.

#include "pal/rank_local.hpp"

namespace insitu::obs {

/// The registry instrumentation should write to: the installed rank
/// registry, or a process-wide fallback shared by un-instrumented threads.
MetricsRegistry& metrics();

/// The installed trace recorder, or null when tracing is disabled.
TraceRecorder* tracer();

/// The process-wide fallback registry (what metrics() returns with no
/// registry installed). Exposed for tests.
MetricsRegistry& fallback_metrics();

}  // namespace insitu::obs
