#pragma once

// Declarative health rules: watermark conditions over live metric
// snapshots, parsed from the `[health]` config section
// (docs/OBSERVABILITY.md, "Live telemetry & health rules").
//
// Rule grammar (one `rule.<name> = ...` key per rule):
//
//   rule.<name> = <metric> [<stat>] <op> <threshold> [action=<action>]
//
//   <metric>    bare metric name (`bridge.execute.seconds`, matches every
//               series with that name across label sets) or a full
//               serialized key (`service.admission{outcome=rejected}`,
//               exact match)
//   <stat>      value | count | sum | mean | min | max | p50 | p90 | p99
//               (default: value for counters/gauges, max for histograms)
//   <op>        > | >= | < | <=
//   <threshold> double
//   <action>    none | degrade | dump   (default none)
//
// The TelemetryHub evaluates rules each tick against the merged
// tenant-stamped snapshot; a firing rule emits an
// `obs.health.alert{rule=,tenant=}` counter and forwards a HealthAlert to
// the configured sink (the service maps action=degrade onto admission
// decisions and action=dump onto flight-recorder dumps). Firing is
// edge-triggered per (rule, series): the alert re-arms only after the
// condition reads false again.

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "pal/config.hpp"
#include "pal/status.hpp"

namespace insitu::obs::live {

enum class HealthAction { kNone, kDegrade, kDump };

const char* to_string(HealthAction action);

enum class HealthOp { kGt, kGe, kLt, kLe };

struct HealthRule {
  std::string name;
  std::string metric;  // bare name or full serialized key
  std::string stat;    // empty = kind-dependent default
  HealthOp op = HealthOp::kGt;
  double threshold = 0.0;
  HealthAction action = HealthAction::kNone;
};

/// One rule firing against one concrete series.
struct HealthAlert {
  std::string rule;
  std::string tenant;  // series' tenant= label, empty if unlabeled
  std::string key;     // full series key that matched
  std::string stat;    // stat actually evaluated
  double observed = 0.0;
  double threshold = 0.0;
  HealthAction action = HealthAction::kNone;
};

/// Parse one rule body (the text after `rule.<name> =`).
Status parse_health_rule(std::string_view name, std::string_view text,
                              HealthRule& out);

/// Extract every `rule.*` key from the `[health]` section of `config`.
Status parse_health_rules(const pal::Config& config,
                               std::vector<HealthRule>& out);

/// Does `rule.metric` select this series key? Bare names match any label
/// set; keys with labels match exactly.
bool rule_matches_key(const HealthRule& rule, std::string_view key);

/// The stat value the rule evaluates for this sample (resolving the
/// kind-dependent default). Sets `*stat_name` to the resolved stat.
double rule_observed(const HealthRule& rule, const MetricSample& sample,
                     std::string* stat_name);

/// condition test: observed <op> threshold.
bool rule_condition(const HealthRule& rule, double observed);

}  // namespace insitu::obs::live
