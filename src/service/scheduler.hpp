#pragma once

// StrideScheduler: weighted fair selection across tenants.
//
// Classic stride scheduling (Waldspurger & Weihl, OSDI '94): each tenant
// carries a virtual "pass"; picking a tenant advances its pass by
// 1/weight, and the scheduler always picks the eligible tenant with the
// smallest pass. Over any window, tenant k receives CPU slots in
// proportion to weight_k / sum(weights) — weight 2 drains its queue
// twice as fast as weight 1 — while a tenant with an empty queue never
// blocks the others (it is simply not eligible).
//
// A joining tenant starts at the current minimum pass, not zero:
// starting at zero would let a latecomer monopolize the service until it
// "caught up" with tenants that have been running for hours.
//
// Not thread-safe: the SessionManager calls it under its own mutex.

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace insitu::service {

class StrideScheduler {
 public:
  /// Register `key` (or update its weight). Weights <= 0 are clamped to
  /// a tiny positive value rather than rejected: the scheduler is below
  /// the validation layer.
  void set_weight(const std::string& key, double weight);

  /// Pick the eligible key with the smallest pass and advance it by
  /// 1/weight. Unregistered eligible keys are registered at weight 1.
  /// Ties break on key order, so the schedule is deterministic. Returns
  /// nullopt when `eligible` is empty.
  std::optional<std::string> pick(const std::vector<std::string>& eligible);

  /// Current pass of `key` (0 when unregistered); exposed for tests.
  double pass(const std::string& key) const;

 private:
  struct Tenant {
    double weight = 1.0;
    double pass = 0.0;
  };

  double min_pass() const;

  std::map<std::string, Tenant> tenants_;
};

}  // namespace insitu::service
