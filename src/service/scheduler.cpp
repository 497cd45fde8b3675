#include "service/scheduler.hpp"

#include <algorithm>

namespace insitu::service {

namespace {
constexpr double kMinWeight = 1e-9;
}

double StrideScheduler::min_pass() const {
  double out = 0.0;
  bool first = true;
  for (const auto& [key, tenant] : tenants_) {
    if (first || tenant.pass < out) out = tenant.pass;
    first = false;
  }
  return out;
}

void StrideScheduler::set_weight(const std::string& key, double weight) {
  const double clamped = weight > kMinWeight ? weight : kMinWeight;
  auto it = tenants_.find(key);
  if (it == tenants_.end()) {
    // Join at the current floor so a newcomer neither monopolizes the
    // service (pass 0) nor starves behind long-running tenants.
    tenants_.emplace(key, Tenant{clamped, min_pass()});
  } else {
    it->second.weight = clamped;
  }
}

std::optional<std::string> StrideScheduler::pick(
    const std::vector<std::string>& eligible) {
  const Tenant* best = nullptr;
  const std::string* best_key = nullptr;
  for (const std::string& key : eligible) {
    auto it = tenants_.find(key);
    if (it == tenants_.end()) {
      set_weight(key, 1.0);
      it = tenants_.find(key);
    }
    // Strict < with a key-ordered walk would depend on `eligible`'s
    // order; compare (pass, key) so ties are deterministic.
    if (best == nullptr || it->second.pass < best->pass ||
        (it->second.pass == best->pass && key < *best_key)) {
      best = &it->second;
      best_key = &it->first;
    }
  }
  if (best == nullptr) return std::nullopt;
  tenants_[*best_key].pass += 1.0 / tenants_[*best_key].weight;
  return *best_key;
}

double StrideScheduler::pass(const std::string& key) const {
  auto it = tenants_.find(key);
  return it == tenants_.end() ? 0.0 : it->second.pass;
}

}  // namespace insitu::service
