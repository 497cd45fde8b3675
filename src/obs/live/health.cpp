#include "obs/live/health.hpp"

#include <charconv>

namespace insitu::obs::live {

namespace {

bool is_known_stat(std::string_view stat) {
  return stat == "value" || stat == "count" || stat == "sum" ||
         stat == "mean" || stat == "min" || stat == "max" || stat == "p50" ||
         stat == "p90" || stat == "p99";
}

bool parse_op(std::string_view token, HealthOp& op) {
  if (token == ">") op = HealthOp::kGt;
  else if (token == ">=") op = HealthOp::kGe;
  else if (token == "<") op = HealthOp::kLt;
  else if (token == "<=") op = HealthOp::kLe;
  else return false;
  return true;
}

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace

const char* to_string(HealthAction action) {
  switch (action) {
    case HealthAction::kNone: return "none";
    case HealthAction::kDegrade: return "degrade";
    case HealthAction::kDump: return "dump";
  }
  return "?";
}

Status parse_health_rule(std::string_view name, std::string_view text,
                         HealthRule& out) {
  const std::vector<std::string> tokens = tokenize(text);
  auto err = [&name, &text](const std::string& why) {
    return Status::InvalidArgument(
        "health rule '" + std::string(name) + "': " + why + " in \"" +
        std::string(text) + "\" (expected: <metric> [stat] <op> "
        "<threshold> [action=none|degrade|dump])");
  };
  if (tokens.size() < 3) return err("too few tokens");

  HealthRule rule;
  rule.name = std::string(name);
  std::size_t i = 0;
  rule.metric = tokens[i++];

  if (i < tokens.size() && is_known_stat(tokens[i])) {
    rule.stat = tokens[i++];
  }
  if (i >= tokens.size() || !parse_op(tokens[i], rule.op)) {
    return err("missing comparison operator (> >= < <=)");
  }
  ++i;
  if (i >= tokens.size()) return err("missing threshold");
  {
    const std::string& t = tokens[i];
    const char* end = t.data() + t.size();
    auto [ptr, ec] = std::from_chars(t.data(), end, rule.threshold);
    if (ec != std::errc() || ptr != end) {
      return err("threshold '" + t + "' is not a number");
    }
  }
  ++i;
  for (; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (t.rfind("action=", 0) == 0) {
      const std::string_view a = std::string_view(t).substr(7);
      if (a == "none") rule.action = HealthAction::kNone;
      else if (a == "degrade") rule.action = HealthAction::kDegrade;
      else if (a == "dump") rule.action = HealthAction::kDump;
      else return err("unknown action '" + std::string(a) + "'");
    } else {
      return err("unexpected token '" + t + "'");
    }
  }
  out = std::move(rule);
  return Status::Ok();
}

Status parse_health_rules(const pal::Config& config,
                          std::vector<HealthRule>& out) {
  for (const std::string& key : config.keys_in_section("health")) {
    if (key.rfind("rule.", 0) != 0) continue;
    const std::string name = key.substr(5);
    if (name.empty()) {
      return Status::InvalidArgument("health rule with empty name");
    }
    const auto text = config.get_string("health." + key);
    if (!text.ok()) return text.status();
    HealthRule rule;
    if (Status s = parse_health_rule(name, *text, rule); !s.ok()) return s;
    out.push_back(std::move(rule));
  }
  return Status::Ok();
}

bool rule_matches_key(const HealthRule& rule, std::string_view key) {
  if (rule.metric == key) return true;
  if (rule.metric.find('{') != std::string::npos) return false;
  // Bare name: match `name` and `name{...}` for any label set.
  if (key.size() > rule.metric.size() &&
      key.compare(0, rule.metric.size(), rule.metric) == 0 &&
      key[rule.metric.size()] == '{') {
    return true;
  }
  return false;
}

double rule_observed(const HealthRule& rule, const MetricSample& sample,
                     std::string* stat_name) {
  std::string stat = rule.stat;
  if (stat.empty()) {
    stat = sample.kind == MetricKind::kHistogram ? "max" : "value";
  }
  if (stat_name != nullptr) *stat_name = stat;
  if (stat == "value") {
    // For histograms "value" degrades to the mean — counters and gauges
    // carry the actual value.
    return sample.kind == MetricKind::kHistogram ? sample.mean()
                                                 : sample.value;
  }
  if (stat == "count") return static_cast<double>(sample.count);
  if (stat == "sum") return sample.sum;
  if (stat == "mean") return sample.mean();
  if (stat == "min") return sample.min;
  if (stat == "max") return sample.max;
  if (stat == "p50") return histogram_quantile(sample, 0.50);
  if (stat == "p90") return histogram_quantile(sample, 0.90);
  if (stat == "p99") return histogram_quantile(sample, 0.99);
  return 0.0;
}

bool rule_condition(const HealthRule& rule, double observed) {
  switch (rule.op) {
    case HealthOp::kGt: return observed > rule.threshold;
    case HealthOp::kGe: return observed >= rule.threshold;
    case HealthOp::kLt: return observed < rule.threshold;
    case HealthOp::kLe: return observed <= rule.threshold;
  }
  return false;
}

}  // namespace insitu::obs::live
