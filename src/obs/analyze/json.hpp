#pragma once

// Minimal recursive-descent JSON parser for the obs exports: enough for
// the Chrome-trace files, metrics JSON dumps, and bench baselines this
// repo writes (objects, arrays, strings with the exporter's escapes,
// numbers, true/false/null). Not a general-purpose JSON library — inputs
// are trusted files produced by our own exporters.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pal/status.hpp"

namespace insitu::obs::analyze {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  /// Object members in file order (duplicate keys keep the first).
  std::vector<std::pair<std::string, Json>> members;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Member lookup; nullptr when not an object or the key is absent.
  const Json* find(std::string_view key) const;

  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
};

/// Parse a complete JSON document (trailing whitespace allowed).
StatusOr<Json> parse_json(std::string_view text);

}  // namespace insitu::obs::analyze
