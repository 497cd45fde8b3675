#pragma once

// Key=value configuration store with typed accessors, plus parsing from
// command-line arguments and simple "ini-like" text (used for Libsim-like
// session files and miniapp input decks).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pal/status.hpp"

namespace insitu::pal {

/// Ordered key=value store. Section-qualified keys use "section.key".
class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens; tokens without '=' are collected as
  /// positional arguments. argv[0] is skipped.
  static Config from_args(int argc, const char* const* argv);

  /// Parse ini-like text:
  ///   # comment
  ///   [section]
  ///   key = value
  /// Keys inside sections are stored as "section.key".
  static StatusOr<Config> from_text(std::string_view text);

  void set(std::string key, std::string value);

  bool has(std::string_view key) const;

  StatusOr<std::string> get_string(std::string_view key) const;
  StatusOr<std::int64_t> get_int(std::string_view key) const;
  StatusOr<double> get_double(std::string_view key) const;
  StatusOr<bool> get_bool(std::string_view key) const;

  std::string get_string_or(std::string_view key, std::string fallback) const;
  std::int64_t get_int_or(std::string_view key, std::int64_t fallback) const;
  double get_double_or(std::string_view key, double fallback) const;
  bool get_bool_or(std::string_view key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

  /// All keys with the given section prefix ("section."), prefix stripped.
  std::vector<std::string> keys_in_section(std::string_view section) const;

 private:
  std::map<std::string, std::string> entries_;
  std::vector<std::string> positional_;
};

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Split on a delimiter; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);

}  // namespace insitu::pal
