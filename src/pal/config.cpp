#include "pal/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace insitu::pal {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    // Accept key=value, --key=value, --key value, and bare --key switches.
    const bool dashed = arg.starts_with("--");
    if (dashed) arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      cfg.set(std::string(trim(arg.substr(0, eq))),
              std::string(trim(arg.substr(eq + 1))));
    } else if (dashed) {
      // "--key value" consumes the next token as the value unless it looks
      // like another option, in which case "--key" is a boolean switch.
      const std::string_view next =
          i + 1 < argc ? std::string_view(argv[i + 1]) : std::string_view{};
      if (!next.empty() && !next.starts_with("--") &&
          next.find('=') == std::string_view::npos) {
        cfg.set(std::string(trim(arg)), std::string(trim(next)));
        ++i;
      } else {
        cfg.set(std::string(trim(arg)), "true");
      }
    } else {
      cfg.positional_.emplace_back(arg);
    }
  }
  return cfg;
}

StatusOr<Config> Config::from_text(std::string_view text) {
  Config cfg;
  std::string section;
  int lineno = 0;
  for (const std::string& raw : split(text, '\n')) {
    ++lineno;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": unterminated section header");
      }
      section = std::string(trim(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": expected key=value, got '" +
                                     std::string(line) + "'");
    }
    std::string key(trim(line.substr(0, eq)));
    if (!section.empty()) key = section + "." + key;
    cfg.set(std::move(key), std::string(trim(line.substr(eq + 1))));
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

bool Config::has(std::string_view key) const {
  return entries_.find(std::string(key)) != entries_.end();
}

StatusOr<std::string> Config::get_string(std::string_view key) const {
  auto it = entries_.find(std::string(key));
  if (it == entries_.end()) {
    return Status::NotFound("missing config key '" + std::string(key) + "'");
  }
  return it->second;
}

StatusOr<std::int64_t> Config::get_int(std::string_view key) const {
  INSITU_ASSIGN_OR_RETURN(std::string text, get_string(key));
  std::int64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("config key '" + std::string(key) +
                                   "' is not an integer: '" + text + "'");
  }
  return value;
}

StatusOr<double> Config::get_double(std::string_view key) const {
  INSITU_ASSIGN_OR_RETURN(std::string text, get_string(key));
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    return Status::InvalidArgument("config key '" + std::string(key) +
                                   "' is not a number: '" + text + "'");
  }
  return value;
}

StatusOr<bool> Config::get_bool(std::string_view key) const {
  INSITU_ASSIGN_OR_RETURN(std::string text, get_string(key));
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  return Status::InvalidArgument("config key '" + std::string(key) +
                                 "' is not a boolean: '" + text + "'");
}

std::string Config::get_string_or(std::string_view key,
                                  std::string fallback) const {
  auto result = get_string(key);
  return result.ok() ? *result : std::move(fallback);
}

std::int64_t Config::get_int_or(std::string_view key,
                                std::int64_t fallback) const {
  auto result = get_int(key);
  return result.ok() ? *result : fallback;
}

double Config::get_double_or(std::string_view key, double fallback) const {
  auto result = get_double(key);
  return result.ok() ? *result : fallback;
}

bool Config::get_bool_or(std::string_view key, bool fallback) const {
  auto result = get_bool(key);
  return result.ok() ? *result : fallback;
}

std::vector<std::string> Config::keys_in_section(
    std::string_view section) const {
  const std::string prefix = std::string(section) + ".";
  std::vector<std::string> keys;
  for (const auto& [key, value] : entries_) {
    if (key.starts_with(prefix)) keys.push_back(key.substr(prefix.size()));
  }
  return keys;
}

}  // namespace insitu::pal
