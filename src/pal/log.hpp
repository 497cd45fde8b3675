#pragma once

// Minimal thread-safe leveled logger. Rank-aware: a message emitted
// under an installed pal::RankLocal block is labelled with its rank, so
// interleaved output stays attributable.

#include <sstream>
#include <string>
#include <string_view>

namespace insitu::pal {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Minimum level; messages below it are dropped. kWarn, so tests and
/// benches stay quiet unless something is wrong.
LogLevel log_level();

/// Emit one message, prefixed "[rank N]" when the calling code runs for
/// rank N; thread safe (single write under a mutex).
void log_message(LogLevel level, std::string_view msg);

namespace detail {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace insitu::pal

#define INSITU_LOG(level)                                      \
  if (static_cast<int>(level) <                                \
      static_cast<int>(::insitu::pal::log_level())) {          \
  } else                                                       \
    ::insitu::pal::detail::LogLine(level)

#define INSITU_DEBUG INSITU_LOG(::insitu::pal::LogLevel::kDebug)
#define INSITU_INFO INSITU_LOG(::insitu::pal::LogLevel::kInfo)
#define INSITU_WARN INSITU_LOG(::insitu::pal::LogLevel::kWarn)
#define INSITU_ERROR INSITU_LOG(::insitu::pal::LogLevel::kError)
