#include "pal/log.hpp"

#include <cstdio>
#include <mutex>

#include "pal/rank_local.hpp"

namespace insitu::pal {

namespace {
std::mutex g_mutex;

constexpr std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?????";
}
}  // namespace

LogLevel log_level() { return LogLevel::kWarn; }

void log_message(LogLevel level, std::string_view msg) {
  const int rank = rank_local().rank;
  std::lock_guard<std::mutex> lock(g_mutex);
  if (rank < 0) {
    std::fprintf(stderr, "[%.*s] %.*s\n",
                 static_cast<int>(level_name(level).size()),
                 level_name(level).data(), static_cast<int>(msg.size()),
                 msg.data());
  } else {
    std::fprintf(stderr, "[%.*s][rank %d] %.*s\n",
                 static_cast<int>(level_name(level).size()),
                 level_name(level).data(), rank,
                 static_cast<int>(msg.size()), msg.data());
  }
}

}  // namespace insitu::pal
