#include "pal/memory_tracker.hpp"

#include <cstdio>
#include <cstring>

namespace insitu::pal {

std::uint64_t process_high_water_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace insitu::pal
