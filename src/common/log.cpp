#include "common/log.hpp"

#include <atomic>

namespace haccrg {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

namespace detail {
void log_write(LogLevel level, const std::string& msg) {
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}
}  // namespace detail

}  // namespace haccrg
