// Minimal leveled logger. The engine and the replay server run many
// threads, so the threshold is a relaxed atomic (it guards no other data);
// keep the hot path (disabled levels) branch-cheap.
#pragma once

#include <cstdio>
#include <string>

namespace haccrg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are dropped.
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void log_write(LogLevel level, const std::string& msg);
}

template <typename... Args>
void log_at(LogLevel level, const char* fmt, Args... args) {
  if (level < log_level()) return;
  if constexpr (sizeof...(Args) == 0) {
    detail::log_write(level, fmt);
  } else {
    char buf[1024];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    detail::log_write(level, buf);
  }
}

#define HACCRG_LOG_DEBUG(...) ::haccrg::log_at(::haccrg::LogLevel::kDebug, __VA_ARGS__)
#define HACCRG_LOG_INFO(...) ::haccrg::log_at(::haccrg::LogLevel::kInfo, __VA_ARGS__)
#define HACCRG_LOG_WARN(...) ::haccrg::log_at(::haccrg::LogLevel::kWarn, __VA_ARGS__)
#define HACCRG_LOG_ERROR(...) ::haccrg::log_at(::haccrg::LogLevel::kError, __VA_ARGS__)

}  // namespace haccrg
