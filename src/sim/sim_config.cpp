#include "sim/sim_config.hpp"

#include <cstdio>
#include <cstdlib>

namespace haccrg::sim {

namespace {

/// Strict HACCRG_THREADS parse: all-digit decimal in [1, kMaxThreads].
Status parse_threads(const char* env, u32& out) {
  u64 value = 0;
  const char* p = env;
  if (*p == '\0') return Status::invalid_argument("HACCRG_THREADS is empty");
  for (; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return Status::invalid_argument(
          std::string("HACCRG_THREADS is not a number: '") + env + "'");
    }
    value = value * 10 + static_cast<u64>(*p - '0');
    if (value > SimConfig::kMaxThreads) break;
  }
  if (value == 0 || value > SimConfig::kMaxThreads) {
    return Status::invalid_argument(
        std::string("HACCRG_THREADS must be in [1, ") +
        std::to_string(SimConfig::kMaxThreads) + "], got '" + env + "'");
  }
  out = static_cast<u32>(value);
  return Status();
}

}  // namespace

SimConfig SimConfig::from_env() {
  SimConfig cfg;
  if (const char* env = std::getenv("HACCRG_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) cfg.num_threads = v > long{kMaxThreads} ? kMaxThreads : static_cast<u32>(v);
  }
  if (const char* env = std::getenv("HACCRG_TRACE"); env != nullptr && env[0] != '\0')
    cfg.trace_path = env;
  if (const char* env = std::getenv("HACCRG_TRACE_INDEX");
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
    cfg.trace_index = true;
  if (const char* env = std::getenv("HACCRG_PROFILE");
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
    cfg.profile = true;
  if (const char* env = std::getenv("HACCRG_FAULTS"); env != nullptr && env[0] != '\0') {
    if (Status st = fault::FaultPlan::parse(env, cfg.faults); !st.ok()) {
      std::fprintf(stderr, "warning: ignoring HACCRG_FAULTS (%s)\n",
                   st.to_string().c_str());
    }
  }
  return cfg;
}

Status SimConfig::parse_env(SimConfig& out) {
  SimConfig cfg;
  if (const char* env = std::getenv("HACCRG_THREADS")) {
    if (Status st = parse_threads(env, cfg.num_threads); !st.ok()) return st;
  }
  if (const char* env = std::getenv("HACCRG_TRACE"); env != nullptr && env[0] != '\0')
    cfg.trace_path = env;
  if (const char* env = std::getenv("HACCRG_TRACE_INDEX");
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
    cfg.trace_index = true;
  if (const char* env = std::getenv("HACCRG_PROFILE");
      env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0'))
    cfg.profile = true;
  if (const char* env = std::getenv("HACCRG_FAULTS"); env != nullptr && env[0] != '\0') {
    if (Status st = fault::FaultPlan::parse(env, cfg.faults); !st.ok()) return st;
  }
  out = cfg;
  return Status();
}

}  // namespace haccrg::sim
