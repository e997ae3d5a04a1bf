// Lightweight cycle-budget profiler for the epoch engine: wall-clock
// time and invocation counts per engine phase, gated behind
// SimConfig::profile (HACCRG_PROFILE=1) so the disabled path costs one
// predictable branch per phase. Results export as "prof.*" stats —
// host-time measurements, deliberately kept out of the default stat set
// so golden fingerprints never see them.
#pragma once

#include <array>
#include <chrono>
#include <string_view>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace haccrg::sim {

/// The epoch phases plus the end-of-cycle scheduler work.
enum class EnginePhase : u8 {
  kSmCycle = 0,  ///< parallel SM phase (deliver + core cycle)
  kTraceFlush,   ///< serial issue-event flush (tracing runs only)
  kCommit,       ///< serial commit_epoch sweep + interconnect injection
  kPartition,    ///< parallel partition phase
  kResponse,     ///< serial response commit
  kCount,
};

class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  explicit PhaseProfiler(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII scope: accumulates the elapsed wall time into one phase.
  class Scope {
   public:
    Scope(PhaseProfiler& prof, EnginePhase phase) : prof_(prof), phase_(phase) {
      if (prof_.enabled_) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (!prof_.enabled_) return;
      const auto end = std::chrono::steady_clock::now();
      auto& bucket = prof_.buckets_[static_cast<size_t>(phase_)];
      bucket.ns += static_cast<u64>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count());
      ++bucket.calls;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler& prof_;
    EnginePhase phase_;
    std::chrono::steady_clock::time_point start_;
  };

  Scope scope(EnginePhase phase) { return Scope(*this, phase); }

  u64 ns(EnginePhase phase) const { return buckets_[static_cast<size_t>(phase)].ns; }
  u64 calls(EnginePhase phase) const { return buckets_[static_cast<size_t>(phase)].calls; }

  /// Export "prof.<phase>.ns" / "prof.<phase>.calls". Only meaningful
  /// when enabled; callers gate on enabled() to keep default stat sets
  /// byte-identical to profiler-free builds.
  void export_stats(StatSet& stats) const {
    static constexpr std::array<std::string_view, static_cast<size_t>(EnginePhase::kCount)>
        kNames{"sm_cycle", "trace_flush", "commit", "partition", "response"};
    for (size_t p = 0; p < kNames.size(); ++p) {
      stats.add(std::string("prof.") + std::string(kNames[p]) + ".ns", buckets_[p].ns);
      stats.add(std::string("prof.") + std::string(kNames[p]) + ".calls", buckets_[p].calls);
    }
  }

 private:
  struct Bucket {
    u64 ns = 0;
    u64 calls = 0;
  };
  bool enabled_ = false;
  std::array<Bucket, static_cast<size_t>(EnginePhase::kCount)> buckets_{};
};

}  // namespace haccrg::sim
