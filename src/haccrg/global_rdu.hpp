// Global-memory Race Detection Unit (Section IV-B). The shadow entries
// live in a reserved region of device memory (one packed u64 per tracked
// granule of the application heap), so every shadow read/modify/write has
// a device address. The functional check runs synchronously at issue —
// the simulator's functional/timing split — while the shadow lines the
// check touched are returned to the caller, which injects them into the
// memory system as kShadow packets so they pollute the L2 and consume
// DRAM bandwidth exactly as the paper's global RDU traffic does.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "haccrg/options.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shadow.hpp"
#include "mem/device_memory.hpp"

namespace haccrg::rd {

class GlobalRdu {
 public:
  GlobalRdu(mem::DeviceMemory& memory, const HaccrgConfig& config, const DetectPolicy& policy,
            RaceLog& log, FenceIdReader fence_reader);

  /// Arm fault injection (null = off). Live checks run only in the
  /// engine's serial commit (Sm::commit_epoch, SM-id order), so the
  /// injector's single global-shadow stream is advanced in a
  /// deterministic cross-SM order.
  void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// Reserve + zero the shadow region covering `app_bytes` of heap,
  /// starting at `shadow_base` (called at kernel launch, the paper's
  /// cudaMalloc/cudaMemset step).
  void init_shadow(Addr shadow_base, u32 app_bytes);

  /// Bytes of shadow storage needed for `app_bytes` of application heap
  /// at granularity `granularity` (Table IV accounting).
  static u32 shadow_bytes_for(u32 app_bytes, u32 granularity);

  /// Bytes per packed shadow entry (public so trace replay can bound a
  /// damaged kernel-begin event's footprint in 64-bit arithmetic before
  /// allocating).
  static constexpr u32 kEntryBytes = 8;

  /// Check one lane's global access. Shadow line addresses (device
  /// addresses within the shadow region) touched by the check are
  /// appended to `shadow_lines_out` for traffic injection.
  void check(const AccessInfo& access, std::vector<Addr>& shadow_lines_out);

  Addr shadow_base() const { return shadow_base_; }
  u32 shadow_bytes() const { return shadow_bytes_; }
  u64 checks() const { return checks_; }
  u64 races_found() const { return races_; }
  void export_stats(StatSet& stats) const;

  /// Direct shadow inspection for tests.
  GlobalShadowEntry entry_at(Addr app_addr) const;

 private:
  mem::DeviceMemory* memory_;
  u32 granularity_;
  DetectPolicy policy_;
  RaceLog* log_;
  FenceIdReader fence_reader_;
  fault::FaultInjector* faults_ = nullptr;
  Addr shadow_base_ = 0;
  u32 app_bytes_ = 0;
  u32 shadow_bytes_ = 0;
  u64 checks_ = 0;
  u64 races_ = 0;
  u64 shadow_writes_ = 0;

  /// Simulation-side qualification for the stale-L1 rule: the cycle of
  /// the last write per granule. An L1 hit on a line filled *after* the
  /// last write saw fresh data and must not be reported stale (this is
  /// what keeps the legitimate threadfence pattern quiet, matching the
  /// paper's observed behavior on REDUCE/PSUM).
  std::vector<Cycle> last_write_;
};

}  // namespace haccrg::rd
