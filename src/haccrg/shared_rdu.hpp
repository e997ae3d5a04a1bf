// Shared-memory Race Detection Unit (Section IV-A). One per SM. In the
// default hardware placement the shadow entries are dedicated per-SM
// storage checked in parallel with the banks (no per-access cycle cost;
// the visible overhead is the barrier-time invalidation). In the
// global-memory placement (Figure 8) the entries live in device memory
// and are fetched through the L1 — the RDU then reports which shadow
// lines each warp access touches so the SM can model that traffic.
//
// The table is fully provisioned (one entry per granule) by default.
// `HaccrgConfig::shared_shadow_capacity` models a cost-reduced table:
// a direct-mapped slot array where conflicting granules evict each
// other. An eviction resets the displaced entry to its initial state —
// a potential false negative — and is therefore counted in
// "rd.evictions"; degradation is always counted, never silent.
#pragma once

#include <vector>

#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/options.hpp"
#include "haccrg/race.hpp"
#include "haccrg/shadow.hpp"

namespace haccrg::rd {

class SharedRdu {
 public:
  /// Races are appended to `staging`, which the owning SM drains into the
  /// run's RaceLog at the epoch barrier (keeps the RDU thread-confined
  /// when SMs step in parallel).
  SharedRdu(u32 sm_id, u32 smem_bytes, const HaccrgConfig& config, const DetectPolicy& policy,
            RaceStaging& staging);

  /// Arm fault injection (null = off). The injector's shared-shadow
  /// stream for this RDU's SM id is rolled once per granule check, so
  /// placement is thread-confined and deterministic.
  void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// Check one lane's shared-memory access and update the shadow state.
  void check(const AccessInfo& access);

  /// Shadow lines (global shadow-region offsets) covering the granules of
  /// the given lane addresses — only meaningful in the kGlobalMemory
  /// placement, where each line must be fetched through the L1.
  std::vector<u32> shadow_lines(const std::vector<u32>& lane_addrs, u32 line_bytes) const;

  /// Barrier reached: invalidate the shadow entries of the block's shared
  /// region. Returns the invalidation cost in cycles (entries reset
  /// `banks` at a time, matching the parallel comparators).
  u32 reset_region(u32 base, u32 bytes, u32 banks);

  u64 checks() const { return checks_; }
  u64 races_found() const { return races_; }
  u64 evictions() const { return evictions_; }
  void export_stats(StatSet& stats) const;

  /// Direct shadow inspection for tests.
  SharedShadowEntry entry_at(u32 addr) const {
    const u32 g = addr / granularity_;
    if (capacity_ != 0) {
      const u32 slot = g % capacity_;
      return SharedShadowEntry::unpack(tags_[slot] == g ? shadow_[slot] : u16{0});
    }
    return SharedShadowEntry::unpack(shadow_[g]);
  }

 private:
  u32 sm_id_;
  u32 granularity_;
  u32 num_granules_;
  u32 capacity_;  // 0 = fully provisioned (shadow_[g] addressed directly)
  DetectPolicy policy_;
  RaceStaging* staging_;
  fault::FaultInjector* faults_ = nullptr;
  std::vector<u16> shadow_;  // one packed entry per granule (or per slot); 0 == initial
  std::vector<u32> tags_;    // granule owning each slot (finite mode only)
  u64 checks_ = 0;
  u64 races_ = 0;
  u64 resets_ = 0;
  u64 evictions_ = 0;
};

}  // namespace haccrg::rd
