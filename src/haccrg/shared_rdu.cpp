#include "haccrg/shared_rdu.hpp"

#include <algorithm>

namespace haccrg::rd {

namespace {
constexpr u32 kNoTag = ~0u;  // slot has never held a granule
}

SharedRdu::SharedRdu(u32 sm_id, u32 smem_bytes, const HaccrgConfig& config,
                     const DetectPolicy& policy, RaceStaging& staging)
    : sm_id_(sm_id), granularity_(config.shared_granularity),
      num_granules_(static_cast<u32>(ceil_div(smem_bytes, config.shared_granularity))),
      capacity_(config.shared_shadow_capacity != 0 &&
                        config.shared_shadow_capacity < num_granules_
                    ? config.shared_shadow_capacity
                    : 0),
      policy_(policy), staging_(&staging),
      shadow_(capacity_ != 0 ? capacity_ : num_granules_, 0) {
  if (capacity_ != 0) tags_.assign(capacity_, kNoTag);
}

void SharedRdu::check(const AccessInfo& access) {
  const u32 first = access.addr / granularity_;
  const u32 last = (access.addr + access.size - 1) / granularity_;
  const u16 t = access.thread_slot & 0x3ff;
  for (u32 g = first; g <= last && g < num_granules_; ++g) {
    ++checks_;
    u32 slot = g;
    if (capacity_ != 0) {
      // Direct-mapped finite table: a conflicting granule displaces the
      // current owner. Resetting to the initial state can hide a race
      // the full table would have caught, so occupied displacements are
      // counted — they feed rd.evictions / rd.coverage_lost.
      slot = g % capacity_;
      if (tags_[slot] != g) {
        if (shadow_[slot] != 0) {
          ++evictions_;
          shadow_[slot] = 0;
        }
        tags_[slot] = g;
      }
    }
    if (faults_ != nullptr) {
      u32 bit = 0;
      if (faults_->shared_shadow_flip(sm_id_, bit))
        shadow_[slot] = static_cast<u16>(shadow_[slot] ^ (1u << bit));
    }
    // Word-level fast path on the packed entry: the state-machine cases
    // that provably neither mutate the entry nor report a race skip the
    // unpack/dispatch/pack round-trip. Packing is bit0 = !M, bit1 = !S,
    // tid << 2 (see SharedShadowEntry), so raw & 3 identifies the state:
    //   3 -> state 2 (read-only): a same-thread/same-warp read is a no-op;
    //   2 -> state 3 (written):   any same-thread access is a no-op;
    //   1 -> state 4 (multi-read): any read is a no-op.
    const u16 raw = shadow_[slot];
    const u16 stored_tid = static_cast<u16>(raw >> 2);
    const bool same_thread = stored_tid == t;
    const bool warp_ordered =
        !policy_.warp_regrouping && (stored_tid / policy_.warp_size) == access.warp_in_sm;
    switch (raw & 3) {
      case 3:
        if (!access.is_write && (same_thread || warp_ordered)) continue;
        break;
      case 2:
        if (same_thread) continue;
        break;
      case 1:
        if (!access.is_write) continue;
        break;
      default:
        break;  // state 1 always claims the entry
    }
    SharedShadowEntry entry = SharedShadowEntry::unpack(raw);
    AccessInfo granule_access = access;
    granule_access.addr = g * granularity_;
    CheckOutcome out = check_shared_access(entry, granule_access, policy_);
    if (out.entry_changed) shadow_[slot] = entry.pack();
    if (out.race) {
      out.race->sm_id = sm_id_;
      ++races_;
      staging_->record(*out.race);
    }
  }
}

std::vector<u32> SharedRdu::shadow_lines(const std::vector<u32>& lane_addrs,
                                         u32 line_bytes) const {
  // Each granule's software shadow entry is 2 bytes; entries are packed
  // densely in the per-SM shadow array mirrored to global memory.
  std::vector<u32> lines;
  for (u32 addr : lane_addrs) {
    const u32 entry_offset = (addr / granularity_) * 2;
    const u32 line = entry_offset / line_bytes;
    if (std::find(lines.begin(), lines.end(), line) == lines.end()) lines.push_back(line);
  }
  return lines;
}

u32 SharedRdu::reset_region(u32 base, u32 bytes, u32 banks) {
  const u32 first = base / granularity_;
  const u32 last = std::min<u32>(num_granules_,
                                 static_cast<u32>(ceil_div(base + bytes, granularity_)));
  if (capacity_ == 0) {
    for (u32 g = first; g < last; ++g) shadow_[g] = 0;
  } else {
    // Only slots still owned by a granule in the region are reset; a
    // slot stolen by a conflicting granule belongs to that granule now.
    for (u32 g = first; g < last; ++g) {
      const u32 slot = g % capacity_;
      if (tags_[slot] == g) shadow_[slot] = 0;
    }
  }
  ++resets_;
  // The invalidation hardware sweeps the region's address range either
  // way, so the cycle cost does not depend on the table's capacity.
  const u32 entries = last > first ? last - first : 0;
  return static_cast<u32>(ceil_div(entries, std::max(banks, 1u)));
}

void SharedRdu::export_stats(StatSet& stats) const {
  stats.add("shared_rdu.checks", checks_);
  stats.add("shared_rdu.races", races_);
  stats.add("shared_rdu.barrier_resets", resets_);
  if (evictions_ != 0) stats.add("rd.evictions", evictions_);
}

}  // namespace haccrg::rd
