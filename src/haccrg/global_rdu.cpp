#include "haccrg/global_rdu.hpp"

namespace haccrg::rd {

GlobalRdu::GlobalRdu(mem::DeviceMemory& memory, const HaccrgConfig& config,
                     const DetectPolicy& policy, RaceLog& log, FenceIdReader fence_reader)
    : memory_(&memory), granularity_(config.global_granularity), policy_(policy), log_(&log),
      fence_reader_(std::move(fence_reader)) {}

u32 GlobalRdu::shadow_bytes_for(u32 app_bytes, u32 granularity) {
  return static_cast<u32>(ceil_div(app_bytes, granularity)) * kEntryBytes;
}

void GlobalRdu::init_shadow(Addr shadow_base, u32 app_bytes) {
  shadow_base_ = shadow_base;
  app_bytes_ = app_bytes;
  shadow_bytes_ = shadow_bytes_for(app_bytes, granularity_);
  memory_->fill(shadow_base_, shadow_bytes_, 0);  // all-zero == initial state
  last_write_.assign(ceil_div(app_bytes, granularity_), 0);
}

GlobalShadowEntry GlobalRdu::entry_at(Addr app_addr) const {
  const u32 granule = app_addr / granularity_;
  return GlobalShadowEntry::unpack(memory_->read_u64(shadow_base_ + granule * kEntryBytes));
}

void GlobalRdu::check(const AccessInfo& access, std::vector<Addr>& shadow_lines_out) {
  if (access.addr >= app_bytes_) return;  // outside the tracked heap
  const u32 first = access.addr / granularity_;
  const u32 last = (access.addr + access.size - 1) / granularity_;
  for (u32 g = first; g <= last; ++g) {
    if (static_cast<u64>(g) * granularity_ >= app_bytes_) break;
    ++checks_;
    const Addr entry_addr = shadow_base_ + g * kEntryBytes;
    u64 raw = memory_->read_u64(entry_addr);
    if (faults_ != nullptr) {
      // Transient read-path flip: the corrupted word feeds this check,
      // and persists only if the state machine writes the entry back.
      u32 bit = 0;
      if (faults_->global_shadow_flip(bit)) raw ^= u64{1} << bit;
    }
    GlobalShadowEntry entry = GlobalShadowEntry::unpack(raw);
    AccessInfo granule_access = access;
    granule_access.addr = g * granularity_;
    // Stale-L1 qualification: only an L1 line filled before the
    // granule's last write can serve stale data.
    if (granule_access.l1_hit && granule_access.l1_fill_cycle >= last_write_[g]) {
      granule_access.l1_hit = false;
    }
    if (granule_access.is_write) last_write_[g] = granule_access.cycle;
    CheckOutcome out = check_global_access(entry, granule_access, policy_, fence_reader_);
    if (out.entry_changed) {
      memory_->write_u64(entry_addr, entry.pack());
      ++shadow_writes_;
    }
    if (out.race) {
      ++races_;
      log_->record(*out.race);
    }
    shadow_lines_out.push_back(entry_addr);
  }
}

void GlobalRdu::export_stats(StatSet& stats) const {
  stats.add("global_rdu.checks", checks_);
  stats.add("global_rdu.races", races_);
  stats.add("global_rdu.shadow_writes", shadow_writes_);
  stats.set("global_rdu.shadow_bytes", shadow_bytes_);
}

}  // namespace haccrg::rd
