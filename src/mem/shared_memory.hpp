// Per-SM banked shared memory (scratchpad). Storage is functional; the
// bank-conflict calculator provides the access timing the SM charges.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace haccrg::mem {

/// Shared-memory scratchpad of one SM. Addresses are SM-local byte
/// offsets; the SM adds each block's partition base before calling in.
/// `banks` must be a power of two (GpuConfig::validate checks it), so a
/// bank index is a mask, not a division.
class SharedMemory {
 public:
  SharedMemory(u32 bytes, u32 banks) : data_(bytes, 0), banks_(banks), bank_mask_(banks - 1) {}

  u32 size() const { return static_cast<u32>(data_.size()); }
  u32 banks() const { return banks_; }

  u8 read_u8(u32 addr) const { return data_.at(addr); }
  void write_u8(u32 addr, u8 v) { data_.at(addr) = v; }
  u32 read_u32(u32 addr) const;
  void write_u32(u32 addr, u32 v);

  void clear(u32 addr, u32 bytes);

  /// Bank of a byte address: successive 32-bit words map to successive
  /// banks, as in NVIDIA hardware.
  u32 bank_of(u32 addr) const { return (addr / 4) & bank_mask_; }

  /// Cycles needed to serve a warp's shared accesses: the maximum number
  /// of *distinct words* any single bank must deliver (same-word accesses
  /// broadcast and do not conflict).
  u32 conflict_cycles(const std::vector<u32>& lane_addrs) const;

 private:
  std::vector<u8> data_;
  u32 banks_;
  u32 bank_mask_;
  /// conflict_cycles scratch, reused across calls (the SM calls once per
  /// shared instruction — keep it allocation-free): per bank, the count
  /// and list of distinct words seen so far, bank b's list starting at
  /// b * lane_addrs.size().
  mutable std::vector<u32> bank_load_;
  mutable std::vector<u32> bank_words_;
};

}  // namespace haccrg::mem
