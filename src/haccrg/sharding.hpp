// Granule shard ownership — the single home for the address-sharding
// math shared by trace replay (src/trace/replay.cpp) and the serving
// workers (src/serve). Detector state is confined per granule, so work
// partitions cleanly by aligned 4 KiB address blocks: a granule never
// spans a block (granularities are powers of two <= 4096), so the shard
// that owns a block executes exactly the serial replay's check sequence
// for every granule in it. Per-shard race sets are disjoint by
// construction, which is what makes the sharded replay byte-identical to
// serial for any shard count. Shared addresses are SM-local and global
// addresses are heap offsets; the two live in separate detector state,
// so one ownership function serves both.
#pragma once

#include "common/types.hpp"

namespace haccrg::rd {

/// Ownership block size: aligned 4 KiB address blocks.
inline constexpr u32 kShardBlockShift = 12;

/// Which shard of `shard_count` owns the block containing `addr`.
inline u32 shard_of_addr(Addr addr, u32 shard_count) {
  return shard_count <= 1 ? 0 : static_cast<u32>((addr >> kShardBlockShift) % shard_count);
}

/// Does shard `shard_index` of `shard_count` own `addr`'s block?
inline bool shard_owns(Addr addr, u32 shard_count, u32 shard_index) {
  return shard_count <= 1 || shard_of_addr(addr, shard_count) == shard_index;
}

}  // namespace haccrg::rd
