// Unit tests for the memory subsystem: device memory + allocator, the
// set-associative cache, the coalescer, banked shared memory, the DRAM
// channel, the interconnect pipes, and the memory partition.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <random>
#include <utility>

#include "arch/config.hpp"
#include "isa/builder.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/device_memory.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/partition.hpp"
#include "mem/shared_memory.hpp"
#include "sim/gpu.hpp"

namespace haccrg {
namespace {

using namespace mem;

// --- DeviceMemory / allocator ------------------------------------------------

TEST(DeviceMemory, ReadWriteRoundTrip) {
  DeviceMemory memory(4096);
  memory.write_u32(0, 0xdeadbeef);
  EXPECT_EQ(memory.read_u32(0), 0xdeadbeefu);
  memory.write_u8(100, 0x7f);
  EXPECT_EQ(memory.read_u8(100), 0x7f);
  memory.write_u64(200, 0x0123456789abcdefULL);
  EXPECT_EQ(memory.read_u64(200), 0x0123456789abcdefULL);
  memory.write_f32(300, 2.5f);
  EXPECT_EQ(memory.read_f32(300), 2.5f);
}

TEST(DeviceMemory, UnalignedWordAccessSnapsDown) {
  DeviceMemory memory(64);
  memory.write_u32(4, 0x11223344);
  EXPECT_EQ(memory.read_u32(6), 0x11223344u);  // same word
}

TEST(DeviceMemory, FillAndCopy) {
  DeviceMemory memory(256);
  memory.fill(0, 256, 0xab);
  EXPECT_EQ(memory.read_u8(255), 0xab);
  u32 host[4] = {1, 2, 3, 4};
  memory.copy_in(16, host, sizeof(host));
  u32 back[4] = {};
  memory.copy_out(back, 16, sizeof(back));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(back[i], host[i]);
}

TEST(DeviceMemory, FreshMemoryReadsZeroEverywhere) {
  const u32 bytes = 16u * 1024u * 1024u;
  DeviceMemory memory(bytes);
  EXPECT_EQ(memory.size(), bytes);
  EXPECT_EQ(memory.read_u64(0), 0u);
  EXPECT_EQ(memory.read_u64(bytes / 2), 0u);
  EXPECT_EQ(memory.read_u64(bytes - 8), 0u);
}

TEST(DeviceMemory, FillAndCopyRoundTripAtBothEnds) {
  const u32 bytes = 1u << 20;
  DeviceMemory memory(bytes);
  memory.fill(0, 64, 0x5a);
  memory.fill(bytes - 64, 64, 0xa5);
  EXPECT_EQ(memory.read_u64(0), 0x5a5a5a5a5a5a5a5aULL);
  EXPECT_EQ(memory.read_u64(bytes - 8), 0xa5a5a5a5a5a5a5a5ULL);
  EXPECT_EQ(memory.read_u8(64), 0u);  // just past the low fill
  EXPECT_EQ(memory.read_u8(bytes - 65), 0u);  // just before the high fill

  const u64 low[2] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  const u64 high[2] = {0x1111222233334444ULL, 0x5555666677778888ULL};
  memory.copy_in(0, low, sizeof(low));
  memory.copy_in(bytes - sizeof(high), high, sizeof(high));
  u64 back[2] = {};
  memory.copy_out(back, 0, sizeof(back));
  EXPECT_EQ(back[0], low[0]);
  EXPECT_EQ(back[1], low[1]);
  memory.copy_out(back, bytes - sizeof(back), sizeof(back));
  EXPECT_EQ(back[0], high[0]);
  EXPECT_EQ(back[1], high[1]);
}

TEST(DeviceMemory, MoveKeepsContents) {
  const u32 bytes = 1u << 20;
  DeviceMemory memory(bytes);
  memory.write_u64(0, 42);
  memory.write_u64(bytes - 8, 43);
  DeviceMemory moved(std::move(memory));
  EXPECT_EQ(moved.size(), bytes);
  EXPECT_EQ(moved.read_u64(0), 42u);
  EXPECT_EQ(moved.read_u64(bytes - 8), 43u);

  DeviceMemory assigned(64);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), bytes);
  EXPECT_EQ(assigned.read_u64(0), 42u);
  EXPECT_EQ(assigned.read_u64(bytes - 8), 43u);
}

// Device memory is zero-on-demand: building a Table I GPU (64 MiB of
// device memory) and reading its last word must not commit the whole
// region. ru_maxrss is a high-water mark, and ctest runs each test in a
// process of its own, so the delta is this GPU's footprint.
TEST(DeviceMemory, TableOneGpuDoesNotCommitDeviceMemory) {
  auto peak_kib = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<u64>(usage.ru_maxrss);
  };
  const u64 before = peak_kib();
  {
    sim::Gpu gpu(arch::GpuConfig{}, rd::HaccrgConfig{});
    ASSERT_EQ(gpu.memory().size(), 64u * 1024u * 1024u);
    EXPECT_EQ(gpu.memory().read_u64(gpu.memory().size() - 8), 0u);
  }
  EXPECT_LT(peak_kib() - before, 8u * 1024u);
}

TEST(Allocator, AlignsTo256AndTracksNames) {
  DeviceMemory memory(64 * 1024);
  DeviceAllocator alloc(memory);
  const Addr a = alloc.alloc(100, "a");
  const Addr b = alloc.alloc(8, "b");
  EXPECT_EQ(a % 256, 0u);
  EXPECT_EQ(b % 256, 0u);
  EXPECT_GT(b, a);
  EXPECT_EQ(alloc.allocations().size(), 2u);
  EXPECT_EQ(alloc.allocations()[0].name, "a");
  EXPECT_EQ(alloc.heap_top(), b + 8);
  alloc.reset();
  EXPECT_EQ(alloc.heap_top(), 0u);
}

// --- Cache ----------------------------------------------------------------------

TEST(Cache, HitAfterFill) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  EXPECT_FALSE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(0, false).hit);
  EXPECT_TRUE(cache.access(32, false).hit);  // same line
  EXPECT_FALSE(cache.access(64, false).hit);
}

TEST(Cache, LruEvictsOldest) {
  // 1024 B, 2-way, 64 B lines -> 8 sets. Addresses 0, 512, 1024 share set 0.
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(512, false);
  cache.access(0, false);      // touch 0 -> 512 is LRU
  cache.access(1024, false);   // evicts 512
  EXPECT_TRUE(cache.probe(0));
  EXPECT_FALSE(cache.probe(512));
  EXPECT_TRUE(cache.probe(1024));
}

TEST(Cache, WriteThroughDoesNotAllocate) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteThroughNoAllocate);
  EXPECT_FALSE(cache.access(0, true).hit);
  EXPECT_FALSE(cache.probe(0));  // no line allocated
  cache.access(0, false);        // read allocates
  EXPECT_TRUE(cache.probe(0));
  cache.access(0, true);  // write hit keeps the line clean
  EXPECT_TRUE(cache.probe(0));
}

TEST(Cache, WriteBackReportsDirtyVictim) {
  Cache cache("t", 128, 1, 64, WritePolicy::kWriteBackAllocate);  // 2 sets
  cache.access(0, true);  // dirty line in set 0
  CacheAccessResult r = cache.access(128, false);  // same set, evicts
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_addr, 0u);
}

TEST(Cache, FillTimeTracksAllocationCycle) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false, 123);
  EXPECT_EQ(cache.fill_time(0), 123u);
  EXPECT_EQ(cache.fill_time(64), 0u);  // absent line
  cache.access(0, false, 999);         // hit does not re-stamp
  EXPECT_EQ(cache.fill_time(0), 123u);
}

TEST(Cache, InvalidateAll) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(64, false);
  cache.invalidate_all();
  EXPECT_FALSE(cache.probe(0));
  EXPECT_FALSE(cache.probe(64));
}

TEST(Cache, MissRateAccounting) {
  Cache cache("t", 1024, 2, 64, WritePolicy::kWriteBackAllocate);
  cache.access(0, false);
  cache.access(0, false);
  cache.access(0, false);
  cache.access(64, false);
  EXPECT_EQ(cache.accesses(), 4u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_DOUBLE_EQ(cache.miss_rate(), 0.5);
}

// --- Coalescer -------------------------------------------------------------------

TEST(Coalescer, UnitStrideWarpIsOneSegment) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 4, 4});
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].addr, 0u);
  EXPECT_EQ(segments[0].lanes.size(), 32u);
}

TEST(Coalescer, StridedAccessSplits) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 128, 4});
  auto segments = coalesce(accesses, 128);
  EXPECT_EQ(segments.size(), 32u);
}

TEST(Coalescer, MisalignedAccessSpansTwoSegments) {
  std::vector<LaneAccess> accesses{{0, 126, 4}};
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].addr, 0u);
  EXPECT_EQ(segments[1].addr, 128u);
}

TEST(Coalescer, SameLineLanesDeduplicated) {
  std::vector<LaneAccess> accesses{{0, 0, 4}, {1, 0, 4}, {2, 4, 4}};
  auto segments = coalesce(accesses, 128);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].lanes.size(), 3u);
}

TEST(Coalescer, IntraWarpWawDetectsSameGranuleWriters) {
  std::vector<LaneAccess> accesses{{0, 0, 4}, {1, 0, 4}, {2, 8, 4}};
  auto conflicts = intra_warp_waw(accesses, 4);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].lane_a, 0u);
  EXPECT_EQ(conflicts[0].lane_b, 1u);
  EXPECT_EQ(conflicts[0].granule_addr, 0u);
}

TEST(Coalescer, IntraWarpWawQuietOnDistinctWords) {
  std::vector<LaneAccess> accesses;
  for (u32 lane = 0; lane < 32; ++lane) accesses.push_back({lane, lane * 4, 4});
  EXPECT_TRUE(intra_warp_waw(accesses, 4).empty());
  // At coarse granularity the same pattern aliases.
  EXPECT_FALSE(intra_warp_waw(accesses, 16).empty());
}

// --- Shared memory bank conflicts --------------------------------------------------

TEST(SharedMemoryBanks, UnitStrideIsConflictFree) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs;
  for (u32 lane = 0; lane < 32; ++lane) addrs.push_back(lane * 4);
  EXPECT_EQ(smem.conflict_cycles(addrs), 2u);  // 32 lanes over 16 banks
}

TEST(SharedMemoryBanks, StrideOfBankCountSerializes) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs;
  for (u32 lane = 0; lane < 16; ++lane) addrs.push_back(lane * 16 * 4);  // all bank 0
  EXPECT_EQ(smem.conflict_cycles(addrs), 16u);
}

TEST(SharedMemoryBanks, BroadcastIsFree) {
  SharedMemory smem(16 * 1024, 16);
  std::vector<u32> addrs(32, 64u);  // everyone reads the same word
  EXPECT_EQ(smem.conflict_cycles(addrs), 1u);
}

/// The O(n^2) definition conflict_cycles must agree with: per bank, the
/// number of distinct words, counting a word once however many lanes ask.
u32 naive_conflict_cycles(const std::vector<u32>& addrs, u32 banks) {
  u32 worst = 1;
  for (u32 bank = 0; bank < banks; ++bank) {
    std::vector<u32> words;
    for (u32 addr : addrs)
      if ((addr / 4) % banks == bank &&
          std::find(words.begin(), words.end(), addr / 4) == words.end())
        words.push_back(addr / 4);
    worst = std::max(worst, static_cast<u32>(words.size()));
  }
  return worst;
}

TEST(SharedMemoryBanks, ConflictCyclesMatchNaiveReference) {
  for (const u32 banks : {16u, 32u}) {
    SCOPED_TRACE(banks);
    SharedMemory smem(16 * 1024, banks);
    std::vector<std::vector<u32>> cases;
    cases.push_back({});                     // empty
    cases.push_back({44});                   // one lane
    cases.push_back(std::vector<u32>(32, 128));  // broadcast
    std::vector<u32> one_bank, in_word, mixed;
    for (u32 lane = 0; lane < 32; ++lane) {
      one_bank.push_back(lane * banks * 4 + 8);  // distinct words, one bank
      in_word.push_back(256 + lane % 4);         // byte addresses inside a word
      mixed.push_back((lane % 3) * banks * 4 + (lane % 2) * 4);
    }
    cases.push_back(one_bank);
    cases.push_back(in_word);
    cases.push_back(mixed);
    // Seeded random lane sets: few distinct words (heavy duplication) up
    // to the whole scratchpad, at every lane count.
    std::mt19937 rng(12345);
    for (u32 trial = 0; trial < 2000; ++trial) {
      const u32 lanes = trial % 33;
      const u32 span = 4u << (trial % 13);
      std::vector<u32> addrs;
      for (u32 lane = 0; lane < lanes; ++lane) addrs.push_back(rng() % span);
      cases.push_back(addrs);
    }
    for (const auto& addrs : cases) {
      ASSERT_EQ(smem.conflict_cycles(addrs), naive_conflict_cycles(addrs, banks))
          << "lanes " << addrs.size();
    }
    // The fixed cases' expected answers, spelled out.
    EXPECT_EQ(smem.conflict_cycles(cases[0]), 1u);
    EXPECT_EQ(smem.conflict_cycles(cases[1]), 1u);
    EXPECT_EQ(smem.conflict_cycles(cases[2]), 1u);
    EXPECT_EQ(smem.conflict_cycles(cases[3]), 32u);
    EXPECT_EQ(smem.conflict_cycles(cases[4]), 1u);
    EXPECT_EQ(smem.conflict_cycles(cases[5]), 3u);
  }
}

TEST(SharedMemoryBanks, Storage) {
  SharedMemory smem(1024, 16);
  smem.write_u32(16, 0x12345678);
  EXPECT_EQ(smem.read_u32(16), 0x12345678u);
  smem.write_u8(3, 0x9a);
  EXPECT_EQ(smem.read_u8(3), 0x9a);
  smem.clear(0, 1024);
  EXPECT_EQ(smem.read_u32(16), 0u);
}

// --- DRAM channel -------------------------------------------------------------------

TEST(Dram, RespectsLatencyAndBurst) {
  DramChannel dram(8, 100, 12);
  Packet pkt;
  pkt.addr = 0;
  dram.push(0, pkt);
  // Not ready before the access latency elapses.
  for (Cycle t = 0; t < 100; ++t) EXPECT_FALSE(dram.cycle(t).has_value()) << t;
  EXPECT_TRUE(dram.cycle(100).has_value());
  EXPECT_EQ(dram.busy_cycles(), 12u);
}

TEST(Dram, BurstSerializesBackToBackRequests) {
  DramChannel dram(8, 10, 12);
  Packet pkt;
  dram.push(0, pkt);
  dram.push(0, pkt);
  Cycle first = 0, second = 0;
  for (Cycle t = 0; t < 100; ++t) {
    if (dram.cycle(t)) {
      if (first == 0)
        first = t;
      else if (second == 0)
        second = t;
    }
  }
  EXPECT_EQ(first, 10u);
  EXPECT_GE(second, first + 12);  // bus busy for the burst
}

TEST(Dram, QueueCapacity) {
  DramChannel dram(2, 10, 4);
  Packet pkt;
  EXPECT_TRUE(dram.can_accept());
  dram.push(0, pkt);
  dram.push(0, pkt);
  EXPECT_FALSE(dram.can_accept());
}

TEST(Dram, UtilizationFraction) {
  DramChannel dram(8, 10, 10);
  Packet pkt;
  dram.push(0, pkt);
  for (Cycle t = 0; t <= 20; ++t) dram.cycle(t);
  EXPECT_DOUBLE_EQ(dram.utilization(100), 0.1);
}

// --- Interconnect -----------------------------------------------------------------

TEST(Interconnect, DeliversAfterLatency) {
  Interconnect icnt(2, 2, 8, 1);
  Packet pkt;
  pkt.addr = 0x40;
  icnt.send_request(1, 0, pkt);
  for (Cycle t = 0; t < 8; ++t) EXPECT_FALSE(icnt.recv_request(1, t).has_value());
  auto got = icnt.recv_request(1, 8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->addr, 0x40u);
}

TEST(Interconnect, RateLimitsPerCycle) {
  Interconnect icnt(1, 1, 4, 1);
  Packet pkt;
  EXPECT_TRUE(icnt.can_send_request(0, 5));
  icnt.send_request(0, 5, pkt);
  EXPECT_FALSE(icnt.can_send_request(0, 5));  // one per cycle
  EXPECT_TRUE(icnt.can_send_request(0, 6));
}

TEST(Interconnect, ResponsesAreIndependentOfRequests) {
  Interconnect icnt(2, 2, 4, 1);
  icnt.send_response(0, 0, Response{PacketKind::kLoad, 0, 3});
  auto rsp = icnt.recv_response(0, 4);
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->warp_slot, 3u);
  EXPECT_TRUE(icnt.idle());
}

// --- Memory partition ----------------------------------------------------------------

arch::GpuConfig tiny_config() {
  arch::GpuConfig cfg;
  cfg.l2_slice_size = 4 * 1024;
  cfg.l2_latency = 5;
  cfg.dram_latency = 20;
  cfg.dram_burst_cycles = 4;
  return cfg;
}

TEST(Partition, MissGoesThroughDramThenHits) {
  MemoryPartition part(0, tiny_config());
  Packet pkt;
  pkt.kind = PacketKind::kLoad;
  pkt.addr = 0;
  pkt.sm_id = 0;
  ASSERT_TRUE(part.accept(pkt));

  Cycle first_done = 0;
  for (Cycle t = 0; t < 200 && first_done == 0; ++t) {
    if (part.cycle(t)) first_done = t;
  }
  EXPECT_GE(first_done, 20u);  // paid the DRAM latency

  // Same line again: L2 hit, much faster.
  ASSERT_TRUE(part.accept(pkt));
  Cycle start = first_done + 1;
  Cycle second_done = 0;
  for (Cycle t = start; t < start + 100 && second_done == 0; ++t) {
    if (part.cycle(t)) second_done = t;
  }
  EXPECT_LE(second_done - start, 10u);  // ~l2_latency
}

TEST(Partition, AtomicPaysExtraLatency) {
  MemoryPartition part(0, tiny_config());
  Packet load;
  load.kind = PacketKind::kLoad;
  load.addr = 0;
  part.accept(load);
  Cycle load_done = 0;
  for (Cycle t = 0; t < 300 && load_done == 0; ++t)
    if (part.cycle(t)) load_done = t;

  MemoryPartition part2(0, tiny_config());
  Packet atomic;
  atomic.kind = PacketKind::kAtomic;
  atomic.addr = 0;
  part2.accept(atomic);
  Cycle atomic_done = 0;
  for (Cycle t = 0; t < 500 && atomic_done == 0; ++t)
    if (part2.cycle(t)) atomic_done = t;

  EXPECT_GT(atomic_done, load_done);
}

TEST(Partition, ShadowPacketsAreCounted) {
  MemoryPartition part(0, tiny_config());
  Packet shadow;
  shadow.kind = PacketKind::kShadow;
  shadow.addr = 0x80;
  shadow.shadow_write = true;
  part.accept(shadow);
  StatSet stats;
  part.export_stats(stats);
  EXPECT_EQ(stats.get("partition.shadow_packets"), 1u);
  EXPECT_EQ(stats.get("partition.data_packets"), 0u);
}

TEST(Config, ValidationCatchesBadGeometry) {
  arch::GpuConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
  cfg.warp_size = 33;
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.simd_width = 5;
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.l1_size = 1000;  // not divisible by ways*line
  EXPECT_NE(cfg.validate(), "");
  cfg = arch::GpuConfig{};
  cfg.num_mem_partitions = 0;
  EXPECT_NE(cfg.validate(), "");
  // Lane masks are 32 bits wide: a 64-lane warp is a power of two that
  // divides max_threads_per_sm, and must still be refused.
  cfg = arch::GpuConfig{};
  cfg.warp_size = 64;
  EXPECT_NE(cfg.validate(), "");
  // The scheduler's ready mask holds 64 warps: 1024 threads of 8-lane
  // warps is 128.
  cfg = arch::GpuConfig{};
  cfg.warp_size = 8;
  cfg.simd_width = 8;
  EXPECT_EQ(cfg.warps_per_sm(), 128u);
  EXPECT_NE(cfg.validate(), "");
  cfg.max_threads_per_sm = 512;  // 64 warps: the widest accepted
  EXPECT_EQ(cfg.validate(), "");
}

TEST(Config, LaunchRejectsGeometryTheInterpreterCannotRepresent) {
  for (const u32 warp_size : {64u, 8u}) {
    SCOPED_TRACE(warp_size);
    arch::GpuConfig cfg;
    cfg.num_sms = 1;
    cfg.device_mem_bytes = 1024 * 1024;
    cfg.warp_size = warp_size;
    cfg.simd_width = 8;
    sim::Gpu gpu(cfg, rd::HaccrgConfig{});
    isa::KernelBuilder kb("noop");
    kb.exit();
    const isa::Program prog = kb.build();
    sim::LaunchConfig launch;
    launch.program = &prog;
    launch.grid_dim = 1;
    launch.block_dim = 64;
    const sim::SimResult result = gpu.launch(launch);
    EXPECT_FALSE(result.completed);
    EXPECT_NE(result.error.find("invalid gpu config: "), std::string::npos) << result.error;
    EXPECT_EQ(result.error, "invalid gpu config: " + cfg.validate());
  }
}

TEST(Config, PartitionInterleavingCoversAllSlices) {
  arch::GpuConfig cfg;
  std::vector<bool> seen(cfg.num_mem_partitions, false);
  for (Addr a = 0; a < cfg.num_mem_partitions * cfg.l2_line; a += cfg.l2_line) {
    seen[cfg.partition_of(a)] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace haccrg
