// The engine's accounting contracts:
//  - WorkerPool::chunk_bounds hands out balanced contiguous chunks (the
//    10-jobs-over-4-workers case that motivated replacing the ceil-chunk
//    split), covers [0, count) exactly, and never overlaps.
//  - PhaseProfiler exports "prof.commit.*" as the one serial commit
//    barrier, opened once per engine step whether or not a fault plan is
//    armed.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "kernels/common.hpp"
#include "sim/gpu.hpp"
#include "sim/sim_config.hpp"
#include "sim/thread_pool.hpp"

namespace haccrg {
namespace {

using kernels::BenchOptions;
using kernels::PreparedKernel;
using kernels::find_benchmark;

// --- WorkerPool::chunk_bounds ------------------------------------------------

void expect_partition(u32 num_threads, u32 count) {
  u32 covered = 0;
  u32 prev_end = 0;
  u32 max_chunk = 0, min_chunk = ~0u;
  for (u32 w = 0; w < num_threads; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, num_threads, count);
    EXPECT_EQ(begin, prev_end) << num_threads << " threads, " << count << " jobs, worker " << w;
    EXPECT_LE(begin, end);
    prev_end = end;
    covered += end - begin;
    max_chunk = std::max(max_chunk, end - begin);
    min_chunk = std::min(min_chunk, end - begin);
  }
  EXPECT_EQ(prev_end, count);
  EXPECT_EQ(covered, count);
  // Balanced: chunk sizes differ by at most one.
  EXPECT_LE(max_chunk - min_chunk, 1u) << num_threads << " threads, " << count << " jobs";
}

TEST(ChunkBounds, TenSmsOverFourWorkersIsBalanced) {
  // The motivating case: the old ceil-chunk split gave 3,3,3,1 and the
  // barrier waited on worker 0's oversized chunk every cycle.
  u32 sizes[4];
  for (u32 w = 0; w < 4; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, 4, 10);
    sizes[w] = end - begin;
  }
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 3u);
  EXPECT_EQ(sizes[2], 2u);
  EXPECT_EQ(sizes[3], 3u);
}

TEST(ChunkBounds, AwkwardCountsPartitionExactly) {
  for (u32 threads : {1u, 2u, 3u, 4u, 7u, 8u, 64u}) {
    for (u32 count : {0u, 1u, 2u, 3u, 7u, 8u, 10u, 41u, 63u, 64u, 65u, 1000u}) {
      expect_partition(threads, count);
    }
  }
}

TEST(ChunkBounds, FewerJobsThanWorkersLeavesTailIdle) {
  // 3 jobs over 8 workers: every job lands somewhere, some workers idle,
  // and no worker gets more than one.
  u32 busy = 0;
  for (u32 w = 0; w < 8; ++w) {
    const auto [begin, end] = sim::WorkerPool::chunk_bounds(w, 8, 3);
    EXPECT_LE(end - begin, 1u);
    busy += end - begin;
  }
  EXPECT_EQ(busy, 3u);
}

// --- Commit profile ----------------------------------------------------------

arch::GpuConfig test_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig detection_combined() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  return cfg;
}

sim::SimResult profiled_run(const sim::SimConfig& sim) {
  sim::Gpu gpu(test_gpu(), detection_combined(), sim);
  BenchOptions opts;
  PreparedKernel prep = find_benchmark("HIST")->prepare(gpu, opts);
  return gpu.launch(prep.launch());
}

TEST(CommitPhaseProfile, OneSerialBucketWithAndWithoutFaults) {
  sim::SimConfig fault_free;
  fault_free.num_threads = 2;
  fault_free.profile = true;
  sim::SimConfig faulty = fault_free;
  faulty.faults.seed = 7;
  faulty.faults.set_rate(fault::FaultSite::kGlobalShadowFlip, 2000);
  for (const sim::SimConfig& sim : {fault_free, faulty}) {
    const std::string label = sim.faults.any() ? "fault plan" : "fault-free";
    const sim::SimResult r = profiled_run(sim);
    ASSERT_TRUE(r.completed) << label << ": " << r.error;
    // The step loop runs once per cycle plus the final drain step, and
    // every step opens the commit scope exactly once.
    EXPECT_EQ(r.stats.get("prof.commit.calls"), r.cycles + 1) << label;
    EXPECT_GT(r.stats.get("prof.commit.ns"), 0u) << label;
    // The commit is one bucket: the only "prof.commit*" keys exported
    // are its own pair, with no sub-phase buckets beside them.
    std::istringstream exported(r.stats.serialize());
    std::set<std::string> commit_keys;
    for (std::string key, value; exported >> key >> value;) {
      if (key.rfind("prof.commit", 0) == 0) commit_keys.insert(key);
    }
    EXPECT_EQ(commit_keys, (std::set<std::string>{"prof.commit.calls", "prof.commit.ns"}))
        << label;
  }
}

}  // namespace
}  // namespace haccrg
