// Determinism harness for the parallel epoch engine: for every registry
// kernel (and the full injection campaign), running under any worker
// thread count {1, 2, 8} must produce byte-identical results — cycle
// counts, the full serialized stat set, and the exact race list — across
// three different workload seeds. The engine commits all cross-SM
// effects at per-cycle barriers in SM-id order, so any divergence here
// is a bug in that staging, not acceptable jitter.
#include <gtest/gtest.h>

#include <string>

#include "kernels/common.hpp"
#include "kernels/injection.hpp"
#include "sim/gpu.hpp"
#include "sim/sim_config.hpp"

namespace haccrg {
namespace {

using kernels::BenchOptions;
using kernels::PreparedKernel;
using kernels::find_benchmark;

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
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

/// Everything a run produces that must not depend on the thread count.
struct Signature {
  bool completed = false;
  std::string error;
  Cycle cycles = 0;
  std::string stats;  ///< StatSet::serialize()
  std::string races;  ///< every record, in log order, fully spelled out
  bool verified = false;
};

std::string race_signature(const rd::RaceLog& log) {
  std::string sig = "total=" + std::to_string(log.total()) + "\n";
  for (const rd::RaceRecord& r : log.races()) {
    sig += r.describe();
    sig += " granule=" + std::to_string(r.granule_addr);
    sig += " cycle=" + std::to_string(r.cycle);
    sig += " threads=" + std::to_string(r.first_thread) + "/" + std::to_string(r.second_thread);
    sig += "\n";
  }
  return sig;
}

Signature run_once(const std::string& name, u32 num_threads, u32 seed,
                   const fault::FaultPlan& faults = {}) {
  sim::SimConfig sim;
  sim.num_threads = num_threads;
  sim.faults = faults;
  sim::Gpu gpu(test_gpu(), detection_combined(), sim);
  BenchOptions opts;
  opts.seed = seed;
  PreparedKernel prep = find_benchmark(name)->prepare(gpu, opts);
  sim::SimResult r = gpu.launch(prep.launch());

  Signature sig;
  sig.completed = r.completed;
  sig.error = r.error;
  sig.cycles = r.cycles;
  sig.stats = r.stats.serialize();
  sig.races = race_signature(r.races);
  std::string msg;
  sig.verified = prep.verify ? prep.verify(gpu.memory(), &msg) : true;
  EXPECT_TRUE(sig.verified) << name << " seed " << seed << ": " << msg;
  return sig;
}

class Determinism : public ::testing::TestWithParam<const char*> {};

TEST_P(Determinism, ThreadCountIsInvisible) {
  const std::string name = GetParam();
  for (u32 seed : {0u, 1u, 2u}) {
    const Signature base = run_once(name, 1, seed);
    ASSERT_TRUE(base.completed) << base.error;
    for (u32 threads : {2u, 8u}) {
      const Signature par = run_once(name, threads, seed);
      ASSERT_TRUE(par.completed) << par.error;
      const std::string cfg = name + " seed " + std::to_string(seed) + ": drift at " +
                              std::to_string(threads) + " threads";
      EXPECT_EQ(base.cycles, par.cycles) << cfg << " (cycle count)";
      EXPECT_EQ(base.stats, par.stats) << cfg << " (stats)";
      EXPECT_EQ(base.races, par.races) << cfg << " (race log)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, Determinism,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

// Seeds must actually change the workload (otherwise the three-seed sweep
// above tests the same run three times). HASH mixes the seed into every
// key, so the probe sequences — and with them cycles or the stat set —
// must move. (Kernels like REDUCE only reseed data *values*, which never
// touch the address stream, so they are the wrong probe here.)
TEST(DeterminismSeeds, SeedChangesWorkload) {
  const Signature s0 = run_once("HASH", 1, 0);
  const Signature s1 = run_once("HASH", 1, 1);
  ASSERT_TRUE(s0.completed && s1.completed);
  EXPECT_TRUE(s0.stats != s1.stats || s0.cycles != s1.cycles)
      << "seed 1 produced the identical run; seed plumbing is dead";
}

// The full 41-case injection campaign: the detected/undetected verdict
// and the exact race counts must be invariant under every thread count.
// Each case is a small kernel, so the sweep is cheap; it is also the one
// most likely to catch a staging bug, because each case plants one
// specific race the log must still carry.
TEST(DeterminismInjection, AllCasesThreadInvariant) {
  const auto cases = kernels::all_injection_cases();
  ASSERT_EQ(cases.size(), 41u);
  for (const auto& c : cases) {
    const auto base = kernels::run_injection_case(c, test_gpu(), sim::SimConfig{});
    for (u32 threads : {2u, 8u}) {
      sim::SimConfig sim;
      sim.num_threads = threads;
      const auto par = kernels::run_injection_case(c, test_gpu(), sim);
      const std::string cfg = c.label() + " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(base.detected, par.detected) << cfg;
      EXPECT_EQ(base.races_in_space, par.races_in_space) << cfg;
      EXPECT_EQ(base.races_total, par.races_total) << cfg;
    }
  }
}

// --- Fault campaigns ---------------------------------------------------------
//
// The fault injector draws from one RNG stream per (site, unit), and
// cross-SM sites roll only in serial engine phases, so an identical
// FaultPlan seed must reproduce the identical campaign — same stats
// fingerprint, same race set — at any worker-thread count.

fault::FaultPlan sample_plan(u64 seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.set_rate(fault::FaultSite::kSharedShadowFlip, 2000);
  plan.set_rate(fault::FaultSite::kGlobalShadowFlip, 2000);
  plan.set_rate(fault::FaultSite::kBloomFlip, 1000);
  plan.set_rate(fault::FaultSite::kRaceRegDrop, 1000);
  plan.set_rate(fault::FaultSite::kIcntDrop, 20000);
  plan.set_rate(fault::FaultSite::kIcntDup, 10000);
  plan.set_rate(fault::FaultSite::kIcntDelay, 20000);
  plan.set_rate(fault::FaultSite::kDramShadowFlip, 5000);
  return plan;
}

class FaultDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultDeterminism, CampaignThreadInvariant) {
  const std::string name = GetParam();
  for (u64 fault_seed : {42ull, 1337ull}) {
    const Signature base = run_once(name, 1, 0, sample_plan(fault_seed));
    ASSERT_TRUE(base.completed) << base.error;
    for (u32 threads : {2u, 8u}) {
      const Signature par = run_once(name, threads, 0, sample_plan(fault_seed));
      ASSERT_TRUE(par.completed) << par.error;
      EXPECT_EQ(base.cycles, par.cycles)
          << name << " fault seed " << fault_seed << ": drift at " << threads << " threads";
      EXPECT_EQ(base.stats, par.stats)
          << name << " fault seed " << fault_seed << ": drift at " << threads << " threads";
      EXPECT_EQ(base.races, par.races)
          << name << " fault seed " << fault_seed << ": drift at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sample, FaultDeterminism, ::testing::Values("REDUCE", "HIST", "HASH"));

TEST(FaultDeterminism, FaultSeedChangesCampaign) {
  // Different fault seeds must place injections differently (otherwise
  // the seed is dead plumbing and the sweep in bench_resilience is one
  // campaign repeated).
  const Signature a = run_once("REDUCE", 1, 0, sample_plan(1));
  const Signature b = run_once("REDUCE", 1, 0, sample_plan(2));
  ASSERT_TRUE(a.completed && b.completed);
  EXPECT_TRUE(a.stats != b.stats || a.cycles != b.cycles || a.races != b.races)
      << "fault seed does not reach the injector";
}

TEST(FaultDeterminism, ZeroRatePlanIsByteIdenticalToNoPlan) {
  // A plan whose rates are all zero must not perturb anything — not one
  // stat, not one cycle — even with a nonzero seed. This is the
  // "zero-fault config stays golden" guarantee.
  fault::FaultPlan zero;
  zero.seed = 0xdeadbeef;
  for (const char* name : {"REDUCE", "HASH"}) {
    const Signature plain = run_once(name, 2, 0);
    const Signature armed = run_once(name, 2, 0, zero);
    ASSERT_TRUE(plain.completed && armed.completed);
    EXPECT_EQ(plain.cycles, armed.cycles) << name;
    EXPECT_EQ(plain.stats, armed.stats) << name;
    EXPECT_EQ(plain.races, armed.races) << name;
  }
}

}  // namespace
}  // namespace haccrg
