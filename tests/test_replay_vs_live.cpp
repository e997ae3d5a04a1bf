// Decoded replay vs live: the serving path decodes a trace once and
// replays it with replay_decoded, serially, per job. Its race identity
// set must equal the live run's exactly. Covered here over every
// registry kernel and the full 41-case injection campaign, plus the
// replay-arena clear-don't-free path (reused contexts must not leak
// state between kernels or jobs). test_trace_replay.cpp covers the
// streaming replay_trace path the same way.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "kernels/common.hpp"
#include "kernels/injection.hpp"
#include "sim/gpu.hpp"
#include "trace/replay.hpp"

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

/// Record `name` under `opts`, decode the whole trace into `out` and
/// return the live result through `live_out`.
void record_decoded(const std::string& name, const BenchOptions& opts, const std::string& tag,
                    trace::DecodedTrace& out, sim::SimResult& live_out) {
  // Per-process name: ctest -j runs each test in its own process.
  const std::string path = "test_replay_vs_live_" + tag + "_" + std::to_string(getpid()) + ".trc";
  {
    sim::SimConfig sim_cfg;
    sim_cfg.trace_path = path;
    sim::Gpu gpu(test_gpu(), detection_combined(), sim_cfg);
    gpu.set_trace_label(name);
    PreparedKernel prep = find_benchmark(name)->prepare(gpu, opts);
    live_out = gpu.launch(prep.launch());
    ASSERT_TRUE(live_out.completed) << tag << ": " << live_out.error;
  }
  trace::TraceReader reader(path);
  const Status decode = trace::decode_trace(reader, out);
  std::remove(path.c_str());
  ASSERT_TRUE(decode.ok()) << tag << ": " << decode.message();
}

void expect_matches_live(const std::string& name, const BenchOptions& opts,
                         const std::string& tag) {
  trace::DecodedTrace decoded;
  sim::SimResult live;
  record_decoded(name, opts, tag, decoded, live);
  if (::testing::Test::HasFatalFailure()) return;
  const trace::ReplayResult replayed = trace::replay_decoded(decoded);
  ASSERT_TRUE(replayed.ok) << tag << ": " << replayed.error;
  ASSERT_EQ(replayed.kernels.size(), 1u) << tag;
  EXPECT_EQ(replayed.kernels[0].cycles, live.cycles) << tag;
  EXPECT_EQ(replayed.race_set(), trace::race_identity_set(live.races))
      << tag << ": decoded replay race set diverged from the live run";
  EXPECT_EQ(replayed.kernels[0].races.unique(), live.races.unique()) << tag;
}

class DecodedReplayAllKernels : public ::testing::TestWithParam<const char*> {};

TEST_P(DecodedReplayAllKernels, MatchesLiveRaceSet) {
  expect_matches_live(GetParam(), BenchOptions{}, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Registry, DecodedReplayAllKernels,
                         ::testing::Values("MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW", "REDUCE",
                                           "PSUM", "OFFT", "KMEANS", "HASH"));

TEST(DecodedReplayInjection, FullCampaignMatchesLive) {
  const auto cases = kernels::all_injection_cases();
  ASSERT_EQ(cases.size(), 41u);
  for (size_t i = 0; i < cases.size(); ++i) {
    BenchOptions opts;
    opts.injection = cases[i].injection;
    expect_matches_live(cases[i].benchmark, opts, "inj" + std::to_string(i));
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first diverging injection case: " << cases[i].label();
      return;  // one diagnosis is enough
    }
  }
}

/// The byte-level report: every race identity line, in canonical order,
/// plus the check counters the serving report also carries.
std::vector<std::string> report_lines(const trace::ReplayResult& result) {
  std::vector<std::string> lines;
  for (const trace::RaceKey& key : result.race_set()) lines.push_back(trace::race_key_line(key));
  for (const trace::KernelReplay& k : result.kernels) {
    lines.push_back("kernel " + k.label + " unique=" + std::to_string(k.races.unique()) +
                    " shared_checks=" + std::to_string(k.shared_checks) +
                    " global_checks=" + std::to_string(k.global_checks));
  }
  return lines;
}

TEST(DecodedReplayArena, ReusedContextsMatchFreshOnes) {
  trace::DecodedTrace reduce;
  trace::DecodedTrace hist;
  sim::SimResult live;
  record_decoded("REDUCE", BenchOptions{}, "arena_reduce", reduce, live);
  record_decoded("HIST", BenchOptions{}, "arena_hist", hist, live);
  if (::testing::Test::HasFatalFailure()) return;

  const trace::ReplayResult fresh_reduce = trace::replay_decoded(reduce);
  const trace::ReplayResult fresh_hist = trace::replay_decoded(hist);
  ASSERT_TRUE(fresh_reduce.ok) << fresh_reduce.error;
  ASSERT_TRUE(fresh_hist.ok) << fresh_hist.error;

  trace::ReplayArena arena;
  trace::ReplayOptions opts;
  opts.arena = &arena;
  // Interleave two different kernels through the same arena, repeatedly:
  // a clear-don't-free bug (leaked shadow state, stale ID registers)
  // shows up as a report diff against the arena-less baseline.
  for (int round = 0; round < 3; ++round) {
    const trace::ReplayResult r = trace::replay_decoded(reduce, opts);
    const trace::ReplayResult h = trace::replay_decoded(hist, opts);
    ASSERT_TRUE(r.ok && h.ok) << r.error << h.error;
    EXPECT_EQ(report_lines(r), report_lines(fresh_reduce)) << "arena REDUCE round " << round;
    EXPECT_EQ(report_lines(h), report_lines(fresh_hist)) << "arena HIST round " << round;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(arena.reuses(), 0u) << "arena never reused a context — reset_for always refused?";
  EXPECT_GT(arena.builds(), 0u);
}

}  // namespace
}  // namespace haccrg
