// Shared helpers for the table/figure reproduction harnesses. Each bench
// binary regenerates one table or figure of the paper; EXPERIMENTS.md
// records paper-vs-measured values.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <memory>

#include "analysis/static_race.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "kernels/common.hpp"
#include "sim/gpu.hpp"

namespace haccrg::bench {

/// The experiment GPU: the paper's Table I machine (30 SMs, 8 slices).
inline arch::GpuConfig experiment_gpu() {
  arch::GpuConfig cfg;  // defaults follow Table I
  cfg.device_mem_bytes = 64u * 1024u * 1024u;
  return cfg;
}

/// Detection configurations used across experiments.
inline rd::HaccrgConfig detection_off() { return rd::HaccrgConfig{}; }

inline rd::HaccrgConfig detection_shared_only() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.shared_granularity = 16;  // the paper's chosen operating point
  return cfg;
}

inline rd::HaccrgConfig detection_combined() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

/// Word-granularity detection (the effectiveness study's setting).
inline rd::HaccrgConfig detection_word() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 4;
  cfg.global_granularity = 4;
  return cfg;
}

/// Workload scale for the performance experiments: enough blocks to keep
/// the 30-SM machine loaded (the paper runs full-size inputs; see the
/// scaling notes in DESIGN.md).
constexpr u32 kExperimentScale = 4;

/// One bench execution plus host-side throughput: how long the simulation
/// took on the wall clock and how many simulated kilocycles it retired per
/// second of host time. KIPS is the figure of merit the parallel engine is
/// judged by — it is comparable across machines in a way raw wall time is
/// not, and its ratio between thread counts is the engine speedup.
/// `gpu_init_ms` is the host time spent building the Gpu before launch;
/// it is outside `wall_ms` and KIPS, and is reported so that a set-up
/// cost never hides from the benches.
struct TimedRun {
  sim::SimResult result;
  f64 wall_ms = 0.0;
  f64 kilocycles_per_sec = 0.0;
  f64 gpu_init_ms = 0.0;
};

/// Run one benchmark under one detection config; aborts on sim errors.
/// `sim_config` defaults to the environment (HACCRG_THREADS) so every
/// existing bench binary picks up the parallel engine without changes.
inline TimedRun run_benchmark_timed(const std::string& name, const rd::HaccrgConfig& det,
                                    kernels::BenchOptions opts = {},
                                    const sim::SimConfig& sim_config = sim::SimConfig::from_env()) {
  if (opts.scale == 1) opts.scale = kExperimentScale;
  const kernels::BenchmarkInfo* info = kernels::find_benchmark(name);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", name.c_str());
    std::abort();
  }
  const auto init0 = std::chrono::steady_clock::now();
  sim::Gpu gpu(experiment_gpu(), det, sim_config);
  const auto init1 = std::chrono::steady_clock::now();
  kernels::PreparedKernel prep = info->prepare(gpu, opts);
  const auto t0 = std::chrono::steady_clock::now();
  sim::SimResult result = gpu.launch(prep.launch());
  const auto t1 = std::chrono::steady_clock::now();
  if (!result.completed) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(), result.error.c_str());
    std::abort();
  }
  TimedRun run;
  run.gpu_init_ms = std::chrono::duration<f64, std::milli>(init1 - init0).count();
  run.wall_ms = std::chrono::duration<f64, std::milli>(t1 - t0).count();
  run.kilocycles_per_sec =
      run.wall_ms > 0.0 ? static_cast<f64>(result.cycles) / run.wall_ms : 0.0;
  run.result = std::move(result);
  return run;
}

inline sim::SimResult run_benchmark(const std::string& name, const rd::HaccrgConfig& det,
                                    kernels::BenchOptions opts = {}) {
  return run_benchmark_timed(name, det, opts).result;
}

/// Like run_benchmark but with the static RDU filter engaged: the kernel
/// is analyzed at the detector's granularities and provably-safe
/// accesses skip their shadow checks. Detection results must match the
/// unfiltered run; `rd.static_filtered` in the stats counts the skips.
inline sim::SimResult run_benchmark_static_filtered(const std::string& name,
                                                    rd::HaccrgConfig det,
                                                    kernels::BenchOptions opts = {}) {
  if (opts.scale == 1) opts.scale = kExperimentScale;
  det.static_filter = true;
  const kernels::BenchmarkInfo* info = kernels::find_benchmark(name);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown benchmark %s\n", name.c_str());
    std::abort();
  }
  sim::Gpu gpu(experiment_gpu(), det);
  kernels::PreparedKernel prep = info->prepare(gpu, opts);
  analysis::AnalyzeOptions aopts;
  aopts.shared_granularity = det.shared_granularity;
  aopts.global_granularity = det.global_granularity;
  prep.static_report =
      std::make_shared<analysis::StaticRaceReport>(analysis::analyze(prep.program, aopts));
  sim::SimResult result = gpu.launch(prep.launch());
  if (!result.completed) {
    std::fprintf(stderr, "%s failed: %s\n", name.c_str(), result.error.c_str());
    std::abort();
  }
  return result;
}

/// Host-concurrency provenance for BENCH_*.json writers. Throughput
/// numbers are meaningless without knowing how many hardware threads
/// backed them, and whether the run oversubscribed the host (threads
/// beyond the hardware count measure scheduler churn, not speedup) —
/// every writer embeds these fields next to its timing data.
/// `threads_used` is the widest worker count the bench configured.
inline std::string host_concurrency_json(u32 threads_used) {
  const u32 hw = std::thread::hardware_concurrency();
  const bool oversubscribed = hw > 0 && threads_used > hw;
  return "\"host_hardware_threads\": " + std::to_string(hw) +
         ", \"threads_used\": " + std::to_string(threads_used) +
         ", \"oversubscribed\": " + (oversubscribed ? "true" : "false");
}

/// Convenience overload: the engine thread count the environment
/// (HACCRG_THREADS) selects, which is what most benches run with.
inline std::string host_concurrency_json() {
  return host_concurrency_json(sim::SimConfig::from_env().num_threads);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n(reproduces %s of 'HAccRG: Hardware-Accelerated Data Race "
              "Detection in GPUs', ICPP 2013)\n\n",
              title.c_str(), paper_ref.c_str());
}

}  // namespace haccrg::bench
