// perfbench entry point: flags, set-up, the timed phase, the traced run's
// extras, metrics and the result line.
//
//   perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A bad flag exits 2; a failed set-up or output check exits
// 1. See perfbench/README.md for the metrics and workloads.
#include <malloc.h>
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {
namespace {

/// Set-ups timed before the timed phase, and after it on plain runs;
/// setup_s is the median of all of them. A set-up lasts about a second,
/// and a shared host's speed shifts level for tens of seconds at a
/// time: timing set-ups at both ends of the run samples two stretches
/// of the host instead of one.
constexpr u32 kSetupReps = 3;
constexpr u32 kLateSetupReps = 2;

/// Jobs a timed phase runs at least, so that 10 sit beyond the p90.
/// `--seconds 0` is a smoke run instead: one pass of the suite.
constexpr u64 kMinJobs = 100;

/// Recorded traces and the traced run's spans, under the checkout root.
constexpr char kWorkDir[] = ".bench_build/perfbench-work";

struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
};

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct Options {
  std::string workload;
  u32 seed = 0;
  u32 seconds = 10;
  bool trace = false;

  std::string spans_path() const {
    return std::string(kWorkDir) + "/spans-" + workload + "-seed" + std::to_string(seed) + ".json";
  }
};

int usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sim_serial|sim_threads2|serve_warm|serve_cold\n"
               "                 [--seed N] [--seconds N] [--trace 0|1]\n",
               problem);
  return 2;
}

bool parse_u64(const char* text, u64 max, u64& out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  out = value;
  return true;
}

/// Strict parse: every flag is known and carries a well-formed value.
/// Returns 0 on success, else the exit code (2) after printing usage.
int parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    u64 number = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, 0xffffffffULL, number)) return usage("--seed takes a 32-bit count");
      opt.seed = static_cast<u32>(number);
    } else if (flag == "--seconds") {
      if (!parse_u64(value, 3600, number)) return usage("--seconds takes 0..3600");
      opt.seconds = static_cast<u32>(number);
    } else if (flag == "--trace") {
      if (!parse_u64(value, 1, number)) return usage("--trace takes 0 or 1");
      opt.trace = number == 1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty()) return usage("--workload is required");
  if (find_workload(opt.workload) == nullptr)
    return usage(("unknown workload " + opt.workload).c_str());
  return 0;
}

/// Everything set-up builds and the timed phases reuse.
struct State {
  std::vector<Reference> refs;
  std::unique_ptr<haccrg::serve::Server> server;
  std::vector<std::string> reports;  ///< first served report per kernel
  std::optional<JobOrder> order;
};

/// One set-up: the reference pass (the warm-up for sim_serial), the
/// 2-thread warm-up pass, or trace recording + server + warm-up pass.
bool setup(const Workload& w, const Options& opt, SpanLog& spans, State& state,
           std::string& error) {
  std::vector<Reference> refs;
  if (!reference_pass(opt.seed, w.served ? kWorkDir : "", spans, refs, error)) return false;
  for (size_t k = 0; k < state.refs.size(); ++k) {
    if (refs[k].cycles != state.refs[k].cycles || refs[k].races != state.refs[k].races) {
      error = refs[k].name + ": reference runs disagree";
      return false;
    }
  }
  state.order.emplace(opt.seed, static_cast<u32>(refs.size()));
  if (!w.served && w.engine_threads > 1) {
    LiveSpec spec;
    spec.seed = opt.seed;
    spec.threads = w.engine_threads;
    JobOrder warm_order(opt.seed, static_cast<u32>(refs.size()));
    const Phase warm = run_live_phase(refs, spec, warm_order, Budget{}, spans);
    if (warm.failed != 0) {
      error = warm.errors.front();
      return false;
    }
  }
  if (w.served) {
    state.server = std::make_unique<haccrg::serve::Server>(server_config(w.cold));
    state.reports.clear();
    const Phase warm = run_served_phase(*state.server, refs, state.reports, *state.order,
                                        Budget{}, Decodes::kEveryJob, false, spans);
    if (warm.failed != 0) {
      error = warm.errors.front();
      return false;
    }
  }
  state.refs = std::move(refs);
  return true;
}

/// A traced run times two phases, plain and traced, in `--seconds` of
/// timing: half each. A plain run gives the whole length to one phase.
Phase timed_phase(const Workload& w, const Options& opt, State& state, bool traced,
                  SpanLog& spans) {
  const f64 seconds = opt.trace ? opt.seconds / 2.0 : static_cast<f64>(opt.seconds);
  const Budget budget{seconds, opt.seconds > 0 ? kMinJobs : 0};
  if (w.served)
    return run_served_phase(*state.server, state.refs, state.reports, *state.order, budget,
                            w.cold ? Decodes::kEveryJob : Decodes::kNone, traced, spans);
  LiveSpec spec;
  spec.seed = opt.seed;
  spec.threads = w.engine_threads;
  spec.profile = traced;
  return run_live_phase(state.refs, spec, *state.order, budget, spans);
}

f64 peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

f64 ratio(f64 num, f64 den) { return den != 0.0 ? num / den : 0.0; }

f64 stat_delta(const Phase& phase, const char* key) {
  return json_number(phase.stats_after, key) - json_number(phase.stats_before, key);
}

/// Live-job sums the sim-layer metrics are computed from: the traced
/// phase's jobs on sim_*, the probe's serial launches on serve_*.
struct LiveTotals {
  f64 jobs = 0.0;
  f64 init_ms = 0.0;
  f64 prepare_ms = 0.0;
  f64 launch_ms = 0.0;
  f64 cycles = 0.0;
  haccrg::StatSet prof;
};

std::vector<Metric> end_to_end(const std::vector<f64>& setup_s, const Phase& plain,
                               const State& state) {
  u64 pass_cycles = 0;
  for (const Reference& ref : state.refs) pass_cycles += ref.cycles;
  const Summary s = summarize(plain);
  return {
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"kips", s.kips, "kcycle/s"},
      {"job_ms_p50", s.p50_ms, "ms"},
      {"job_ms_p90", s.p90_ms, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_cycles", static_cast<f64>(pass_cycles), "cycle"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const State& state, const Phase& plain,
                              const Phase& traced, const Probe& probe) {
  const std::vector<ProbeKernel>& pk = probe.kernels;
  const f64 n = static_cast<f64>(pk.size());
  auto sum = [&pk](auto field) {
    f64 total = 0.0;
    for (const ProbeKernel& k : pk) total += static_cast<f64>(field(k));
    return total;
  };

  LiveTotals live;
  if (!w.served) {
    f64 cycles = 0.0;
    for (const JobSample& job : traced.samples) cycles += static_cast<f64>(job.cycles);
    live = {static_cast<f64>(traced.samples.size()), traced.init_ms, traced.prepare_ms,
            traced.launch_ms, cycles, traced.prof};
  } else {
    live = {n, sum([](const ProbeKernel& k) { return k.init_ms; }),
            sum([](const ProbeKernel& k) { return k.prepare_ms; }),
            sum([](const ProbeKernel& k) { return k.launch_ms; }),
            sum([](const ProbeKernel& k) { return k.cycles; }), {}};
    for (const ProbeKernel& k : pk)
      for (const auto& [name, value] : k.stats.counters())
        if (name.rfind("prof.", 0) == 0) live.prof.add(name, value);
  }

  std::vector<Metric> m = {
      {"kernels.prepare_ms", ratio(live.prepare_ms, live.jobs), "ms"},
      {"sim.gpu_init_ms", ratio(live.init_ms, live.jobs), "ms"},
      {"sim.launch_ms", ratio(live.launch_ms, live.jobs), "ms"},
      {"sim.us_per_kcycle", ratio(live.launch_ms * 1000.0, live.cycles / 1000.0), "us"},
  };
  for (const char* phase : {"sm_cycle", "commit", "partition", "response"}) {
    const std::string key = std::string("prof.") + phase;
    m.push_back({std::string("sim.phase.") + phase + "_ms",
                 ratio(static_cast<f64>(live.prof.get(key + ".ns")) / 1e6, live.jobs), "ms"});
    m.push_back({std::string("sim.phase.") + phase + ".calls",
                 ratio(static_cast<f64>(live.prof.get(key + ".calls")), live.jobs), "count"});
  }

  const f64 barriers = sum([](const ProbeKernel& k) { return k.barriers_t2; });
  const f64 cycles = sum([](const ProbeKernel& k) { return k.cycles; });
  const f64 launch = sum([](const ProbeKernel& k) { return k.launch_ms; });
  const f64 launch_t2 = sum([](const ProbeKernel& k) { return k.launch_t2_ms; });
  const f64 launch_off = sum([](const ProbeKernel& k) { return k.launch_off_ms; });
  const f64 replay1 = sum([](const ProbeKernel& k) { return k.replay1_ms; });
  const f64 replay2 = sum([](const ProbeKernel& k) { return k.replay2_ms; });
  auto stat = [&sum](const char* key) {
    return sum([key](const ProbeKernel& k) { return k.stats.get(key); });
  };
  f64 races = 0.0;
  for (const Reference& ref : state.refs) races += static_cast<f64>(ref.unique_races);
  m.insert(m.end(), {
      {"sim.barriers_per_cycle", ratio(barriers, cycles), "1/cycle"},
      {"sim.ns_per_barrier", ratio((launch_t2 - launch) * 1e6, barriers), "ns"},
      {"haccrg.detect_host_ms", ratio(launch - launch_off, n), "ms"},
      {"haccrg.shared_checks", stat("shared_rdu.checks"), "count"},
      {"haccrg.global_checks", stat("global_rdu.checks"), "count"},
      {"haccrg.races_unique", races, "count"},
      {"haccrg.sim_overhead",
       ratio(cycles, sum([](const ProbeKernel& k) { return k.cycles_off; })), "x"},
      {"mem.icnt_packets", stat("icnt.request_packets") + stat("icnt.response_packets"), "count"},
      {"mem.shadow_packets", stat("partition.shadow_packets"), "count"},
      {"mem.dram_util", ratio(sum([](const ProbeKernel& k) { return k.dram_util; }), n), "ratio"},
      {"trace.record_ms", ratio(sum([](const ProbeKernel& k) { return k.record_ms; }), n), "ms"},
      {"trace.decode_ms", ratio(sum([](const ProbeKernel& k) { return k.decode_ms; }), n), "ms"},
      {"trace.bytes", sum([](const ProbeKernel& k) { return k.trace_bytes; }), "bytes"},
      {"trace.events", sum([](const ProbeKernel& k) { return k.trace_events; }), "count"},
      {"trace.replay_ms", ratio(replay2, n), "ms"},
      {"trace.shard_speedup", ratio(replay1, replay2), "x"},
      {"serve.render_ms", ratio(sum([](const ProbeKernel& k) { return k.render_ms; }), n), "ms"},
  });

  // Served stages: the traced phase on serve_*, the probe's served pass
  // on sim_*. Overhead is what a job's latency holds beyond the stages
  // one worker runs for it (queue wait, hashing, copies, contention).
  const Phase& served = w.served ? traced : probe.served;
  const f64 decodes = stat_delta(served, "trace_decodes");
  const f64 hits = stat_delta(served, "trace_cache_hits");
  const f64 reuses = stat_delta(served, "arena_reuses");
  const f64 builds = stat_delta(served, "arena_builds");
  f64 job_ms = 0.0, stage_ms = 0.0, decode_ms = 0.0;
  for (const JobSample& job : served.samples) {
    job_ms += job.ms;
    stage_ms += pk[job.kernel].replay2_ms + pk[job.kernel].render_ms;
    decode_ms += pk[job.kernel].decode_ms;
  }
  const f64 jobs = static_cast<f64>(served.samples.size());
  m.insert(m.end(), {
      {"serve.overhead_ms",
       ratio(job_ms - stage_ms - ratio(decodes, jobs) * decode_ms, jobs), "ms"},
      {"serve.cache_hit_rate", ratio(hits, hits + decodes), "ratio"},
      {"serve.arena_reuse_rate", ratio(reuses, reuses + builds), "ratio"},
      {"serve.queue_depth_max", static_cast<f64>(served.queue_depth_max), "count"},
      {"serve.rejected", stat_delta(served, "rejected"), "count"},
      {"serve.failed", stat_delta(served, "failed"), "count"},
      {"tracing.overhead_pct",
       (ratio(summarize(plain).kips, summarize(traced).kips) - 1.0) * 100.0,
       "%"},
  });
  return m;
}

std::string json_value(f64 value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print_result(const Workload& w, const Options& opt, const Phase& plain,
                  const std::vector<Metric>& metrics, u64 attempted, u64 failed) {
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  const bool served = w.served;
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %u, \"run_seconds\": %u, \"trace\": %d, "
      "\"nproc\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", \"git_describe\": \"%s\", "
      "\"engine_threads\": %u, \"server_workers\": %u, \"replay_shards\": %u, "
      "\"outstanding_jobs\": %u, \"timed_jobs\": %llu, \"timed_seconds\": %.3f}\n",
      w.name, opt.seed, opt.seconds, opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, compiler(), describe != nullptr ? describe : "unknown",
      w.engine_threads, served ? kServerWorkers : 0, served ? kReplayShards : 0,
      served ? kOutstanding : 1, static_cast<unsigned long long>(plain.jobs), plain.seconds);
  for (const Metric& metric : metrics)
    std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            json_value(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void report_errors(const char* what, const Phase& phase) {
  for (const std::string& error : phase.errors)
    std::fprintf(stderr, "perfbench: %s: %s\n", what, error.c_str());
}

int run(int argc, char** argv) {
  Options opt;
  if (const int code = parse(argc, argv, opt); code != 0) return code;
  const Workload& w = *find_workload(opt.workload);
  std::error_code ec;
  std::filesystem::create_directories(kWorkDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", kWorkDir,
                 ec.message().c_str());
    return 1;
  }

  SpanLog spans(opt.trace);
  SpanLog untraced(false);
  State state;
  std::vector<f64> setup_s;
  auto set_up = [&](u32 reps) {
    for (u32 rep = 0; rep < reps; ++rep) {
      // Hand the previous set-up's freed memory back to the OS, so that
      // peak_rss_mb is the footprint of one set-up plus the timed phase,
      // not the allocator's leftovers from repeating the set-up.
      state.server.reset();
      malloc_trim(0);
      const Clock::time_point t0 = Clock::now();
      std::string error;
      if (!setup(w, opt, untraced, state, error)) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
        return false;
      }
      setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    return true;
  };
  if (!set_up(kSetupReps)) return 1;

  const Phase plain = timed_phase(w, opt, state, /*traced=*/false, untraced);
  report_errors("timed phase", plain);
  u64 attempted = plain.jobs;
  u64 failed = plain.failed;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    if (!set_up(kLateSetupReps)) return 1;
    metrics = end_to_end(setup_s, plain, state);
  } else {
    const Phase traced = timed_phase(w, opt, state, /*traced=*/true, spans);
    report_errors("traced phase", traced);
    Phase probe_failures;
    // The result line carries every per-layer metric on every workload;
    // sim_* has no served phase of its own, so the probe serves one pass.
    const Probe probe = run_probe(opt.seed, state.refs, kWorkDir, !w.served, spans,
                                  probe_failures);
    report_errors("probe", probe_failures);
    report_errors("probe served pass", probe.served);
    attempted += traced.jobs + probe.ops;
    failed += traced.failed + probe_failures.failed + probe.served.failed;
    metrics = per_layer(w, state, plain, traced, probe);
    if (!spans.write_json(opt.spans_path())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.spans_path().c_str());
      ++failed;
    }
  }
  print_result(w, opt, plain, metrics, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
