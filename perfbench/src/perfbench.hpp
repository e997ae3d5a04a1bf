// perfbench: the repository benchmark. One process runs one workload —
// live simulation (sim_serial, sim_threads2) or served trace replay
// (serve_warm, serve_cold) of the ten registry kernels under combined
// detection — through the public entry points of sim, kernels, trace and
// serve, and times those calls from outside. perfbench/README.md
// describes the workloads, the metrics and how to run it.
#pragma once

#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "kernels/common.hpp"
#include "serve/server.hpp"
#include "trace/replay.hpp"

namespace perfbench {

using haccrg::f64;
using haccrg::i64;
using haccrg::u32;
using haccrg::u64;
using haccrg::u8;

using Clock = std::chrono::steady_clock;

inline f64 ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<f64, std::milli>(to - from).count();
}

// --- Spans -----------------------------------------------------------------

/// In-memory span log for the traced run: one record per call the
/// benchmark makes into a layer, written out once at exit. Spans of one
/// job share `job`; `parent` is the enclosing span's id (0 for a root);
/// a job's root span carries the kernel name as its label.
/// Only the client thread records, so there is no locking. A disabled
/// log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Reserve an id for a span recorded later (a parent whose children
  /// are recorded first). Returns 0 when disabled.
  u64 reserve() { return enabled_ ? ++last_id_ : 0; }

  /// Record a finished span under a reserved id (no-op when disabled).
  void record(u64 id, const char* name, u64 parent, u64 job, Clock::time_point start,
              Clock::time_point end, const std::string& label = {});

  /// Reserve + record in one step; returns the new span's id.
  u64 add(const char* name, u64 parent, u64 job, Clock::time_point start,
          Clock::time_point end, const std::string& label = {}) {
    const u64 id = reserve();
    record(id, name, parent, job, start, end, label);
    return id;
  }

  /// A fresh job id (works when disabled too).
  u64 new_job() { return ++last_job_; }

  /// Write every span as JSON ({"spans": [...]}, times in ns since the
  /// log was created). Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    u64 id = 0;
    u64 parent = 0;
    u64 job = 0;
    const char* name = "";
    std::string label;
    i64 start_ns = 0;
    i64 end_ns = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  u64 last_id_ = 0;
  u64 last_job_ = 0;
  std::vector<Span> spans_;
};

// --- Inputs ----------------------------------------------------------------

/// The benchmark pins its own machine and detector settings rather than
/// borrowing a bench helper's, so a change elsewhere cannot silently
/// change what it measures. Table I GPU with 64 MiB of device memory.
haccrg::arch::GpuConfig table1_gpu();
/// Shared (16 B granules) + global (4 B granules) detection.
haccrg::rd::HaccrgConfig detection_combined();
haccrg::rd::HaccrgConfig detection_off();

/// Input-size multiplier: enough blocks to keep all 30 SMs loaded.
inline constexpr u32 kScale = 4;

/// The ten registry kernels, in registry order.
const std::vector<haccrg::kernels::BenchmarkInfo>& suite();

/// Seeded per-pass job order: each pass is a permutation of the suite,
/// and no kernel recurs within kMinRepeatDistance jobs of its previous
/// occurrence, across pass boundaries too. With at most a few served
/// jobs in flight that keeps a one-entry decode cache from ever being
/// hit, which is what makes every serve_cold job decode.
class JobOrder {
 public:
  static constexpr u32 kMinRepeatDistance = 6;
  JobOrder(u32 seed, u32 kernels);
  std::vector<u32> next_pass();

 private:
  u64 state_;
  u32 kernels_;
  std::vector<u32> last_;
  u64 next_random();
};

/// One live simulation: Gpu construction + prepare + launch.
struct LiveSpec {
  const haccrg::kernels::BenchmarkInfo* kernel = nullptr;
  u32 seed = 0;
  bool detect = true;  ///< combined detection, else detection off
  u32 threads = 1;     ///< SimConfig::num_threads
  bool profile = false;
  std::string trace_path;  ///< record an indexed trace here when non-empty
  bool verify = false;     ///< run the kernel's host verifier on the outputs
};

struct LiveRun {
  bool ok = false;
  std::string error;
  u64 cycles = 0;
  u64 unique_races = 0;
  std::set<haccrg::trace::RaceKey> races;
  haccrg::StatSet stats;
  f64 dram_util = 0.0;
  f64 init_ms = 0.0;
  f64 prepare_ms = 0.0;
  f64 launch_ms = 0.0;
  f64 job_ms = 0.0;
};

/// Run one live job, recording a "sim.job" span with "sim.gpu_init",
/// "kernels.prepare" and "sim.launch" children into `spans`.
LiveRun run_live(const LiveSpec& spec, SpanLog& spans, u64 job);

/// What every timed job of a kernel must reproduce.
struct Reference {
  std::string name;
  u64 cycles = 0;
  u64 unique_races = 0;
  std::set<haccrg::trace::RaceKey> races;
  std::vector<u8> trace;  ///< recorded trace image (served workloads only)
};

/// Read a whole file; empty on failure.
std::vector<u8> read_file(const std::string& path);

/// The last "unique_races" of a served report (its totals), -1 if absent.
i64 report_unique_races(const std::string& report);

/// Read `"key": <number>` from JSON this repository writes; -1 if absent.
f64 json_number(const std::string& text, const std::string& key);

/// Linear-interpolation percentile (p in [0, 1]) of `values`.
f64 percentile(std::vector<f64> values, f64 p);

/// Harrell-Davis estimate of the p-quantile (p in (0, 1)) of `values`:
/// the mean of all order statistics weighted by the Beta(p(n+1),
/// (1-p)(n+1)) density, so it rests on the values around rank p*n
/// rather than on one or two of them.
f64 harrell_davis(std::vector<f64> values, f64 p);

// --- Workloads and timed phases ------------------------------------------

struct Workload {
  const char* name;
  bool served;          ///< served trace replay, else live simulation
  u32 engine_threads;   ///< SimConfig::num_threads of the live jobs
  bool cold;            ///< decode cache bound below one decoded trace
};

/// sim_serial, sim_threads2, serve_warm, serve_cold; null when unknown.
const Workload* find_workload(const std::string& name);

/// Served settings, shared by serve_warm and serve_cold: two server
/// workers, two replay shards per job, four jobs outstanding — at most
/// four busy threads.
inline constexpr u32 kServerWorkers = 2;
inline constexpr u32 kReplayShards = 2;
inline constexpr u32 kOutstanding = 4;

haccrg::serve::ServerConfig server_config(bool cold);

/// When a timed loop may stop. Loops stop only between passes, once at
/// least one pass ran, `seconds` elapsed and `min_jobs` jobs finished.
/// The default budget is a single pass.
struct Budget {
  f64 seconds = 0.0;
  u64 min_jobs = 0;
  bool done(u32 passes, f64 elapsed_s, u64 jobs) const {
    return passes > 0 && elapsed_s >= seconds && jobs >= min_jobs;
  }
};

/// What the served loop checks the server's decode counter against.
enum class Decodes : u8 { kEveryJob, kNone };

/// One finished job of a timed loop.
struct JobSample {
  u32 kernel = 0;
  u64 cycles = 0;
  f64 ms = 0.0;  ///< latency
};

/// One timed loop's raw results.
struct Phase {
  u64 jobs = 0;  ///< attempted
  u64 failed = 0;
  f64 seconds = 0.0;
  std::vector<JobSample> samples;  ///< completed jobs, in finish order
  std::vector<std::string> errors;  ///< first few failure messages

  // Live jobs: per-stage sums and the summed prof.* engine counters.
  f64 init_ms = 0.0;
  f64 prepare_ms = 0.0;
  f64 launch_ms = 0.0;
  haccrg::StatSet prof;

  // Served jobs: deepest queue seen (when sampled) and the server's
  // STATS before and after the loop.
  u64 queue_depth_max = 0;
  std::string stats_before;
  std::string stats_after;

  void fail(std::string message);
};

/// A phase's end-to-end figures over the whole phase: the completed
/// jobs' cycles over its wall time, and latency percentiles over every
/// completed job. A shared host's speed shifts level for tens of
/// seconds at a time; whole-phase figures average those stretches,
/// where a median over short windows follows whichever level held most
/// of them and so jumps between levels from run to run.
///
/// The percentiles are Harrell-Davis estimates. Every kernel is a tenth
/// of the jobs and kernels differ in size by up to 6x, so p50 and p90
/// fall in the gap between two kernels' latencies. There the
/// interpolated order statistic is one kernel's slowest job of the run
/// and the next one's fastest, which a single slow moment of the host
/// moves; the weighted mean rests on the few dozen jobs on both sides.
struct Summary {
  f64 kips = 0.0;
  f64 p50_ms = 0.0;
  f64 p90_ms = 0.0;
};
Summary summarize(const Phase& phase);

/// One live job per suite kernel in registry order: serial engine,
/// combined detection, kernel outputs verified. With a non-empty
/// `trace_dir` each run also records an indexed trace into
/// Reference::trace. Returns false and fills `error` on any failure.
bool reference_pass(u32 seed, const std::string& trace_dir, SpanLog& spans,
                    std::vector<Reference>& out, std::string& error);

/// Closed loop of live jobs, one at a time, kernels in `order`. Each job
/// must reproduce its reference's cycles and race identity set.
Phase run_live_phase(const std::vector<Reference>& refs, LiveSpec spec, JobOrder& order,
                     const Budget& budget, SpanLog& spans);

/// Closed loop from one client thread keeping kOutstanding jobs in
/// flight on `server`. A job's latency runs from submit() to the return
/// of the result() poll that finds it settled. The first report of a
/// kernel must carry its reference's unique_races and is kept in
/// `reports`; every later one must equal it byte for byte. The server's
/// decode counter must move as `decodes` says. `sample_queue` reads the
/// queue depth from STATS after every submit (traced runs only).
Phase run_served_phase(haccrg::serve::Server& server, const std::vector<Reference>& refs,
                       std::vector<std::string>& reports, JobOrder& order,
                       const Budget& budget, Decodes decodes, bool sample_queue,
                       SpanLog& spans);

// --- Per-layer probe -------------------------------------------------------

/// The traced run's attribution pass: per suite kernel, the serial,
/// 2-thread, detection-off and recording launches, then decode, 1- and
/// 2-shard replay and render of the recorded trace, each under its own
/// span. Outputs are checked against `refs`.
struct ProbeKernel {
  f64 launch_ms = 0.0;     ///< serial, combined detection
  f64 launch_t2_ms = 0.0;  ///< 2 engine threads, combined detection
  f64 launch_off_ms = 0.0; ///< serial, detection off
  f64 record_ms = 0.0;     ///< serial, combined detection, recording
  f64 init_ms = 0.0;
  f64 prepare_ms = 0.0;
  u64 cycles = 0;
  u64 cycles_off = 0;
  u64 barriers_t2 = 0;     ///< fork/join barriers of the 2-thread launch
  haccrg::StatSet stats;   ///< serial launch's stats, prof.* included
  f64 dram_util = 0.0;
  f64 decode_ms = 0.0;
  f64 replay1_ms = 0.0;
  f64 replay2_ms = 0.0;
  f64 render_ms = 0.0;
  u64 trace_bytes = 0;
  u64 trace_events = 0;
};

struct Probe {
  std::vector<ProbeKernel> kernels;
  u64 ops = 0;
  Phase served;  ///< one served pass on a fresh serve_warm-style server
};

/// `served_pass` adds the served pass (for workloads that run no server
/// of their own).
Probe run_probe(u32 seed, const std::vector<Reference>& refs, const std::string& trace_dir,
                bool served_pass, SpanLog& spans, Phase& failures);

}  // namespace perfbench
