// Host-side simulation settings (as opposed to the modelled GPU's
// arch::GpuConfig): how the simulator itself runs. `num_threads` selects
// the parallel epoch engine; results are bit-identical for any value
// because all cross-SM effects are committed serially, in SM-id order,
// at each cycle's barrier.
#pragma once

#include <string>

#include "common/status.hpp"
#include "common/types.hpp"
#include "fault/fault.hpp"

namespace haccrg::sim {

struct SimConfig {
  /// Worker threads stepping SMs / memory partitions in parallel within
  /// each cycle epoch. 1 == fully sequential engine.
  u32 num_threads = 1;

  /// When non-empty, every launch records an access trace (src/trace
  /// format) to this file. Trace writes happen only in the engine's
  /// serial phases, so the recorded bytes are identical for any
  /// num_threads value.
  std::string trace_path;

  /// Record traces in format v2 with a seekable index section (see
  /// trace/index.hpp). Off by default: v1 output stays byte-identical,
  /// and index-less traces replay everywhere via the linear-scan
  /// fallback.
  bool trace_index = false;

  /// Per-phase engine profiling (src/sim/profiler.hpp). When on, runs
  /// export "prof.*" wall-clock stats; off by default so golden stat
  /// sets stay free of host-time noise.
  bool profile = false;

  /// Fault-injection campaign (src/fault). Default is the empty plan:
  /// no site armed, zero overhead, output byte-identical to a build
  /// without the fault subsystem.
  fault::FaultPlan faults;

  static constexpr u32 kMaxThreads = 64;

  /// Reads HACCRG_THREADS (clamped to [1, kMaxThreads]; defaults to 1),
  /// HACCRG_TRACE (trace output path; defaults to no tracing),
  /// HACCRG_TRACE_INDEX (any non-empty value but "0" records indexed v2
  /// traces),
  /// HACCRG_PROFILE (any non-empty value but "0" enables the per-phase
  /// profiler), and HACCRG_FAULTS (FaultPlan::parse syntax; a malformed
  /// value is ignored with a one-line stderr warning — this lenient
  /// entry point is the Gpu constructor's default argument and must not
  /// fail). Environment knobs rather than per-call plumbing so existing
  /// tests and benchmarks can be forced parallel or profiled wholesale
  /// (the TSan gate, the perf smoke run).
  static SimConfig from_env();

  /// Strict variant for the CLI and other user-facing front doors: the
  /// same environment variables, but a malformed HACCRG_THREADS
  /// (non-numeric, zero, > kMaxThreads) or HACCRG_FAULTS value is a
  /// reported error instead of a silent clamp/skip. On error, `out` is
  /// untouched.
  static Status parse_env(SimConfig& out);
};

}  // namespace haccrg::sim
