// Trace-driven detection replay: stream a recorded access trace straight
// into the race detectors — the hardware SharedRdu/GlobalRdu pair, the
// software-HAccRG tag emulator, and the GRace-add baseline — without the
// timing simulator. The file's event order is the engine's deterministic
// phase order (see format.hpp), so replay reconstructs every ID-register
// and shadow-state read exactly as the live run performed it and produces
// the same set of race records; the equivalence tests and the
// `haccrg-trace diff` command assert this.
//
// One known divergence window: the RaceLog stops recording new unique
// races at max_recorded_races. Live and replay log identical record
// *sets* below the cap; if the cap binds mid-cycle the two may keep a
// different subset (insertion order within a cycle differs — shared
// events of all SMs replay before global ones). DESIGN.md discusses this;
// none of the registry kernels comes near the cap.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "haccrg/race.hpp"
#include "trace/index.hpp"
#include "trace/reader.hpp"
#include "trace/sw_replay.hpp"

namespace haccrg::trace {

/// Full identity of a recorded race: every RaceRecord field, so replay-
/// vs-live comparison is bit-exact, not merely dedup-key-exact.
/// (space, type, mechanism, granule, sm, first, second, pc, cycle)
using RaceKey = std::tuple<u8, u8, u8, Addr, u32, u16, u16, u32, Cycle>;

RaceKey race_key(const rd::RaceRecord& record);

std::set<RaceKey> race_identity_set(const rd::RaceLog& log);

/// Canonical one-line rendering of a race identity — what `haccrg-trace`
/// writes to race-set files and what `diff` compares. Lines sort to a
/// deterministic order; '#' lines in a race-set file are comments.
std::string race_key_line(const RaceKey& key);

/// Sorted canonical lines for a whole log.
std::vector<std::string> race_set_lines(const rd::RaceLog& log);

class ReplayArena;

/// Granule-batch size of the cooperative cancellation poll: the replay
/// engine checks its CancelToken every this many events (and at kernel
/// boundaries), so a cancelled replay overruns by at most one batch.
inline constexpr u64 kCancelCheckInterval = 512;

/// Cooperative cancellation flag for long replays. The owner (the
/// serving watchdog, a deadline) sets it from any thread; a replay
/// polling it aborts with StatusCode::kDeadlineExceeded at the next
/// batch boundary. Reusable after reset().
class CancelToken {
 public:
  void cancel() { flag_.store(1, std::memory_order_relaxed); }
  void reset() { flag_.store(0, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed) != 0; }

 private:
  std::atomic<u32> flag_{0};
};

/// Which detectors to run over the trace.
struct ReplayOptions {
  bool hw = true;         ///< SharedRdu/GlobalRdu (per the recorded config)
  bool sw_haccrg = false; ///< software-HAccRG tag emulator
  bool grace = false;     ///< GRace-add bitmap emulator
  /// Static-prune predicate for the software emulators (the live runs
  /// pass InstrumentOptions::static_prune); null = instrument everything.
  std::function<bool(u32)> sw_is_safe;

  /// Pre-warmed replay context (clear-don't-free): when set, per-kernel
  /// detector state is reset and reused across kernels and across
  /// replay calls instead of rebuilt, as long as the trace header
  /// matches. Thread-safe; serving workers share a pool of these.
  ReplayArena* arena = nullptr;

  /// Cooperative cancellation: polled every kCancelCheckInterval events.
  const CancelToken* cancel = nullptr;
};

/// Cache of the last built per-kernel detector state. acquire/release
/// are internal to the replay engine; callers just keep the arena alive
/// across replays and read the reuse counters.
class ReplayArena {
 public:
  ReplayArena();
  ~ReplayArena();
  ReplayArena(const ReplayArena&) = delete;
  ReplayArena& operator=(const ReplayArena&) = delete;

  /// Kernels that reused a cached context / built one from scratch.
  u64 reuses() const;
  u64 builds() const;

  struct Impl;
  Impl& impl() { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Replay outcome for one kernel launch found in the trace.
struct KernelReplay {
  std::string label;
  u32 grid_dim = 0;
  u32 block_dim = 0;
  u32 shared_mem_bytes = 0;
  u32 app_heap_bytes = 0;
  Addr shadow_base = 0;
  Cycle cycles = 0;  ///< recorded run's total cycles (from kKernelEnd)
  u64 events = 0;

  // Hardware detection (ReplayOptions::hw).
  rd::RaceLog races;
  u64 shared_checks = 0;
  u64 global_checks = 0;

  // Software emulators.
  u64 sw_haccrg_races = 0;
  u64 grace_races = 0;
  std::set<SwLocation> sw_haccrg_locations;
  std::set<SwLocation> grace_locations;
};

struct ReplayResult {
  bool ok = false;
  std::string error;
  /// Structured form of error(): the reader's code for decode failures
  /// (kNotFound/kIoError/kBadMagic/kVersionMismatch/kCorrupt), kCorrupt
  /// for events that decoded but carry impossible state. kOk on success.
  StatusCode code = StatusCode::kOk;
  Status status() const { return ok ? Status() : Status(code, error); }
  TraceHeader header;
  std::vector<KernelReplay> kernels;
  u64 total_events = 0;

  /// Union of every kernel's hardware race identities.
  std::set<RaceKey> race_set() const;
};

/// Open `path` and replay every kernel in it.
ReplayResult replay_trace(const std::string& path, const ReplayOptions& opts = {});

/// Replay from an already-open reader (positioned at the first event).
ReplayResult replay_events(TraceReader& reader, const ReplayOptions& opts = {});

// --- Decode-once, replay-many ------------------------------------------------

/// A fully decoded trace: header plus every event, validated during the
/// decode. Replaying from this skips the varint layer entirely — the
/// serving path decodes a trace once and replays it for every job that
/// references it.
struct DecodedTrace {
  TraceHeader header;
  std::vector<Event> events;
  u64 bytes = 0;  ///< encoded size (throughput accounting)
};

/// Decode every event of `reader` into `out` (reader is rewound first).
/// On failure `out` is untouched.
Status decode_trace(TraceReader& reader, DecodedTrace& out);

/// Decode a single kernel's event range using its index entry — the
/// seek path, so nothing before the kernel is touched. Works with both
/// file-carried and scan-built indexes. On failure `out` is untouched.
Status decode_trace_kernel(TraceReader& reader, const TraceIndexKernel& kernel,
                           DecodedTrace& out);

/// Replay a pre-decoded trace.
ReplayResult replay_decoded(const DecodedTrace& trace, const ReplayOptions& opts = {});

/// Kept only for perfbench's replay probe, which still calls it: a
/// forward to replay_decoded. `workers` is ignored; replay is serial.
ReplayResult replay_sharded(const DecodedTrace& trace, u32 workers,
                            const ReplayOptions& opts = {});

}  // namespace haccrg::trace
