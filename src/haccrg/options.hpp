// Configuration of the HAccRG race-detection hardware (Sections III-IV).
#pragma once

#include <string>

#include "common/status.hpp"
#include "common/types.hpp"

namespace haccrg::rd {

/// Where the shared-memory shadow entries live (Figure 8 experiment).
enum class SharedShadowPlacement {
  kHardware,      ///< dedicated per-SM storage, checks run beside the banks
  kGlobalMemory,  ///< entries in device memory, fetched through the L1
};

struct HaccrgConfig {
  bool enable_shared = false;  ///< shared-memory race detection
  bool enable_global = false;  ///< global-memory race detection

  /// Tracking granularity (bytes per shadow entry), Section IV-C.
  /// The paper settles on 16 B shared / 4 B global.
  u32 shared_granularity = 16;
  u32 global_granularity = 4;

  /// Bloom-filter atomic ID geometry (Section VI-A2; paper picks 16/2).
  u32 bloom_bits = 16;
  u32 bloom_bins = 2;

  SharedShadowPlacement shared_shadow = SharedShadowPlacement::kHardware;

  /// When warps are dynamically re-grouped the intra-warp filter is
  /// unsound, so races are reported regardless of warp (Section III-A).
  bool warp_regrouping = false;

  /// Ablation switch: disable the Section III-C fence gate so every
  /// cross-thread read-after-write between barriers is reported.
  bool disable_fence_gate = false;

  /// Opt-in: suppress RDU shadow checks for accesses the static race
  /// analysis proved safe (LaunchConfig::static_report must be set with
  /// a report computed at this config's granularities). Detection
  /// results are unchanged; shadow traffic and check work drop.
  bool static_filter = false;

  /// Stop recording after this many unique races (reporting only; checks
  /// continue so timing is unaffected).
  u32 max_recorded_races = 4096;

  /// Finite shared shadow table: number of direct-mapped entry slots per
  /// SM. 0 = fully provisioned (one slot per granule, today's behavior).
  /// With a finite table, conflicting granules evict each other; every
  /// eviction is counted in "rd.evictions" / "rd.coverage_lost", never
  /// silent.
  u32 shared_shadow_capacity = 0;

  /// Unique-race dedup-table saturation bound: once this many distinct
  /// race keys are tracked, further *new* keys are dropped and counted
  /// in "rd.race_log_saturated". 0 = unbounded. The default is far above
  /// anything the bundled kernels produce, so goldens are unaffected,
  /// while a pathological (or fault-injected) run can no longer grow the
  /// table without bound.
  u32 max_unique_races = 1u << 20;

  bool any_enabled() const { return enable_shared || enable_global; }

  /// Rejects configurations that would previously hit UB, silent
  /// clamping, or an assert deep inside the detectors: non-power-of-two
  /// or absurd granularities, invalid Bloom geometry, zero log bounds,
  /// and flag combinations whose semantics conflict.
  Status validate() const;

  std::string describe() const;
};

}  // namespace haccrg::rd
