// Cycle-epoch engine: advances every SM and memory partition by one
// cycle using a phased epoch so the simulation parallelizes without
// losing determinism.
//
//   Phase 1 (parallel over SMs):        deliver responses, SM core cycle.
//                                       All cross-SM effects are staged
//                                       thread-confined inside the SM.
//   Phase 2 (serial, SM-id order):      Sm::commit_epoch — race-log
//                                       drain, functional replay of the
//                                       deferred global ops, global-RDU
//                                       checks, trace appends; then one
//                                       fair interconnect injection sweep.
//   Phase 3 (parallel over partitions): MemoryPartition::step — service
//                                       requests, advance L2/DRAM, stage
//                                       responses.
//   Phase 4 (serial, partition order):  commit staged responses.
//
// The serial phases run in the same order the sequential engine's loops
// used, so the interleaving of every shared-state mutation is identical
// for any worker count — results are bit-identical by construction, and
// the determinism test suite holds the engine to that.
#pragma once

#include <memory>
#include <vector>

#include "mem/interconnect.hpp"
#include "mem/partition.hpp"
#include "sim/profiler.hpp"
#include "sim/sim_config.hpp"
#include "sim/sm.hpp"
#include "sim/thread_pool.hpp"

namespace haccrg::sim {

class Engine {
 public:
  Engine(std::vector<std::unique_ptr<Sm>>& sms, std::vector<mem::MemoryPartition>& partitions,
         mem::Interconnect& icnt, const SimConfig& sim);

  /// Advance the whole machine by one cycle (all phases).
  void step(Cycle now);

  u32 num_threads() const { return pool_.num_threads(); }

  /// Per-phase wall-clock accounting (no-ops unless SimConfig::profile).
  const PhaseProfiler& profiler() const { return profiler_; }

 private:
  static void sm_phase(void* ctx, u32 begin, u32 end);
  static void partition_phase(void* ctx, u32 begin, u32 end);

  std::vector<std::unique_ptr<Sm>>* sms_;
  std::vector<mem::MemoryPartition>* partitions_;
  mem::Interconnect* icnt_;
  WorkerPool pool_;
  PhaseProfiler profiler_;
  bool tracing_ = false;  ///< cached: skip the flush sweep when not recording
  Cycle now_ = 0;
};

}  // namespace haccrg::sim
