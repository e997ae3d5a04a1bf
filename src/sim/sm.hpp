// Streaming multiprocessor: warp contexts, a round-robin scheduler, the
// functional executor for the mini-PTX ISA, banked shared memory, a
// non-coherent L1, and the HAccRG hooks (shared RDU, ID registers, and
// race-check dispatch to the global RDU).
//
// Functional/timing split: an instruction's architectural effects are
// applied when it issues; the memory system then moves data-less packets
// whose completions wake the warp.
//
// Parallel epochs: cycle() may run concurrently with other SMs' cycles,
// so it only touches SM-local state plus thread-confined staging (the
// per-SM interconnect queue, race_staging_, deferred_). Every effect
// that crosses the SM boundary — device-memory functional ops, global
// RDU checks, race-log records, packet injection — is replayed by
// commit_epoch(), which the engine calls serially in SM-id order at the
// end of the cycle. That order matches the sequential engine's SM loop,
// so results are bit-identical for any thread count. Deferring the
// functional effects to the same cycle's barrier is invisible to the
// program: an SM issues at most one instruction per cycle, so nothing
// can read a deferred register or memory value before it lands.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "arch/config.hpp"
#include "fault/fault.hpp"
#include "haccrg/global_rdu.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/options.hpp"
#include "haccrg/shared_rdu.hpp"
#include "isa/program.hpp"
#include "mem/cache.hpp"
#include "mem/coalescer.hpp"
#include "mem/device_memory.hpp"
#include "mem/interconnect.hpp"
#include "mem/packets.hpp"
#include "mem/shared_memory.hpp"
#include "sim/launch.hpp"
#include "sim/warp.hpp"
#include "trace/writer.hpp"

namespace haccrg::sim {

/// Per-SM view of the shared run infrastructure, owned by Gpu.
struct SmEnv {
  const arch::GpuConfig* gpu = nullptr;
  const rd::HaccrgConfig* haccrg = nullptr;
  mem::DeviceMemory* memory = nullptr;
  mem::Interconnect* icnt = nullptr;
  rd::GlobalRdu* global_rdu = nullptr;  ///< null unless global detection on
  rd::RaceLog* race_log = nullptr;
  const isa::Program* program = nullptr;
  const LaunchConfig* launch = nullptr;
  Addr sw_shared_shadow_base = 0;  ///< device base of this SM's sw shadow
  /// Optional sink recording every coalesced global transaction address
  /// (used by the virtual-memory TLB study).
  std::vector<Addr>* global_trace = nullptr;
  /// Optional access-trace recorder (SimConfig::trace_path). Issue-phase
  /// events are staged per SM and flushed serially in SM-id order by the
  /// engine; global-memory events are written during commit_epoch.
  trace::TraceWriter* trace = nullptr;
  /// Optional fault injector (SimConfig::faults); null = no faults. The
  /// SM only draws from its own per-SM streams during cycle(), keeping
  /// the parallel phase thread-confined.
  fault::FaultInjector* faults = nullptr;
};

class Sm {
 public:
  Sm(u32 sm_id, const SmEnv& env);

  /// Try to start `block_id`; returns false if no capacity. Runs in the
  /// serial scheduler context (its trace event is written directly).
  bool try_launch_block(u32 block_id, Cycle now);

  /// Advance one core cycle. Safe to call concurrently with other SMs'
  /// cycle()/deliver(); cross-SM effects are staged until commit_epoch.
  void cycle(Cycle now);

  /// End-of-cycle barrier (serial, engine calls SMs in id order): drain
  /// staged race records and replay deferred global-memory work. The
  /// staged packets stay queued for the engine's interconnect sweep.
  void commit_epoch();

  /// Write this SM's staged issue-phase trace events. Called serially in
  /// SM-id order between the parallel SM phase and the commit loop, so
  /// the file order matches the engine's deterministic phase order.
  void flush_trace();

  bool busy() const { return resident_blocks_ > 0; }
  u32 resident_blocks() const { return resident_blocks_; }
  u32 blocks_completed() const { return blocks_completed_; }
  /// Is this SM recording an access trace? (All SMs share the answer;
  /// the engine caches it to skip the per-cycle flush sweep.)
  bool tracing() const { return env_.trace != nullptr; }

  /// Deliver a memory response routed back by the GPU.
  void deliver(const mem::Response& rsp, Cycle now);

  // Statistics the GPU aggregates at the end of the run.
  void export_stats(StatSet& stats) const;
  u64 warp_instructions() const { return warp_instructions_; }
  u64 lane_instructions() const { return lane_instructions_; }
  u64 shared_reads() const { return shared_reads_; }
  u64 shared_writes() const { return shared_writes_; }
  u64 shared_atomics() const { return shared_atomics_; }
  u64 global_reads() const { return global_reads_; }
  u64 global_writes() const { return global_writes_; }
  u64 global_atomics() const { return global_atomics_; }
  u64 barriers() const { return barriers_; }
  u64 fences() const { return fences_; }

  const rd::SmIdRegisters& ids() const { return ids_; }
  rd::SmIdRegisters& ids() { return ids_; }
  const mem::Cache& l1() const { return l1_; }

  /// One line per live warp ("sm0.w1 pc=33 state=WaitMem pend=1 stores=0"),
  /// appended to `out`. The watchdog calls this so a hung kernel reports
  /// where every warp was stuck instead of just "exceeded max cycles".
  void append_hang_summary(std::string& out) const;

 private:
  // --- Scheduling -----------------------------------------------------------
  WarpContext* pick_ready_warp(Cycle now);
  void execute(WarpContext& warp, Cycle now);

  // --- Execution helpers ------------------------------------------------------
  u32 operand_value(const WarpContext& warp, const isa::Instr& ins, u32 lane) const;
  u32 special_value(const WarpContext& warp, isa::SpecialReg which, u32 lane) const;
  void exec_alu(WarpContext& warp, const isa::Instr& ins);
  void exec_shared_mem(WarpContext& warp, const isa::Instr& ins, Cycle now);
  void exec_global_mem(WarpContext& warp, const isa::Instr& ins, Cycle now);
  void exec_barrier(WarpContext& warp, Cycle now);
  void exec_fence(WarpContext& warp, Cycle now);
  void exec_exit(WarpContext& warp, Cycle now);

  u32 apply_atomic(isa::AtomicOp op, u32 old, u32 operand, u32 compare) const;

  /// Build the HAccRG access descriptor for one lane.
  rd::AccessInfo make_access(const WarpContext& warp, u32 lane, Addr addr, u8 size, bool is_write,
                             u32 pc, Cycle now, bool l1_hit) const;

  /// True when the opt-in static filter suppresses the RDU check at `pc`.
  bool static_filtered(u32 pc) const;

  /// Roll the ID-register fault sites once per issued instruction
  /// (Bloom signature flips, fence/sync ID drops).
  void inject_id_faults();

  /// Stage a packet on this SM's interconnect queue (sent at commit).
  void send_packet(mem::Packet pkt);

  /// Software-placed shared shadow: model the L1 fetch of each shadow
  /// line; returns extra issue-port cycles and may add pending responses.
  u32 sw_shadow_traffic(WarpContext& warp, const std::vector<u32>& lane_addrs);

  void block_finished(u32 block_slot, Cycle now);

  /// A global-memory instruction whose shared-state effects (device
  /// memory, global trace, global RDU) wait for the epoch barrier. The
  /// SM-local side — coalescing, L1 state, wait/wakeup bookkeeping, and
  /// the application packets — already happened at issue; only what the
  /// replay needs is captured here.
  struct DeferredGlobalOp {
    u32 warp_slot = 0;
    bool is_store = false;
    bool is_atomic = false;
    u8 width = 4;
    u8 dst = 0;
    isa::AtomicOp atomic_op = isa::AtomicOp::kAdd;
    struct Lane {
      u32 lane;
      Addr addr;
      u32 operand;  ///< store value or atomic operand (captured at issue)
      u32 compare;  ///< atomic CAS comparand
    };
    std::vector<Lane> lanes;
    std::vector<Addr> trace_addrs;       ///< coalesced segments, issue order
    std::vector<rd::AccessInfo> checks;  ///< global RDU inputs, issue order
    trace::Event trace_event;            ///< written at commit when recording
    bool has_trace_event = false;
  };
  void replay(DeferredGlobalOp& op);

  /// Next pooled deferred-op slot: inner vectors are cleared, not freed,
  /// so steady-state global-memory issue performs no heap allocation.
  DeferredGlobalOp& acquire_deferred();

  /// Single mutation point for warp scheduling state; keeps the ready
  /// count the scheduler's early-out relies on exact.
  void set_state(WarpContext& warp, WarpState s) {
    if (warp.state == WarpState::kReady) --num_ready_;
    if (s == WarpState::kReady) ++num_ready_;
    warp.state = s;
  }

  /// Stage one issue-phase trace event (no-op unless recording).
  void stage_trace(trace::Event event) {
    if (env_.trace != nullptr) trace_staged_.push_back(std::move(event));
  }

  u32 sm_id_;
  SmEnv env_;
  std::vector<WarpContext> warps_;
  std::vector<BlockContext> blocks_;
  mem::SharedMemory smem_;
  mem::Cache l1_;
  rd::SmIdRegisters ids_;
  std::unique_ptr<rd::SharedRdu> shared_rdu_;

  u32 resident_blocks_ = 0;
  u32 blocks_completed_ = 0;
  u32 rr_cursor_ = 0;
  u32 num_ready_ = 0;  ///< warps in WarpState::kReady (scheduler early-out)
  Cycle issue_free_at_ = 0;
  u64 token_counter_ = 0;

  // Thread-confined epoch staging, replayed by commit_epoch(). The
  // deferred-op arena is slot-pooled: commit resets the count, capacity
  // (including each op's inner vectors) persists across cycles.
  rd::RaceStaging race_staging_;
  std::vector<DeferredGlobalOp> deferred_;
  u32 deferred_count_ = 0;
  std::vector<trace::Event> trace_staged_;  ///< issue-phase events this cycle

  // Scratch buffers reused across instructions to avoid per-issue churn.
  std::vector<mem::LaneAccess> scratch_accesses_;
  std::vector<Addr> scratch_shadow_;
  std::vector<u32> scratch_smem_addrs_;  ///< shared-mem lane addresses
  mem::CoalesceBuffer coalesce_buf_;
  mem::WawBuffer waw_buf_;

  // Counters.
  u64 warp_instructions_ = 0;
  u64 lane_instructions_ = 0;
  u64 shared_reads_ = 0;
  u64 shared_writes_ = 0;
  u64 shared_atomics_ = 0;
  u64 global_reads_ = 0;
  u64 global_writes_ = 0;
  u64 global_atomics_ = 0;
  u64 barriers_ = 0;
  u64 fences_ = 0;
  u64 bank_conflict_cycles_ = 0;
  u64 barrier_reset_cycles_ = 0;
  u64 static_filtered_ = 0;  ///< lane accesses whose RDU check was filtered
  u64 static_filtered_shared_ = 0;  ///< the shared-space share of the above
  u64 static_filtered_global_ = 0;  ///< the global-space share
};

}  // namespace haccrg::sim
