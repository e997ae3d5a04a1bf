// Warp execution context: per-lane registers, predicate lane-masks, the
// structured-divergence mask stack, and the scheduling state the SM's
// round-robin scheduler drives.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "isa/instr.hpp"

namespace haccrg::sim {

enum class WarpState : u8 {
  kInvalid,    ///< slot not in use
  kReady,      ///< can issue
  kWaitMem,    ///< blocked on outstanding loads/atomics
  kAtBarrier,  ///< arrived at bar.sync, waiting for the block
  kWaitFence,  ///< draining stores for a memory fence
  kDone,       ///< executed exit
};

/// One divergence scope on the mask stack.
struct MaskScope {
  u32 saved = 0;  ///< active mask to restore at scope exit
  u32 taken = 0;  ///< then-branch mask (for kElse)
};

class WarpContext {
 public:
  void init(u32 warp_slot, u32 block_slot, u32 block_id, u32 warp_in_block, u32 lanes,
            u32 regs_used) {
    warp_slot_ = warp_slot;
    block_slot_ = block_slot;
    block_id_ = block_id;
    warp_in_block_ = warp_in_block;
    pc = 0;
    alive = lanes >= 32 ? ~0u : ((1u << lanes) - 1);
    active = alive;
    mask_stack.clear();
    regs.assign(static_cast<size_t>(regs_used) * 32, 0);
    preds.fill(0);
    state = WarpState::kReady;
    pending_responses = 0;
    outstanding_stores = 0;
    ready_at = 0;
  }

  void release() { state = WarpState::kInvalid; }

  u32 warp_slot() const { return warp_slot_; }
  u32 block_slot() const { return block_slot_; }
  u32 block_id() const { return block_id_; }
  u32 warp_in_block() const { return warp_in_block_; }

  u32& reg(u32 index, u32 lane) { return regs[static_cast<size_t>(index) * 32 + lane]; }
  u32 reg(u32 index, u32 lane) const { return regs[static_cast<size_t>(index) * 32 + lane]; }
  /// Register `index` of every lane (32 entries, indexed by lane).
  u32* reg_row(u32 index) { return regs.data() + static_cast<size_t>(index) * 32; }
  const u32* reg_row(u32 index) const { return regs.data() + static_cast<size_t>(index) * 32; }

  // Execution state (owned by the SM's executor).
  u32 pc = 0;
  u32 active = 0;  ///< current active-lane mask
  u32 alive = 0;   ///< lanes that exist and have not exited
  std::vector<MaskScope> mask_stack;
  std::vector<u32> regs;  ///< regs_used * 32, lane-major within a register
  std::array<u32, isa::kMaxPreds> preds{};  ///< one lane-mask per predicate

  WarpState state = WarpState::kInvalid;
  u32 pending_responses = 0;   ///< loads/atomics in flight
  u32 outstanding_stores = 0;  ///< stores not yet acknowledged (fence tracking)
  Cycle ready_at = 0;          ///< earliest issue cycle

 private:
  u32 warp_slot_ = 0;
  u32 block_slot_ = 0;
  u32 block_id_ = 0;
  u32 warp_in_block_ = 0;
};

/// Runtime state of a thread-block resident on an SM.
struct BlockContext {
  bool active = false;
  u32 block_id = 0;
  u32 num_warps = 0;
  u32 warps_done = 0;
  u32 warps_at_barrier = 0;
  u32 smem_base = 0;   ///< partition base within the SM scratchpad
  u32 smem_bytes = 0;
  u32 thread_base = 0; ///< first hardware thread slot
};

}  // namespace haccrg::sim
