#include "sim/sm.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

namespace haccrg::sim {

using isa::AtomicOp;
using isa::CmpOp;
using isa::Instr;
using isa::Opcode;
using isa::SpecialReg;

namespace {

/// Map an opcode's trace class (src/isa) to the wire-format event kind.
trace::EventKind trace_kind_for(Opcode op) {
  switch (isa::trace_event_class(op)) {
    case isa::TraceEventClass::kSharedLoad: return trace::EventKind::kSharedLoad;
    case isa::TraceEventClass::kSharedStore: return trace::EventKind::kSharedStore;
    case isa::TraceEventClass::kSharedAtomic: return trace::EventKind::kSharedAtomic;
    case isa::TraceEventClass::kGlobalLoad: return trace::EventKind::kGlobalLoad;
    case isa::TraceEventClass::kGlobalStore: return trace::EventKind::kGlobalStore;
    case isa::TraceEventClass::kGlobalAtomic: return trace::EventKind::kGlobalAtomic;
    case isa::TraceEventClass::kBarrier: return trace::EventKind::kBarrierArrive;
    case isa::TraceEventClass::kFence: return trace::EventKind::kFence;
    case isa::TraceEventClass::kLockAcquire: return trace::EventKind::kLockAcquire;
    case isa::TraceEventClass::kLockRelease: return trace::EventKind::kLockRelease;
    case isa::TraceEventClass::kNone: break;
  }
  return trace::EventKind::kKernelEnd;  // unreachable for traced opcodes
}

/// Calls f(lane) for every set bit of `mask`, lowest lane first — the
/// order of the full-width lane loop it replaces.
template <typename F>
inline void for_each_lane(u32 mask, F&& f) {
  for (; mask != 0; mask &= mask - 1) f(static_cast<u32>(std::countr_zero(mask)));
}

/// dst = op(src0, src1 or imm) over the active lanes. The immediate test
/// is made once per instruction; each lane reads its sources before its
/// destination is written, so dst may alias either source.
template <typename Op>
inline void binary_lanes(WarpContext& warp, const Instr& ins, Op op) {
  u32* dst = warp.reg_row(ins.dst);
  const u32* a = warp.reg_row(ins.src0);
  if (ins.src1_is_imm) {
    const u32 b = ins.imm;
    for_each_lane(warp.active, [&](u32 lane) { dst[lane] = op(a[lane], b); });
  } else {
    const u32* b = warp.reg_row(ins.src1);
    for_each_lane(warp.active, [&](u32 lane) { dst[lane] = op(a[lane], b[lane]); });
  }
}

/// dst = op(src0) over the active lanes.
template <typename Op>
inline void unary_lanes(WarpContext& warp, const Instr& ins, Op op) {
  u32* dst = warp.reg_row(ins.dst);
  const u32* a = warp.reg_row(ins.src0);
  for_each_lane(warp.active, [&](u32 lane) { dst[lane] = op(a[lane]); });
}

/// The lane mask of active lanes where cmp(src0, src1 or imm) holds.
template <typename Cmp>
inline u32 compare_lanes(const WarpContext& warp, const Instr& ins, Cmp cmp) {
  const u32* a = warp.reg_row(ins.src0);
  u32 bits = 0;
  if (ins.src1_is_imm) {
    const u32 b = ins.imm;
    for_each_lane(warp.active, [&](u32 lane) { bits |= u32{cmp(a[lane], b)} << lane; });
  } else {
    const u32* b = warp.reg_row(ins.src1);
    for_each_lane(warp.active, [&](u32 lane) { bits |= u32{cmp(a[lane], b[lane])} << lane; });
  }
  return bits;
}

u32 setp_bits(const WarpContext& warp, const Instr& ins) {
  const auto s = [](u32 v) { return static_cast<i32>(v); };
  switch (ins.cmp()) {
    case CmpOp::kEq: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a == b; });
    case CmpOp::kNe: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a != b; });
    case CmpOp::kLtU: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a < b; });
    case CmpOp::kLeU: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a <= b; });
    case CmpOp::kGtU: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a > b; });
    case CmpOp::kGeU: return compare_lanes(warp, ins, [](u32 a, u32 b) { return a >= b; });
    case CmpOp::kLtS: return compare_lanes(warp, ins, [&](u32 a, u32 b) { return s(a) < s(b); });
    case CmpOp::kLeS: return compare_lanes(warp, ins, [&](u32 a, u32 b) { return s(a) <= s(b); });
    case CmpOp::kGtS: return compare_lanes(warp, ins, [&](u32 a, u32 b) { return s(a) > s(b); });
    case CmpOp::kGeS: return compare_lanes(warp, ins, [&](u32 a, u32 b) { return s(a) >= s(b); });
    case CmpOp::kLtF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) < as_f32(b); });
    case CmpOp::kLeF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) <= as_f32(b); });
    case CmpOp::kGtF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) > as_f32(b); });
    case CmpOp::kGeF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) >= as_f32(b); });
    case CmpOp::kEqF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) == as_f32(b); });
    case CmpOp::kNeF:
      return compare_lanes(warp, ins, [](u32 a, u32 b) { return as_f32(a) != as_f32(b); });
  }
  return 0;
}

}  // namespace

Sm::Sm(u32 sm_id, const SmEnv& env)
    : sm_id_(sm_id), env_(env), warps_(env.gpu->warps_per_sm()),
      blocks_(env.gpu->max_blocks_per_sm),
      smem_(env.gpu->shared_mem_per_sm, env.gpu->shared_mem_banks),
      l1_("l1", env.gpu->l1_size, env.gpu->l1_ways, env.gpu->l1_line,
          mem::WritePolicy::kWriteThroughNoAllocate),
      ids_(env.gpu->max_blocks_per_sm, env.gpu->warps_per_sm(), env.gpu->max_threads_per_sm) {
  if (env_.haccrg->enable_shared) {
    rd::DetectPolicy policy;
    policy.warp_size = env_.gpu->warp_size;
    policy.warp_regrouping = env_.haccrg->warp_regrouping;
    policy.fence_gating = !env_.haccrg->disable_fence_gate;
    policy.bloom = {env_.haccrg->bloom_bits, env_.haccrg->bloom_bins};
    shared_rdu_ = std::make_unique<rd::SharedRdu>(sm_id_, env_.gpu->shared_mem_per_sm,
                                                  *env_.haccrg, policy, race_staging_);
    if (env_.faults != nullptr) shared_rdu_->set_faults(env_.faults);
  }
}

bool Sm::try_launch_block(u32 block_id, Cycle now) {
  const LaunchConfig& launch = *env_.launch;
  const u32 warp_size = env_.gpu->warp_size;
  const u32 warps_needed = static_cast<u32>(ceil_div(launch.block_dim, warp_size));

  // Find a free block slot with enough contiguous warp slots and smem.
  u32 slot = ~0u;
  for (u32 b = 0; b < blocks_.size(); ++b) {
    if (!blocks_[b].active) {
      slot = b;
      break;
    }
  }
  if (slot == ~0u) return false;

  // Thread/warp slots are carved per block slot: slot s owns warps
  // [s*warps_per_block_slot, ...). Capacity check: total threads.
  const u32 max_warps = env_.gpu->warps_per_sm();
  const u32 warp_base = slot * warps_needed;
  u32 used_warps = 0;
  for (const auto& b : blocks_)
    if (b.active) used_warps += b.num_warps;
  if (used_warps + warps_needed > max_warps) return false;
  if (warp_base + warps_needed > max_warps) return false;

  // Shared memory partition: fixed region per block slot.
  const u32 smem_per_slot = launch.shared_mem_bytes;
  const u32 smem_base = slot * smem_per_slot;
  if (smem_per_slot > 0 && smem_base + smem_per_slot > smem_.size()) return false;

  BlockContext& block = blocks_[slot];
  block.active = true;
  block.block_id = block_id;
  block.num_warps = warps_needed;
  block.warps_done = 0;
  block.warps_at_barrier = 0;
  block.smem_base = smem_base;
  block.smem_bytes = smem_per_slot;
  block.thread_base = warp_base * warp_size;

  if (smem_per_slot > 0) smem_.clear(smem_base, smem_per_slot);

  u32 threads_left = launch.block_dim;
  for (u32 w = 0; w < warps_needed; ++w) {
    WarpContext& warp = warps_[warp_base + w];
    const u32 lanes = std::min(threads_left, warp_size);
    threads_left -= lanes;
    warp.init(warp_base + w, slot, block_id, w, lanes, env_.program->regs_used());
    ready_mask_ |= u64{1} << warp.warp_slot();  // init() puts the warp in kReady
  }

  // HAccRG bookkeeping for the fresh tenant of this slot.
  ids_.on_block_launch(slot);
  for (u32 t = 0; t < launch.block_dim; ++t) ids_.reset_thread(block.thread_base + t);
  if (shared_rdu_ && smem_per_slot > 0) {
    shared_rdu_->reset_region(smem_base, smem_per_slot, env_.gpu->shared_mem_banks);
  }

  // Block launches happen in the scheduler's serial context, so the trace
  // event goes straight to the writer (after all of this cycle's events).
  if (env_.trace != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kBlockLaunch;
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = slot;
    e.block_id = block_id;
    e.warp_base = warp_base;
    e.num_warps = warps_needed;
    e.thread_base = block.thread_base;
    e.smem_base = smem_base;
    e.smem_bytes = smem_per_slot;
    env_.trace->write_event(e);
  }

  ++resident_blocks_;
  return true;
}

void Sm::flush_trace() {
  if (env_.trace == nullptr || trace_staged_.empty()) return;
  for (const trace::Event& e : trace_staged_) env_.trace->write_event(e);
  trace_staged_.clear();
}

void Sm::deliver(const mem::Response& rsp, Cycle now) {
  WarpContext& warp = warps_[rsp.warp_slot];
  if (rsp.kind == mem::PacketKind::kStore) {
    if (warp.outstanding_stores > 0) --warp.outstanding_stores;
    if (warp.state == WarpState::kWaitFence && warp.outstanding_stores == 0) {
      set_state(warp, WarpState::kReady);
      warp.ready_at = now + env_.gpu->fence_latency;
      ids_.on_fence(warp.warp_slot());
      if (env_.trace != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kFenceCommit;
        e.cycle = now;
        e.sm = sm_id_;
        e.warp_slot = warp.warp_slot();
        stage_trace(std::move(e));
      }
    }
    return;
  }
  // Load or atomic response.
  if (warp.pending_responses > 0) --warp.pending_responses;
  if (warp.state == WarpState::kWaitMem && warp.pending_responses == 0) {
    set_state(warp, WarpState::kReady);
    warp.ready_at = now + 1;
  }
}

WarpContext* Sm::pick_ready_warp(Cycle now) {
  // Round robin over the kReady warps only: slots rr_cursor_..n-1, then
  // 0..rr_cursor_-1, each in ascending order — the order of a scan of
  // all n slots starting at the cursor.
  const u64 from_cursor = ~u64{0} << rr_cursor_;
  for (u64 mask : {ready_mask_ & from_cursor, ready_mask_ & ~from_cursor}) {
    for (; mask != 0; mask &= mask - 1) {
      WarpContext& warp = warps_[std::countr_zero(mask)];
      if (warp.ready_at <= now) {
        rr_cursor_ = warp.warp_slot() + 1 == warps_.size() ? 0 : warp.warp_slot() + 1;
        return &warp;
      }
    }
  }
  return nullptr;
}

void Sm::issue(Cycle now) {
  // Severe backpressure (packets the interconnect refused to take at
  // the last commit): stall issue until the backlog drains.
  if (env_.icnt->staged_requests(sm_id_) > 64) return;
  WarpContext* warp = pick_ready_warp(now);
  if (warp == nullptr) return;
  if (env_.faults != nullptr) inject_id_faults();
  execute(*warp, now);
}

void Sm::inject_id_faults() {
  // One roll per site per issued instruction: the number of instructions
  // an SM issues is deterministic, so fault placement is too. All state
  // touched (ids_) is SM-local — safe in the parallel phase.
  u64 pick = 0;
  if (env_.faults->bloom_flip(sm_id_, pick)) {
    const u32 thread_slot = static_cast<u32>(pick % env_.gpu->max_threads_per_sm);
    ids_.corrupt_sig(thread_slot, static_cast<u32>((pick >> 32) % 32));
  }
  if (env_.faults->racereg_drop(sm_id_, pick)) {
    // Even picks lose a fence ID, odd picks a sync ID — both halves of
    // the race register file are exercised by one site.
    if ((pick & 1) == 0) {
      ids_.drop_fence_id(static_cast<u32>((pick >> 1) % warps_.size()));
    } else {
      ids_.drop_sync_id(static_cast<u32>((pick >> 1) % blocks_.size()));
    }
  }
}

void Sm::send_packet(mem::Packet pkt) {
  pkt.sm_id = sm_id_;
  pkt.token = token_counter_++;
  pkt.dest_partition = env_.gpu->partition_of(pkt.addr);
  env_.icnt->stage_request(sm_id_, std::move(pkt));
}

void Sm::commit_staged() {
  // Race records first: within one SM-cycle the sequential engine logs
  // the issue-time records (intra-warp WAW, shared RDU) before any
  // global RDU check fires, and only one instruction issues per cycle,
  // so draining the staging buffer before the replay preserves its
  // exact record order.
  if (!race_staging_.empty()) race_staging_.drain_into(*env_.race_log);
  for (u32 i = 0; i < deferred_count_; ++i) replay(deferred_[i]);
  deferred_count_ = 0;
  // Staged packets are injected by the engine's single fair
  // icnt.commit_requests(now) sweep after every SM has committed —
  // per-SM greedy injection here would let low-id SMs starve high-id
  // ones under contention.
}

Sm::DeferredGlobalOp& Sm::acquire_deferred() {
  if (deferred_count_ == deferred_.size()) deferred_.emplace_back();
  DeferredGlobalOp& op = deferred_[deferred_count_++];
  op.lanes.clear();
  op.trace_addrs.clear();
  op.checks.clear();
  op.has_trace_event = false;
  return op;
}

void Sm::replay(DeferredGlobalOp& op) {
  WarpContext& warp = warps_[op.warp_slot];

  // Global-memory trace events are written here, in the serial commit
  // phase, so the file interleaves them in SM-id order after every SM's
  // issue-phase events for the cycle (the replay ordering contract).
  if (op.has_trace_event && env_.trace != nullptr) env_.trace->write_event(op.trace_event);

  // Functional effects, in the lane order the sequential engine used.
  for (const DeferredGlobalOp::Lane& lane : op.lanes) {
    if (op.is_atomic) {
      const u32 old = env_.memory->read_u32(lane.addr);
      env_.memory->write_u32(lane.addr, apply_atomic(op.atomic_op, old, lane.operand, lane.compare));
      warp.reg(op.dst, lane.lane) = old;
    } else if (op.is_store) {
      if (op.width == 1)
        env_.memory->write_u8(lane.addr, static_cast<u8>(lane.operand));
      else
        env_.memory->write_u32(lane.addr, lane.operand);
    } else {
      warp.reg(op.dst, lane.lane) =
          op.width == 1 ? env_.memory->read_u8(lane.addr) : env_.memory->read_u32(lane.addr);
    }
  }

  if (env_.global_trace != nullptr)
    for (Addr addr : op.trace_addrs) env_.global_trace->push_back(addr);

  if (op.checks.empty() || env_.global_rdu == nullptr) return;
  scratch_shadow_.clear();
  for (const rd::AccessInfo& info : op.checks) env_.global_rdu->check(info, scratch_shadow_);

  // Shadow traffic: one kShadow packet per distinct shadow line touched.
  if (!scratch_shadow_.empty()) {
    std::sort(scratch_shadow_.begin(), scratch_shadow_.end());
    Addr last_line = ~Addr{0};
    for (Addr shadow_addr : scratch_shadow_) {
      const Addr line = shadow_addr & ~(env_.gpu->l2_line - 1);
      if (line == last_line) continue;
      last_line = line;
      mem::Packet pkt;
      pkt.kind = mem::PacketKind::kShadow;
      pkt.addr = line;
      pkt.bytes = env_.gpu->l2_line;
      pkt.warp_slot = op.warp_slot;
      pkt.shadow_write = true;
      send_packet(std::move(pkt));
    }
  }
}

u32 Sm::special_value(const WarpContext& warp, SpecialReg which, u32 lane) const {
  const LaunchConfig& launch = *env_.launch;
  const u32 tid = warp.warp_in_block() * env_.gpu->warp_size + lane;
  switch (which) {
    case SpecialReg::kTid: return tid;
    case SpecialReg::kNTid: return launch.block_dim;
    case SpecialReg::kCtaId: return warp.block_id();
    case SpecialReg::kNCtaId: return launch.grid_dim;
    case SpecialReg::kGTid: return warp.block_id() * launch.block_dim + tid;
    case SpecialReg::kLane: return lane;
    case SpecialReg::kWarpId: return warp.warp_in_block();
    case SpecialReg::kSmId: return sm_id_;
  }
  return 0;
}

u32 Sm::apply_atomic(AtomicOp op, u32 old, u32 operand, u32 compare) const {
  switch (op) {
    case AtomicOp::kAdd: return old + operand;
    case AtomicOp::kInc: return old >= operand ? 0 : old + 1;
    case AtomicOp::kExch: return operand;
    case AtomicOp::kCas: return old == compare ? operand : old;
    case AtomicOp::kMin: return std::min(old, operand);
    case AtomicOp::kMax: return std::max(old, operand);
    case AtomicOp::kAnd: return old & operand;
    case AtomicOp::kOr: return old | operand;
  }
  return old;
}

void Sm::exec_alu(WarpContext& warp, const Instr& ins) {
  // One dispatch per instruction; the lane loops below walk the active
  // mask. Unary ops and warp-uniform values never read src1.
  lane_instructions_ += static_cast<u32>(std::popcount(warp.active));
  const auto f = [](u32 v) { return as_f32(v); };
  u32* dst = warp.reg_row(ins.dst);
  const auto fill = [&](u32 base, u32 step) {
    for_each_lane(warp.active, [&](u32 lane) { dst[lane] = base + step * lane; });
  };
  switch (ins.op) {
    case Opcode::kMov:
      if (ins.src1_is_imm)
        fill(ins.imm, 0);
      else
        unary_lanes(warp, ins, [](u32 a) { return a; });
      return;
    case Opcode::kAdd: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a + b; });
    case Opcode::kSub: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a - b; });
    case Opcode::kMul: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a * b; });
    case Opcode::kMulHi:
      return binary_lanes(warp, ins,
                          [](u32 a, u32 b) { return static_cast<u32>((u64(a) * u64(b)) >> 32); });
    case Opcode::kDiv:
      return binary_lanes(warp, ins, [](u32 a, u32 b) { return b == 0 ? 0 : a / b; });
    case Opcode::kRem:
      return binary_lanes(warp, ins, [](u32 a, u32 b) { return b == 0 ? 0 : a % b; });
    case Opcode::kMin: return binary_lanes(warp, ins, [](u32 a, u32 b) { return std::min(a, b); });
    case Opcode::kMax: return binary_lanes(warp, ins, [](u32 a, u32 b) { return std::max(a, b); });
    case Opcode::kAnd: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a & b; });
    case Opcode::kOr: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a | b; });
    case Opcode::kXor: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a ^ b; });
    case Opcode::kNot: return unary_lanes(warp, ins, [](u32 a) { return ~a; });
    case Opcode::kShl: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a << (b & 31); });
    case Opcode::kShr: return binary_lanes(warp, ins, [](u32 a, u32 b) { return a >> (b & 31); });
    case Opcode::kSra:
      return binary_lanes(warp, ins, [](u32 a, u32 b) {
        return static_cast<u32>(static_cast<i32>(a) >> (b & 31));
      });
    case Opcode::kFAdd:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(f(a) + f(b)); });
    case Opcode::kFSub:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(f(a) - f(b)); });
    case Opcode::kFMul:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(f(a) * f(b)); });
    case Opcode::kFDiv:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(f(a) / f(b)); });
    case Opcode::kFSqrt: return unary_lanes(warp, ins, [&](u32 a) { return as_u32(std::sqrt(f(a))); });
    case Opcode::kFMin:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(std::min(f(a), f(b))); });
    case Opcode::kFMax:
      return binary_lanes(warp, ins, [&](u32 a, u32 b) { return as_u32(std::max(f(a), f(b))); });
    case Opcode::kFAbs: return unary_lanes(warp, ins, [&](u32 a) { return as_u32(std::fabs(f(a))); });
    case Opcode::kFLog: return unary_lanes(warp, ins, [&](u32 a) { return as_u32(std::log(f(a))); });
    case Opcode::kFExp: return unary_lanes(warp, ins, [&](u32 a) { return as_u32(std::exp(f(a))); });
    case Opcode::kI2F:
      return unary_lanes(warp, ins,
                         [](u32 a) { return as_u32(static_cast<f32>(static_cast<i32>(a))); });
    case Opcode::kF2I:
      return unary_lanes(warp, ins,
                         [&](u32 a) { return static_cast<u32>(static_cast<i32>(f(a))); });
    case Opcode::kSpecial: {
      // tid, gtid and lane grow by one per lane; the rest are warp-uniform.
      const SpecialReg which = ins.special();
      const bool per_lane =
          which == SpecialReg::kTid || which == SpecialReg::kGTid || which == SpecialReg::kLane;
      fill(special_value(warp, which, 0), per_lane ? 1 : 0);
      return;
    }
    case Opcode::kParam: fill(env_.launch->params[ins.imm], 0); return;
    case Opcode::kSel: {
      const u32 pred = warp.preds[ins.aux];
      const u32* a = warp.reg_row(ins.src0);
      const u32* b = warp.reg_row(ins.src1);
      for_each_lane(warp.active,
                    [&](u32 lane) { dst[lane] = ((pred >> lane) & 1) ? a[lane] : b[lane]; });
      return;
    }
    default: fill(0, 0); return;
  }
}

bool Sm::static_filtered(u32 pc) const {
  return env_.haccrg->static_filter && env_.launch != nullptr &&
         env_.launch->static_report != nullptr && env_.launch->static_report->is_safe(pc);
}

rd::AccessInfo Sm::make_access(const WarpContext& warp, u32 lane, Addr addr, u8 size,
                               bool is_write, u32 pc, Cycle now, bool l1_hit) const {
  rd::AccessInfo a;
  a.addr = addr;
  a.size = size;
  a.is_write = is_write;
  const BlockContext& block = blocks_[warp.block_slot()];
  const u32 tid_in_block = warp.warp_in_block() * env_.gpu->warp_size + lane;
  a.thread_slot = static_cast<u16>(block.thread_base + tid_in_block);
  a.warp_in_sm = warp.warp_slot();
  a.block_slot = warp.block_slot();
  a.sm_id = sm_id_;
  a.sync_id = ids_.sync_id(warp.block_slot());
  a.fence_id = ids_.fence_id(warp.warp_slot());
  a.sig = ids_.sig(a.thread_slot);
  a.in_cs = ids_.in_cs(a.thread_slot);
  a.l1_hit = l1_hit;
  a.pc = pc;
  a.cycle = now;
  return a;
}

u32 Sm::sw_shadow_traffic(WarpContext& warp, const std::vector<u32>& lane_addrs) {
  // Shadow lines are fetched through the L1 like local data (write-back:
  // updates stay cached; only misses and dirty evictions reach memory).
  u32 extra_cycles = 0;
  const std::vector<u32> lines = shared_rdu_->shadow_lines(lane_addrs, env_.gpu->l1_line);
  for (u32 line : lines) {
    const Addr shadow_addr = env_.sw_shared_shadow_base + line * env_.gpu->l1_line;
    // Reuse the L1 in write-back mode for shadow lines by doing a read
    // probe followed by a manual allocate-on-miss.
    if (l1_.probe(shadow_addr)) {
      l1_.access(shadow_addr, false);
      extra_cycles += env_.gpu->l1_latency;
    } else {
      l1_.access(shadow_addr, false);  // allocates the line
      mem::Packet pkt;
      pkt.kind = mem::PacketKind::kLoad;
      pkt.addr = shadow_addr;
      pkt.bytes = env_.gpu->l1_line;
      pkt.warp_slot = warp.warp_slot();
      send_packet(std::move(pkt));
      ++warp.pending_responses;
    }
  }
  return extra_cycles;
}

void Sm::exec_shared_mem(WarpContext& warp, const Instr& ins, Cycle now) {
  const BlockContext& block = blocks_[warp.block_slot()];
  const bool is_store = ins.op == Opcode::kStShared;
  const bool is_atomic = ins.op == Opcode::kAtomShared;
  const u32 width = is_atomic ? 4 : ins.width();

  scratch_accesses_.clear();
  scratch_smem_addrs_.clear();
  lane_instructions_ += static_cast<u32>(std::popcount(warp.active));
  for_each_lane(warp.active, [&](u32 lane) {
    const u32 block_addr = warp.reg(ins.src0, lane) + ins.imm;
    const u32 local = block.smem_base + block_addr;
    if (block_addr + width > block.smem_bytes) return;  // out of the block's region
    scratch_smem_addrs_.push_back(local);
    scratch_accesses_.push_back({lane, local, static_cast<u8>(width)});

    // Functional effect.
    if (is_atomic) {
      const u32 old = smem_.read_u32(local);
      const u32 operand = warp.reg(ins.src1, lane);
      const u32 compare = warp.reg(ins.src2, lane);
      smem_.write_u32(local, apply_atomic(ins.atomic(), old, operand, compare));
      warp.reg(ins.dst, lane) = old;
    } else if (is_store) {
      const u32 value = warp.reg(ins.src1, lane);
      if (width == 1)
        smem_.write_u8(local, static_cast<u8>(value));
      else
        smem_.write_u32(local, value);
    } else {
      warp.reg(ins.dst, lane) = width == 1 ? smem_.read_u8(local) : smem_.read_u32(local);
    }
  });

  if (is_atomic)
    ++shared_atomics_;
  else if (is_store)
    ++shared_writes_;
  else
    ++shared_reads_;

  // Timing: bank conflicts; atomics to the same word serialize fully.
  u32 cycles = env_.gpu->shared_mem_latency;
  if (!scratch_smem_addrs_.empty()) {
    cycles += is_atomic ? static_cast<u32>(scratch_smem_addrs_.size())
                        : smem_.conflict_cycles(scratch_smem_addrs_) - 1;
  }
  bank_conflict_cycles_ += cycles > env_.gpu->shared_mem_latency
                               ? cycles - env_.gpu->shared_mem_latency
                               : 0;

  // HAccRG shared-memory detection. Atomic operations are synchronization
  // accesses and are not themselves checked (they cannot race). The
  // static filter (opt-in) additionally skips accesses the compile-time
  // analysis proved race-free at the detector's granularity.
  const bool shared_static_skip = shared_rdu_ && !is_atomic && static_filtered(warp.pc);
  if (shared_static_skip) {
    static_filtered_ += scratch_accesses_.size();
    static_filtered_shared_ += scratch_accesses_.size();
  }
  if (env_.trace != nullptr && !scratch_accesses_.empty()) {
    trace::Event e;
    e.kind = trace_kind_for(ins.op);
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = warp.block_slot();
    e.warp_slot = warp.warp_slot();
    e.warp_in_block = warp.warp_in_block();
    e.pc = warp.pc;
    e.width = static_cast<u8>(width);
    e.checked = shared_rdu_ != nullptr && !is_atomic && !shared_static_skip;
    for (const auto& acc : scratch_accesses_)
      e.lanes.push_back({static_cast<u8>(acc.lane), acc.addr, false, 0});
    stage_trace(std::move(e));
  }
  if (shared_rdu_ && !is_atomic && !shared_static_skip) {
    if (is_store) {
      // The pre-issue intra-warp WAW check compares exact addresses at
      // the access width (not the tracking granularity): warp lanes
      // writing *different* locations of one shadow granule are SIMD-
      // synchronized and must not be reported (Section III-A/Table III).
      waw_buf_.build(scratch_accesses_, width);
      for (const auto& c : waw_buf_.conflicts()) {
        rd::RaceRecord race;
        race.type = rd::RaceType::kWaw;
        race.mechanism = rd::RaceMechanism::kIntraWarpWaw;
        race.space = rd::MemSpace::kShared;
        race.granule_addr = c.granule_addr;
        race.sm_id = sm_id_;
        race.first_thread = static_cast<u16>(block.thread_base +
                                             warp.warp_in_block() * env_.gpu->warp_size +
                                             c.lane_a);
        race.second_thread = static_cast<u16>(block.thread_base +
                                              warp.warp_in_block() * env_.gpu->warp_size +
                                              c.lane_b);
        race.pc = warp.pc;
        race.cycle = now;
        race_staging_.record(race);
      }
    }
    for (const auto& acc : scratch_accesses_) {
      shared_rdu_->check(
          make_access(warp, acc.lane, acc.addr, acc.size, is_store, warp.pc, now, false));
    }
    if (env_.haccrg->shared_shadow == rd::SharedShadowPlacement::kGlobalMemory) {
      cycles += sw_shadow_traffic(warp, scratch_smem_addrs_);
    }
  }

  issue_free_at_ = now + std::max(env_.gpu->warp_issue_cycles(), cycles);
  if (warp.pending_responses > 0) {
    set_state(warp, WarpState::kWaitMem);  // sw shadow miss outstanding
  } else {
    warp.ready_at = now + cycles;
  }
  ++warp.pc;
}

void Sm::exec_global_mem(WarpContext& warp, const Instr& ins, Cycle now) {
  const bool is_store = ins.op == Opcode::kStGlobal;
  const bool is_atomic = ins.op == Opcode::kAtomGlobal;
  const u32 width = is_atomic ? 4 : ins.width();
  const bool detect_cfg = env_.haccrg->enable_global && env_.global_rdu != nullptr;
  const bool global_static_skip = detect_cfg && static_filtered(warp.pc);
  const bool detect = detect_cfg && !global_static_skip;

  // Device memory and the global RDU are shared across SMs, so their
  // effects are captured here and replayed at the epoch barrier. Source
  // operands are read now (issue-time register values); destination
  // registers are written at replay, which nothing can observe earlier
  // because this warp issues again next cycle at the soonest.
  DeferredGlobalOp& op = acquire_deferred();
  op.warp_slot = warp.warp_slot();
  op.is_store = is_store;
  op.is_atomic = is_atomic;
  op.width = static_cast<u8>(width);
  op.dst = ins.dst;
  if (is_atomic) op.atomic_op = ins.atomic();

  scratch_accesses_.clear();
  lane_instructions_ += static_cast<u32>(std::popcount(warp.active));
  for_each_lane(warp.active, [&](u32 lane) {
    const Addr addr = warp.reg(ins.src0, lane) + ins.imm;
    scratch_accesses_.push_back({lane, addr, static_cast<u8>(width)});

    DeferredGlobalOp::Lane dl;
    dl.lane = lane;
    dl.addr = addr;
    dl.operand = (is_store || is_atomic) ? warp.reg(ins.src1, lane) : 0;
    dl.compare = is_atomic ? warp.reg(ins.src2, lane) : 0;
    op.lanes.push_back(dl);
  });

  if (is_atomic)
    ++global_atomics_;
  else if (is_store)
    ++global_writes_;
  else
    ++global_reads_;

  // The ID registers must see every global access even when the shadow
  // check is statically filtered: they drive sync-ID ordering for the
  // *other* accesses' checks.
  if (detect_cfg && !scratch_accesses_.empty()) ids_.note_global_access(warp.block_slot());
  if (global_static_skip) {
    static_filtered_ += scratch_accesses_.size();
    static_filtered_global_ += scratch_accesses_.size();
  }

  if (env_.trace != nullptr && !scratch_accesses_.empty()) {
    op.has_trace_event = true;
    trace::Event& e = op.trace_event;
    // The slot may be reused: reset the event to defaults while keeping
    // the lane vector's capacity.
    auto lanes = std::move(e.lanes);
    lanes.clear();
    e = trace::Event{};
    e.lanes = std::move(lanes);
    e.kind = trace_kind_for(ins.op);
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = warp.block_slot();
    e.warp_slot = warp.warp_slot();
    e.warp_in_block = warp.warp_in_block();
    e.pc = warp.pc;
    e.width = static_cast<u8>(width);
    e.checked = detect && !is_atomic;
    for (const auto& acc : scratch_accesses_)
      e.lanes.push_back({static_cast<u8>(acc.lane), acc.addr, false, 0});
  }

  u32 transactions = 0;

  if (is_atomic) {
    transactions = static_cast<u32>(scratch_accesses_.size());
    // One transaction per active lane; atomics are not race-checked.
    for (const auto& acc : scratch_accesses_) {
      mem::Packet pkt;
      pkt.kind = mem::PacketKind::kAtomic;
      pkt.addr = acc.addr & ~(env_.gpu->l1_line - 1);
      pkt.bytes = 4;
      pkt.warp_slot = warp.warp_slot();
      send_packet(std::move(pkt));
      ++warp.pending_responses;
    }
  } else {
    // Intra-warp WAW detection before the request is issued (Sec. III-A).
    if (detect && is_store) {
      const BlockContext& block = blocks_[warp.block_slot()];
      // Exact-address comparison at access width; see the shared path.
      waw_buf_.build(scratch_accesses_, width);
      for (const auto& c : waw_buf_.conflicts()) {
        rd::RaceRecord race;
        race.type = rd::RaceType::kWaw;
        race.mechanism = rd::RaceMechanism::kIntraWarpWaw;
        race.space = rd::MemSpace::kGlobal;
        race.granule_addr = c.granule_addr;
        race.sm_id = sm_id_;
        race.first_thread = static_cast<u16>(block.thread_base +
                                             warp.warp_in_block() * env_.gpu->warp_size +
                                             c.lane_a);
        race.second_thread = static_cast<u16>(block.thread_base +
                                              warp.warp_in_block() * env_.gpu->warp_size +
                                              c.lane_b);
        race.pc = warp.pc;
        race.cycle = now;
        race_staging_.record(race);
      }
    }

    // Coalesce into line transactions and run them through the L1. The
    // L1 is SM-local, so lookups happen at issue and the hit/fill facts
    // ride along with the deferred RDU checks. The buffer's segments
    // index straight into scratch_accesses_, so no per-lane search is
    // needed to recover the full access.
    coalesce_buf_.build(scratch_accesses_, env_.gpu->l1_line);
    transactions = coalesce_buf_.size();
    for (u32 s = 0; s < coalesce_buf_.size(); ++s) {
      const mem::CoalesceBuffer::Segment& seg = coalesce_buf_[s];
      op.trace_addrs.push_back(seg.addr);
      const Cycle line_fill = l1_.fill_time(seg.addr);
      const bool l1_hit = l1_.access(seg.addr, is_store, now).hit;
      if (op.has_trace_event && !is_store && l1_hit) {
        // Stamp the stale-L1 rule's inputs onto this segment's lanes.
        for (u32 idx : seg.access_indices)
          for (trace::TraceLane& tl : op.trace_event.lanes)
            if (tl.lane == scratch_accesses_[idx].lane) {
              tl.l1_hit = true;
              tl.l1_fill = line_fill;
            }
      }
      if (is_store) {
        mem::Packet pkt;  // write-through
        pkt.kind = mem::PacketKind::kStore;
        pkt.addr = seg.addr;
        pkt.bytes = env_.gpu->l1_line;
        pkt.warp_slot = warp.warp_slot();
        send_packet(std::move(pkt));
        ++warp.outstanding_stores;
      } else if (!l1_hit) {
        mem::Packet pkt;
        pkt.kind = mem::PacketKind::kLoad;
        pkt.addr = seg.addr;
        pkt.bytes = env_.gpu->l1_line;
        pkt.warp_slot = warp.warp_slot();
        send_packet(std::move(pkt));
        ++warp.pending_responses;
      }
      // Race checks for the lanes of this segment, carrying the L1-hit
      // flag loads need for the stale-data rule.
      if (detect) {
        for (u32 idx : seg.access_indices) {
          const mem::LaneAccess& acc = scratch_accesses_[idx];
          rd::AccessInfo info = make_access(warp, acc.lane, acc.addr, acc.size, is_store,
                                            warp.pc, now, !is_store && l1_hit);
          info.l1_fill_cycle = line_fill;
          op.checks.push_back(info);
        }
      }
    }
  }

  // The load/store unit issues one transaction per cycle: poorly
  // coalesced accesses occupy the issue port longer.
  issue_free_at_ =
      now + std::max(env_.gpu->warp_issue_cycles(), std::max(transactions, 1u));
  if (warp.pending_responses > 0)
    set_state(warp, WarpState::kWaitMem);
  else
    warp.ready_at = now + 1;
  ++warp.pc;
}

void Sm::exec_barrier(WarpContext& warp, Cycle now) {
  ++barriers_;
  BlockContext& block = blocks_[warp.block_slot()];
  set_state(warp, WarpState::kAtBarrier);
  ++warp.pc;
  ++block.warps_at_barrier;

  if (env_.trace != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kBarrierArrive;
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = warp.block_slot();
    e.warp_slot = warp.warp_slot();
    stage_trace(std::move(e));
  }

  const u32 expected = block.num_warps - block.warps_done;
  if (block.warps_at_barrier < expected) return;

  // Release the whole block.
  block.warps_at_barrier = 0;
  for (auto& w : warps_) {
    if (w.state == WarpState::kAtBarrier && w.block_slot() == warp.block_slot()) {
      set_state(w, WarpState::kReady);
      w.ready_at = now + 1;
    }
  }

  // HAccRG barrier work: invalidate shared shadow entries (costing issue
  // cycles) and advance the block's sync ID if global memory was touched.
  if (shared_rdu_ && block.smem_bytes > 0) {
    const u32 cost =
        shared_rdu_->reset_region(block.smem_base, block.smem_bytes, env_.gpu->shared_mem_banks);
    barrier_reset_cycles_ += cost;
    issue_free_at_ = std::max(issue_free_at_, now + cost);
  }
  if (env_.haccrg->enable_global) ids_.on_barrier(warp.block_slot());
  if (env_.trace != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kBarrierRelease;
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = warp.block_slot();
    e.smem_base = block.smem_base;
    e.smem_bytes = block.smem_bytes;
    stage_trace(std::move(e));
  }
}

void Sm::exec_fence(WarpContext& warp, Cycle now) {
  ++fences_;
  ++warp.pc;
  if (env_.trace != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kFence;
    e.cycle = now;
    e.sm = sm_id_;
    e.warp_slot = warp.warp_slot();
    stage_trace(std::move(e));
  }
  if (warp.outstanding_stores == 0) {
    warp.ready_at = now + env_.gpu->fence_latency;
    ids_.on_fence(warp.warp_slot());
    if (env_.trace != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kFenceCommit;
      e.cycle = now;
      e.sm = sm_id_;
      e.warp_slot = warp.warp_slot();
      stage_trace(std::move(e));
    }
  } else {
    set_state(warp, WarpState::kWaitFence);  // fence ID bumps when stores drain
  }
}

void Sm::exec_exit(WarpContext& warp, Cycle now) {
  warp.alive &= ~warp.active;
  if (warp.alive != 0 && !warp.mask_stack.empty()) {
    // Divergent exit: surviving lanes continue.
    warp.active = warp.alive & warp.active;
    ++warp.pc;
    return;
  }
  set_state(warp, WarpState::kDone);
  BlockContext& block = blocks_[warp.block_slot()];
  ++block.warps_done;

  // A warp exiting may release warps waiting at a barrier it will never
  // reach (CUDA forbids this; we resolve rather than hang, as hardware
  // effectively does).
  const u32 expected = block.num_warps - block.warps_done;
  if (expected > 0 && block.warps_at_barrier >= expected) {
    block.warps_at_barrier = 0;
    for (auto& w : warps_) {
      if (w.state == WarpState::kAtBarrier && w.block_slot() == warp.block_slot()) {
        set_state(w, WarpState::kReady);
        w.ready_at = now + 1;
      }
    }
  }

  if (block.warps_done == block.num_warps) block_finished(warp.block_slot(), now);
}

void Sm::block_finished(u32 block_slot, Cycle now) {
  BlockContext& block = blocks_[block_slot];
  if (env_.trace != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kBlockFinish;
    e.cycle = now;
    e.sm = sm_id_;
    e.block_slot = block_slot;
    e.smem_base = block.smem_base;
    e.smem_bytes = block.smem_bytes;
    stage_trace(std::move(e));
  }
  for (auto& w : warps_) {
    if (w.state == WarpState::kDone && w.block_slot() == block_slot) w.release();
  }
  if (shared_rdu_ && block.smem_bytes > 0) {
    shared_rdu_->reset_region(block.smem_base, block.smem_bytes, env_.gpu->shared_mem_banks);
  }
  block.active = false;
  --resident_blocks_;
  ++blocks_completed_;
}

void Sm::execute(WarpContext& warp, Cycle now) {
  const Instr& ins = env_.program->at(warp.pc);
  ++warp_instructions_;

  switch (ins.op) {
    case Opcode::kLdShared:
    case Opcode::kStShared:
    case Opcode::kAtomShared:
      exec_shared_mem(warp, ins, now);
      return;
    case Opcode::kLdGlobal:
    case Opcode::kStGlobal:
    case Opcode::kAtomGlobal:
      exec_global_mem(warp, ins, now);
      return;
    case Opcode::kBar:
      issue_free_at_ = std::max(issue_free_at_, now + env_.gpu->warp_issue_cycles());
      exec_barrier(warp, now);
      return;
    case Opcode::kMemBar:
    case Opcode::kMemBarBlock:
      issue_free_at_ = now + env_.gpu->warp_issue_cycles();
      exec_fence(warp, now);
      return;
    case Opcode::kExit:
      issue_free_at_ = now + env_.gpu->warp_issue_cycles();
      exec_exit(warp, now);
      return;
    default:
      break;
  }

  // Non-memory, non-sync instructions.
  issue_free_at_ = now + env_.gpu->warp_issue_cycles();
  warp.ready_at = now + 1;

  switch (ins.op) {
    case Opcode::kSetp: {
      lane_instructions_ += static_cast<u32>(std::popcount(warp.active));
      u32& preds = warp.preds[ins.dst];
      preds = (preds & ~warp.active) | setp_bits(warp, ins);
      ++warp.pc;
      return;
    }
    case Opcode::kIf: {
      const u32 taken = warp.active & warp.preds[ins.aux];
      warp.mask_stack.push_back({warp.active, taken});
      warp.active = taken;
      ++warp.pc;
      return;
    }
    case Opcode::kElse: {
      const MaskScope& scope = warp.mask_stack.back();
      warp.active = scope.saved & ~scope.taken;
      ++warp.pc;
      return;
    }
    case Opcode::kEndIf:
    case Opcode::kLoopEnd: {
      warp.active = warp.mask_stack.back().saved;
      warp.mask_stack.pop_back();
      ++warp.pc;
      return;
    }
    case Opcode::kLoopBegin: {
      warp.mask_stack.push_back({warp.active, warp.active});
      ++warp.pc;
      return;
    }
    case Opcode::kBreakIfNot: {
      warp.active &= warp.preds[ins.aux];
      warp.pc = warp.active == 0 ? ins.imm : warp.pc + 1;
      return;
    }
    case Opcode::kBreakIf: {
      warp.active &= ~warp.preds[ins.aux];
      warp.pc = warp.active == 0 ? ins.imm : warp.pc + 1;
      return;
    }
    case Opcode::kJump: {
      warp.pc = ins.imm;
      return;
    }
    case Opcode::kLockAcqMark:
    case Opcode::kLockRelMark: {
      const bool acquire = ins.op == Opcode::kLockAcqMark;
      const BlockContext& block = blocks_[warp.block_slot()];
      const rd::BloomGeometry geom{env_.haccrg->bloom_bits, env_.haccrg->bloom_bins};
      trace::Event e;
      if (env_.trace != nullptr) {
        e.kind = trace_kind_for(ins.op);
        e.cycle = now;
        e.sm = sm_id_;
        e.block_slot = warp.block_slot();
        e.warp_slot = warp.warp_slot();
        e.warp_in_block = warp.warp_in_block();
        e.pc = warp.pc;
      }
      for_each_lane(warp.active, [&](u32 lane) {
        const u32 slot =
            block.thread_base + warp.warp_in_block() * env_.gpu->warp_size + lane;
        if (acquire)
          ids_.on_lock_acquired(slot, warp.reg(ins.src0, lane), geom);
        else
          ids_.on_lock_releasing(slot);
        if (env_.trace != nullptr)
          e.lanes.push_back(
              {static_cast<u8>(lane), acquire ? warp.reg(ins.src0, lane) : 0, false, 0});
      });
      if (env_.trace != nullptr) stage_trace(std::move(e));
      ++warp.pc;
      return;
    }
    case Opcode::kNop:
      ++warp.pc;
      return;
    default:
      exec_alu(warp, ins);
      ++warp.pc;
      return;
  }
}

void Sm::append_hang_summary(std::string& out) const {
  static constexpr const char* kStateNames[] = {"Invalid", "Ready",     "WaitMem",
                                                "Barrier", "WaitFence", "Done"};
  for (const WarpContext& w : warps_) {
    if (w.state == WarpState::kInvalid || w.state == WarpState::kDone) continue;
    out += "\n  sm" + std::to_string(sm_id_) + ".w" + std::to_string(w.warp_slot()) +
           " pc=" + std::to_string(w.pc) +
           " state=" + kStateNames[static_cast<u8>(w.state)] +
           " active=" + std::to_string(w.active) +
           " pend=" + std::to_string(w.pending_responses) +
           " stores=" + std::to_string(w.outstanding_stores) +
           " ready_at=" + std::to_string(w.ready_at) +
           " staged=" + std::to_string(env_.icnt->staged_requests(sm_id_));
  }
}

void Sm::export_stats(StatSet& stats) const {
  l1_.export_stats(stats);
  if (shared_rdu_) shared_rdu_->export_stats(stats);
  stats.add("sm.bank_conflict_cycles", bank_conflict_cycles_);
  stats.add("rd.static_filtered", static_filtered_);
  // Per-space shares, only when the filter fired (keeps unfiltered
  // golden stat sets byte-identical).
  if (static_filtered_shared_ != 0) stats.add("rd.static_filtered_shared", static_filtered_shared_);
  if (static_filtered_global_ != 0) stats.add("rd.static_filtered_global", static_filtered_global_);
  stats.add("sm.barrier_reset_cycles", barrier_reset_cycles_);
  stats.add("ids.barrier_events", ids_.barrier_events());
  stats.add("ids.sync_increments", ids_.sync_increments());
}

}  // namespace haccrg::sim
