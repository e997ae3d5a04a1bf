#include "trace/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "haccrg/global_rdu.hpp"
#include "haccrg/id_regs.hpp"
#include "haccrg/shared_rdu.hpp"
#include "mem/device_memory.hpp"

namespace haccrg::trace {

RaceKey race_key(const rd::RaceRecord& r) {
  return {static_cast<u8>(r.space), static_cast<u8>(r.type), static_cast<u8>(r.mechanism),
          r.granule_addr, r.sm_id, r.first_thread, r.second_thread, r.pc, r.cycle};
}

std::set<RaceKey> race_identity_set(const rd::RaceLog& log) {
  std::set<RaceKey> keys;
  for (const rd::RaceRecord& r : log.races()) keys.insert(race_key(r));
  return keys;
}

std::string race_key_line(const RaceKey& key) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "space=%u type=%u mech=%u granule=0x%x sm=%u first=%u second=%u pc=%u cycle=%llu",
                static_cast<unsigned>(std::get<0>(key)), static_cast<unsigned>(std::get<1>(key)),
                static_cast<unsigned>(std::get<2>(key)),
                static_cast<unsigned>(std::get<3>(key)), std::get<4>(key),
                static_cast<unsigned>(std::get<5>(key)), static_cast<unsigned>(std::get<6>(key)),
                std::get<7>(key), static_cast<unsigned long long>(std::get<8>(key)));
  return buf;
}

std::vector<std::string> race_set_lines(const rd::RaceLog& log) {
  std::vector<std::string> lines;
  for (const RaceKey& key : race_identity_set(log)) lines.push_back(race_key_line(key));
  return lines;  // std::set iteration is already sorted
}

std::set<RaceKey> ReplayResult::race_set() const {
  std::set<RaceKey> all;
  for (const KernelReplay& k : kernels)
    for (const rd::RaceRecord& r : k.races.races()) all.insert(race_key(r));
  return all;
}

namespace {

/// Replica of the SM's BlockContext fields replay needs.
struct SlotState {
  bool active = false;
  u32 block_id = 0;
  u32 thread_base = 0;
  u32 num_warps = 0;
  u32 smem_base = 0;
  u32 smem_bytes = 0;
};

/// Per-SM detection state, heap-pinned: the SharedRdu keeps a pointer to
/// `staging` and the global fence reader indexes into the SmState array,
/// so neither may move after construction.
struct SmState {
  rd::RaceStaging staging;
  rd::SmIdRegisters ids;
  std::unique_ptr<rd::SharedRdu> shared_rdu;
  std::vector<SlotState> slots;

  SmState(u32 sm_id, const TraceHeader& h, const rd::HaccrgConfig& cfg,
          const rd::DetectPolicy& policy)
      : ids(h.max_blocks_per_sm, h.warps_per_sm(), h.max_threads_per_sm),
        slots(h.max_blocks_per_sm) {
    if (cfg.enable_shared)
      shared_rdu = std::make_unique<rd::SharedRdu>(sm_id, h.shared_mem_per_sm, cfg, policy,
                                                   staging);
  }
};

/// All state for one kernel launch, torn down and rebuilt at every
/// kKernelBegin exactly as the live Gpu rebuilds its detectors — or,
/// when a ReplayArena is in play, cleared and reused (reset_for).
struct KernelState {
  rd::HaccrgConfig cfg;
  rd::DetectPolicy policy;
  TraceHeader built_for;  ///< header the state was sized by (arena matching)
  std::vector<std::unique_ptr<SmState>> sms;
  std::unique_ptr<mem::DeviceMemory> memory;  ///< heap + shadow span; only shadow is used
  std::unique_ptr<rd::RaceLog> log;
  std::unique_ptr<rd::GlobalRdu> global_rdu;
  std::unique_ptr<SwHaccrgReplay> sw;
  std::unique_ptr<GraceReplay> grace;

  KernelState(const TraceHeader& header, const Event& begin, const ReplayOptions& opts)
      : cfg(header.haccrg_config()), built_for(header) {
    policy.warp_size = header.warp_size;
    policy.warp_regrouping = header.warp_regrouping;
    policy.fence_gating = !header.disable_fence_gate;
    policy.bloom = {header.bloom_bits, header.bloom_bins};
    log = std::make_unique<rd::RaceLog>(header.max_recorded_races);
    for (u32 s = 0; s < header.num_sms; ++s)
      sms.push_back(std::make_unique<SmState>(s, header, cfg, policy));
    if (opts.hw && cfg.enable_global) {
      // Device memory here is sized up to the top of the shadow region, so
      // it also spans the application heap below shadow_base. Application
      // data is functional state the detectors never read; the storage is
      // zero-on-demand, so that untouched span costs no host memory.
      const u32 shadow_bytes =
          rd::GlobalRdu::shadow_bytes_for(begin.app_heap_bytes, cfg.global_granularity);
      memory = std::make_unique<mem::DeviceMemory>(begin.shadow_base + shadow_bytes + 8);
      make_global_rdu();
      global_rdu->init_shadow(begin.shadow_base, begin.app_heap_bytes);
    }
    if (opts.sw_haccrg)
      sw = std::make_unique<SwHaccrgReplay>(begin.app_heap_bytes, begin.grid_dim,
                                            begin.block_dim, opts.sw_is_safe);
    if (opts.grace)
      grace = std::make_unique<GraceReplay>(begin.grid_dim, begin.block_dim, opts.sw_is_safe);
  }

  void make_global_rdu() {
    auto* sm_array = &sms;
    rd::FenceIdReader fence_reader = [sm_array](u32 sm_id, u32 warp_in_sm) -> u8 {
      return (*sm_array)[sm_id]->ids.fence_id(warp_in_sm);
    };
    global_rdu =
        std::make_unique<rd::GlobalRdu>(*memory, cfg, policy, *log, std::move(fence_reader));
  }

  /// Clear-don't-free reuse: reset every piece of detector state to its
  /// construction value for a new kernel, keeping all heap allocations.
  /// False when the cached state cannot serve this kernel (different
  /// machine/detector header, software emulators requested) — the
  /// caller builds fresh. Only the shadow memory is rebuilt when a
  /// larger heap shows up.
  bool reset_for(const TraceHeader& header, const Event& begin, const ReplayOptions& opts) {
    TraceHeader a = built_for;
    TraceHeader b = header;
    // v1 and v2 recordings of the same machine are interchangeable here:
    // the version picks the file framing, not the detector state.
    a.version = b.version = 0;
    if (!(a == b)) return false;
    if (sw != nullptr || grace != nullptr || opts.sw_haccrg || opts.grace) return false;
    const bool want_global = opts.hw && cfg.enable_global;
    if (want_global != (global_rdu != nullptr)) return false;
    log->clear();
    for (auto& sm : sms) {
      sm->staging.clear();
      sm->ids.reset();
      std::fill(sm->slots.begin(), sm->slots.end(), SlotState{});
      if (sm->shared_rdu != nullptr)
        sm->shared_rdu->reset_region(0, header.shared_mem_per_sm, header.shared_mem_banks);
    }
    if (want_global) {
      const u32 shadow_bytes =
          rd::GlobalRdu::shadow_bytes_for(begin.app_heap_bytes, cfg.global_granularity);
      const u64 need = u64{begin.shadow_base} + shadow_bytes + 8;
      if (memory == nullptr || memory->size() < need) {
        memory = std::make_unique<mem::DeviceMemory>(static_cast<u32>(need));
        make_global_rdu();
      }
      global_rdu->init_shadow(begin.shadow_base, begin.app_heap_bytes);
    }
    return true;
  }
};

}  // namespace

/// Arena internals: one cached KernelState. The mutex guards
/// acquire/release (per kernel, not per event) and the counters, which
/// STATS reads from another thread.
struct ReplayArena::Impl {
  std::mutex mu;
  std::unique_ptr<KernelState> state;
  u64 reuses = 0;
  u64 builds = 0;
};

ReplayArena::ReplayArena() : impl_(std::make_unique<Impl>()) {}
ReplayArena::~ReplayArena() = default;

u64 ReplayArena::reuses() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->reuses;
}

u64 ReplayArena::builds() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->builds;
}

namespace {

class ReplayEngine {
 public:
  ReplayEngine(const TraceHeader& header, const ReplayOptions& opts)
      : header_(header), opts_(opts) {}

  /// Streaming replay: decode events from the reader one at a time.
  ReplayResult run(TraceReader& reader) {
    result_.header = header_;
    Event event;
    while (reader.next(event)) {
      if (check_cancel()) return std::move(result_);
      ++result_.total_events;
      if (!handle(event)) return std::move(result_);
    }
    if (!reader.error().empty()) {
      fail(reader.error(), reader.status().code());
      return std::move(result_);
    }
    finish_kernel();
    result_.ok = true;
    return std::move(result_);
  }

  /// Pre-decoded replay: the varint layer was paid once by decode_trace.
  ReplayResult run(const Event* events, size_t count) {
    result_.header = header_;
    for (size_t i = 0; i < count; ++i) {
      if (check_cancel()) return std::move(result_);
      ++result_.total_events;
      if (!handle(events[i])) return std::move(result_);
    }
    finish_kernel();
    result_.ok = true;
    return std::move(result_);
  }

 private:
  /// Cooperative cancellation poll, once per kCancelCheckInterval events
  /// (cheap: one predictable branch on the polled cycles). True when the
  /// replay must stop — the result is already marked failed.
  bool check_cancel() {
    if (opts_.cancel == nullptr || result_.total_events % kCancelCheckInterval != 0)
      return false;
    if (!opts_.cancel->cancelled()) return false;
    fail("replay: cancelled (deadline exceeded)", StatusCode::kDeadlineExceeded);
    return true;
  }

  bool fail(const std::string& what, StatusCode why = StatusCode::kCorrupt) {
    if (result_.error.empty()) {
      result_.error = what;
      result_.code = why;
    }
    result_.ok = false;
    return false;
  }

  void finish_kernel() {
    if (state_ == nullptr) return;
    if (opts_.arena != nullptr) {
      // The state goes back to the arena for the next kernel, so copy
      // the log out instead of gutting it.
      current_.races = *state_->log;
    } else {
      current_.races = std::move(*state_->log);
    }
    if (state_->sw != nullptr) {
      current_.sw_haccrg_races = state_->sw->races();
      current_.sw_haccrg_locations = state_->sw->locations();
    }
    if (state_->grace != nullptr) {
      current_.grace_races = state_->grace->races();
      current_.grace_locations = state_->grace->locations();
    }
    result_.kernels.push_back(std::move(current_));
    current_ = KernelReplay();
    if (opts_.arena != nullptr) {
      ReplayArena::Impl& arena = opts_.arena->impl();
      std::lock_guard<std::mutex> lock(arena.mu);
      arena.state = std::move(state_);
    }
    state_.reset();
  }

  bool begin_kernel(const Event& event) {
    finish_kernel();
    const TraceHeader& h = header_;
    if (event.block_dim == 0 || event.block_dim > h.max_threads_per_sm)
      return fail("replay: kernel block_dim outside the machine's limits");
    // The event's heap and shadow fields size real allocations below; a
    // bit-flipped kKernelBegin must become a structured failure, not an
    // out-of-memory crash. Computed in 64 bits: the u32 fields can sum
    // past 4 GiB. Legitimate traces use tens of MiB.
    constexpr u64 kMaxReplayFootprint = u64{1} << 30;  // 1 GiB
    const u32 gran = h.global_granularity;
    const u64 shadow_bytes =
        (u64{event.app_heap_bytes} + gran - 1) / gran * rd::GlobalRdu::kEntryBytes;
    if (event.app_heap_bytes > kMaxReplayFootprint ||
        u64{event.shadow_base} + shadow_bytes + 8 > kMaxReplayFootprint)
      return fail("replay: kernel memory footprint exceeds the replay cap");
    if (opts_.arena != nullptr) {
      ReplayArena::Impl& arena = opts_.arena->impl();
      std::unique_ptr<KernelState> cached;
      {
        std::lock_guard<std::mutex> lock(arena.mu);
        cached = std::move(arena.state);
      }
      const bool reused = cached != nullptr && cached->reset_for(h, event, opts_);
      if (reused) {
        state_ = std::move(cached);
      } else {
        // An incompatible cached state is simply dropped; the fresh
        // build replaces it in the arena at the next finish_kernel.
        state_ = std::make_unique<KernelState>(h, event, opts_);
      }
      std::lock_guard<std::mutex> lock(arena.mu);
      reused ? ++arena.reuses : ++arena.builds;
    } else {
      state_ = std::make_unique<KernelState>(h, event, opts_);
    }
    current_.label = event.label;
    current_.grid_dim = event.grid_dim;
    current_.block_dim = event.block_dim;
    current_.shared_mem_bytes = event.shared_mem_bytes;
    current_.app_heap_bytes = event.app_heap_bytes;
    current_.shadow_base = event.shadow_base;
    return true;
  }

  /// Bounds-check the identifiers a decoded event carries before they
  /// index replay state (a bit-flipped trace must fail, not corrupt).
  bool check_context(const Event& event, bool need_slot) {
    const TraceHeader& h = header_;
    if (event.sm >= h.num_sms) return fail("replay: event SM id out of range");
    if (need_slot && event.block_slot >= h.max_blocks_per_sm)
      return fail("replay: event block slot out of range");
    if (event.warp_slot >= h.warps_per_sm())
      return fail("replay: event warp slot out of range");
    return true;
  }

  u32 thread_slot(const SlotState& slot, const Event& event, u8 lane) const {
    return slot.thread_base + event.warp_in_block * header_.warp_size + lane;
  }

  rd::AccessInfo make_access(const SmState& sm, const SlotState& slot, const Event& event,
                             const TraceLane& lane, bool is_write) const {
    rd::AccessInfo a;
    a.addr = lane.addr;
    a.size = event.width;
    a.is_write = is_write;
    a.thread_slot = static_cast<u16>(thread_slot(slot, event, lane.lane));
    a.warp_in_sm = event.warp_slot;
    a.block_slot = event.block_slot;
    a.sm_id = event.sm;
    a.sync_id = sm.ids.sync_id(event.block_slot);
    a.fence_id = sm.ids.fence_id(event.warp_slot);
    a.sig = sm.ids.sig(a.thread_slot);
    a.in_cs = sm.ids.in_cs(a.thread_slot);
    a.l1_hit = lane.l1_hit;
    a.l1_fill_cycle = lane.l1_fill;
    a.pc = event.pc;
    a.cycle = event.cycle;
    return a;
  }

  void stage_waw(SmState& sm, const SlotState& slot, const Event& event, rd::MemSpace space) {
    // Allocation-free mirror of mem::intra_warp_waw: same granule
    // first-writer rule, same one-report-per-granule order (replay runs
    // this per store event, so the map the live helper builds would churn
    // the heap).
    const u32 width = event.width;
    waw_scratch_.clear();
    for (const TraceLane& lane : event.lanes) {
      const Addr granule = lane.addr & ~static_cast<Addr>(width - 1);
      WawGranule* found = nullptr;
      for (WawGranule& g : waw_scratch_)
        if (g.addr == granule) {
          found = &g;
          break;
        }
      if (found == nullptr) {
        waw_scratch_.push_back({granule, lane.lane, false});
        continue;
      }
      if (found->first_lane == lane.lane || found->reported) continue;
      found->reported = true;
      rd::RaceRecord race;
      race.type = rd::RaceType::kWaw;
      race.mechanism = rd::RaceMechanism::kIntraWarpWaw;
      race.space = space;
      race.granule_addr = granule;
      race.sm_id = event.sm;
      race.first_thread = static_cast<u16>(thread_slot(slot, event, found->first_lane));
      race.second_thread = static_cast<u16>(thread_slot(slot, event, lane.lane));
      race.pc = event.pc;
      race.cycle = event.cycle;
      sm.staging.record(race);
    }
  }

  bool handle_shared(const Event& event) {
    SmState& sm = *state_->sms[event.sm];
    const SlotState& slot = sm.slots[event.block_slot];
    const bool is_atomic = event.kind == EventKind::kSharedAtomic;
    const bool is_store = event.kind == EventKind::kSharedStore;
    for (const TraceLane& lane : event.lanes)
      if (thread_slot(slot, event, lane.lane) >= header_.max_threads_per_sm)
        return fail("replay: shared-access thread slot out of range");

    if (opts_.hw && event.checked && sm.shared_rdu != nullptr) {
      if (is_store) stage_waw(sm, slot, event, rd::MemSpace::kShared);
      // Count granule checks via the RDU's own counter (an access can
      // span several granules).
      const u64 before = sm.shared_rdu->checks();
      for (const TraceLane& lane : event.lanes)
        sm.shared_rdu->check(make_access(sm, slot, event, lane, is_store));
      current_.shared_checks += sm.shared_rdu->checks() - before;
      if (!sm.staging.empty()) sm.staging.drain_into(*state_->log);
    }
    if (!is_atomic) {
      if (state_->sw != nullptr) state_->sw->on_access(event, slot.block_id, slot.smem_base);
      if (state_->grace != nullptr)
        state_->grace->on_access(event, slot.block_id, slot.smem_base);
    }
    return true;
  }

  bool handle_global(const Event& event) {
    SmState& sm = *state_->sms[event.sm];
    const SlotState& slot = sm.slots[event.block_slot];
    const bool is_atomic = event.kind == EventKind::kGlobalAtomic;
    const bool is_store = event.kind == EventKind::kGlobalStore;
    for (const TraceLane& lane : event.lanes)
      if (thread_slot(slot, event, lane.lane) >= header_.max_threads_per_sm)
        return fail("replay: global-access thread slot out of range");

    // The ID registers see every global access even when the shadow check
    // was statically filtered (mirrors Sm::exec_global_mem).
    if (opts_.hw && state_->cfg.enable_global && !event.lanes.empty())
      sm.ids.note_global_access(event.block_slot);

    if (opts_.hw && event.checked && state_->global_rdu != nullptr && !is_atomic) {
      if (is_store) stage_waw(sm, slot, event, rd::MemSpace::kGlobal);
      // The live engine drains the issue-time staging (intra-warp WAW)
      // before replaying deferred checks; same order here.
      if (!sm.staging.empty()) sm.staging.drain_into(*state_->log);
      // Allocation-free mirror of mem::coalesce: the live check order is
      // segments in first-touch order, lanes in touch order within each
      // segment. Record (segment index, lane index) pairs in touch
      // order, then walk them segment by segment.
      const u32 line = header_.l1_line;
      seg_scratch_.clear();
      order_scratch_.clear();
      for (u32 i = 0; i < event.lanes.size(); ++i) {
        const Addr addr = event.lanes[i].addr;
        const Addr first = addr & ~static_cast<Addr>(line - 1);
        const Addr last =
            (addr + (event.width != 0 ? event.width - 1 : 0)) & ~static_cast<Addr>(line - 1);
        for (Addr seg = first; seg <= last; seg += line) {
          u32 idx = static_cast<u32>(seg_scratch_.size());
          for (u32 s = 0; s < seg_scratch_.size(); ++s)
            if (seg_scratch_[s] == seg) {
              idx = s;
              break;
            }
          if (idx == seg_scratch_.size()) seg_scratch_.push_back(seg);
          order_scratch_.push_back({idx, i});
          if (seg > last - line && seg == last) break;  // avoid overflow wrap
        }
      }
      shadow_scratch_.clear();
      const u64 before = state_->global_rdu->checks();
      for (u32 s = 0; s < seg_scratch_.size(); ++s) {
        for (const auto& [seg_idx, lane_idx] : order_scratch_) {
          if (seg_idx != s) continue;
          state_->global_rdu->check(
              make_access(sm, slot, event, event.lanes[lane_idx], is_store), shadow_scratch_);
        }
      }
      current_.global_checks += state_->global_rdu->checks() - before;
    }
    if (!is_atomic && state_->sw != nullptr)
      state_->sw->on_access(event, slot.block_id, slot.smem_base);
    return true;
  }

  bool handle(const Event& event) {
    if (event.kind == EventKind::kKernelBegin) return begin_kernel(event);
    if (state_ == nullptr) return fail("replay: event before any kernel begin");
    ++current_.events;

    switch (event.kind) {
      case EventKind::kKernelEnd:
        current_.cycles = event.cycle;
        return true;
      case EventKind::kBlockLaunch: {
        if (!check_context(event, /*need_slot=*/true)) return false;
        SmState& sm = *state_->sms[event.sm];
        SlotState& slot = sm.slots[event.block_slot];
        slot = {true,          event.block_id, event.thread_base,
                event.num_warps, event.smem_base, event.smem_bytes};
        if (slot.thread_base + current_.block_dim > header_.max_threads_per_sm)
          return fail("replay: block launch thread range out of bounds");
        sm.ids.on_block_launch(event.block_slot);
        for (u32 t = 0; t < current_.block_dim; ++t) sm.ids.reset_thread(slot.thread_base + t);
        if (sm.shared_rdu != nullptr && slot.smem_bytes > 0)
          sm.shared_rdu->reset_region(slot.smem_base, slot.smem_bytes,
                                      header_.shared_mem_banks);
        return true;
      }
      case EventKind::kBlockFinish: {
        if (!check_context(event, /*need_slot=*/true)) return false;
        SmState& sm = *state_->sms[event.sm];
        if (sm.shared_rdu != nullptr && event.smem_bytes > 0)
          sm.shared_rdu->reset_region(event.smem_base, event.smem_bytes,
                                      header_.shared_mem_banks);
        sm.slots[event.block_slot].active = false;
        return true;
      }
      case EventKind::kBarrierArrive:
        return check_context(event, /*need_slot=*/true);
      case EventKind::kBarrierRelease: {
        if (!check_context(event, /*need_slot=*/true)) return false;
        SmState& sm = *state_->sms[event.sm];
        if (sm.shared_rdu != nullptr && event.smem_bytes > 0)
          sm.shared_rdu->reset_region(event.smem_base, event.smem_bytes,
                                      header_.shared_mem_banks);
        if (state_->cfg.enable_global) sm.ids.on_barrier(event.block_slot);
        const u32 block_id = sm.slots[event.block_slot].block_id;
        if (state_->sw != nullptr) state_->sw->on_barrier_release(block_id);
        if (state_->grace != nullptr) state_->grace->on_barrier_release(block_id);
        return true;
      }
      case EventKind::kFence:
        return check_context(event, /*need_slot=*/false);
      case EventKind::kFenceCommit:
        if (!check_context(event, /*need_slot=*/false)) return false;
        state_->sms[event.sm]->ids.on_fence(event.warp_slot);
        return true;
      case EventKind::kLockAcquire:
      case EventKind::kLockRelease: {
        if (!check_context(event, /*need_slot=*/true)) return false;
        SmState& sm = *state_->sms[event.sm];
        const SlotState& slot = sm.slots[event.block_slot];
        const rd::BloomGeometry geom{state_->cfg.bloom_bits, state_->cfg.bloom_bins};
        for (const TraceLane& lane : event.lanes) {
          const u32 thread = thread_slot(slot, event, lane.lane);
          if (thread >= header_.max_threads_per_sm)
            return fail("replay: lock-event thread slot out of range");
          if (event.kind == EventKind::kLockAcquire)
            sm.ids.on_lock_acquired(thread, lane.addr, geom);
          else
            sm.ids.on_lock_releasing(thread);
        }
        return true;
      }
      default:
        break;
    }

    if (!check_context(event, /*need_slot=*/true)) return false;
    if (is_shared_access(event.kind)) return handle_shared(event);
    return handle_global(event);
  }

  const TraceHeader& header_;
  const ReplayOptions& opts_;
  ReplayResult result_;
  KernelReplay current_;
  std::unique_ptr<KernelState> state_;
  std::vector<Addr> shadow_scratch_;

  // Per-event scratch (see stage_waw / handle_global): reused across
  // millions of events so the steady-state replay loop never allocates.
  struct WawGranule {
    Addr addr = 0;
    u8 first_lane = 0;
    bool reported = false;
  };
  std::vector<WawGranule> waw_scratch_;
  std::vector<Addr> seg_scratch_;
  std::vector<std::pair<u32, u32>> order_scratch_;  ///< (segment idx, lane idx)
};

}  // namespace

ReplayResult replay_events(TraceReader& reader, const ReplayOptions& opts) {
  if (!reader.ok()) {
    ReplayResult result;
    result.error = reader.error();
    result.code = reader.status().code();
    return result;
  }
  return ReplayEngine(reader.header(), opts).run(reader);
}

ReplayResult replay_trace(const std::string& path, const ReplayOptions& opts) {
  TraceReader reader(path);
  return replay_events(reader, opts);
}

Status decode_trace(TraceReader& reader, DecodedTrace& out) {
  if (!reader.ok()) return reader.status();
  reader.rewind();
  DecodedTrace decoded;
  decoded.header = reader.header();
  decoded.bytes = reader.bytes_total();
  Event event;
  while (reader.next(event)) decoded.events.push_back(event);
  if (!reader.error().empty()) return reader.status();
  out = std::move(decoded);
  return Status();
}

Status decode_trace_kernel(TraceReader& reader, const TraceIndexKernel& kernel,
                           DecodedTrace& out) {
  if (!reader.ok()) return reader.status();
  // A kernel-begin record resets the cycle delta base to 0 (format.hpp),
  // so seeking to one needs no carried decode state.
  if (Status seek = reader.seek(kernel.begin_offset, /*cycle=*/0, /*events_before=*/0);
      !seek.ok())
    return seek;
  DecodedTrace decoded;
  decoded.header = reader.header();
  decoded.bytes = kernel.end_offset - kernel.begin_offset;
  Event event;
  if (!reader.next(event) || event.kind != EventKind::kKernelBegin)
    return reader.error().empty()
               ? Status::corrupt("trace index: kernel offset does not start a kernel")
               : reader.status();
  decoded.events.push_back(event);
  for (u64 i = 0; i < kernel.events; ++i) {
    if (!reader.next(event))
      return reader.error().empty() ? Status::corrupt("trace index: kernel shorter than indexed")
                                    : reader.status();
    decoded.events.push_back(event);
  }
  out = std::move(decoded);
  return Status();
}

ReplayResult replay_decoded(const DecodedTrace& trace, const ReplayOptions& opts) {
  return ReplayEngine(trace.header, opts).run(trace.events.data(), trace.events.size());
}

ReplayResult replay_sharded(const DecodedTrace& trace, u32 /*workers*/,
                            const ReplayOptions& opts) {
  return replay_decoded(trace, opts);
}

}  // namespace haccrg::trace
