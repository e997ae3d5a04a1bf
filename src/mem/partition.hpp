// Memory partition (the paper's "memory slice"): one L2 cache slice plus
// one DRAM channel. The partition services application packets and the
// HAccRG global RDU's shadow packets through the same L2/DRAM resources,
// so shadow traffic pollutes the L2 and consumes DRAM bandwidth exactly
// as Section IV-B describes.
#pragma once

#include <deque>
#include <optional>

#include "arch/config.hpp"
#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/interconnect.hpp"
#include "mem/packets.hpp"

namespace haccrg::mem {

/// A completed packet leaving the partition (needs a response to its SM
/// unless it is shadow traffic).
struct PartitionCompletion {
  Packet pkt;
};

class MemoryPartition {
 public:
  MemoryPartition(u32 id, const arch::GpuConfig& config);

  /// Arm fault injection (null = off). Accepting a shadow packet may
  /// stage a DRAM bit flip in the injector; the draw is thread-confined
  /// (per-partition stream) and the flip is applied by the Gpu in the
  /// serial post-step phase, confined to the shadow region.
  void set_faults(fault::FaultInjector* faults) { faults_ = faults; }

  /// Room for another incoming packet this cycle?
  bool can_accept() const { return input_.size() < kInputDepth; }

  /// Offer a packet arriving from the interconnect. Returns false when the
  /// input queue is full (caller should leave it queued upstream).
  bool accept(Packet pkt);

  /// Advance one cycle; may emit at most one completion.
  std::optional<PartitionCompletion> cycle(Cycle now);

  /// One epoch-phase step: pop at most one ready request from this
  /// partition's interconnect pipe, advance a cycle, and stage any
  /// completion's response back into the interconnect. Touches only
  /// this partition's pipe and staging slot, so distinct partitions may
  /// step concurrently; responses reach the SM pipes when the engine
  /// commits them at the epoch barrier.
  ///
  /// An idle partition with no ripe request returns inline: with every
  /// queue empty, cycle() starts no access, leaves the DRAM bus state
  /// untouched (DramChannel::cycle returns before it on an empty queue)
  /// and emits nothing.
  void step(Interconnect& icnt, Cycle now) {
    if (input_.empty() && done_queue_.empty() && dram_.idle() && !icnt.has_request(id_, now))
      return;
    step_busy(icnt, now);
  }

  bool idle() const;

  const Cache& l2() const { return l2_; }
  const DramChannel& dram() const { return dram_; }
  u32 id() const { return id_; }

  void export_stats(StatSet& stats) const;

 private:
  void step_busy(Interconnect& icnt, Cycle now);

  /// Extra cycles an atomic occupies the slice's RMW unit.
  u32 atomic_latency_;
  u32 l2_latency_;

  u32 id_;
  fault::FaultInjector* faults_ = nullptr;
  Cache l2_;
  DramChannel dram_;
  std::deque<Packet> input_;
  static constexpr size_t kInputDepth = 64;

  // Packets waiting out the L2 hit latency (or post-DRAM fill delay).
  struct Delayed {
    Cycle ready;
    Packet pkt;
  };
  std::deque<Delayed> done_queue_;

  u64 shadow_packets_ = 0;
  u64 data_packets_ = 0;
};

}  // namespace haccrg::mem
