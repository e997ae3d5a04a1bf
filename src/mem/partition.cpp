#include "mem/partition.hpp"

namespace haccrg::mem {

MemoryPartition::MemoryPartition(u32 id, const arch::GpuConfig& config)
    : atomic_latency_(config.atomic_latency), l2_latency_(config.l2_latency), id_(id),
      l2_("l2", config.l2_slice_size, config.l2_ways, config.l2_line,
          WritePolicy::kWriteBackAllocate),
      dram_(config.dram_queue_size, config.dram_latency, config.dram_burst_cycles) {}

bool MemoryPartition::accept(Packet pkt) {
  if (input_.size() >= kInputDepth) return false;
  if (pkt.kind == PacketKind::kShadow) {
    ++shadow_packets_;
    if (faults_ != nullptr) faults_->note_shadow_packet(id_, pkt.addr, pkt.bytes);
  } else {
    ++data_packets_;
  }
  input_.push_back(std::move(pkt));
  return true;
}

std::optional<PartitionCompletion> MemoryPartition::cycle(Cycle now) {
  // 1. Start at most one new L2 access per cycle.
  if (!input_.empty() && dram_.can_accept()) {
    Packet pkt = std::move(input_.front());
    input_.pop_front();

    const bool is_write = pkt.kind == PacketKind::kStore ||
                          (pkt.kind == PacketKind::kShadow && pkt.shadow_write);
    CacheAccessResult r = l2_.access(pkt.addr, is_write);
    if (r.writeback) {
      // Dirty victim goes to DRAM as a write the SM never sees.
      Packet wb;
      wb.kind = PacketKind::kStore;
      wb.addr = r.victim_addr;
      wb.bytes = l2_.line_bytes();
      wb.sm_id = ~0u;  // no response
      dram_.push(now, wb);
    }

    u32 extra = pkt.kind == PacketKind::kAtomic ? atomic_latency_ : 0;
    if (r.hit) {
      done_queue_.push_back({now + l2_latency_ + extra, std::move(pkt)});
    } else {
      // Miss: fetch through DRAM; the packet completes when DRAM services
      // it (the L2 line was already allocated above).
      dram_.push(now, std::move(pkt));
    }
  }

  // 2. Advance DRAM; completed fetches join the done queue after the L2
  //    fill latency.
  if (auto done = dram_.cycle(now)) {
    if (done->sm_id != ~0u || done->kind == PacketKind::kShadow) {
      const u32 extra = done->kind == PacketKind::kAtomic ? atomic_latency_ : 0;
      done_queue_.push_back({now + l2_latency_ + extra, std::move(*done)});
    }
  }

  // 3. Emit one ripe completion.
  if (!done_queue_.empty() && done_queue_.front().ready <= now) {
    Packet pkt = std::move(done_queue_.front().pkt);
    done_queue_.pop_front();
    return PartitionCompletion{std::move(pkt)};
  }
  return std::nullopt;
}

void MemoryPartition::step_busy(Interconnect& icnt, Cycle now) {
  // Only pop a request the partition can actually take (back-pressure
  // stays in the interconnect queue).
  if (can_accept() && icnt.has_request(id_, now)) {
    auto pkt = icnt.recv_request(id_, now);
    accept(std::move(*pkt));
  }
  if (auto completion = cycle(now)) {
    const Packet& pkt = completion->pkt;
    if (pkt.kind != PacketKind::kShadow && pkt.sm_id < icnt.num_sms()) {
      icnt.stage_response(id_, Response{pkt.kind, pkt.sm_id, pkt.warp_slot});
    }
  }
}

bool MemoryPartition::idle() const {
  return input_.empty() && done_queue_.empty() && dram_.idle();
}

void MemoryPartition::export_stats(StatSet& stats) const {
  l2_.export_stats(stats);
  dram_.export_stats(stats, "dram." + std::to_string(id_));
  stats.add("partition.shadow_packets", shadow_packets_);
  stats.add("partition.data_packets", data_packets_);
}

}  // namespace haccrg::mem
