#include "sim/engine.hpp"

#include <algorithm>

namespace haccrg::sim {

Engine::Engine(std::vector<std::unique_ptr<Sm>>& sms,
               std::vector<mem::MemoryPartition>& partitions, mem::Interconnect& icnt,
               const SimConfig& sim)
    : sms_(&sms), partitions_(&partitions), icnt_(&icnt),
      // More workers than work units would only add barrier traffic.
      pool_(std::min(sim.num_threads,
                     std::max(static_cast<u32>(sms.size()), static_cast<u32>(partitions.size())))),
      profiler_(sim.profile), tracing_(!sms.empty() && sms.front()->tracing()) {}

void Engine::sm_phase(void* ctx, u32 begin, u32 end) {
  Engine& self = *static_cast<Engine*>(ctx);
  for (u32 s = begin; s < end; ++s) {
    Sm& sm = *(*self.sms_)[s];
    // has_response() is a cheap pre-check; most SM-cycles have nothing
    // queued and skip the optional-returning pop entirely.
    while (self.icnt_->has_response(s, self.now_))
      sm.deliver(*self.icnt_->recv_response(s, self.now_), self.now_);
    sm.cycle(self.now_);
  }
}

void Engine::partition_phase(void* ctx, u32 begin, u32 end) {
  Engine& self = *static_cast<Engine*>(ctx);
  for (u32 p = begin; p < end; ++p) (*self.partitions_)[p].step(*self.icnt_, self.now_);
}

void Engine::step(Cycle now) {
  now_ = now;
  {
    PhaseProfiler::Scope scope = profiler_.scope(EnginePhase::kSmCycle);
    pool_.run(&Engine::sm_phase, this, static_cast<u32>(sms_->size()));
  }
  // Trace recording: write every SM's staged issue-phase events in SM-id
  // order before the commit loop appends the cycle's global-memory
  // events, so the file order equals the serial phases' execution order.
  // Skipped wholesale when no trace writer is attached.
  if (tracing_) {
    PhaseProfiler::Scope scope = profiler_.scope(EnginePhase::kTraceFlush);
    for (auto& sm : *sms_) sm->flush_trace();
  }
  {
    PhaseProfiler::Scope scope = profiler_.scope(EnginePhase::kCommit);
    for (auto& sm : *sms_) sm->commit_epoch();
    icnt_->commit_requests(now);
  }
  {
    PhaseProfiler::Scope scope = profiler_.scope(EnginePhase::kPartition);
    pool_.run(&Engine::partition_phase, this, static_cast<u32>(partitions_->size()));
  }
  {
    PhaseProfiler::Scope scope = profiler_.scope(EnginePhase::kResponse);
    icnt_->commit_responses(now);
  }
}

}  // namespace haccrg::sim
