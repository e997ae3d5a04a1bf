// The traced run's attribution pass: one call into each layer per suite
// kernel, each under its own span, so every per-layer metric has a
// measured source on every workload.
#include <cstdio>

#include "perfbench.hpp"
#include "serve/report.hpp"
#include "trace/reader.hpp"

namespace perfbench {

namespace {

/// Fork/join barriers of one launch: the SM and partition phases fork
/// every cycle; the sharded commit and its merge fork on cycles with
/// commit work, which is exactly when the merge phase runs.
u64 barriers(const haccrg::StatSet& stats) {
  return stats.get("prof.sm_cycle.calls") + 2 * stats.get("prof.commit_merge.calls") +
         stats.get("prof.partition.calls");
}

}  // namespace

Probe run_probe(u32 seed, const std::vector<Reference>& refs, const std::string& trace_dir,
                bool served_pass, SpanLog& spans, Phase& failures) {
  Probe probe;
  haccrg::trace::ReplayArena arena;
  std::vector<Reference> recorded_refs = refs;  // + the probe's own recordings
  for (size_t k = 0; k < suite().size(); ++k) {
    const Reference& ref = refs[k];
    ProbeKernel out;
    LiveSpec spec;
    spec.kernel = &suite()[k];
    spec.seed = seed;
    spec.profile = true;
    auto live = [&](const LiveSpec& s) {
      LiveRun run = run_live(s, spans, spans.new_job());
      ++probe.ops;
      if (!run.ok)
        failures.fail(run.error);
      else if (s.detect && (run.cycles != ref.cycles || run.races != ref.races))
        failures.fail(ref.name + ": probe launch differs from the reference run");
      return run;
    };

    LiveRun serial = live(spec);
    out.launch_ms = serial.launch_ms;
    out.init_ms = serial.init_ms;
    out.prepare_ms = serial.prepare_ms;
    out.cycles = serial.cycles;
    out.dram_util = serial.dram_util;
    out.stats = std::move(serial.stats);

    LiveSpec threads2 = spec;
    threads2.threads = 2;
    const LiveRun parallel = live(threads2);
    out.launch_t2_ms = parallel.launch_ms;
    out.barriers_t2 = barriers(parallel.stats);

    LiveSpec off = spec;
    off.detect = false;
    const LiveRun undetected = live(off);
    out.launch_off_ms = undetected.launch_ms;
    out.cycles_off = undetected.cycles;

    LiveSpec record = spec;
    record.profile = false;
    record.trace_path = trace_dir + "/probe-" + ref.name + ".trc";
    const LiveRun recorded = live(record);
    out.record_ms = recorded.launch_ms;
    recorded_refs[k].trace = read_file(record.trace_path);
    std::remove(record.trace_path.c_str());
    out.trace_bytes = recorded_refs[k].trace.size();
    std::vector<u8> bytes = recorded_refs[k].trace;

    // The served stages, called directly: what one server worker does
    // for a cold job (decode, sharded replay, render), plus the 1-shard
    // replay the shard speed-up is measured against.
    const u64 job = spans.new_job();
    const u64 job_span = spans.reserve();
    const Clock::time_point t0 = Clock::now();
    haccrg::trace::TraceReader reader(std::move(bytes));
    haccrg::trace::DecodedTrace decoded;
    const haccrg::Status st = reader.ok() ? haccrg::trace::decode_trace(reader, decoded)
                                          : reader.status();
    const Clock::time_point t1 = Clock::now();
    spans.add("trace.decode", job_span, job, t0, t1);
    ++probe.ops;
    if (!st.ok()) {
      failures.fail(ref.name + ": decode failed: " + st.message());
      probe.kernels.push_back(std::move(out));
      continue;
    }
    out.decode_ms = ms_between(t0, t1);
    out.trace_events = decoded.events.size();

    haccrg::trace::ReplayOptions opts;
    opts.arena = &arena;
    const Clock::time_point t2 = Clock::now();
    const haccrg::trace::ReplayResult one = haccrg::trace::replay_sharded(decoded, 1, opts);
    const Clock::time_point t3 = Clock::now();
    const haccrg::trace::ReplayResult two =
        haccrg::trace::replay_sharded(decoded, kReplayShards, opts);
    const Clock::time_point t4 = Clock::now();
    const std::string report = two.ok ? haccrg::serve::build_report_json(two) : std::string();
    const Clock::time_point t5 = Clock::now();
    spans.add("trace.replay_1shard", job_span, job, t2, t3);
    spans.add("trace.replay", job_span, job, t3, t4);
    spans.add("serve.render", job_span, job, t4, t5);
    spans.record(job_span, "probe.served_stages", 0, job, t0, t5, ref.name);
    probe.ops += 3;
    out.replay1_ms = ms_between(t2, t3);
    out.replay2_ms = ms_between(t3, t4);
    out.render_ms = ms_between(t4, t5);
    if (!one.ok || !two.ok || one.race_set() != ref.races || two.race_set() != ref.races)
      failures.fail(ref.name + ": replayed race identities differ from the live run");
    else if (report_unique_races(report) != static_cast<i64>(ref.unique_races))
      failures.fail(ref.name + ": rendered unique_races differs from the live run");
    probe.kernels.push_back(std::move(out));
  }

  if (served_pass) {
    haccrg::serve::Server server(server_config(/*cold=*/false));
    std::vector<std::string> reports;
    JobOrder order(seed, static_cast<u32>(refs.size()));
    probe.served = run_served_phase(server, recorded_refs, reports, order, Budget{},
                                    Decodes::kEveryJob, /*sample_queue=*/true, spans);
    probe.ops += probe.served.jobs;
  }
  return probe;
}

}  // namespace perfbench
