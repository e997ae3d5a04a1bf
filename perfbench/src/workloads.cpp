// The four workloads' set-up pass and their timed closed loops.
#include <cstdio>
#include <deque>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr size_t kMaxErrors = 5;

const std::vector<Workload> kWorkloads = {
    {"sim_serial", false, 1, false},
    {"sim_threads2", false, 2, false},
    {"serve_warm", true, 1, false},
    {"serve_cold", true, 1, true},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

haccrg::serve::ServerConfig server_config(bool cold) {
  haccrg::serve::ServerConfig cfg;
  cfg.workers = kServerWorkers;
  cfg.memoize = false;  // every job replays; memo hits are not a result
  // Warm keeps the default bound, which holds every decoded trace of
  // the suite (its no-decode check fails if that ever stops holding).
  // Cold allows less than any one decoded trace, so the LRU keeps only
  // the latest entry.
  if (cold) cfg.max_memo_bytes = 1;
  return cfg;
}

void Phase::fail(std::string message) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
}

bool reference_pass(u32 seed, const std::string& trace_dir, SpanLog& spans,
                    std::vector<Reference>& out, std::string& error) {
  out.clear();
  for (const auto& kernel : suite()) {
    LiveSpec spec;
    spec.kernel = &kernel;
    spec.seed = seed;
    spec.verify = true;
    if (!trace_dir.empty()) spec.trace_path = trace_dir + "/" + kernel.name + ".trc";
    LiveRun run = run_live(spec, spans, spans.new_job());
    if (!run.ok) {
      error = run.error;
      return false;
    }
    Reference ref;
    ref.name = kernel.name;
    ref.cycles = run.cycles;
    ref.unique_races = run.unique_races;
    ref.races = std::move(run.races);
    if (!spec.trace_path.empty()) {
      ref.trace = read_file(spec.trace_path);
      std::remove(spec.trace_path.c_str());
      if (ref.trace.empty()) {
        error = kernel.name + ": recorded trace is empty";
        return false;
      }
    }
    out.push_back(std::move(ref));
  }
  return true;
}

Phase run_live_phase(const std::vector<Reference>& refs, LiveSpec spec, JobOrder& order,
                     const Budget& budget, SpanLog& spans) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  for (u32 passes = 0; !budget.done(passes, ms_between(start, Clock::now()) / 1000.0, phase.jobs);
       ++passes) {
    for (const u32 k : order.next_pass()) {
      spec.kernel = &suite()[k];
      const LiveRun run = run_live(spec, spans, spans.new_job());
      ++phase.jobs;
      const Reference& ref = refs[k];
      if (!run.ok) {
        phase.fail(run.error);
        continue;
      }
      if (run.cycles != ref.cycles || run.races != ref.races) {
        phase.fail(ref.name + ": cycles or race identities differ from the reference run");
        continue;
      }
      phase.samples.push_back({k, run.cycles, run.job_ms});
      phase.init_ms += run.init_ms;
      phase.prepare_ms += run.prepare_ms;
      phase.launch_ms += run.launch_ms;
      for (const auto& [name, value] : run.stats.counters())
        if (name.rfind("prof.", 0) == 0) phase.prof.add(name, value);
    }
  }
  phase.seconds = ms_between(start, Clock::now()) / 1000.0;
  return phase;
}

Phase run_served_phase(haccrg::serve::Server& server, const std::vector<Reference>& refs,
                       std::vector<std::string>& reports, JobOrder& order,
                       const Budget& budget, Decodes decodes, bool sample_queue,
                       SpanLog& spans) {
  struct InFlight {
    u64 id = 0;
    u32 kernel = 0;
    u64 job = 0;
    Clock::time_point submitted;
  };
  Phase phase;
  phase.stats_before = server.stats_json();
  reports.resize(refs.size());
  std::deque<InFlight> in_flight;
  std::deque<u32> pass;
  u32 passes = 0;
  const Clock::time_point start = Clock::now();

  for (;;) {
    // Top up to kOutstanding jobs; a new pass starts only while the
    // budget still wants more work.
    while (in_flight.size() < kOutstanding) {
      if (pass.empty()) {
        if (budget.done(passes, ms_between(start, Clock::now()) / 1000.0, phase.jobs)) break;
        for (const u32 k : order.next_pass()) pass.push_back(k);
        ++passes;
      }
      InFlight job;
      job.kernel = pass.front();
      pass.pop_front();
      job.job = spans.new_job();
      job.submitted = Clock::now();
      const haccrg::Status st =
          server.submit(refs[job.kernel].trace, kReplayShards, /*kernel=*/-1, job.id);
      if (!st.ok()) {
        ++phase.jobs;
        phase.fail(refs[job.kernel].name + ": submit failed: " + st.message());
        continue;
      }
      if (sample_queue) {
        const f64 depth = json_number(server.stats_json(), "queue_depth");
        if (depth > static_cast<f64>(phase.queue_depth_max))
          phase.queue_depth_max = static_cast<u64>(depth);
      }
      in_flight.push_back(job);
    }
    if (in_flight.empty()) break;

    // Poll every outstanding job; settle the finished ones.
    bool settled = false;
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      std::string report;
      const haccrg::Status st = server.result(it->id, /*wait=*/false, report);
      if (st.code() == haccrg::StatusCode::kUnavailable) {
        ++it;
        continue;
      }
      const Clock::time_point done = Clock::now();
      settled = true;
      ++phase.jobs;
      const Reference& ref = refs[it->kernel];
      std::string& expected = reports[it->kernel];
      if (!st.ok()) {
        phase.fail(ref.name + ": served job failed: " + st.message());
      } else if (expected.empty() &&
                 report_unique_races(report) != static_cast<i64>(ref.unique_races)) {
        phase.fail(ref.name + ": served unique_races differs from the live run");
      } else if (!expected.empty() && report != expected) {
        phase.fail(ref.name + ": served report differs from the kernel's first report");
      } else {
        if (expected.empty()) expected = std::move(report);
        phase.samples.push_back({it->kernel, ref.cycles, ms_between(it->submitted, done)});
        spans.add("serve.job", 0, it->job, it->submitted, done, ref.name);
      }
      it = in_flight.erase(it);
    }
    if (!settled) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  phase.seconds = ms_between(start, Clock::now()) / 1000.0;
  phase.stats_after = server.stats_json();

  const f64 decoded = json_number(phase.stats_after, "trace_decodes") -
                      json_number(phase.stats_before, "trace_decodes");
  const f64 expected = decodes == Decodes::kEveryJob ? static_cast<f64>(phase.jobs) : 0.0;
  if (decoded != expected) {
    // Each job that decoded when it should not have, or the reverse,
    // is a failed operation.
    const u64 off = static_cast<u64>(decoded > expected ? decoded - expected : expected - decoded);
    for (u64 i = 0; i < off; ++i)
      phase.fail("server decoded " + std::to_string(static_cast<u64>(decoded)) + " traces for " +
                 std::to_string(phase.jobs) + " jobs");
  }
  return phase;
}

}  // namespace perfbench
