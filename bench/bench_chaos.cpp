// Chaos campaign for the detection service: deterministic fault
// injection at every serving-layer site (fault/fault.hpp, serve_*
// keys), driven through the real frame path, with the robustness
// contract asserted after every storm:
//
//   1. every accepted job reaches exactly one terminal state — done,
//      failed, cancelled, or timed-out; nothing is lost in a drain and
//      querying a result twice returns the same answer both times,
//   2. the terminal-state counters reconcile: completed + failed +
//      cancelled + timed_out == submitted, queue empty after drain,
//   3. worker-side failures are contained (a poisoned image quarantines
//      instead of wedging a worker), deadlines time out instead of
//      hanging, a drain timeout cancels what it must and nothing else,
//   4. a zero-rate plan is really zero: serving reports stay
//      byte-identical across server worker counts {1, 2, 8}, and
//   5. a cancelled replay overruns by at most one granule batch
//      (trace/replay.hpp kCancelCheckInterval).
//
//   bench_chaos [--smoke] [--seeds N] [--jobs N] [--json BENCH_chaos.json]
//
// Exits 1 when any invariant fails. --smoke shrinks the workload, not
// the invariants — it is the CI gate (scripts/check.sh).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"

namespace {

using namespace haccrg;

int failures = 0;

void check(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAIL: %s\n", what);
}

std::vector<u8> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string s = buf.str();
  return std::vector<u8>(s.begin(), s.end());
}

/// Minimal scan for `"key": <number>` in JSON written by this repo.
i64 json_count(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1;
  return static_cast<i64>(std::strtoll(text.c_str() + pos + needle.size(), nullptr, 10));
}

/// Record one REDUCE run as a v2 trace — the campaign's good image.
std::vector<u8> record_trace() {
  const std::string path = "bench_chaos.trc";
  bool completed = false;
  {
    // The trace file is flushed when the Gpu is destroyed — read it
    // only after this scope closes.
    sim::SimConfig cfg = sim::SimConfig::from_env();
    cfg.trace_path = path;
    cfg.trace_index = true;
    sim::Gpu gpu(bench::experiment_gpu(), bench::detection_combined(), cfg);
    kernels::PreparedKernel prep = kernels::find_benchmark("REDUCE")->prepare(gpu, {});
    completed = gpu.launch(prep.launch()).completed;
  }
  std::vector<u8> bytes = read_bytes(path);
  std::remove(path.c_str());
  if (!completed) bytes.clear();
  return bytes;
}

bool terminal(serve::JobState s) {
  return s == serve::JobState::kDone || s == serve::JobState::kFailed ||
         s == serve::JobState::kCancelled || s == serve::JobState::kTimedOut;
}

struct SeedOutcome {
  u64 seed = 0;
  u64 accepted = 0;
  u64 final_rejections = 0;  ///< submits still rejected after retries
  u64 frame_errors = 0;      ///< submits answered ERR by a mangled frame
  u64 done = 0, failed = 0, cancelled = 0, timed_out = 0;
  u64 injected_total = 0;
  u64 client_retries = 0;
  std::string stats;
};

/// One storm: every serving site armed, a mixed workload (good image,
/// slice jobs, per-seed corrupt variants, a deadline batch) pushed
/// through the retrying client, then a full drain and the audit.
SeedOutcome run_storm(const std::vector<u8>& good, u64 seed, u32 jobs) {
  SeedOutcome out;
  out.seed = seed;

  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_queue = 16;  // small on purpose: queue-full is part of the storm
  cfg.quarantine_threshold = 3;
  cfg.fault_stall_ms = 20;
  cfg.deadline_grace_ms = 100;
  cfg.watchdog_interval_ms = 5;
  cfg.faults.seed = seed;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeFrameTruncate)] = 60'000;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeFrameCorrupt)] = 60'000;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeDecodeCorrupt)] = 120'000;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeWorkerStall)] = 200'000;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeQueueReject)] = 100'000;
  serve::Server server(cfg);

  serve::ClientConfig ccfg;
  ccfg.seed = seed;
  ccfg.max_attempts = 4;
  ccfg.sleep_ms = [](u32) {};  // virtual time: backoff is counted, not slept
  serve::Client client = serve::Client::in_process(server, ccfg);

  std::vector<u64> ids;
  for (u32 j = 0; j < jobs; ++j) {
    std::vector<u8> image = good;
    i64 kernel = -1;
    u32 deadline_ms = 0;
    switch (j % 5) {
      case 0: break;               // whole-trace job over the good image
      case 1: kernel = 0; break;   // slice job (index seek path)
      case 2:                      // per-seed corrupt variant → kFailed
        image[(seed * 7919 + j * 131) % image.size()] ^= 0x40;
        break;
      case 3: deadline_ms = 4; break;  // tight deadline; stalls → kTimedOut
      case 4: break;               // repeat of case 0 → memo fast path
    }
    u64 id = 0;
    const Status st = client.submit(image, kernel, deadline_ms, id);
    if (st.ok()) {
      ids.push_back(id);
    } else if (st.code() == StatusCode::kUnavailable) {
      ++out.final_rejections;  // retried, still full — honest rejection
    } else {
      // A mangled frame (truncate/corrupt) or a quarantined image:
      // both are terminal ERRs; neither may accept a job.
      ++out.frame_errors;
    }
  }
  out.accepted = ids.size();
  out.client_retries = client.retries();

  server.shutdown();  // full drain: every accepted job settles

  // The audit runs against the API directly — chaos lives on the frame
  // path, verification must not roll those dice.
  for (const u64 id : ids) {
    serve::JobInfo info;
    check(server.status(id, info).ok(), "accepted job vanished after drain");
    check(terminal(info.state), "accepted job not terminal after drain");
    switch (info.state) {
      case serve::JobState::kDone: ++out.done; break;
      case serve::JobState::kFailed: ++out.failed; break;
      case serve::JobState::kCancelled: ++out.cancelled; break;
      case serve::JobState::kTimedOut: ++out.timed_out; break;
      default: break;
    }
    // No lost or duplicated results: two fetches agree bit for bit.
    std::string first, second;
    const Status s1 = server.result(id, false, first);
    const Status s2 = server.result(id, false, second);
    check(s1.code() == s2.code() && first == second,
          "result changed between two queries");
    check(s1.code() != StatusCode::kUnavailable, "job still unsettled after drain");
    check(s1.code() != StatusCode::kNotFound, "job lost after drain");
  }

  out.stats = server.stats_json();
  check(json_count(out.stats, "queue_depth") == 0, "queue not empty after drain");
  const i64 submitted = json_count(out.stats, "submitted");
  const i64 settled = json_count(out.stats, "completed") + json_count(out.stats, "failed") +
                      json_count(out.stats, "cancelled") + json_count(out.stats, "timed_out");
  check(submitted == static_cast<i64>(out.accepted), "accepted count disagrees with stats");
  check(settled == submitted, "terminal-state counters do not reconcile with submissions");
  check(json_count(out.stats, "completed") == static_cast<i64>(out.done) &&
            json_count(out.stats, "failed") == static_cast<i64>(out.failed) &&
            json_count(out.stats, "cancelled") == static_cast<i64>(out.cancelled) &&
            json_count(out.stats, "timed_out") == static_cast<i64>(out.timed_out),
        "observed terminal states disagree with stats counters");
  // Failures must be attributable: an injected decode corruption, a
  // frame corruption that reached the body, or nothing — a fault-free
  // job over the good image never fails.
  const i64 decode_faults = std::max<i64>(0, json_count(out.stats, "fault.serve_decode_corrupt"));
  const i64 frame_faults =
      std::max<i64>(0, json_count(out.stats, "fault.serve_frame_corrupt")) +
      std::max<i64>(0, json_count(out.stats, "fault.serve_frame_truncate"));
  check(static_cast<i64>(out.failed) <=
            decode_faults + frame_faults + static_cast<i64>((jobs + 4) / 5),
        "more failures than injected faults and corrupt submissions can explain");
  for (u32 i = fault::kFirstServeSite; i < fault::kNumFaultSites; ++i) {
    const i64 n = json_count(
        out.stats, "fault." + std::string(fault::fault_site_key(static_cast<fault::FaultSite>(i))));
    if (n > 0) out.injected_total += static_cast<u64>(n);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  u32 seeds = 3;
  u32 jobs = 60;
  bool jobs_explicit = false;
  std::string json_path = "BENCH_chaos.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) seeds = static_cast<u32>(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) {
        jobs = static_cast<u32>(v);
        jobs_explicit = true;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_chaos [--smoke] [--seeds N] [--jobs N] [--json FILE]\n");
      return 2;
    }
  }
  if (smoke) {
    seeds = 2;
    if (!jobs_explicit) jobs = 25;
  }

  bench::print_header("Serving chaos campaign",
                      "fault-injected storms against the detection service");

  const std::vector<u8> good = record_trace();
  if (good.empty()) {
    std::fprintf(stderr, "bench_chaos: trace recording failed\n");
    return 1;
  }

  // --- 1. Zero-rate identity: no faults, no deadlines, any worker count ----
  // The robustness machinery must be invisible when disarmed: the same
  // report, byte for byte, from every server worker count.
  std::string reference;
  for (const u32 server_workers : {1u, 2u, 8u}) {
    serve::ServerConfig cfg;
    cfg.workers = server_workers;
    serve::Server server(cfg);
    u64 id = 0;
    Status st = server.submit(good, /*workers=*/1, -1, id);
    std::string report;
    if (st.ok()) st = server.result(id, true, report);
    check(st.ok(), "zero-rate job failed");
    if (reference.empty()) reference = report;
    check(report == reference,
          "zero-rate report differs across worker counts (determinism broken)");
    server.shutdown();
  }
  std::printf("zero-rate identity: reports byte-identical across server workers {1,2,8}\n");

  // --- 2. Bounded overrun: a cancelled replay stops within one batch -------
  u64 overrun_events = 0;
  {
    trace::TraceReader reader(good);
    trace::DecodedTrace decoded;
    check(trace::decode_trace(reader, decoded).ok(), "decode of the good image failed");
    trace::CancelToken token;
    token.cancel();
    trace::ReplayOptions opts;
    opts.cancel = &token;
    const trace::ReplayResult r = trace::replay_decoded(decoded, opts);
    check(!r.ok && r.code == StatusCode::kDeadlineExceeded,
          "pre-cancelled replay did not abort with kDeadlineExceeded");
    overrun_events = r.total_events;
    check(overrun_events <= trace::kCancelCheckInterval,
          "cancelled replay overran the granule batch bound");
  }
  std::printf("bounded overrun: cancelled replay stopped after %llu events (bound %llu)\n",
              static_cast<unsigned long long>(overrun_events),
              static_cast<unsigned long long>(trace::kCancelCheckInterval));

  // --- 3. Quarantine: a failing image becomes a poison pill ----------------
  {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.quarantine_threshold = 3;
    serve::Server server(cfg);
    std::vector<u8> poison = good;
    poison.resize(poison.size() - poison.size() / 3);  // truncated mid-event:
                                                       // decode refuses it every time
    u32 accepted = 0, rejected_corrupt = 0;
    for (u32 i = 0; i < 5; ++i) {
      u64 id = 0;
      const Status st = server.submit(poison, 1, -1, id);
      if (st.ok()) {
        ++accepted;
        std::string r;
        const Status rs = server.result(id, true, r);
        check(!rs.ok(), "poison image produced a report");
      } else {
        check(st.code() == StatusCode::kCorrupt, "quarantine rejection has the wrong code");
        ++rejected_corrupt;
      }
    }
    const std::string stats = server.stats_json();
    check(accepted == 3 && rejected_corrupt == 2,
          "quarantine did not engage at the threshold");
    check(json_count(stats, "quarantined") == 1, "quarantined image count wrong");
    check(json_count(stats, "quarantine_rejected") == 2, "quarantine_rejected count wrong");
    server.shutdown();
    std::printf("quarantine: image poisoned after 3 failures, %u resubmissions refused\n",
                rejected_corrupt);
  }

  // --- 4. Deadlines: stalled jobs time out, workers survive ----------------
  u64 deadline_timeouts = 0;
  {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    cfg.memoize = false;  // every job must replay (and therefore stall)
    cfg.default_deadline_ms = 5;
    cfg.deadline_grace_ms = 60;
    cfg.watchdog_interval_ms = 2;
    cfg.fault_stall_ms = 40;
    cfg.faults.seed = 7;
    cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeWorkerStall)] = 1'000'000;
    serve::Server server(cfg);
    std::vector<u64> ids;
    for (u32 i = 0; i < 6; ++i) {
      u64 id = 0;
      check(server.submit(good, 1, -1, id).ok(), "deadline-phase submit failed");
      ids.push_back(id);
    }
    server.shutdown();
    for (const u64 id : ids) {
      std::string r;
      const Status st = server.result(id, false, r);
      check(st.code() == StatusCode::kDeadlineExceeded,
            "stalled job under a deadline did not surface kDeadlineExceeded");
    }
    const std::string stats = server.stats_json();
    deadline_timeouts = static_cast<u64>(std::max<i64>(0, json_count(stats, "timed_out")));
    check(deadline_timeouts == 6, "stalled jobs under a 5ms deadline did not all time out");
    check(json_count(stats, "completed") + json_count(stats, "failed") +
                  json_count(stats, "cancelled") + json_count(stats, "timed_out") ==
              json_count(stats, "submitted"),
          "deadline phase counters do not reconcile");
    std::printf("deadlines: %llu stalled jobs timed out (late results: %lld, "
                "arena recycles: %lld)\n",
                static_cast<unsigned long long>(deadline_timeouts),
                static_cast<long long>(json_count(stats, "late_results")),
                static_cast<long long>(json_count(stats, "arena_recycles")));
  }

  // --- 5. Drain timeout: queued jobs are cancelled, not lost ---------------
  {
    serve::ServerConfig cfg;
    cfg.workers = 1;
    cfg.memoize = false;
    cfg.fault_stall_ms = 50;
    cfg.faults.seed = 11;
    cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeWorkerStall)] = 1'000'000;
    serve::Server server(cfg);
    std::vector<u64> ids;
    for (u32 i = 0; i < 6; ++i) {
      u64 id = 0;
      check(server.submit(good, 1, -1, id).ok(), "drain-phase submit failed");
      ids.push_back(id);
    }
    server.shutdown(/*drain_timeout_ms=*/20);
    const std::string stats = server.stats_json();
    const i64 drain_cancelled = json_count(stats, "drain_cancelled");
    check(drain_cancelled >= 1, "drain timeout cancelled nothing despite a stalled worker");
    for (const u64 id : ids) {
      serve::JobInfo info;
      check(server.status(id, info).ok() && terminal(info.state),
            "job neither finished nor cancelled after the drain timeout");
    }
    check(json_count(stats, "completed") + json_count(stats, "failed") +
                  json_count(stats, "cancelled") + json_count(stats, "timed_out") ==
              json_count(stats, "submitted"),
          "drain-timeout phase counters do not reconcile");
    std::printf("drain timeout: %lld queued jobs cancelled, the rest settled\n",
                static_cast<long long>(drain_cancelled));
  }

  // --- 6. The storms: every site armed, per-seed audit ---------------------
  std::vector<SeedOutcome> storms;
  for (u32 s = 0; s < seeds; ++s) storms.push_back(run_storm(good, 0x5eed + s, jobs));

  TablePrinter table({"Seed", "Accepted", "Done", "Failed", "TimedOut", "Rejected",
                      "FrameErr", "Injected", "Retries"});
  for (const SeedOutcome& o : storms) {
    table.add_row({std::to_string(o.seed), std::to_string(o.accepted), std::to_string(o.done),
                   std::to_string(o.failed), std::to_string(o.timed_out),
                   std::to_string(o.final_rejections), std::to_string(o.frame_errors),
                   std::to_string(o.injected_total), std::to_string(o.client_retries)});
  }
  table.print();

  u64 total_injected = 0;
  for (const SeedOutcome& o : storms) total_injected += o.injected_total;
  check(total_injected > 0, "the storms injected nothing — rates or sites are dead");

  // --- JSON -----------------------------------------------------------------
  std::ofstream json(json_path, std::ios::trunc);
  if (json.good()) {
    json << "{\n  \"bench\": \"chaos\",\n  \"smoke\": " << (smoke ? "true" : "false")
         << ",\n  \"jobs_per_storm\": " << jobs
         << ",\n  \"overrun_events\": " << overrun_events
         << ",\n  \"overrun_bound\": " << trace::kCancelCheckInterval
         << ",\n  \"deadline_timeouts\": " << deadline_timeouts
         << ",\n  \"invariant_failures\": " << failures << ",\n  \"storms\": [\n";
    for (size_t i = 0; i < storms.size(); ++i) {
      const SeedOutcome& o = storms[i];
      json << "    {\"seed\": " << o.seed << ", \"accepted\": " << o.accepted
           << ", \"done\": " << o.done << ", \"failed\": " << o.failed
           << ", \"cancelled\": " << o.cancelled << ", \"timed_out\": " << o.timed_out
           << ", \"final_rejections\": " << o.final_rejections
           << ", \"frame_errors\": " << o.frame_errors
           << ", \"injected\": " << o.injected_total
           << ", \"client_retries\": " << o.client_retries << "}"
           << (i + 1 < storms.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "bench_chaos: %d invariant failure(s)\n", failures);
    return 1;
  }
  std::printf("all chaos invariants held (%u storms x %u jobs)\n", seeds, jobs);
  return 0;
}
