// Server-level contract of the trace-replay detection service: the job
// lifecycle (submit / status / result / cancel), bounded-queue overload
// rejection with kUnavailable, concurrent-job isolation (N jobs over
// the same and different traces, server worker counts {1, 2, 4}, all
// reports byte-identical to each other and across worker counts),
// shutdown-under-load draining with no lost or duplicated results, the
// index-less (v1) kernel-slice fallback, and the wire protocol's
// request/response round trip through handle_frame.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fault/fault.hpp"
#include "kernels/common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/gpu.hpp"
#include "trace/index.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"

namespace haccrg {
namespace {

using serve::JobInfo;
using serve::JobState;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;
using serve::Verb;

arch::GpuConfig test_gpu() {
  arch::GpuConfig cfg;
  cfg.num_sms = 8;
  cfg.device_mem_bytes = 32 * 1024 * 1024;
  return cfg;
}

rd::HaccrgConfig detection_combined() {
  rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

/// Record one kernel and return the trace file image. `with_index`
/// selects v2 (indexed) or v1 (linear-fallback) output.
std::vector<u8> record_trace(const std::string& name, bool with_index, const std::string& tag) {
  // gtest_discover_tests runs every test in its own process, and each
  // process records this fixture: the pid keeps `ctest -j` runs apart.
  const std::string path = "test_serve_" + tag + "_" + std::to_string(getpid()) + ".trc";
  {
    sim::SimConfig sim_cfg;
    sim_cfg.trace_path = path;
    sim_cfg.trace_index = with_index;
    sim::Gpu gpu(test_gpu(), detection_combined(), sim_cfg);
    gpu.set_trace_label(name);
    kernels::PreparedKernel prep = kernels::find_benchmark(name)->prepare(gpu, {});
    const sim::SimResult live = gpu.launch(prep.launch());
    EXPECT_TRUE(live.completed) << tag << ": " << live.error;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  const std::string bytes = buf.str();
  return std::vector<u8>(bytes.begin(), bytes.end());
}

/// Traces are recorded once; every test slices this fixture.
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    reduce_trace_ = new std::vector<u8>(record_trace("REDUCE", true, "reduce"));
    hist_trace_ = new std::vector<u8>(record_trace("HIST", true, "hist"));
    reduce_v1_trace_ = new std::vector<u8>(record_trace("REDUCE", false, "reduce_v1"));
  }
  static void TearDownTestSuite() {
    delete reduce_trace_;
    delete hist_trace_;
    delete reduce_v1_trace_;
    reduce_trace_ = hist_trace_ = reduce_v1_trace_ = nullptr;
  }
  static const std::vector<u8>& reduce_trace() { return *reduce_trace_; }
  static const std::vector<u8>& hist_trace() { return *hist_trace_; }
  static const std::vector<u8>& reduce_v1_trace() { return *reduce_v1_trace_; }

 private:
  static std::vector<u8>* reduce_trace_;
  static std::vector<u8>* hist_trace_;
  static std::vector<u8>* reduce_v1_trace_;
};

std::vector<u8>* ServeTest::reduce_trace_ = nullptr;
std::vector<u8>* ServeTest::hist_trace_ = nullptr;
std::vector<u8>* ServeTest::reduce_v1_trace_ = nullptr;

// --- Lifecycle ---------------------------------------------------------------

TEST_F(ServeTest, SubmitResultLifecycle) {
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(cfg);

  u64 id = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
  EXPECT_GT(id, 0u);

  std::string report;
  ASSERT_TRUE(server.result(id, /*wait=*/true, report).ok());
  EXPECT_NE(report.find("\"unique_races\""), std::string::npos);

  JobInfo info;
  ASSERT_TRUE(server.status(id, info).ok());
  EXPECT_EQ(info.state, JobState::kDone);

  // A settled job cannot be cancelled, and its result stays queryable.
  EXPECT_EQ(server.cancel(id).code(), StatusCode::kInvalidArgument);
  std::string again;
  ASSERT_TRUE(server.result(id, false, again).ok());
  EXPECT_EQ(again, report);
}

TEST_F(ServeTest, UnknownJobsAndBadSubmissions) {
  Server server(ServerConfig{});
  JobInfo info;
  std::string report;
  EXPECT_EQ(server.status(999, info).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.result(999, false, report).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.cancel(999).code(), StatusCode::kNotFound);

  u64 id = 0;
  EXPECT_EQ(server.submit({}, 1, -1, id).code(), StatusCode::kInvalidArgument);
  // The per-job workers argument is ignored but still range-checked.
  EXPECT_EQ(server.submit(reduce_trace(), 0, -1, id).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.submit(reduce_trace(), 65, -1, id).code(), StatusCode::kInvalidArgument);

  ServerConfig tiny;
  tiny.max_trace_bytes = 16;
  Server small(tiny);
  EXPECT_EQ(small.submit(reduce_trace(), 1, -1, id).code(), StatusCode::kInvalidArgument);

  // Garbage bytes are accepted into the queue and fail at decode time —
  // a per-job failure, never a worker casualty.
  std::vector<u8> garbage(256, 0x5a);
  ASSERT_TRUE(server.submit(garbage, 1, -1, id).ok());
  EXPECT_FALSE(server.result(id, true, report).ok());
  ASSERT_TRUE(server.status(id, info).ok());
  EXPECT_EQ(info.state, JobState::kFailed);
}

TEST_F(ServeTest, CancelQueuedJob) {
  // One worker + replay jobs: later submissions stay queued long enough
  // to cancel. If the race is lost anyway, the job must settle normally
  // — cancellation is best-effort on a live queue, never corrupting.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.memoize = false;
  Server server(cfg);
  std::vector<u64> ids(6);
  for (u64& id : ids) ASSERT_TRUE(server.submit(hist_trace(), 1, -1, id).ok());

  const Status cancelled = server.cancel(ids.back());
  std::string report;
  const Status got = server.result(ids.back(), true, report);
  if (cancelled.ok()) {
    EXPECT_EQ(got.code(), StatusCode::kInvalidArgument) << "cancelled job served a result";
  } else {
    EXPECT_TRUE(got.ok()) << got.message();
  }
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    EXPECT_TRUE(server.result(ids[i], true, report).ok()) << "job " << ids[i];
  }
}

// --- Overload ---------------------------------------------------------------

TEST_F(ServeTest, OverloadRejectsWithUnavailable) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 2;
  cfg.memoize = false;  // every job replays; the queue genuinely backs up
  Server server(cfg);

  u32 accepted = 0;
  u32 rejected = 0;
  std::vector<u64> ids;
  for (u32 i = 0; i < 24; ++i) {
    u64 id = 0;
    const Status st = server.submit(reduce_trace(), 1, -1, id);
    if (st.ok()) {
      ids.push_back(id);
      ++accepted;
    } else {
      ASSERT_EQ(st.code(), StatusCode::kUnavailable) << st.message();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "a 2-deep queue absorbed 24 replay jobs";
  EXPECT_GT(accepted, 0u);

  // Every accepted job still completes and yields the same report.
  std::string reference;
  for (size_t i = 0; i < ids.size(); ++i) {
    std::string report;
    ASSERT_TRUE(server.result(ids[i], true, report).ok());
    if (i == 0) reference = report;
    EXPECT_EQ(report, reference);
  }
}

// --- Concurrent-job isolation ------------------------------------------------

TEST_F(ServeTest, ConcurrentJobsAreIsolatedAcrossWorkerCounts) {
  // Memoization off: identical reports must come from genuinely
  // independent replays, not from one replay served N times.
  // Per kernel, one report must emerge — across interleavings, server
  // worker counts, and queue positions (the determinism contract).
  std::map<std::string, std::string> reference;
  for (const u32 workers : {1u, 2u, 4u}) {
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.max_queue = 64;
    cfg.memoize = false;
    Server server(cfg);

    std::vector<std::pair<u64, const char*>> jobs;
    for (int n = 0; n < 3; ++n) {
      u64 id = 0;
      ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
      jobs.emplace_back(id, "REDUCE");
      ASSERT_TRUE(server.submit(hist_trace(), 1, -1, id).ok());
      jobs.emplace_back(id, "HIST");
    }
    for (const auto& [id, kernel] : jobs) {
      std::string report;
      ASSERT_TRUE(server.result(id, true, report).ok()) << kernel;
      auto [it, inserted] = reference.emplace(kernel, report);
      EXPECT_EQ(report, it->second) << kernel << " on " << workers << " workers diverged";
    }
  }
  EXPECT_NE(reference["REDUCE"], reference["HIST"])
      << "different traces produced the same report — jobs are bleeding state";
}

// --- Shutdown under load -----------------------------------------------------

TEST_F(ServeTest, ShutdownDrainsWithoutLosingResults) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.max_queue = 64;
  cfg.memoize = false;
  Server server(cfg);

  std::vector<u64> ids(24);
  for (size_t i = 0; i < ids.size(); ++i)
    ASSERT_TRUE(server.submit(i % 2 ? hist_trace() : reduce_trace(), 1, -1, ids[i]).ok());

  server.shutdown();  // drain: every accepted job runs to completion

  u64 id = 0;
  EXPECT_EQ(server.submit(reduce_trace(), 1, -1, id).code(), StatusCode::kUnavailable);

  // No lost results: every job settled kDone with a report. No
  // duplicated results: job ids are unique and each maps to exactly one
  // report matching its kernel.
  std::map<u64, std::string> results;
  for (size_t i = 0; i < ids.size(); ++i) {
    std::string report;
    ASSERT_TRUE(server.result(ids[i], false, report).ok()) << "job " << ids[i] << " lost";
    ASSERT_TRUE(results.emplace(ids[i], std::move(report)).second)
        << "job id " << ids[i] << " duplicated";
  }
  for (size_t i = 2; i < ids.size(); ++i)
    EXPECT_EQ(results[ids[i]], results[ids[i % 2]]) << "job " << ids[i];
}

// --- Kernel slices and the v1 fallback ---------------------------------------

TEST_F(ServeTest, KernelSliceWorksOnV1TracesViaLinearFallback) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);

  // Indexed (v2) and index-less (v1) images of the same recording must
  // serve byte-identical slice reports; the v1 path must bump the
  // index_missing counter instead of failing.
  u64 v2_id = 0;
  u64 v1_id = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, 0, v2_id).ok());
  const u64 missing_before = trace::index_missing_count();
  ASSERT_TRUE(server.submit(reduce_v1_trace(), 1, 0, v1_id).ok());

  std::string v2_report;
  std::string v1_report;
  ASSERT_TRUE(server.result(v2_id, true, v2_report).ok());
  ASSERT_TRUE(server.result(v1_id, true, v1_report).ok());
  EXPECT_EQ(v1_report, v2_report);
  EXPECT_GT(trace::index_missing_count(), missing_before)
      << "v1 slice decode did not count its linear-scan fallback";

  // A slice past the end is a per-job not-found, not a server failure.
  u64 bad_id = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, 5000, bad_id).ok());
  std::string report;
  EXPECT_EQ(server.result(bad_id, true, report).code(), StatusCode::kNotFound);
}

// --- Memoization -------------------------------------------------------------

TEST_F(ServeTest, MemoizedResubmissionMatchesFirstReport) {
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.memoize = true;
  Server server(cfg);

  u64 first = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, first).ok());
  std::string reference;
  ASSERT_TRUE(server.result(first, true, reference).ok());

  // Resubmissions are answered from the memo.
  for (int n = 0; n < 3; ++n) {
    u64 id = 0;
    ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
    std::string report;
    ASSERT_TRUE(server.result(id, true, report).ok());
    EXPECT_EQ(report, reference);
  }
  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"memo_hits\": 3"), std::string::npos) << stats;
}

// --- Protocol round trip through handle_frame --------------------------------

TEST_F(ServeTest, ProtocolRoundTripOverFrames) {
  ServerConfig cfg;
  cfg.workers = 2;
  Server server(cfg);

  auto roundtrip = [&server](const Request& request, Response& response) {
    std::vector<u8> payload;
    serve::encode_request(request, payload);
    std::vector<u8> reply;
    server.handle_frame(payload.data(), payload.size(), reply);
    Response parsed;
    ASSERT_TRUE(serve::parse_response(reply.data(), reply.size(), parsed).ok());
    response = parsed;
  };

  Request submit;
  submit.verb = Verb::kSubmit;
  submit.trace = reduce_trace();
  Response response;
  roundtrip(submit, response);
  ASSERT_TRUE(response.ok);
  const u64 id = response.job_id;
  EXPECT_GT(id, 0u);

  Request result;
  result.verb = Verb::kResult;
  result.job_id = id;
  result.wait = true;
  roundtrip(result, response);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.state, "done");
  EXPECT_NE(response.body.find("\"unique_races\""), std::string::npos);

  Request status;
  status.verb = Verb::kStatus;
  status.job_id = id;
  roundtrip(status, response);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.state, "done");

  Request stats;
  stats.verb = Verb::kStats;
  roundtrip(stats, response);
  ASSERT_TRUE(response.ok);
  EXPECT_NE(response.body.find("\"queue_depth\""), std::string::npos);

  // Malformed frames come back as parseable ERR responses.
  const char garbage[] = "NONSENSE\r\n\r\n";
  std::vector<u8> reply;
  server.handle_frame(reinterpret_cast<const u8*>(garbage), sizeof garbage - 1, reply);
  Response err;
  ASSERT_TRUE(serve::parse_response(reply.data(), reply.size(), err).ok());
  EXPECT_FALSE(err.ok);

  Request shutdown;
  shutdown.verb = Verb::kShutdown;
  roundtrip(shutdown, response);
  ASSERT_TRUE(response.ok);
  EXPECT_EQ(response.state, "drained");
}

// --- Deadlines and the watchdog ----------------------------------------------

TEST_F(ServeTest, DeadlineTimesOutStalledJobsAndWorkersSurvive) {
  // Every job stalls (injected, 50ms) under a 5ms default deadline: the
  // watchdog cancels at the deadline, the stall loop observes the token,
  // and the replay aborts at its first batch boundary — kTimedOut, with
  // the worker alive to serve the next job.
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.memoize = false;
  cfg.default_deadline_ms = 5;
  cfg.deadline_grace_ms = 200;
  cfg.watchdog_interval_ms = 2;
  cfg.fault_stall_ms = 50;
  cfg.faults.seed = 3;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeWorkerStall)] = 1'000'000;
  Server server(cfg);

  std::vector<u64> ids(4);
  for (u64& id : ids) ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
  for (const u64 id : ids) {
    std::string report;
    EXPECT_EQ(server.result(id, true, report).code(), StatusCode::kDeadlineExceeded);
    JobInfo info;
    ASSERT_TRUE(server.status(id, info).ok());
    EXPECT_EQ(info.state, JobState::kTimedOut);
  }
  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"timed_out\": 4"), std::string::npos) << stats;

  // The pool is healthy: a job with a generous per-SUBMIT deadline
  // overrides the tight default and completes.
  u64 ok_id = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, /*deadline_ms=*/60'000, ok_id).ok());
  std::string report;
  EXPECT_TRUE(server.result(ok_id, true, report).ok());
}

TEST_F(ServeTest, CancelledReplayOverrunIsBoundedToOneBatch) {
  trace::TraceReader reader(reduce_trace());
  trace::DecodedTrace decoded;
  ASSERT_TRUE(trace::decode_trace(reader, decoded).ok());
  trace::CancelToken token;
  token.cancel();
  trace::ReplayOptions opts;
  opts.cancel = &token;
  const trace::ReplayResult r = trace::replay_decoded(decoded, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.code, StatusCode::kDeadlineExceeded);
  EXPECT_LE(r.total_events, trace::kCancelCheckInterval);
}

// --- Quarantine --------------------------------------------------------------

TEST_F(ServeTest, RepeatedlyFailingImageIsQuarantined) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.quarantine_threshold = 2;
  Server server(cfg);

  std::vector<u8> poison = reduce_trace();
  poison.resize(poison.size() / 2);  // truncated mid-stream: decode always fails

  for (u32 i = 0; i < cfg.quarantine_threshold; ++i) {
    u64 id = 0;
    ASSERT_TRUE(server.submit(poison, 1, -1, id).ok()) << "attempt " << i;
    std::string report;
    EXPECT_FALSE(server.result(id, true, report).ok());
    JobInfo info;
    ASSERT_TRUE(server.status(id, info).ok());
    EXPECT_EQ(info.state, JobState::kFailed);
  }

  // The image is now a poison pill: rejected at submit time, no queueing.
  u64 id = 0;
  EXPECT_EQ(server.submit(poison, 1, -1, id).code(), StatusCode::kCorrupt);
  EXPECT_EQ(server.submit(poison, 1, -1, id).code(), StatusCode::kCorrupt);

  // Quarantine is per image: the intact trace still serves.
  ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
  std::string report;
  EXPECT_TRUE(server.result(id, true, report).ok());

  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"quarantined\": 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quarantine_rejected\": 2"), std::string::npos) << stats;
}

// --- LRU bounds on the memo and decode cache ---------------------------------

TEST_F(ServeTest, MemoAndDecodeCacheEvictUnderByteBound) {
  // A budget far below one decoded trace: every new job evicts the
  // previous entries, and the counters say so. Results stay correct —
  // eviction costs recomputation, never answers.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_memo_bytes = 4096;
  Server server(cfg);

  std::string first_report;
  for (int round = 0; round < 2; ++round) {
    u64 a = 0, b = 0;
    ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, a).ok());
    ASSERT_TRUE(server.submit(hist_trace(), 1, -1, b).ok());
    std::string ra, rb;
    ASSERT_TRUE(server.result(a, true, ra).ok());
    ASSERT_TRUE(server.result(b, true, rb).ok());
    EXPECT_NE(ra, rb);
    if (round == 0) first_report = ra;
    else EXPECT_EQ(ra, first_report) << "re-replay after eviction diverged";
  }
  const std::string stats = server.stats_json();
  auto count = [&stats](const char* key) {
    const std::string needle = std::string("\"") + key + "\": ";
    const size_t pos = stats.find(needle);
    return pos == std::string::npos
               ? -1ll
               : std::strtoll(stats.c_str() + pos + needle.size(), nullptr, 10);
  };
  EXPECT_GT(count("cache_evictions") + count("memo_evictions"), 0) << stats;
  EXPECT_LE(count("memo_bytes"), 4096) << stats;
}

// --- Drain timeout -----------------------------------------------------------

TEST_F(ServeTest, DrainTimeoutCancelsQueuedJobsOnly) {
  // One worker, every job stalls 50ms, six jobs, a 10ms drain budget:
  // whatever is still queued when the budget expires settles kCancelled;
  // nothing is lost, nothing keeps running after shutdown returns.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.memoize = false;
  cfg.fault_stall_ms = 50;
  cfg.faults.seed = 5;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeWorkerStall)] = 1'000'000;
  Server server(cfg);

  std::vector<u64> ids(6);
  for (u64& id : ids) ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
  server.shutdown(/*drain_timeout_ms=*/10);

  u32 done = 0, cancelled = 0;
  for (const u64 id : ids) {
    JobInfo info;
    ASSERT_TRUE(server.status(id, info).ok());
    ASSERT_TRUE(info.state == JobState::kDone || info.state == JobState::kCancelled)
        << "job " << id << " is " << job_state_name(info.state);
    info.state == JobState::kDone ? ++done : ++cancelled;
  }
  EXPECT_GT(done, 0u) << "the running job should have finished";
  EXPECT_GT(cancelled, 0u) << "a 10ms budget against 50ms stalls cancelled nothing";
  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"drain_cancelled\": " + std::to_string(cancelled)),
            std::string::npos)
      << stats;
}

// --- Client retry/backoff ----------------------------------------------------

TEST_F(ServeTest, ClientRetriesUnavailableWithDeterministicBackoff) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 1;
  cfg.memoize = false;
  Server server(cfg);

  serve::ClientConfig ccfg;
  ccfg.seed = 42;
  ccfg.max_attempts = 8;
  ccfg.base_backoff_ms = 4;
  ccfg.max_backoff_ms = 64;
  std::vector<u32> slept;
  ccfg.sleep_ms = [&slept](u32 ms) {
    slept.push_back(ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  serve::Client client = serve::Client::in_process(server, ccfg);

  // A 1-deep queue with one worker: a burst of submissions forces
  // retries, and every job is eventually accepted or honestly rejected
  // as kUnavailable after the attempt budget.
  std::vector<u64> ids;
  u32 exhausted = 0;
  for (u32 i = 0; i < 12; ++i) {
    u64 id = 0;
    const Status st = client.submit(reduce_trace(), -1, 0, id);
    if (st.ok()) ids.push_back(id);
    else {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.message();
      ++exhausted;
    }
  }
  EXPECT_GT(client.retries(), 0u);
  EXPECT_EQ(client.retries(), slept.size());
  for (size_t i = 0; i < slept.size(); ++i) {
    EXPECT_GE(slept[i], ccfg.base_backoff_ms / 2) << "jitter floor violated at " << i;
    EXPECT_LE(slept[i], ccfg.max_backoff_ms) << "backoff cap violated at " << i;
  }
  for (const u64 id : ids) {
    std::string report;
    EXPECT_TRUE(client.result(id, true, report).ok()) << "job " << id;
  }

  // Same seed, same transport behavior => same jitter sequence.
  SplitMix64 a(42), b(42);
  EXPECT_EQ(a.next(), b.next());
}

TEST_F(ServeTest, ClientSurfacesTerminalErrorsWithoutRetry) {
  ServerConfig cfg;
  cfg.workers = 1;
  Server server(cfg);
  u32 sleeps = 0;
  serve::ClientConfig ccfg;
  ccfg.sleep_ms = [&sleeps](u32) { ++sleeps; };
  serve::Client client = serve::Client::in_process(server, ccfg);

  u64 id = 0;
  EXPECT_EQ(client.submit({}, -1, 0, id).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.submit(reduce_trace(), -1, /*deadline_ms=*/86'400'001, id).code(),
            StatusCode::kInvalidArgument);
  std::string json;
  EXPECT_EQ(client.result(999, false, json).code(), StatusCode::kNotFound);
  EXPECT_EQ(sleeps, 0u) << "terminal errors must not burn retry budget";
  EXPECT_EQ(client.retries(), 0u);

  // The happy path through the same client still works end to end.
  ASSERT_TRUE(client.submit(reduce_trace(), -1, 0, id).ok());
  EXPECT_TRUE(client.result(id, true, json).ok());
  EXPECT_NE(json.find("\"unique_races\""), std::string::npos);
}

// --- Frame-level fault injection ---------------------------------------------

TEST_F(ServeTest, MangledFramesYieldErrResponsesNeverCrashes) {
  // Truncate or corrupt every incoming frame: requests fail as ERR
  // responses while the server — queried through the direct API, which
  // rolls no dice — stays fully functional.
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.faults.seed = 9;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeFrameTruncate)] = 1'000'000;
  cfg.faults.rate_ppm[static_cast<u32>(fault::FaultSite::kServeFrameCorrupt)] = 1'000'000;
  Server server(cfg);

  for (u32 i = 0; i < 16; ++i) {
    Request request;
    request.verb = Verb::kStats;
    std::vector<u8> payload;
    serve::encode_request(request, payload);
    std::vector<u8> reply;
    server.handle_frame(payload.data(), payload.size(), reply);
    Response response;
    ASSERT_TRUE(serve::parse_response(reply.data(), reply.size(), response).ok())
        << "frame " << i << ": response unparseable";
  }
  const std::string stats = server.stats_json();
  EXPECT_NE(stats.find("\"fault.serve_frame_truncate\""), std::string::npos) << stats;

  u64 id = 0;
  ASSERT_TRUE(server.submit(reduce_trace(), 1, -1, id).ok());
  std::string report;
  EXPECT_TRUE(server.result(id, true, report).ok());
}

}  // namespace
}  // namespace haccrg
