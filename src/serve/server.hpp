// The trace-replay detection service. A Server owns a bounded job queue
// and a pool of worker threads; each worker replays one job at a time,
// serially, so the service parallelises across jobs only. Each worker
// carries its own pre-warmed ReplayArena (trace/replay.hpp) so
// steady-state jobs reuse detector state instead of rebuilding it.
// Traces are decoded once per distinct byte image (content-addressed
// cache) and, because replay is deterministic, the finished report for
// a (trace, kernel-slice) pair is memoized — a resubmitted trace is
// answered without replaying at all. Both the memo and the decode cache
// are LRU-bounded by max_memo_bytes.
//
// Overload is rejected, not absorbed: when `max_queue` jobs are already
// waiting, submit() returns StatusCode::kUnavailable and the caller is
// expected to retry (serve/client.hpp implements the backoff policy).
//
// Robustness contract: every accepted job reaches exactly one terminal
// state (kDone / kFailed / kCancelled / kTimedOut), and no worker-side
// failure — decode error, arena rebuild failure, injected fault, even a
// thrown exception — ever kills a worker thread; it becomes that job's
// kFailed. A deadline (per-SUBMIT or ServerConfig::default_deadline_ms)
// cancels the replay cooperatively at the next granule batch; a watchdog
// thread backstops stalled workers at deadline + grace, settling the job
// kTimedOut and recycling that worker's arena when its late result
// finally lands. A trace image whose jobs fail quarantine_threshold
// times is a poison pill: further submissions of the same bytes are
// rejected at submit time (kCorrupt) without queueing.
//
// ServerConfig::faults arms the serving-layer chaos sites
// (fault/fault.hpp, serve_* keys) — deterministic fault injection for
// bench_chaos; a zero-rate plan leaves every output byte-identical.
//
// The Server is transport-agnostic: handle_request() maps protocol
// requests to the methods below, and haccrg_served_main.cpp moves the
// frames over a unix socket or stdio.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fault/fault.hpp"
#include "serve/protocol.hpp"

namespace haccrg::serve {

struct ServerConfig {
  u32 workers = 2;       ///< worker threads draining the job queue
  u32 max_queue = 64;    ///< bound on queued (not yet running) jobs
  u64 max_trace_bytes = 32u << 20;  ///< largest accepted SUBMIT body
  bool memoize = true;   ///< reuse reports for identical (trace, slice) jobs
  u64 max_memo_bytes = 64u << 20;  ///< LRU byte bound, memo + decode cache
  u32 default_deadline_ms = 0;  ///< deadline for SUBMITs that carry none; 0 = none
  u32 deadline_grace_ms = 500;  ///< watchdog hard deadline = deadline + grace
  u32 watchdog_interval_ms = 20;  ///< watchdog poll period
  u32 quarantine_threshold = 3;   ///< job failures before a trace image is
                                  ///< poisoned; 0 disables quarantine
  u32 fault_stall_ms = 100;  ///< injected worker-stall duration (chaos only)
  i64 drain_timeout_ms = -1;  ///< SHUTDOWN drain budget; -1 = drain fully
  fault::FaultPlan faults;   ///< serving-layer chaos plan (zero rates = off)
};

enum class JobState : u8 { kQueued, kRunning, kDone, kFailed, kCancelled, kTimedOut };

std::string_view job_state_name(JobState state);

struct JobInfo {
  u64 id = 0;
  JobState state = JobState::kQueued;
  std::string error;  ///< failure detail (kFailed / kTimedOut)
};

class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();  ///< implies shutdown()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue a replay job over `trace_bytes` (a whole trace file image;
  /// copied only if the job actually queues — a memoized resubmission is
  /// answered at submit time without copying or queueing). `kernel` >= 0
  /// replays only that kernel via the trace index (linear scan fallback
  /// for v1 traces). `deadline_ms` bounds the job's run time (0 = the
  /// server default). Fails with kUnavailable when the queue is full or
  /// the server is shutting down, kCorrupt when the trace image is
  /// quarantined. `workers` is range-checked (1..64) and otherwise
  /// ignored: replay is serial per job. It stays only for perfbench,
  /// which still passes a per-job shard count.
  Status submit(const std::vector<u8>& trace_bytes, u32 workers, i64 kernel,
                u32 deadline_ms, u64& job_id_out);
  Status submit(const std::vector<u8>& trace_bytes, u32 workers, i64 kernel, u64& job_id_out) {
    return submit(trace_bytes, workers, kernel, 0, job_id_out);
  }

  Status status(u64 job_id, JobInfo& out) const;

  /// Fetch a finished job's report JSON. A queued/running job yields
  /// kUnavailable (poll again), unless `wait` blocks until it settles.
  /// A timed-out job yields kDeadlineExceeded.
  Status result(u64 job_id, bool wait, std::string& json_out);

  /// Cancel a job that has not started; running or settled jobs are not
  /// interrupted (kInvalidArgument names the state).
  Status cancel(u64 job_id);

  /// Service counters as JSON (queue depth, cache/memo hits and
  /// evictions, arena reuse/recycles, timeouts, quarantine, injected
  /// serving faults, ...).
  std::string stats_json() const;

  /// Drain: reject new submissions, finish every accepted job, join the
  /// workers. With `drain_timeout_ms` >= 0, jobs still queued when the
  /// budget expires are settled kCancelled (counted as drain_cancelled);
  /// running jobs always finish. Idempotent; results stay queryable
  /// afterwards.
  void shutdown(i64 drain_timeout_ms);
  void shutdown() { shutdown(-1); }

  /// Protocol dispatch — every verb maps onto one method above.
  /// SHUTDOWN drains (honoring ServerConfig::drain_timeout_ms) before
  /// answering.
  Response handle_request(const Request& request);

  /// Frame-level dispatch: parse + handle + encode. Parse failures
  /// become ERR responses, never a dropped connection. The frame-level
  /// chaos sites (serve_frame_truncate / serve_frame_corrupt) mutate the
  /// payload here, before parsing — downstream state never sees the
  /// intact frame.
  void handle_frame(const u8* data, size_t size, std::vector<u8>& response_payload_out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace haccrg::serve
