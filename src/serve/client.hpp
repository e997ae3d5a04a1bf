// Retrying client for the detection service. The daemon rejects
// overload instead of absorbing it (submit → kUnavailable when the
// queue is full), so every caller needs the same loop: retry with
// capped exponential backoff, jittered so a herd of rejected clients
// does not re-collide, bounded by an attempt count and a total time
// budget, and honest about terminal errors — a quarantined trace
// (kCorrupt) or a bad argument is surfaced immediately, never retried.
// This class is that loop, written once; haccrg-served's `once`/`client`
// commands and bench_serving/bench_chaos all drive it.
//
// The Client is transport-agnostic: it round-trips protocol Requests
// through a RequestFn. in_process() binds one to a Server through the
// frame layer (encode → handle_frame → parse), so in-process callers
// exercise the exact byte path — including the frame-level chaos sites
// — that socket clients do.
//
// Jitter is deterministic (SplitMix64 seeded from ClientConfig::seed):
// two clients with the same seed and the same rejection pattern back
// off identically, which is what makes the chaos campaign replayable.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace haccrg::serve {

/// Transport hook: send one request, receive its response. A non-OK
/// Status means the transport itself died (connection gone, frame
/// unparseable); service-level errors arrive as ERR responses.
using RequestFn = std::function<Status(const Request&, Response&)>;

struct ClientConfig {
  u32 max_attempts = 5;      ///< total tries per submit (1 = no retry)
  u32 base_backoff_ms = 10;  ///< first backoff; doubles per attempt
  u32 max_backoff_ms = 1000; ///< cap on a single backoff
  u32 retry_budget_ms = 10'000;  ///< total sleep allowed across retries
  u64 seed = 1;              ///< jitter seed — deterministic backoff
  /// Sleep hook, overridable so tests and the chaos campaign spend
  /// virtual rather than wall-clock time. Null = real sleep.
  std::function<void(u32)> sleep_ms;
};

class Client {
 public:
  explicit Client(RequestFn transport, const ClientConfig& config = {});

  /// A client bound to an in-process Server via the frame layer.
  static Client in_process(Server& server, const ClientConfig& config = {});

  /// SUBMIT with the retry loop: kUnavailable responses (queue full)
  /// are retried with capped exponential backoff + deterministic jitter
  /// until max_attempts or retry_budget_ms runs out — then the last
  /// kUnavailable is returned. Every other error is terminal and
  /// surfaced on the first attempt. `deadline_ms` 0 = server default.
  Status submit(const std::vector<u8>& trace, i64 kernel, u32 deadline_ms, u64& job_id_out);

  Status status(u64 job_id, JobInfo& out);

  /// Fetch a job's report; wait=true blocks server-side until the job
  /// settles. Terminal job states map to the Status the server chose
  /// (kDeadlineExceeded for a timeout, the failure code for kFailed).
  Status result(u64 job_id, bool wait, std::string& json_out);

  Status cancel(u64 job_id);
  Status stats(std::string& json_out);
  Status shutdown();

  /// Retry accounting (for STATS-style reporting by callers).
  u64 retries() const { return retries_; }
  u64 backoff_ms_total() const { return backoff_ms_total_; }

 private:
  Status roundtrip(const Request& request, Response& response);
  /// The next backoff for 0-based retry number `attempt`: doubled,
  /// capped, then jittered into [backoff/2, backoff].
  u32 next_backoff_ms(u32 attempt);

  RequestFn transport_;
  ClientConfig config_;
  SplitMix64 rng_;
  u64 retries_ = 0;
  u64 backoff_ms_total_ = 0;
};

}  // namespace haccrg::serve
