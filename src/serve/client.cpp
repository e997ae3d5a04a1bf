#include "serve/client.hpp"

#include <chrono>
#include <thread>

namespace haccrg::serve {

Client::Client(RequestFn transport, const ClientConfig& config)
    : transport_(std::move(transport)), config_(config), rng_(config.seed) {
  if (config_.max_attempts == 0) config_.max_attempts = 1;
  if (config_.base_backoff_ms == 0) config_.base_backoff_ms = 1;
  if (config_.max_backoff_ms < config_.base_backoff_ms)
    config_.max_backoff_ms = config_.base_backoff_ms;
}

Client Client::in_process(Server& server, const ClientConfig& config) {
  return Client(
      [&server](const Request& request, Response& response) -> Status {
        std::vector<u8> payload;
        encode_request(request, payload);
        std::vector<u8> reply;
        server.handle_frame(payload.data(), payload.size(), reply);
        return parse_response(reply.data(), reply.size(), response);
      },
      config);
}

Status Client::roundtrip(const Request& request, Response& response) {
  response = Response{};
  return transport_(request, response);
}

u32 Client::next_backoff_ms(u32 attempt) {
  u64 backoff = config_.base_backoff_ms;
  for (u32 i = 0; i < attempt && backoff < config_.max_backoff_ms; ++i) backoff *= 2;
  if (backoff > config_.max_backoff_ms) backoff = config_.max_backoff_ms;
  // Jitter into [backoff/2, backoff]: enough spread to break up a
  // rejected herd, while a capped floor keeps the retry budget math
  // predictable.
  const u64 half = backoff / 2;
  return static_cast<u32>(half + rng_.next() % (backoff - half + 1));
}

Status Client::submit(const std::vector<u8>& trace, i64 kernel, u32 deadline_ms,
                      u64& job_id_out) {
  Request request;
  request.verb = Verb::kSubmit;
  request.kernel = kernel;
  request.deadline_ms = deadline_ms;
  request.trace = trace;

  u64 slept_ms = 0;
  for (u32 attempt = 0;; ++attempt) {
    Response response;
    if (Status status = roundtrip(request, response); !status.ok()) return status;
    if (response.ok) {
      job_id_out = response.job_id;
      return Status();
    }
    // Only "come back later" is retryable. Everything else — bad
    // argument, corrupt frame, quarantined trace — is a fact about the
    // request and retrying would just repeat it.
    if (response.code != StatusCode::kUnavailable || attempt + 1 >= config_.max_attempts)
      return Status(response.code, response.body);
    const u32 backoff = next_backoff_ms(attempt);
    if (slept_ms + backoff > config_.retry_budget_ms)
      return Status(response.code, response.body + " (retry budget exhausted)");
    slept_ms += backoff;
    ++retries_;
    backoff_ms_total_ += backoff;
    if (config_.sleep_ms)
      config_.sleep_ms(backoff);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
  }
}

Status Client::status(u64 job_id, JobInfo& out) {
  Request request;
  request.verb = Verb::kStatus;
  request.job_id = job_id;
  Response response;
  if (Status status = roundtrip(request, response); !status.ok()) return status;
  if (!response.ok) return Status(response.code, response.body);
  out.id = response.job_id;
  out.error = response.body;
  out.state = JobState::kQueued;
  for (u8 s = 0; s <= static_cast<u8>(JobState::kTimedOut); ++s) {
    if (response.state == job_state_name(static_cast<JobState>(s))) {
      out.state = static_cast<JobState>(s);
      break;
    }
  }
  return Status();
}

Status Client::result(u64 job_id, bool wait, std::string& json_out) {
  Request request;
  request.verb = Verb::kResult;
  request.job_id = job_id;
  request.wait = wait;
  Response response;
  if (Status status = roundtrip(request, response); !status.ok()) return status;
  if (!response.ok) return Status(response.code, response.body);
  json_out = std::move(response.body);
  return Status();
}

Status Client::cancel(u64 job_id) {
  Request request;
  request.verb = Verb::kCancel;
  request.job_id = job_id;
  Response response;
  if (Status status = roundtrip(request, response); !status.ok()) return status;
  if (!response.ok) return Status(response.code, response.body);
  return Status();
}

Status Client::stats(std::string& json_out) {
  Request request;
  request.verb = Verb::kStats;
  Response response;
  if (Status status = roundtrip(request, response); !status.ok()) return status;
  if (!response.ok) return Status(response.code, response.body);
  json_out = std::move(response.body);
  return Status();
}

Status Client::shutdown() {
  Request request;
  request.verb = Verb::kShutdown;
  Response response;
  if (Status status = roundtrip(request, response); !status.ok()) return status;
  if (!response.ok) return Status(response.code, response.body);
  return Status();
}

}  // namespace haccrg::serve
