// Wire protocol of the trace-replay detection service (haccrg-served).
//
// Transport framing: each message is a length-prefixed frame —
//
//   u32 LE payload length | payload bytes
//
// capped at kMaxFramePayload. The payload is a text head followed by an
// optional binary body:
//
//   <VERB>\n
//   <key>: <value>\n     (zero or more, each key at most once)
//   \n
//   <body: every remaining byte>
//
// Requests carry one of the verbs below; SUBMIT's body is a complete
// trace file image (trace/format.hpp, v1 or v2). Responses reuse the
// same head/body shape with verb "OK" or "ERR"; an ERR head carries a
// `code` field naming the StatusCode and its body is the message.
//
// Both parsers are Status-returning and leave the out-parameter
// untouched on failure — malformed and truncated frames are expected
// input (see tests/test_parser_fuzz.cpp), never a crash.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace haccrg::serve {

/// Frames above this are rejected before any parsing (a length prefix
/// is attacker-controlled input; the bound keeps allocation sane).
inline constexpr u64 kMaxFramePayload = u64{64} << 20;  // 64 MiB

/// Request verbs — the job lifecycle plus daemon introspection.
enum class Verb : u8 {
  kSubmit,    ///< enqueue a replay job; body = trace bytes
  kStatus,    ///< query one job's state
  kResult,    ///< fetch a finished job's report (wait=1 blocks)
  kCancel,    ///< cancel a still-queued job
  kStats,     ///< service counters as JSON
  kShutdown,  ///< drain the queue and stop
};

std::string_view verb_name(Verb verb);

struct Request {
  Verb verb = Verb::kStats;
  u64 job_id = 0;       ///< STATUS / RESULT / CANCEL (key "job")
  i64 kernel = -1;      ///< SUBMIT: replay only kernel #n via the trace
                        ///< index; -1 = whole trace (key "kernel")
  u32 deadline_ms = 0;  ///< SUBMIT: per-job deadline in milliseconds; 0 =
                        ///< the server's default (key "deadline_ms",
                        ///< 1..86400000)
  bool wait = false;    ///< RESULT: block until the job finishes (key "wait")
  std::vector<u8> trace;  ///< SUBMIT body
};

struct Response {
  bool ok = false;
  StatusCode code = StatusCode::kOk;  ///< ERR only
  u64 job_id = 0;
  std::string state;   ///< job state name, when one applies
  std::string body;    ///< report/stats JSON, or the ERR message
};

/// Serialize a request/response into a frame payload (no length prefix).
void encode_request(const Request& request, std::vector<u8>& out);
void encode_response(const Response& response, std::vector<u8>& out);

/// Wrap a payload with the u32 LE length prefix.
void encode_frame(const std::vector<u8>& payload, std::vector<u8>& out);

/// Parse a frame payload. On any failure the out-parameter is untouched
/// and the Status explains where parsing stopped.
Status parse_request(const u8* data, size_t size, Request& out);
Status parse_response(const u8* data, size_t size, Response& out);

}  // namespace haccrg::serve
