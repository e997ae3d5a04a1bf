#include "serve/protocol.hpp"

#include <cstdio>

namespace haccrg::serve {

namespace {

/// A parsed text head: verb line plus key/value fields, with the body
/// range. Shared by the request and response parsers.
struct Head {
  std::string_view verb;
  std::vector<std::pair<std::string_view, std::string_view>> fields;
  const u8* body = nullptr;
  size_t body_size = 0;
};

bool printable_line(std::string_view line) {
  for (char c : line)
    if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) == 0x7f)
      return false;
  return true;
}

Status parse_head(const u8* data, size_t size, Head& out) {
  if (data == nullptr || size == 0) return Status::corrupt("serve: empty frame");
  if (size > kMaxFramePayload) return Status::corrupt("serve: frame exceeds the payload cap");
  Head head;
  const char* text = reinterpret_cast<const char*>(data);
  size_t pos = 0;
  bool saw_blank = false;
  for (int line_no = 0; pos <= size; ++line_no) {
    size_t eol = pos;
    while (eol < size && text[eol] != '\n') ++eol;
    if (eol == size && !saw_blank)
      return Status::corrupt("serve: frame head not terminated by a blank line");
    const std::string_view line(text + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      if (line_no == 0) return Status::corrupt("serve: missing verb line");
      saw_blank = true;
      break;
    }
    if (!printable_line(line)) return Status::corrupt("serve: control bytes in frame head");
    if (line_no == 0) {
      head.verb = line;
      continue;
    }
    const size_t colon = line.find(": ");
    if (colon == std::string_view::npos || colon == 0)
      return Status::corrupt("serve: malformed header field (want 'key: value')");
    const std::string_view key = line.substr(0, colon);
    for (const auto& [seen, value] : head.fields)
      if (seen == key) return Status::corrupt("serve: duplicate header field");
    head.fields.emplace_back(key, line.substr(colon + 2));
    if (head.fields.size() > 16) return Status::corrupt("serve: too many header fields");
  }
  head.body = data + pos;
  head.body_size = size - pos;
  out = head;
  return Status();
}

/// Strict decimal parse — no sign, no blanks, no overflow past `max`.
bool parse_u64(std::string_view text, u64 max, u64& out) {
  if (text.empty() || text.size() > 20) return false;
  u64 value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > max / 10) return false;
    value = value * 10 + static_cast<u64>(c - '0');
    if (value > max) return false;
  }
  out = value;
  return true;
}

void append(std::vector<u8>& out, std::string_view text) {
  out.insert(out.end(), text.begin(), text.end());
}

void append_field(std::vector<u8>& out, std::string_view key, const std::string& value) {
  append(out, key);
  append(out, ": ");
  append(out, value);
  append(out, "\n");
}

}  // namespace

std::string_view verb_name(Verb verb) {
  switch (verb) {
    case Verb::kSubmit: return "SUBMIT";
    case Verb::kStatus: return "STATUS";
    case Verb::kResult: return "RESULT";
    case Verb::kCancel: return "CANCEL";
    case Verb::kStats: return "STATS";
    case Verb::kShutdown: return "SHUTDOWN";
  }
  return "?";
}

void encode_request(const Request& request, std::vector<u8>& out) {
  append(out, verb_name(request.verb));
  append(out, "\n");
  switch (request.verb) {
    case Verb::kSubmit:
      if (request.kernel >= 0) append_field(out, "kernel", std::to_string(request.kernel));
      if (request.deadline_ms != 0)
        append_field(out, "deadline_ms", std::to_string(request.deadline_ms));
      break;
    case Verb::kResult:
      if (request.wait) append_field(out, "wait", "1");
      [[fallthrough]];
    case Verb::kStatus:
    case Verb::kCancel:
      append_field(out, "job", std::to_string(request.job_id));
      break;
    case Verb::kStats:
    case Verb::kShutdown:
      break;
  }
  append(out, "\n");
  if (request.verb == Verb::kSubmit)
    out.insert(out.end(), request.trace.begin(), request.trace.end());
}

void encode_response(const Response& response, std::vector<u8>& out) {
  append(out, response.ok ? "OK" : "ERR");
  append(out, "\n");
  if (!response.ok) append_field(out, "code", std::string(status_code_name(response.code)));
  if (response.job_id != 0) append_field(out, "job", std::to_string(response.job_id));
  if (!response.state.empty()) append_field(out, "state", response.state);
  append(out, "\n");
  append(out, response.body);
}

void encode_frame(const std::vector<u8>& payload, std::vector<u8>& out) {
  const u32 size = static_cast<u32>(payload.size());
  out.push_back(static_cast<u8>(size & 0xff));
  out.push_back(static_cast<u8>((size >> 8) & 0xff));
  out.push_back(static_cast<u8>((size >> 16) & 0xff));
  out.push_back(static_cast<u8>((size >> 24) & 0xff));
  out.insert(out.end(), payload.begin(), payload.end());
}

Status parse_request(const u8* data, size_t size, Request& out) {
  Head head;
  if (Status status = parse_head(data, size, head); !status.ok()) return status;

  Request request;
  if (head.verb == "SUBMIT") request.verb = Verb::kSubmit;
  else if (head.verb == "STATUS") request.verb = Verb::kStatus;
  else if (head.verb == "RESULT") request.verb = Verb::kResult;
  else if (head.verb == "CANCEL") request.verb = Verb::kCancel;
  else if (head.verb == "STATS") request.verb = Verb::kStats;
  else if (head.verb == "SHUTDOWN") request.verb = Verb::kShutdown;
  else return Status::corrupt("serve: unknown verb");

  bool saw_job = false;
  for (const auto& [key, value] : head.fields) {
    u64 number = 0;
    if (key == "workers" && request.verb == Verb::kSubmit) {
      // Range-checked so frames from older clients still parse; the
      // value is unused, because replay is serial per job.
      if (!parse_u64(value, 64, number) || number == 0)
        return Status::invalid_argument("serve: workers must be 1..64");
    } else if (key == "kernel" && request.verb == Verb::kSubmit) {
      if (!parse_u64(value, u64{1} << 20, number))
        return Status::invalid_argument("serve: bad kernel number");
      request.kernel = static_cast<i64>(number);
    } else if (key == "deadline_ms" && request.verb == Verb::kSubmit) {
      // A day bounds the field: deadlines exist to stop runaway jobs,
      // and 0 (= server default) may not be spelled explicitly.
      if (!parse_u64(value, 86'400'000, number) || number == 0)
        return Status::invalid_argument("serve: deadline_ms must be 1..86400000");
      request.deadline_ms = static_cast<u32>(number);
    } else if (key == "job" && (request.verb == Verb::kStatus || request.verb == Verb::kResult ||
                                request.verb == Verb::kCancel)) {
      if (!parse_u64(value, ~u64{0} >> 1, number) || number == 0)
        return Status::invalid_argument("serve: bad job id");
      request.job_id = number;
      saw_job = true;
    } else if (key == "wait" && request.verb == Verb::kResult) {
      if (value != "0" && value != "1") return Status::invalid_argument("serve: wait must be 0/1");
      request.wait = value == "1";
    } else {
      return Status::corrupt("serve: unexpected header field for this verb");
    }
  }

  if (request.verb == Verb::kSubmit) {
    if (head.body_size == 0) return Status::invalid_argument("serve: SUBMIT without trace body");
    request.trace.assign(head.body, head.body + head.body_size);
  } else {
    if (head.body_size != 0) return Status::corrupt("serve: unexpected body");
    if ((request.verb == Verb::kStatus || request.verb == Verb::kResult ||
         request.verb == Verb::kCancel) &&
        !saw_job)
      return Status::invalid_argument("serve: missing job field");
  }
  out = std::move(request);
  return Status();
}

Status parse_response(const u8* data, size_t size, Response& out) {
  Head head;
  if (Status status = parse_head(data, size, head); !status.ok()) return status;
  Response response;
  if (head.verb == "OK") response.ok = true;
  else if (head.verb == "ERR") response.ok = false;
  else return Status::corrupt("serve: response is neither OK nor ERR");

  for (const auto& [key, value] : head.fields) {
    if (key == "code" && !response.ok) {
      bool known = false;
      for (u8 c = 0; c <= static_cast<u8>(StatusCode::kDeadlineExceeded); ++c) {
        if (value == status_code_name(static_cast<StatusCode>(c))) {
          response.code = static_cast<StatusCode>(c);
          known = true;
          break;
        }
      }
      if (!known) return Status::corrupt("serve: unknown error code");
    } else if (key == "job") {
      u64 number = 0;
      if (!parse_u64(value, ~u64{0} >> 1, number))
        return Status::corrupt("serve: bad job id in response");
      response.job_id = number;
    } else if (key == "state") {
      response.state = std::string(value);
    } else {
      return Status::corrupt("serve: unexpected response field");
    }
  }
  response.body.assign(reinterpret_cast<const char*>(head.body), head.body_size);
  out = std::move(response);
  return Status();
}

}  // namespace haccrg::serve
