// haccrg-served — the trace-replay detection service daemon.
//
//   haccrg-served serve --socket PATH [--workers N] [--queue N]
//                       [--deadline-ms N] [--drain-timeout MS] [--faults PLAN]
//   haccrg-served serve --stdio [...same flags]
//   haccrg-served once --trace FILE [--kernel N] [--deadline-ms N]
//   haccrg-served client --socket PATH submit FILE [--kernel N]
//                        [--deadline-ms N] [--retries N]
//   haccrg-served client --socket PATH status|result|cancel JOB [--wait]
//   haccrg-served client --socket PATH stats|shutdown
//
// Transport is length-prefixed frames (serve/protocol.hpp) over a unix
// domain socket or stdin/stdout. `once` runs a single job through an
// in-process server — no socket, same code path — and prints the report
// JSON; it is the smoke-test entry point. `client submit` retries
// kUnavailable rejections with the serve/client.hpp backoff loop.
// Numeric flags and job ids are parsed strictly: junk, trailing text or
// a value outside the allowed range is a usage error.
//
// Exit codes: 0 success, 1 job/request failed (message on stderr),
// 2 usage, 3 transport/io error.
#include <csignal>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace {

using namespace haccrg;
using namespace haccrg::serve;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "haccrg-served: %s\n\n", error);
  std::fprintf(stderr, "%s",
               "usage: haccrg-served <command> [args]\n"
               "\n"
               "commands:\n"
               "  serve --socket PATH | --stdio   run the daemon\n"
               "    [--workers N]                 worker threads, 1..64 (default 2)\n"
               "    [--queue N]                   queued-job bound, 1..1000000 (default 64)\n"
               "    [--deadline-ms N]             default per-job deadline (0 = none)\n"
               "    [--drain-timeout MS]          SHUTDOWN drain budget; queued jobs\n"
               "                                  past it are cancelled (-1 = full drain,\n"
               "                                  the default)\n"
               "    [--faults PLAN]               serving chaos plan (serve_* keys,\n"
               "                                  HACCRG_FAULTS syntax)\n"
               "  once --trace FILE               one in-process job, report on stdout\n"
               "    [--kernel N] [--deadline-ms N]\n"
               "  client --socket PATH <verb>     one request against a daemon\n"
               "    submit FILE [--kernel N] [--deadline-ms N] [--retries N]\n"
               "    status JOB | result JOB [--wait] | cancel JOB\n"
               "    stats | shutdown\n");
  return 2;
}

// Numeric flag ranges. Kernel and deadline bounds match what a SUBMIT
// frame accepts (serve/protocol.cpp).
constexpr i64 kMaxKernel = i64{1} << 20;
constexpr i64 kMaxDeadlineMs = 86'400'000;
constexpr i64 kMaxServerWorkers = 64;
constexpr i64 kMaxQueue = 1'000'000;
constexpr i64 kMaxRetries = 1000;
constexpr i64 kMaxJobId = std::numeric_limits<i64>::max();

/// Strict integer flag value: the whole of `text` must be a decimal
/// number in [lo, hi]. On failure `out` is untouched.
template <typename T>
bool parse_flag(const char* text, i64 lo, i64 hi, T& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0])) && text[0] != '-') return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < lo || value > hi) return false;
  out = static_cast<T>(value);
  return true;
}

int bad_flag(const std::string& flag, const char* value) {
  return usage(("bad " + flag + " value: '" + value + "'").c_str());
}

bool read_file(const std::string& path, std::vector<u8>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

// --- Frame transport over a file descriptor --------------------------------

bool read_exact(int fd, u8* buffer, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, buffer + done, size - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool write_all(int fd, const u8* buffer, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, buffer + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Read one frame; false on clean EOF or any error (`eof` says which).
bool read_frame(int fd, std::vector<u8>& payload, bool& eof) {
  u8 prefix[4];
  eof = false;
  {
    // A clean close between frames shows up as EOF on the first byte.
    const ssize_t n = ::read(fd, prefix, 1);
    if (n == 0) {
      eof = true;
      return false;
    }
    if (n < 0) return false;
  }
  if (!read_exact(fd, prefix + 1, 3)) return false;
  const u64 size = static_cast<u64>(prefix[0]) | static_cast<u64>(prefix[1]) << 8 |
                   static_cast<u64>(prefix[2]) << 16 | static_cast<u64>(prefix[3]) << 24;
  if (size == 0 || size > kMaxFramePayload) return false;
  payload.resize(size);
  return read_exact(fd, payload.data(), size);
}

bool write_frame(int fd, const std::vector<u8>& payload) {
  std::vector<u8> framed;
  framed.reserve(payload.size() + 4);
  encode_frame(payload, framed);
  return write_all(fd, framed.data(), framed.size());
}

// --- serve ------------------------------------------------------------------

/// Serve one connection; returns true when a SHUTDOWN was processed.
/// A client that dies mid-frame or mid-reply only ends this connection
/// — read_frame fails, write_frame sees EPIPE (SIGPIPE is ignored
/// process-wide), and the accept loop moves on with every accepted job
/// still owned by the server.
bool serve_connection(Server& server, int in_fd, int out_fd) {
  std::vector<u8> payload;
  std::vector<u8> reply;
  bool eof = false;
  while (read_frame(in_fd, payload, eof)) {
    Request request;
    Response response;
    bool is_shutdown = false;
    if (Status status = parse_request(payload.data(), payload.size(), request); !status.ok()) {
      response.ok = false;
      response.code = status.code();
      response.body = status.message();
    } else {
      is_shutdown = request.verb == Verb::kShutdown;
      response = server.handle_request(request);
    }
    reply.clear();
    encode_response(response, reply);
    if (!write_frame(out_fd, reply)) return is_shutdown && response.ok;
    if (is_shutdown && response.ok) return true;
  }
  return false;
}

int cmd_serve_stdio(Server& server) {
  serve_connection(server, STDIN_FILENO, STDOUT_FILENO);
  server.shutdown();  // EOF on stdin drains too
  return 0;
}

int cmd_serve_socket(Server& server, const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "haccrg-served: socket: %s\n", std::strerror(errno));
    return 3;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "haccrg-served: socket path too long\n");
    ::close(listener);
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 16) < 0) {
    std::fprintf(stderr, "haccrg-served: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listener);
    return 3;
  }
  std::fprintf(stderr, "haccrg-served: listening on %s\n", path.c_str());

  // Connections are served one at a time: the daemon's concurrency lives
  // in the worker pool (jobs are asynchronous), not in the accept loop,
  // which keeps the transport free of connection/shutdown races.
  bool shutdown_seen = false;
  while (!shutdown_seen) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "haccrg-served: accept: %s\n", std::strerror(errno));
      break;
    }
    shutdown_seen = serve_connection(server, conn, conn);
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  server.shutdown();
  return 0;
}

// --- once -------------------------------------------------------------------

int cmd_once(int argc, char** argv) {
  std::string trace_path;
  i64 kernel = -1;
  u32 deadline_ms = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--kernel" && i + 1 < argc) {
      if (!parse_flag(argv[++i], 0, kMaxKernel, kernel)) return bad_flag(arg, argv[i]);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!parse_flag(argv[++i], 0, kMaxDeadlineMs, deadline_ms)) return bad_flag(arg, argv[i]);
    } else {
      return usage(("unknown once argument: " + arg).c_str());
    }
  }
  if (trace_path.empty()) return usage("once requires --trace");
  std::vector<u8> bytes;
  if (!read_file(trace_path, bytes)) {
    std::fprintf(stderr, "haccrg-served: cannot read %s\n", trace_path.c_str());
    return 3;
  }
  ServerConfig config;
  config.workers = 1;
  Server server(config);
  Client client = Client::in_process(server);
  u64 job = 0;
  if (Status status = client.submit(bytes, kernel, deadline_ms, job); !status.ok()) {
    std::fprintf(stderr, "haccrg-served: %s\n", status.to_string().c_str());
    return 1;
  }
  std::string report;
  if (Status status = client.result(job, /*wait=*/true, report); !status.ok()) {
    std::fprintf(stderr, "haccrg-served: %s\n", status.to_string().c_str());
    return 1;
  }
  std::fputs(report.c_str(), stdout);
  return 0;
}

// --- client -----------------------------------------------------------------

int client_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Hidden test hook (tests/test_serve_cli.sh): start a SUBMIT frame,
/// write only half of it, and vanish — a client death mid-body. The
/// daemon must stay healthy.
int cmd_abort_mid_submit(const std::string& socket_path, const std::string& trace_path) {
  std::vector<u8> bytes;
  if (!read_file(trace_path, bytes)) return 3;
  Request request;
  request.verb = Verb::kSubmit;
  request.trace = std::move(bytes);
  std::vector<u8> payload;
  encode_request(request, payload);
  std::vector<u8> framed;
  encode_frame(payload, framed);
  const int fd = client_connect(socket_path);
  if (fd < 0) return 3;
  write_all(fd, framed.data(), framed.size() / 2);
  ::close(fd);
  return 0;
}

/// Hidden test hook: send RESULT wait=1 and close without ever reading
/// the reply — the daemon's write lands on a dead socket (EPIPE, not a
/// fatal SIGPIPE) after the job settles.
int cmd_abort_mid_result(const std::string& socket_path, u64 job_id) {
  Request request;
  request.verb = Verb::kResult;
  request.job_id = job_id;
  request.wait = true;
  std::vector<u8> payload;
  encode_request(request, payload);
  const int fd = client_connect(socket_path);
  if (fd < 0) return 3;
  if (!write_frame(fd, payload)) {
    ::close(fd);
    return 3;
  }
  ::close(fd);
  return 0;
}

int cmd_client(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) socket_path = argv[++i];
    else rest.push_back(arg);
  }
  if (socket_path.empty() || rest.empty()) return usage("client requires --socket and a verb");

  const std::string& verb = rest[0];
  if (verb == "abort-mid-submit") {
    if (rest.size() < 2) return usage("abort-mid-submit requires a trace file");
    return cmd_abort_mid_submit(socket_path, rest[1]);
  }
  if (verb == "abort-mid-result") {
    if (rest.size() < 2) return usage("abort-mid-result requires a job id");
    return cmd_abort_mid_result(socket_path, static_cast<u64>(std::atoll(rest[1].c_str())));
  }

  Request request;
  u32 deadline_ms = 0;
  ClientConfig client_config;
  if (verb == "submit") {
    if (rest.size() < 2) return usage("client submit requires a trace file");
    request.verb = Verb::kSubmit;
    if (!read_file(rest[1], request.trace)) {
      std::fprintf(stderr, "haccrg-served: cannot read %s\n", rest[1].c_str());
      return 3;
    }
    for (size_t i = 2; i < rest.size(); ++i) {
      const std::string& arg = rest[i];
      const bool has_value = i + 1 < rest.size();
      if (arg == "--kernel" && has_value) {
        if (!parse_flag(rest[++i].c_str(), 0, kMaxKernel, request.kernel))
          return bad_flag(arg, rest[i].c_str());
      } else if (arg == "--deadline-ms" && has_value) {
        if (!parse_flag(rest[++i].c_str(), 0, kMaxDeadlineMs, deadline_ms))
          return bad_flag(arg, rest[i].c_str());
      } else if (arg == "--retries" && has_value) {
        u32 retries = 0;
        if (!parse_flag(rest[++i].c_str(), 0, kMaxRetries, retries))
          return bad_flag(arg, rest[i].c_str());
        client_config.max_attempts = retries + 1;
      } else {
        return usage(("unknown submit argument: " + arg).c_str());
      }
    }
  } else if (verb == "status" || verb == "result" || verb == "cancel") {
    if (rest.size() < 2) return usage("client needs a job id");
    request.verb = verb == "status" ? Verb::kStatus
                   : verb == "result" ? Verb::kResult
                                      : Verb::kCancel;
    if (!parse_flag(rest[1].c_str(), 1, kMaxJobId, request.job_id))
      return bad_flag("job id", rest[1].c_str());
    if (rest.size() > 2 && rest[2] == "--wait" && verb == "result") request.wait = true;
  } else if (verb == "stats") {
    request.verb = Verb::kStats;
  } else if (verb == "shutdown") {
    request.verb = Verb::kShutdown;
  } else {
    return usage(("unknown client verb: " + verb).c_str());
  }

  const int fd = client_connect(socket_path);
  if (fd < 0) {
    std::fprintf(stderr, "haccrg-served: cannot connect to %s\n", socket_path.c_str());
    return 3;
  }
  // One connection, many frames: the retry loop (submit only — every
  // other verb is a single round trip) re-sends over the same socket.
  bool transport_dead = false;
  Client client(
      [fd, &transport_dead](const Request& req, Response& response) -> Status {
        std::vector<u8> payload;
        encode_request(req, payload);
        std::vector<u8> reply;
        bool eof = false;
        if (!write_frame(fd, payload) || !read_frame(fd, reply, eof)) {
          transport_dead = true;
          return Status::io_error("serve: transport failure");
        }
        return parse_response(reply.data(), reply.size(), response);
      },
      client_config);

  Status status;
  Response shown;  // what to print on success
  if (request.verb == Verb::kSubmit) {
    u64 job = 0;
    status = client.submit(request.trace, request.kernel, deadline_ms, job);
    shown.job_id = job;
    shown.state = "queued";
  } else if (request.verb == Verb::kStatus) {
    JobInfo info;
    status = client.status(request.job_id, info);
    shown.job_id = info.id;
    shown.state = std::string(job_state_name(info.state));
    shown.body = info.error;
  } else if (request.verb == Verb::kResult) {
    status = client.result(request.job_id, request.wait, shown.body);
    shown.job_id = request.job_id;
    shown.state = "done";
  } else if (request.verb == Verb::kCancel) {
    status = client.cancel(request.job_id);
    shown.job_id = request.job_id;
    shown.state = "cancelled";
  } else if (request.verb == Verb::kStats) {
    status = client.stats(shown.body);
  } else {
    status = client.shutdown();
    shown.state = "drained";
  }
  ::close(fd);

  if (!status.ok()) {
    if (transport_dead || status.code() == StatusCode::kIoError) {
      std::fprintf(stderr, "haccrg-served: transport failure\n");
      return 3;
    }
    std::fprintf(stderr, "haccrg-served: %s: %s\n",
                 std::string(status_code_name(status.code())).c_str(),
                 status.message().c_str());
    return 1;
  }
  if (shown.job_id != 0) std::printf("job: %llu\n", (unsigned long long)shown.job_id);
  if (!shown.state.empty()) std::printf("state: %s\n", shown.state.c_str());
  if (!shown.body.empty()) std::fputs(shown.body.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client may disconnect while the daemon is mid-write (the
  // abort-mid-result hook does exactly that); the write must fail with
  // EPIPE, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string command = argv[1];

  if (command == "serve") {
    std::string socket_path;
    bool stdio = false;
    ServerConfig config;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--socket" && i + 1 < argc) {
        socket_path = argv[++i];
      } else if (arg == "--stdio") {
        stdio = true;
      } else if (arg == "--workers" && i + 1 < argc) {
        if (!parse_flag(argv[++i], 1, kMaxServerWorkers, config.workers))
          return bad_flag(arg, argv[i]);
      } else if (arg == "--queue" && i + 1 < argc) {
        if (!parse_flag(argv[++i], 1, kMaxQueue, config.max_queue)) return bad_flag(arg, argv[i]);
      } else if (arg == "--deadline-ms" && i + 1 < argc) {
        if (!parse_flag(argv[++i], 0, kMaxDeadlineMs, config.default_deadline_ms))
          return bad_flag(arg, argv[i]);
      } else if (arg == "--drain-timeout" && i + 1 < argc) {
        if (!parse_flag(argv[++i], -1, kMaxDeadlineMs, config.drain_timeout_ms))
          return bad_flag(arg, argv[i]);
      } else if (arg == "--faults" && i + 1 < argc) {
        if (Status status = fault::FaultPlan::parse(argv[++i], config.faults); !status.ok()) {
          std::fprintf(stderr, "haccrg-served: %s\n", status.to_string().c_str());
          return 2;
        }
      } else {
        return usage(("unknown serve argument: " + arg).c_str());
      }
    }
    if (stdio == !socket_path.empty())
      return usage("serve needs exactly one of --socket/--stdio");
    Server server(config);
    return stdio ? cmd_serve_stdio(server) : cmd_serve_socket(server, socket_path);
  }
  if (command == "once") return cmd_once(argc - 2, argv + 2);
  if (command == "client") return cmd_client(argc - 2, argv + 2);
  return usage(("unknown command: " + command).c_str());
}
