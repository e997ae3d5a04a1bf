#include "serve/server.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "serve/report.hpp"
#include "trace/index.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"

namespace haccrg::serve {

namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Content address of a submitted trace. FNV-1a folding eight bytes per
/// step (the hash is in-process only, never persisted, so the wider
/// stride is free to differ from canonical byte-wise FNV); the cache key
/// also carries the byte count, so a collision needs two same-length
/// traces with the same hash — accepted odds for a cache whose worst
/// failure is serving the report of the colliding trace. Hashing is the
/// whole per-request cost of a memoized answer, which is why it strides.
u64 fnv1a(const u8* data, size_t size) {
  u64 hash = 0xcbf29ce484222325ull;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    u64 word;
    std::memcpy(&word, data + i, 8);
    hash ^= word;
    hash *= 0x100000001b3ull;
  }
  for (; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kTimedOut: return "timed-out";
  }
  return "?";
}

struct Server::Impl {
  /// (content hash, byte count, kernel slice) — the identity replay
  /// results depend on. Replay is deterministic, so which worker ran a
  /// job does not matter.
  using TraceKey = std::tuple<u64, u64, i64>;
  /// (content hash, byte count) — quarantine identity: a poison pill is
  /// the byte image, whatever slice of it a job asked for.
  using ImageKey = std::pair<u64, u64>;

  struct Job {
    u64 id = 0;
    JobState state = JobState::kQueued;
    std::vector<u8> trace;  ///< moved out when the job starts running
    u64 hash = 0;           ///< content hash, computed once at submit
    u64 trace_size = 0;
    i64 kernel = -1;
    u32 deadline_ms = 0;  ///< 0 = no deadline
    steady_clock::time_point started{};  ///< set when the job starts running
    trace::CancelToken cancel;  ///< set by the watchdog at the deadline;
                                ///< safe here: map nodes never move
    std::string report;
    StatusCode error_code = StatusCode::kOk;
    std::string error;
  };

  /// Decode-once entry. The per-entry mutex serializes the first decode
  /// while letting unrelated traces decode concurrently; the server
  /// mutex is never held across a decode or replay.
  struct CacheEntry {
    std::mutex mu;
    bool ready = false;
    Status status;
    std::shared_ptr<const trace::DecodedTrace> decoded;
  };

  struct CacheSlot {
    std::shared_ptr<CacheEntry> entry;
    u64 last_used = 0;
    u64 footprint = 0;  ///< decoded bytes charged against max_memo_bytes;
                        ///< set (under mu) by the worker that decoded
  };

  struct MemoEntry {
    std::string report;
    u64 last_used = 0;
  };

  explicit Impl(const ServerConfig& cfg) : config(cfg), faults(cfg.faults) {
    if (config.workers == 0) config.workers = 1;
    if (config.watchdog_interval_ms == 0) config.watchdog_interval_ms = 1;
    for (u32 w = 0; w < config.workers; ++w)
      arenas.push_back(std::make_unique<trace::ReplayArena>());
    for (u32 w = 0; w < config.workers; ++w)
      threads.emplace_back([this, w] { worker(w); });
    watchdog_thread = std::thread([this] { watchdog(); });
  }

  ServerConfig config;
  fault::ServeFaults faults;  ///< thread-safe; rolls are stateless
  mutable std::mutex mu;
  std::condition_variable queue_cv;  ///< workers: queue non-empty or draining
  std::condition_variable done_cv;   ///< waiters: some job settled
  std::condition_variable watchdog_cv;  ///< watchdog: poll tick or stop
  bool accepting = true;
  bool draining = false;
  bool stop_watchdog = false;
  u64 next_id = 1;
  u64 submit_seq = 0;  ///< submit-attempt ordinal (queue-reject fault key)
  std::atomic<u64> frame_seq{0};  ///< frame ordinal (frame fault key)
  u32 active = 0;  ///< jobs currently being processed by a worker
  std::map<u64, Job> jobs;
  std::deque<u64> queue;
  std::map<TraceKey, CacheSlot> trace_cache;
  std::map<TraceKey, MemoEntry> memo;
  std::map<ImageKey, u32> fail_counts;  ///< worker-side failures per image
  std::vector<std::unique_ptr<trace::ReplayArena>> arenas;  ///< one per worker
  std::vector<std::thread> threads;
  std::thread watchdog_thread;

  // Counters (guarded by mu).
  u64 submitted = 0;
  u64 rejected = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 cancelled = 0;
  u64 timed_out = 0;
  u64 drain_cancelled = 0;
  u64 memo_hits = 0;
  u64 cache_hits = 0;
  u64 decodes = 0;
  u64 lru_tick = 0;
  u64 memo_bytes = 0;
  u64 cache_bytes = 0;
  u64 memo_evictions = 0;
  u64 cache_evictions = 0;
  u64 late_results = 0;    ///< worker results discarded after a watchdog settle
  u64 arena_recycles = 0;  ///< arenas rebuilt after a late result
  u64 quarantined = 0;     ///< trace images that crossed the failure threshold
  u64 quarantine_rejected = 0;  ///< submits refused because the image is poisoned

  static u64 memo_footprint(const std::string& report) { return report.size() + 64; }

  void settle(std::unique_lock<std::mutex>& lock, Job& job, JobState state) {
    job.state = state;
    switch (state) {
      case JobState::kDone: ++completed; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kCancelled: ++cancelled; break;
      case JobState::kTimedOut: ++timed_out; break;
      case JobState::kQueued:
      case JobState::kRunning: break;
    }
    lock.unlock();
    done_cv.notify_all();
    lock.lock();
  }

  bool is_quarantined(u64 hash, u64 size) const {
    if (config.quarantine_threshold == 0) return false;
    auto it = fail_counts.find(ImageKey{hash, size});
    return it != fail_counts.end() && it->second >= config.quarantine_threshold;
  }

  /// Record a worker-side failure of one image; crossing the threshold
  /// poisons it. Timeouts are deliberately not counted — they depend on
  /// the deadline a caller chose, not on the bytes.
  void note_failure(u64 hash, u64 size) {
    if (config.quarantine_threshold == 0) return;
    u32& count = fail_counts[ImageKey{hash, size}];
    if (count >= config.quarantine_threshold) return;
    if (++count == config.quarantine_threshold) ++quarantined;
  }

  /// Evict least-recently-used memo/cache entries until the combined
  /// footprint fits max_memo_bytes. The maps are small (tens of
  /// entries), so a linear scan per eviction beats the bookkeeping of an
  /// intrusive list. Never evicts the last remaining entry — the one
  /// just inserted is always allowed to exist.
  void maybe_evict() {
    while (memo_bytes + cache_bytes > config.max_memo_bytes &&
           memo.size() + trace_cache.size() > 1) {
      u64 best_tick = ~u64{0};
      auto best_memo = memo.end();
      auto best_cache = trace_cache.end();
      for (auto it = memo.begin(); it != memo.end(); ++it) {
        if (it->second.last_used < best_tick) {
          best_tick = it->second.last_used;
          best_memo = it;
          best_cache = trace_cache.end();
        }
      }
      for (auto it = trace_cache.begin(); it != trace_cache.end(); ++it) {
        if (it->second.last_used < best_tick) {
          best_tick = it->second.last_used;
          best_cache = it;
          best_memo = memo.end();
        }
      }
      if (best_cache != trace_cache.end()) {
        cache_bytes -= best_cache->second.footprint;
        trace_cache.erase(best_cache);
        ++cache_evictions;
      } else if (best_memo != memo.end()) {
        memo_bytes -= memo_footprint(best_memo->second.report);
        memo.erase(best_memo);
        ++memo_evictions;
      } else {
        return;  // both maps empty — nothing left to evict
      }
    }
  }

  Status decode(std::vector<u8> bytes, i64 kernel,
                std::shared_ptr<const trace::DecodedTrace>& out) {
    trace::TraceReader reader(std::move(bytes));
    auto decoded = std::make_shared<trace::DecodedTrace>();
    if (kernel < 0) {
      if (Status status = trace::decode_trace(reader, *decoded); !status.ok()) return status;
    } else {
      // The seek path: v2 traces use the file-carried index, v1 traces
      // fall back to a counted linear scan (trace/index.hpp).
      trace::TraceIndex index;
      if (Status status = trace::load_or_build_index(reader, index); !status.ok()) return status;
      if (static_cast<u64>(kernel) >= index.kernels.size())
        return Status::not_found("serve: trace has no kernel #" + std::to_string(kernel));
      if (Status status =
              trace::decode_trace_kernel(reader, index.kernels[static_cast<u64>(kernel)], *decoded);
          !status.ok())
        return status;
    }
    out = std::move(decoded);
    return Status();
  }

  /// Watchdog loop: at every tick, cancel running jobs past their
  /// deadline (the replay aborts cooperatively at the next granule
  /// batch) and hard-settle any still running past deadline + grace —
  /// the backstop for a worker that cannot observe the token (e.g. an
  /// injected stall). The worker discovers the settle when it returns
  /// (late_results) and recycles its arena.
  void watchdog() {
    std::unique_lock<std::mutex> lock(mu);
    while (!stop_watchdog) {
      watchdog_cv.wait_for(lock, milliseconds(config.watchdog_interval_ms),
                           [this] { return stop_watchdog; });
      if (stop_watchdog) return;
      const auto now = steady_clock::now();
      std::vector<u64> hard;
      for (auto& [id, job] : jobs) {
        if (job.state != JobState::kRunning || job.deadline_ms == 0) continue;
        const i64 elapsed =
            std::chrono::duration_cast<milliseconds>(now - job.started).count();
        if (elapsed >= static_cast<i64>(job.deadline_ms)) job.cancel.cancel();
        if (elapsed >= static_cast<i64>(job.deadline_ms) +
                           static_cast<i64>(config.deadline_grace_ms))
          hard.push_back(id);
      }
      // settle() drops the lock to notify, so re-check each candidate.
      for (u64 id : hard) {
        auto it = jobs.find(id);
        if (it == jobs.end() || it->second.state != JobState::kRunning) continue;
        it->second.error_code = StatusCode::kDeadlineExceeded;
        it->second.error = "serve: hard deadline exceeded (watchdog)";
        settle(lock, it->second, JobState::kTimedOut);
      }
    }
  }

  void worker(u32 index) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      queue_cv.wait(lock, [this] { return !queue.empty() || draining; });
      if (queue.empty()) return;  // draining and nothing left
      const u64 id = queue.front();
      queue.pop_front();
      Job& job = jobs.at(id);
      if (job.state != JobState::kQueued) continue;  // cancelled while queued
      job.state = JobState::kRunning;
      job.started = steady_clock::now();
      job.cancel.reset();
      ++active;
      std::vector<u8> bytes = std::move(job.trace);
      const i64 kernel = job.kernel;
      const u64 hash = job.hash;
      const u64 trace_size = bytes.size();
      const TraceKey key{hash, trace_size, kernel};

      // A memo entry may have landed between this job's submit-time memo
      // check and now (an identical job ahead of it in the queue).
      if (config.memoize) {
        auto hit = memo.find(key);
        if (hit != memo.end()) {
          ++memo_hits;
          hit->second.last_used = ++lru_tick;
          job.report = hit->second.report;
          --active;
          settle(lock, job, JobState::kDone);
          continue;
        }
      }

      auto [slot, inserted] = trace_cache.try_emplace(key);
      if (inserted) slot->second.entry = std::make_shared<CacheEntry>();
      slot->second.last_used = ++lru_tick;
      std::shared_ptr<CacheEntry> entry = slot->second.entry;
      lock.unlock();

      // Injected worker stall (chaos): burn wall-clock in cancellable
      // slices so the deadline machinery — not the stall — decides the
      // job's fate. Without a deadline the job simply finishes late.
      if (faults.roll(fault::FaultSite::kServeWorkerStall, id)) {
        const auto until = steady_clock::now() + milliseconds(config.fault_stall_ms);
        while (steady_clock::now() < until && !job.cancel.cancelled())
          std::this_thread::sleep_for(milliseconds(1));
      }

      // Crash containment: nothing in here may kill the worker. Decode
      // and replay are Status-returning by design; the catch blocks turn
      // anything that still throws into this job's kFailed.
      Status job_status;
      std::shared_ptr<const trace::DecodedTrace> decoded;
      bool decoded_here = false;
      u64 here_footprint = 0;
      std::string report;
      try {
        u64 pick = 0;
        if (faults.roll(fault::FaultSite::kServeDecodeCorrupt, id, &pick) && !bytes.empty())
          bytes[pick % bytes.size()] ^= static_cast<u8>(1u << ((pick >> 32) % 8));
        {
          std::lock_guard<std::mutex> entry_lock(entry->mu);
          if (!entry->ready) {
            entry->status = decode(std::move(bytes), kernel, entry->decoded);
            entry->ready = true;
            decoded_here = true;
            if (entry->decoded != nullptr)
              here_footprint = entry->decoded->events.size() * sizeof(trace::Event) +
                               sizeof(trace::DecodedTrace);
          }
          job_status = entry->status;
          decoded = entry->decoded;
        }
        if (job_status.ok()) {
          trace::ReplayOptions opts;
          opts.arena = arenas[index].get();
          opts.cancel = &job.cancel;
          const trace::ReplayResult result = trace::replay_decoded(*decoded, opts);
          if (result.ok)
            report = build_report_json(result);
          else
            job_status = result.status();
        }
      } catch (const std::exception& e) {
        job_status = Status::corrupt(std::string("serve: worker exception: ") + e.what());
      } catch (...) {
        job_status = Status::corrupt("serve: worker exception (non-standard)");
      }

      lock.lock();
      decoded_here ? ++decodes : ++cache_hits;
      if (decoded_here) {
        // The slot may have been evicted while we decoded; only charge
        // the footprint if our entry is still the resident one.
        auto it = trace_cache.find(key);
        if (it != trace_cache.end() && it->second.entry == entry) {
          it->second.footprint = here_footprint;
          cache_bytes += here_footprint;
          maybe_evict();
        }
      }
      --active;

      if (job.state != JobState::kRunning) {
        // The watchdog hard-settled this job while we were replaying:
        // the result is late. Drop it and rebuild this worker's arena —
        // an aborted replay leaves no state behind by construction, but
        // a recycled arena makes that a guarantee rather than an
        // invariant to trust after an injected stall.
        ++late_results;
        ++arena_recycles;
        lock.unlock();
        arenas[index] = std::make_unique<trace::ReplayArena>();
        lock.lock();
        continue;
      }

      if (job_status.ok()) {
        if (config.memoize) {
          auto [hit, fresh] = memo.try_emplace(key);
          if (fresh) {
            hit->second.report = report;
            memo_bytes += memo_footprint(report);
          }
          hit->second.last_used = ++lru_tick;
          maybe_evict();
        }
        job.report = std::move(report);
        settle(lock, job, JobState::kDone);
      } else if (job_status.code() == StatusCode::kDeadlineExceeded) {
        job.error_code = job_status.code();
        job.error = job_status.message();
        settle(lock, job, JobState::kTimedOut);
      } else {
        job.error_code = job_status.code();
        job.error = job_status.message();
        note_failure(hash, trace_size);
        settle(lock, job, JobState::kFailed);
      }
    }
  }
};

Server::Server(const ServerConfig& config) : impl_(std::make_unique<Impl>(config)) {}

Server::~Server() { shutdown(); }

Status Server::submit(const std::vector<u8>& trace_bytes, u32 workers, i64 kernel,
                      u32 deadline_ms, u64& job_id_out) {
  if (trace_bytes.empty()) return Status::invalid_argument("serve: empty trace");
  if (trace_bytes.size() > impl_->config.max_trace_bytes)
    return Status::invalid_argument("serve: trace exceeds the size cap");
  if (workers == 0 || workers > 64)
    return Status::invalid_argument("serve: workers must be 1..64");
  // Hash outside the lock: for a large trace this is the dominant cost
  // of a repeated submission and must not serialize the service.
  const u64 hash = fnv1a(trace_bytes.data(), trace_bytes.size());
  std::lock_guard<std::mutex> lock(impl_->mu);
  const u64 ordinal = impl_->submit_seq++;
  if (!impl_->accepting) {
    ++impl_->rejected;
    return Status::unavailable("serve: shutting down");
  }
  // Poison pill: an image that keeps failing is refused outright — it
  // must not consume queue slots, decode time, or retry budgets.
  if (impl_->is_quarantined(hash, trace_bytes.size())) {
    ++impl_->quarantine_rejected;
    return Status::corrupt("serve: trace image is quarantined after repeated failures");
  }
  // Memo fast path: a trace the service has already replayed is answered
  // at submit time — the job is born settled, never copies the trace,
  // never occupies a queue slot (so it is immune to queue-full
  // rejection: answering from cache needs no capacity).
  if (impl_->config.memoize) {
    auto hit = impl_->memo.find(Impl::TraceKey{hash, trace_bytes.size(), kernel});
    if (hit != impl_->memo.end()) {
      hit->second.last_used = ++impl_->lru_tick;
      const u64 id = impl_->next_id++;
      Impl::Job& job = impl_->jobs[id];
      job.id = id;
      job.hash = hash;
      job.trace_size = trace_bytes.size();
      job.kernel = kernel;
      job.state = JobState::kDone;
      job.report = hit->second.report;
      ++impl_->submitted;
      ++impl_->memo_hits;
      ++impl_->completed;
      job_id_out = id;
      return Status();
    }
  }
  // Injected queue-full burst (chaos): keyed by the submit ordinal, so
  // placement depends only on submission order, never on scheduling.
  if (impl_->faults.roll(fault::FaultSite::kServeQueueReject, ordinal)) {
    ++impl_->rejected;
    return Status::unavailable("serve: job queue is full, retry later");
  }
  if (impl_->queue.size() >= impl_->config.max_queue) {
    ++impl_->rejected;
    return Status::unavailable("serve: job queue is full, retry later");
  }
  const u64 id = impl_->next_id++;
  Impl::Job& job = impl_->jobs[id];
  job.id = id;
  job.trace = trace_bytes;  // the one copy a queued job pays
  job.hash = hash;
  job.trace_size = trace_bytes.size();
  job.kernel = kernel;
  job.deadline_ms = deadline_ms != 0 ? deadline_ms : impl_->config.default_deadline_ms;
  impl_->queue.push_back(id);
  ++impl_->submitted;
  impl_->queue_cv.notify_one();
  job_id_out = id;
  return Status();
}

Status Server::status(u64 job_id, JobInfo& out) const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end()) return Status::not_found("serve: no such job");
  out.id = job_id;
  out.state = it->second.state;
  out.error = it->second.error;
  return Status();
}

Status Server::result(u64 job_id, bool wait, std::string& json_out) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end()) return Status::not_found("serve: no such job");
  Impl::Job& job = it->second;
  if (wait) {
    impl_->done_cv.wait(lock, [&job] {
      return job.state != JobState::kQueued && job.state != JobState::kRunning;
    });
  }
  switch (job.state) {
    case JobState::kQueued:
    case JobState::kRunning:
      return Status::unavailable("serve: job still " +
                                 std::string(job_state_name(job.state)));
    case JobState::kCancelled:
      return Status::invalid_argument("serve: job was cancelled");
    case JobState::kTimedOut:
      return Status::deadline_exceeded(
          job.error.empty() ? "serve: job timed out" : job.error);
    case JobState::kFailed:
      return Status(job.error_code, job.error);
    case JobState::kDone:
      break;
  }
  json_out = job.report;
  return Status();
}

Status Server::cancel(u64 job_id) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  auto it = impl_->jobs.find(job_id);
  if (it == impl_->jobs.end()) return Status::not_found("serve: no such job");
  Impl::Job& job = it->second;
  if (job.state != JobState::kQueued)
    return Status::invalid_argument("serve: job is already " +
                                    std::string(job_state_name(job.state)));
  job.state = JobState::kCancelled;  // left in the deque; workers skip it
  job.trace.clear();
  job.trace.shrink_to_fit();
  ++impl_->cancelled;
  impl_->done_cv.notify_all();  // wake result(wait=true) callers on this job
  return Status();
}

std::string Server::stats_json() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  // Arena counters are read under mu: a worker recycling its arena
  // (replacing the unique_ptr) must not race this loop.
  u64 arena_reuses = 0;
  u64 arena_builds = 0;
  for (const auto& arena : impl_->arenas) {
    arena_reuses += arena->reuses();
    arena_builds += arena->builds();
  }
  std::string out = "{";
  auto field = [&out](const char* key, u64 value) {
    out += '"';
    out += key;
    out += "\": ";
    out += std::to_string(value);
    out += ", ";
  };
  field("workers", impl_->config.workers);
  field("max_queue", impl_->config.max_queue);
  field("queue_depth", impl_->queue.size());
  field("submitted", impl_->submitted);
  field("completed", impl_->completed);
  field("failed", impl_->failed);
  field("cancelled", impl_->cancelled);
  field("timed_out", impl_->timed_out);
  field("drain_cancelled", impl_->drain_cancelled);
  field("rejected", impl_->rejected);
  field("trace_decodes", impl_->decodes);
  field("trace_cache_hits", impl_->cache_hits);
  field("memo_hits", impl_->memo_hits);
  field("memo_bytes", impl_->memo_bytes);
  field("cache_bytes", impl_->cache_bytes);
  field("memo_evictions", impl_->memo_evictions);
  field("cache_evictions", impl_->cache_evictions);
  field("late_results", impl_->late_results);
  field("arena_recycles", impl_->arena_recycles);
  field("quarantined", impl_->quarantined);
  field("quarantine_rejected", impl_->quarantine_rejected);
  field("arena_reuses", arena_reuses);
  field("arena_builds", arena_builds);
  // Injected serving faults, non-zero sites only — a quiet (zero-rate)
  // server emits no fault fields at all.
  for (u32 i = fault::kFirstServeSite; i < fault::kNumFaultSites; ++i) {
    const auto site = static_cast<fault::FaultSite>(i);
    const u64 count = impl_->faults.injected(site);
    if (count == 0) continue;
    field(("fault." + std::string(fault::fault_site_key(site))).c_str(), count);
  }
  // Satellite stat: how often an index-less (v1) trace forced the
  // linear-scan fallback on the seek path (process-wide).
  out += "\"index_missing\": " + std::to_string(trace::index_missing_count()) + "}";
  return out;
}

void Server::shutdown(i64 drain_timeout_ms) {
  std::vector<std::thread> threads;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->accepting = false;
    if (drain_timeout_ms >= 0) {
      // Bounded drain: give the workers the budget, then settle whatever
      // is still queued as kCancelled. Running jobs always finish — a
      // worker is never killed mid-replay.
      const auto deadline = steady_clock::now() + milliseconds(drain_timeout_ms);
      impl_->done_cv.wait_until(lock, deadline, [this] {
        return impl_->queue.empty() && impl_->active == 0;
      });
      while (!impl_->queue.empty()) {
        const u64 id = impl_->queue.front();
        impl_->queue.pop_front();
        auto it = impl_->jobs.find(id);
        if (it == impl_->jobs.end() || it->second.state != JobState::kQueued) continue;
        it->second.trace.clear();
        it->second.trace.shrink_to_fit();
        it->second.error = "serve: cancelled by drain timeout";
        ++impl_->drain_cancelled;
        impl_->settle(lock, it->second, JobState::kCancelled);
      }
    }
    impl_->draining = true;
    threads = std::move(impl_->threads);
    impl_->threads.clear();
  }
  impl_->queue_cv.notify_all();
  for (std::thread& t : threads) t.join();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop_watchdog = true;
  }
  impl_->watchdog_cv.notify_all();
  if (impl_->watchdog_thread.joinable()) impl_->watchdog_thread.join();
}

Response Server::handle_request(const Request& request) {
  Response response;
  Status status;
  switch (request.verb) {
    case Verb::kSubmit: {
      u64 id = 0;
      status = submit(request.trace, /*workers=*/1, request.kernel, request.deadline_ms, id);
      if (status.ok()) {
        response.job_id = id;
        response.state = "queued";
      }
      break;
    }
    case Verb::kStatus: {
      JobInfo info;
      status = this->status(request.job_id, info);
      if (status.ok()) {
        response.job_id = info.id;
        response.state = std::string(job_state_name(info.state));
        response.body = info.error;
      }
      break;
    }
    case Verb::kResult: {
      std::string json;
      status = result(request.job_id, request.wait, json);
      if (status.ok()) {
        response.job_id = request.job_id;
        response.state = "done";
        response.body = std::move(json);
      }
      break;
    }
    case Verb::kCancel:
      status = cancel(request.job_id);
      if (status.ok()) {
        response.job_id = request.job_id;
        response.state = "cancelled";
      }
      break;
    case Verb::kStats:
      response.body = stats_json();
      break;
    case Verb::kShutdown:
      // Drain before answering: an OK here means every accepted job has
      // settled (kCancelled for jobs a drain timeout cut off) and its
      // result is queryable.
      shutdown(impl_->config.drain_timeout_ms);
      response.state = "drained";
      break;
  }
  if (status.ok()) {
    response.ok = true;
  } else {
    response.ok = false;
    response.code = status.code();
    response.body = status.message();
  }
  return response;
}

void Server::handle_frame(const u8* data, size_t size, std::vector<u8>& response_payload_out) {
  // Frame-level chaos: keyed by the frame ordinal, applied before the
  // parser ever sees the bytes. Truncation parses a prefix; corruption
  // flips one bit of a local copy — the caller's buffer is never
  // touched. Both must surface as ERR responses, never a crash or a
  // dropped connection (the parser fuzz suite holds that line).
  const u64 ordinal = impl_->frame_seq.fetch_add(1, std::memory_order_relaxed);
  std::vector<u8> mutated;
  u64 pick = 0;
  if (impl_->faults.roll(fault::FaultSite::kServeFrameTruncate, ordinal, &pick) && size > 0)
    size = pick % size;
  if (impl_->faults.roll(fault::FaultSite::kServeFrameCorrupt, ordinal, &pick) && size > 0) {
    mutated.assign(data, data + size);
    mutated[pick % size] ^= static_cast<u8>(1u << ((pick >> 32) % 8));
    data = mutated.data();
  }
  Request request;
  Response response;
  if (Status status = parse_request(data, size, request); !status.ok()) {
    response.ok = false;
    response.code = status.code();
    response.body = status.message();
  } else {
    response = handle_request(request);
  }
  response_payload_out.clear();
  encode_response(response, response_payload_out);
}

}  // namespace haccrg::serve
