// Serving throughput: what the trace-replay service buys over
// running live simulations. Per registry kernel this measures
//
//   1. the live combined-detection simulation (the number every client
//      would otherwise pay),
//   2. a cold served job — fresh server, empty caches, full decode +
//      serial replay through haccrg_serve, and
//   3. the aggregate steady state — many jobs over the same trace
//      through one server, where the decode cache, the pre-warmed
//      replay arenas and the report memo all earn their keep,
//
// and reports detection throughput (simulated kilocycles served per
// host second, KIPS) for each, plus the speedup over live. The
// aggregate number leans on memoization by design — a detection
// service answering repeated queries over recorded traces is the
// deployment model — so the memo hit rate is reported next to it
// rather than hidden. The cold column is the honest no-cache floor.
//
// A separate saturation phase drives a bounded queue past its capacity
// with replay (not memo) jobs: >= 1000 jobs queued at once, overflow
// rejected with kUnavailable, then a full drain with every accepted
// job accounted for.
//
//   bench_serving [--smoke] [--workers N] [--jobs N] [--json BENCH_serving.json]
//
// Exits 1 when served results diverge from the live race sets, when a
// drained job is lost, or (full mode) when the aggregate geomean
// speedup falls below 100x or saturation never reaches 1000 queued.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "serve/server.hpp"
#include "trace/index.hpp"
#include "trace/replay.hpp"

namespace {

using namespace haccrg;

std::vector<u8> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string s = buf.str();
  return std::vector<u8>(s.begin(), s.end());
}

/// Minimal scan for `"key": <number>` in JSON written by this repo.
f64 json_number(const std::string& text, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/// The LAST "unique_races" in a report is the totals section's.
i64 report_unique_races(const std::string& report) {
  size_t at = report.rfind("\"unique_races\":");
  if (at == std::string::npos) return -1;
  return static_cast<i64>(json_number(report, "unique_races", at));
}

f64 ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<f64, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct KernelPoint {
  std::string name;
  u64 cycles = 0;
  u64 races = 0;
  u64 trace_bytes = 0;
  f64 live_kips = 0.0;
  f64 cold_kips = 0.0;
  f64 aggregate_kips = 0.0;
  f64 cold_speedup = 0.0;
  f64 aggregate_speedup = 0.0;
  f64 memo_hit_rate = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace haccrg;

  bool smoke = false;
  u32 server_workers = 2;  ///< worker threads draining the queue
  u32 jobs_per_kernel = 32;
  bool jobs_explicit = false;
  std::string json_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) server_workers = static_cast<u32>(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const long v = std::strtol(argv[++i], nullptr, 10);
      if (v >= 1) {
        jobs_per_kernel = static_cast<u32>(v);
        jobs_explicit = true;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving [--smoke] [--workers N] [--jobs N] [--json FILE]\n");
      return 2;
    }
  }
  if (smoke && !jobs_explicit) jobs_per_kernel = 8;

  bench::print_header("Trace-replay serving throughput",
                      "the detection pipeline, served instead of simulated");

  // --- Corpus: live run + recorded v2 trace per kernel ----------------------
  struct TraceImage {
    std::string name;
    std::vector<u8> bytes;
  };
  std::vector<KernelPoint> points;
  std::vector<TraceImage> corpus;
  u32 kernel_count = 0;
  for (const auto& info : kernels::all_benchmarks()) {
    if (smoke && kernel_count == 3) break;
    ++kernel_count;

    KernelPoint pt;
    pt.name = info.name;
    const bench::TimedRun live = bench::run_benchmark_timed(info.name, bench::detection_combined());
    pt.cycles = live.result.cycles;
    pt.races = live.result.races.unique();
    pt.live_kips = live.kilocycles_per_sec;

    const std::string trace_path = std::string("bench_serving_") + info.name + ".trc";
    sim::SimConfig rec_cfg = sim::SimConfig::from_env();
    rec_cfg.trace_path = trace_path;
    rec_cfg.trace_index = true;  // v2: the server replays slices via the index
    const bench::TimedRun recorded =
        bench::run_benchmark_timed(info.name, bench::detection_combined(), {}, rec_cfg);
    if (recorded.result.cycles != live.result.cycles) {
      std::fprintf(stderr, "%s: tracing changed the simulation\n", info.name.c_str());
      return 1;
    }
    TraceImage img;
    img.name = info.name;
    img.bytes = read_bytes(trace_path);
    std::remove(trace_path.c_str());
    if (img.bytes.empty()) {
      std::fprintf(stderr, "%s: recorded trace is empty\n", info.name.c_str());
      return 1;
    }
    pt.trace_bytes = img.bytes.size();
    corpus.push_back(std::move(img));
    points.push_back(std::move(pt));
  }

  // --- Cold + aggregate served throughput per kernel ------------------------
  for (size_t k = 0; k < points.size(); ++k) {
    KernelPoint& pt = points[k];
    serve::ServerConfig cfg;
    cfg.workers = server_workers;
    cfg.max_queue = jobs_per_kernel + 8;
    serve::Server server(cfg);

    // Cold: empty decode cache, empty memo, cold arenas.
    const auto t_cold = std::chrono::steady_clock::now();
    u64 first_id = 0;
    Status st = server.submit(corpus[k].bytes, /*workers=*/1, /*kernel=*/-1, first_id);
    std::string report;
    if (st.ok()) st = server.result(first_id, /*wait=*/true, report);
    if (!st.ok()) {
      std::fprintf(stderr, "%s: cold served job failed: %s\n", pt.name.c_str(),
                   st.message().c_str());
      return 1;
    }
    const f64 cold_ms = ms_since(t_cold);

    const i64 served_races = report_unique_races(report);
    if (served_races != static_cast<i64>(pt.races)) {
      std::fprintf(stderr, "%s: served report has %lld unique races, live run had %llu\n",
                   pt.name.c_str(), static_cast<long long>(served_races),
                   static_cast<unsigned long long>(pt.races));
      return 1;
    }

    // Aggregate: the same trace resubmitted jobs_per_kernel times. After
    // the first decode+replay the service answers from the memo; that IS
    // the serving steady state, and the hit rate below says so.
    const auto t_agg = std::chrono::steady_clock::now();
    std::vector<u64> ids;
    for (u32 j = 0; j < jobs_per_kernel; ++j) {
      u64 id = 0;
      st = server.submit(corpus[k].bytes, 1, -1, id);
      if (!st.ok()) {
        std::fprintf(stderr, "%s: aggregate submit %u failed: %s\n", pt.name.c_str(), j,
                     st.message().c_str());
        return 1;
      }
      ids.push_back(id);
    }
    for (const u64 id : ids) {
      std::string r;
      st = server.result(id, true, r);
      if (!st.ok() || r != report) {
        std::fprintf(stderr, "%s: aggregate job %llu diverged from the cold report\n",
                     pt.name.c_str(), static_cast<unsigned long long>(id));
        return 1;
      }
    }
    const f64 agg_ms = ms_since(t_agg);

    const std::string stats = server.stats_json();
    const f64 memo_hits = json_number(stats, "memo_hits");
    pt.memo_hit_rate =
        jobs_per_kernel > 0 ? (memo_hits < 0.0 ? 0.0 : memo_hits) / jobs_per_kernel : 0.0;
    pt.cold_kips = cold_ms > 0.0 ? static_cast<f64>(pt.cycles) / cold_ms : 0.0;
    pt.aggregate_kips =
        agg_ms > 0.0 ? static_cast<f64>(pt.cycles) * jobs_per_kernel / agg_ms : 0.0;
    pt.cold_speedup = pt.live_kips > 0.0 ? pt.cold_kips / pt.live_kips : 0.0;
    pt.aggregate_speedup = pt.live_kips > 0.0 ? pt.aggregate_kips / pt.live_kips : 0.0;
    server.shutdown();
  }

  TablePrinter table({"Benchmark", "TraceKB", "LiveKIPS", "ColdKIPS", "AggKIPS", "Cold x",
                      "Agg x", "MemoHit"});
  std::vector<f64> cold_speedups, agg_speedups;
  for (const KernelPoint& pt : points) {
    table.add_row({pt.name, std::to_string(pt.trace_bytes / 1024),
                   TablePrinter::fmt(pt.live_kips, 0), TablePrinter::fmt(pt.cold_kips, 0),
                   TablePrinter::fmt(pt.aggregate_kips, 0),
                   TablePrinter::fmt(pt.cold_speedup, 1),
                   TablePrinter::fmt(pt.aggregate_speedup, 1),
                   TablePrinter::fmt(pt.memo_hit_rate, 2)});
    cold_speedups.push_back(pt.cold_speedup);
    agg_speedups.push_back(pt.aggregate_speedup);
  }
  const f64 cold_geo = geomean(cold_speedups);
  const f64 agg_geo = geomean(agg_speedups);
  table.add_row({"GEOMEAN", "-", "-", "-", "-", TablePrinter::fmt(cold_geo, 1),
                 TablePrinter::fmt(agg_geo, 1), "-"});
  table.print();
  std::printf("\naggregate geomean speedup: %.1fx (target >= 100x), cold floor %.1fx\n",
              agg_geo, cold_geo);

  // --- Saturation: a bounded queue past capacity, then a full drain ---------
  // Replay jobs (memo off) against a small scale-1 trace so the queue
  // genuinely backs up: submission is a memcpy, draining is real work.
  const u32 sat_capacity = smoke ? 48 : 1100;
  const u32 sat_submissions = smoke ? 80 : 1300;
  const std::string sat_path = "bench_serving_saturation.trc";
  {
    sim::SimConfig cfg = sim::SimConfig::from_env();
    cfg.trace_path = sat_path;
    cfg.trace_index = true;
    sim::Gpu gpu(bench::experiment_gpu(), bench::detection_combined(), cfg);
    kernels::PreparedKernel prep = kernels::find_benchmark("REDUCE")->prepare(gpu, {});
    const sim::SimResult r = gpu.launch(prep.launch());
    if (!r.completed) {
      std::fprintf(stderr, "saturation trace recording failed: %s\n", r.error.c_str());
      return 1;
    }
  }
  std::vector<u8> sat_trace = read_bytes(sat_path);
  std::remove(sat_path.c_str());

  u64 accepted = 0, rejected = 0, lost = 0;
  f64 peak_queue = 0.0, drain_ms = 0.0, drain_jobs_per_sec = 0.0;
  {
    serve::ServerConfig cfg;
    cfg.workers = server_workers;
    cfg.max_queue = sat_capacity;
    cfg.memoize = false;  // every accepted job replays; nothing is absorbed
    serve::Server server(cfg);
    std::vector<u64> ids;
    const auto t0 = std::chrono::steady_clock::now();
    for (u32 j = 0; j < sat_submissions; ++j) {
      u64 id = 0;
      const Status st = server.submit(sat_trace, 1, -1, id);
      if (st.ok()) {
        ids.push_back(id);
        ++accepted;
      } else if (st.code() == StatusCode::kUnavailable) {
        ++rejected;
      } else {
        std::fprintf(stderr, "saturation submit failed oddly: %s\n", st.message().c_str());
        return 1;
      }
      if ((j + 1) % 64 == 0 || j + 1 == sat_submissions) {
        const f64 depth = json_number(server.stats_json(), "queue_depth");
        if (depth > peak_queue) peak_queue = depth;
      }
    }
    server.shutdown();  // drain: every accepted job still completes
    drain_ms = ms_since(t0);
    for (const u64 id : ids) {
      std::string r;
      if (!server.result(id, false, r).ok()) ++lost;
    }
    drain_jobs_per_sec = drain_ms > 0.0 ? accepted * 1000.0 / drain_ms : 0.0;
  }
  std::printf("saturation: %llu accepted, %llu rejected (kUnavailable), peak queue %.0f, "
              "drained in %.0f ms (%.0f jobs/s), %llu lost\n",
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected), peak_queue, drain_ms,
              drain_jobs_per_sec, static_cast<unsigned long long>(lost));
  if (lost > 0) {
    std::fprintf(stderr, "FAIL: %llu accepted jobs have no result after the drain\n",
                 static_cast<unsigned long long>(lost));
    return 1;
  }

  // --- JSON ------------------------------------------------------------------
  std::ofstream json(json_path, std::ios::trunc);
  if (json.good()) {
    json << "{\n  \"bench\": \"serving\",\n  "
         << bench::host_concurrency_json(server_workers)
         << ",\n  \"smoke\": " << (smoke ? "true" : "false")
         << ",\n  \"server_workers\": " << server_workers
         << ",\n  \"jobs_per_kernel\": " << jobs_per_kernel
         << ",\n  \"geomean_cold_speedup\": " << cold_geo
         << ",\n  \"geomean_aggregate_speedup\": " << agg_geo
         << ",\n  \"index_missing\": " << trace::index_missing_count()
         << ",\n  \"saturation\": {\"capacity\": " << sat_capacity
         << ", \"submissions\": " << sat_submissions << ", \"accepted\": " << accepted
         << ", \"rejected\": " << rejected << ", \"peak_queue\": " << peak_queue
         << ", \"drain_ms\": " << drain_ms << ", \"jobs_per_sec\": " << drain_jobs_per_sec
         << ", \"lost\": " << lost << "},\n  \"kernels\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const KernelPoint& pt = points[i];
      json << "    {\"name\": \"" << pt.name << "\", \"sim_cycles\": " << pt.cycles
           << ", \"races\": " << pt.races << ", \"trace_bytes\": " << pt.trace_bytes
           << ", \"live_kips\": " << pt.live_kips << ", \"cold_kips\": " << pt.cold_kips
           << ", \"aggregate_kips\": " << pt.aggregate_kips
           << ", \"cold_speedup\": " << pt.cold_speedup
           << ", \"aggregate_speedup\": " << pt.aggregate_speedup
           << ", \"memo_hit_rate\": " << pt.memo_hit_rate << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
  }

  // Smoke verifies the plumbing; the full run enforces the headline.
  if (!smoke) {
    if (agg_geo < 100.0) {
      std::fprintf(stderr, "FAIL: aggregate geomean speedup %.1fx below the 100x target\n",
                   agg_geo);
      return 1;
    }
    if (peak_queue < 1000.0) {
      std::fprintf(stderr, "FAIL: saturation peaked at %.0f queued jobs (< 1000)\n",
                   peak_queue);
      return 1;
    }
  }
  if (rejected == 0) {
    std::fprintf(stderr, "FAIL: overload never rejected a submission\n");
    return 1;
  }
  return 0;
}
