// Figure 7: execution time with HAccRG enabled, normalized to the
// unmodified GPU. The paper reports a ~1% geometric-mean overhead for
// shared-memory-only detection and ~27% for combined shared+global
// detection (shadow traffic sharing the L2/DRAM with the application).
//
// This binary is also the engine-speedup harness: a second section sweeps
// the worker-thread count over the full combined-detection suite, reports
// wall-clock time and simulated kilocycles per second (KIPS) per setting,
// and writes the sweep to BENCH_parallel.json so the speedup trajectory is
// tracked across PRs. The simulated cycle counts are asserted identical
// across the sweep — the determinism guarantee, checked here one more time
// on the experiment-sized machine rather than the test one.
//
//   bench_fig7_performance [--threads 1,2,4,8] [--json BENCH_parallel.json]
//
// Flags are strict: an unknown flag, a stray positional argument, a flag
// without its value or a --threads entry outside 1..kMaxThreads exits 2.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"

namespace {

/// Comma-separated worker counts; empty when any entry is not an integer
/// in 1..kMaxThreads.
std::vector<haccrg::u32> parse_thread_list(const char* arg) {
  std::vector<haccrg::u32> out;
  std::string s(arg);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (item.empty() || *end != '\0' || v < 1 ||
        v > static_cast<long>(haccrg::sim::SimConfig::kMaxThreads))
      return {};
    out.push_back(static_cast<haccrg::u32>(v));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace haccrg;

  std::vector<u32> thread_counts = {1, 2, 4, 8};
  std::string json_path = "BENCH_parallel.json";
  auto usage = [] {
    std::fprintf(stderr, "usage: bench_fig7_performance [--threads 1,2,4,8] [--json FILE]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = parse_thread_list(argv[++i]);
      if (thread_counts.empty()) return usage();
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      return usage();
    }
  }

  bench::print_header("Figure 7 — normalized execution time", "Figure 7");

  TablePrinter table({"Benchmark", "BaseCycles", "Shared-only", "Shared+Global", "KIPS"});
  std::vector<f64> shared_ratios, combined_ratios;
  for (const auto& info : kernels::all_benchmarks()) {
    const sim::SimResult base = bench::run_benchmark(info.name, bench::detection_off());
    const sim::SimResult shared =
        bench::run_benchmark(info.name, bench::detection_shared_only());
    const bench::TimedRun combined =
        bench::run_benchmark_timed(info.name, bench::detection_combined());
    const f64 s = static_cast<f64>(shared.cycles) / static_cast<f64>(base.cycles);
    const f64 c = static_cast<f64>(combined.result.cycles) / static_cast<f64>(base.cycles);
    shared_ratios.push_back(s);
    combined_ratios.push_back(c);
    table.add_row({info.name, std::to_string(base.cycles), TablePrinter::fmt(s, 3),
                   TablePrinter::fmt(c, 3), TablePrinter::fmt(combined.kilocycles_per_sec, 0)});
  }
  table.add_row({"GEOMEAN", "-", TablePrinter::fmt(geomean(shared_ratios), 3),
                 TablePrinter::fmt(geomean(combined_ratios), 3), "-"});
  table.print();
  std::printf("\nPaper: shared-only geomean ~1.01, shared+global geomean ~1.27\n");

  // --- Engine speedup sweep -------------------------------------------
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("\n=== Parallel engine throughput (combined detection, full suite) ===\n");
  std::printf("host hardware threads: %u\n\n", hw_threads);

  struct SweepPoint {
    u32 threads;
    f64 wall_ms;
    f64 kips;
    u64 sim_cycles;
  };
  std::vector<SweepPoint> sweep;
  for (u32 threads : thread_counts) {
    sim::SimConfig sim_cfg;
    sim_cfg.num_threads = threads;
    SweepPoint pt{threads, 0.0, 0.0, 0};
    for (const auto& info : kernels::all_benchmarks()) {
      const bench::TimedRun run =
          bench::run_benchmark_timed(info.name, bench::detection_combined(), {}, sim_cfg);
      pt.wall_ms += run.wall_ms;
      pt.sim_cycles += run.result.cycles;
    }
    pt.kips = pt.wall_ms > 0.0 ? static_cast<f64>(pt.sim_cycles) / pt.wall_ms : 0.0;
    sweep.push_back(pt);
  }

  TablePrinter sweep_table({"Threads", "Wall ms", "KIPS", "Speedup", "Oversub"});
  bool any_oversubscribed = false;
  for (const SweepPoint& pt : sweep) {
    if (pt.sim_cycles != sweep.front().sim_cycles) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: %u threads retired %llu cycles, 1 thread %llu\n",
                   pt.threads, static_cast<unsigned long long>(pt.sim_cycles),
                   static_cast<unsigned long long>(sweep.front().sim_cycles));
      return 1;
    }
    const bool oversubscribed = hw_threads > 0 && pt.threads > hw_threads;
    any_oversubscribed = any_oversubscribed || oversubscribed;
    sweep_table.add_row({std::to_string(pt.threads), TablePrinter::fmt(pt.wall_ms, 1),
                         TablePrinter::fmt(pt.kips, 0),
                         TablePrinter::fmt(sweep.front().wall_ms / pt.wall_ms, 2),
                         oversubscribed ? "yes" : "-"});
  }
  sweep_table.print();
  if (any_oversubscribed) {
    std::printf("\nWARNING: sweep points above %u worker threads oversubscribe this host's\n"
                "hardware concurrency; their wall-clock/KIPS numbers measure scheduler\n"
                "contention, not engine scaling, and should not be quoted as speedup.\n",
                hw_threads);
  }
  std::printf("\nSimulated cycles identical across all thread counts: %llu total.\n",
              static_cast<unsigned long long>(sweep.front().sim_cycles));
  if (hw_threads <= 1) {
    std::printf("NOTE: this host exposes a single hardware thread; speedup > 1 is not\n"
                "reachable here and the sweep only demonstrates determinism + overhead.\n");
  }

  std::ofstream json(json_path, std::ios::trunc);
  if (json.good()) {
    json << "{\n  \"bench\": \"fig7_parallel_sweep\",\n";
    json << "  \"host_hardware_threads\": " << hw_threads << ",\n";
    json << "  \"oversubscribed\": " << (any_oversubscribed ? "true" : "false") << ",\n";
    json << "  \"sim_cycles_total\": " << sweep.front().sim_cycles << ",\n";
    json << "  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& pt = sweep[i];
      json << "    {\"threads\": " << pt.threads << ", \"wall_ms\": " << pt.wall_ms
           << ", \"kips\": " << pt.kips
           << ", \"speedup\": " << (sweep.front().wall_ms / pt.wall_ms)
           << ", \"oversubscribed\": "
           << ((hw_threads > 0 && pt.threads > hw_threads) ? "true" : "false") << "}"
           << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", json_path.c_str());
  }
  return 0;
}
