// Live-pipeline hot-path throughput: runs the full ten-kernel suite
// through the live cycle-level simulator (combined shared+global
// detection — the heaviest configuration every experiment pays for) and
// reports host wall time plus simulated kilocycles per second (KIPS) per
// kernel and as a geometric mean. This is the figure of merit for the
// allocation-free hot-path work: the trace replayer proves the detection
// math itself is cheap, so whatever the live path loses on top of it is
// simulator overhead. Each kernel's Gpu construction time (`gpu_init_ms`)
// is reported beside it: it is outside the timed launch and KIPS, but a
// user pays it on every job.
//
//   bench_hotpath [--json BENCH_hotpath.json]
//                 [--baseline scripts/perf_baseline.json]
//                 [--write-baseline scripts/perf_baseline.json]
//                 [--max-regress 0.25]
//
// With --baseline, the per-kernel and geomean KIPS of the baseline file
// are embedded in the JSON as the "before" numbers and the speedup is
// printed. With --max-regress R the process exits 1 when the measured
// geomean KIPS falls more than R below the baseline's (the perf-smoke
// gate). Set HACCRG_PROFILE=1 to append the engine's per-phase cycle
// budget to the report.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"

namespace {

using namespace haccrg;

/// Minimal scan for `"key": <number>` in a JSON file written by this
/// binary (or a hand-maintained baseline). Returns 0.0 when absent.
f64 json_number(const std::string& text, const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return {};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct KernelPoint {
  std::string name;
  u64 cycles = 0;
  f64 wall_ms = 0.0;
  f64 kips = 0.0;
  f64 gpu_init_ms = 0.0;
  f64 baseline_kips = 0.0;  ///< 0 when no baseline was given
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_hotpath.json";
  std::string baseline_path;
  std::string write_baseline_path;
  f64 max_regress = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--write-baseline") == 0 && i + 1 < argc) {
      write_baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
      max_regress = std::strtod(argv[++i], nullptr);
    }
  }

  bench::print_header("Live hot-path throughput (KIPS)", "the simulation substrate of Figs. 7-9");

  const std::string baseline_text = read_file(baseline_path);
  if (!baseline_path.empty() && baseline_text.empty()) {
    std::fprintf(stderr, "warning: baseline %s unreadable; reporting without it\n",
                 baseline_path.c_str());
  }

  std::vector<KernelPoint> points;
  std::vector<f64> kips_values, speedups;
  for (const auto& info : kernels::all_benchmarks()) {
    const bench::TimedRun run = bench::run_benchmark_timed(info.name, bench::detection_combined());
    KernelPoint pt;
    pt.name = info.name;
    pt.cycles = run.result.cycles;
    pt.wall_ms = run.wall_ms;
    pt.kips = run.kilocycles_per_sec;
    pt.gpu_init_ms = run.gpu_init_ms;
    if (!baseline_text.empty()) {
      // Per-kernel baselines live as {"name": "X", ... "kips": N} entries.
      const size_t at = baseline_text.find("\"" + pt.name + "\"");
      if (at != std::string::npos) pt.baseline_kips = json_number(baseline_text, "kips", at);
    }
    points.push_back(pt);
    kips_values.push_back(pt.kips);
    if (pt.baseline_kips > 0.0) speedups.push_back(pt.kips / pt.baseline_kips);
  }

  const f64 geo = geomean(kips_values);
  const f64 baseline_geo =
      baseline_text.empty() ? 0.0 : json_number(baseline_text, "geomean_kips");

  TablePrinter table(
      {"Benchmark", "Cycles", "Gpu init ms", "Wall ms", "KIPS", "Before", "Speedup"});
  for (const KernelPoint& pt : points) {
    table.add_row({pt.name, std::to_string(pt.cycles), TablePrinter::fmt(pt.gpu_init_ms, 2),
                   TablePrinter::fmt(pt.wall_ms, 1), TablePrinter::fmt(pt.kips, 0),
                   pt.baseline_kips > 0.0 ? TablePrinter::fmt(pt.baseline_kips, 0) : "-",
                   pt.baseline_kips > 0.0 ? TablePrinter::fmt(pt.kips / pt.baseline_kips, 2)
                                          : "-"});
  }
  table.add_row({"GEOMEAN", "-", "-", "-", TablePrinter::fmt(geo, 0),
                 baseline_geo > 0.0 ? TablePrinter::fmt(baseline_geo, 0) : "-",
                 baseline_geo > 0.0 ? TablePrinter::fmt(geo / baseline_geo, 2) : "-"});
  table.print();

  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::printf("\nhost hardware threads: %u\n", hw_threads);
  if (baseline_geo > 0.0)
    std::printf("geomean KIPS vs baseline: %.0f / %.0f = %.2fx\n", geo, baseline_geo,
                geo / baseline_geo);

  auto dump = [&](const std::string& path, bool with_baseline) {
    std::ofstream json(path, std::ios::trunc);
    if (!json.good()) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return;
    }
    json << "{\n  \"bench\": \"hotpath\",\n";
    json << "  " << bench::host_concurrency_json() << ",\n";
    json << "  \"kernels\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const KernelPoint& pt = points[i];
      json << "    {\"name\": \"" << pt.name << "\", \"cycles\": " << pt.cycles
           << ", \"wall_ms\": " << pt.wall_ms << ", \"kips\": " << pt.kips
           << ", \"gpu_init_ms\": " << pt.gpu_init_ms;
      if (with_baseline && pt.baseline_kips > 0.0) {
        json << ", \"before_kips\": " << pt.baseline_kips
             << ", \"speedup\": " << pt.kips / pt.baseline_kips;
      }
      json << "}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    json << "  \"geomean_kips\": " << geo;
    if (with_baseline && baseline_geo > 0.0) {
      json << ",\n  \"before_geomean_kips\": " << baseline_geo;
      json << ",\n  \"geomean_speedup\": " << geo / baseline_geo;
    }
    json << "\n}\n";
    std::printf("wrote %s\n", path.c_str());
  };

  dump(json_path, /*with_baseline=*/true);
  if (!write_baseline_path.empty()) dump(write_baseline_path, /*with_baseline=*/false);

  if (max_regress >= 0.0 && baseline_geo > 0.0 && geo < baseline_geo * (1.0 - max_regress)) {
    std::fprintf(stderr, "PERF REGRESSION: geomean KIPS %.0f is more than %.0f%% below baseline %.0f\n",
                 geo, max_regress * 100.0, baseline_geo);
    return 1;
  }
  return 0;
}
