// Inputs, live jobs and small helpers shared by every workload.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/rng.hpp"
#include "perfbench.hpp"
#include "sim/gpu.hpp"

namespace perfbench {

void SpanLog::record(u64 id, const char* name, u64 parent, u64 job, Clock::time_point start,
                     Clock::time_point end, const std::string& label) {
  if (!enabled_) return;
  const auto ns = [this](Clock::time_point t) {
    return static_cast<i64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
  };
  spans_.push_back(Span{id, parent, job, name, label, ns(start), ns(end)});
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"id\": %llu, \"parent\": %llu, \"job\": %llu, \"name\": \"%s\", "
                 "\"label\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job), s.name, s.label.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

haccrg::arch::GpuConfig table1_gpu() {
  haccrg::arch::GpuConfig cfg;  // defaults follow the paper's Table I
  cfg.device_mem_bytes = 64u * 1024u * 1024u;
  return cfg;
}

haccrg::rd::HaccrgConfig detection_combined() {
  haccrg::rd::HaccrgConfig cfg;
  cfg.enable_shared = true;
  cfg.enable_global = true;
  cfg.shared_granularity = 16;
  cfg.global_granularity = 4;
  return cfg;
}

haccrg::rd::HaccrgConfig detection_off() { return haccrg::rd::HaccrgConfig{}; }

const std::vector<haccrg::kernels::BenchmarkInfo>& suite() {
  return haccrg::kernels::all_benchmarks();
}

JobOrder::JobOrder(u32 seed, u32 kernels)
    : state_(haccrg::kernels::mix_seed(0x6a6f626f72646572ULL, seed)), kernels_(kernels) {}

u64 JobOrder::next_random() {
  haccrg::SplitMix64 rng(state_);
  const u64 value = rng.next();
  state_ += 0x9e3779b97f4a7c15ULL;
  return value;
}

std::vector<u32> JobOrder::next_pass() {
  std::vector<u32> pass(kernels_);
  // Rejection-sample a Fisher-Yates permutation until no kernel repeats
  // too close to its slot in the previous pass (~1 in 8 draws passes for
  // ten kernels; the bound only guards against a degenerate suite).
  for (u32 attempt = 0; attempt < 100000; ++attempt) {
    for (u32 i = 0; i < kernels_; ++i) pass[i] = i;
    for (u32 i = kernels_; i > 1; --i) std::swap(pass[i - 1], pass[next_random() % i]);
    bool spaced = true;
    for (u32 j = 0; j < last_.size() && spaced; ++j) {
      const u32 i = static_cast<u32>(std::find(pass.begin(), pass.end(), last_[j]) - pass.begin());
      spaced = (kernels_ - j) + i >= kMinRepeatDistance;
    }
    if (spaced) break;
  }
  last_ = pass;
  return pass;
}

LiveRun run_live(const LiveSpec& spec, SpanLog& spans, u64 job) {
  LiveRun run;
  haccrg::sim::SimConfig sim_cfg;
  sim_cfg.num_threads = spec.threads;
  sim_cfg.profile = spec.profile;
  sim_cfg.trace_path = spec.trace_path;
  sim_cfg.trace_index = !spec.trace_path.empty();
  haccrg::kernels::BenchOptions opts;
  opts.scale = kScale;
  opts.seed = spec.seed;

  const Clock::time_point t0 = Clock::now();
  haccrg::sim::Gpu gpu(table1_gpu(), spec.detect ? detection_combined() : detection_off(),
                       sim_cfg);
  const Clock::time_point t1 = Clock::now();
  const haccrg::kernels::PreparedKernel prep = spec.kernel->prepare(gpu, opts);
  const Clock::time_point t2 = Clock::now();
  haccrg::sim::SimResult result = gpu.launch(prep.launch());
  const Clock::time_point t3 = Clock::now();

  const u64 job_span = spans.reserve();
  spans.add("sim.gpu_init", job_span, job, t0, t1);
  spans.add("kernels.prepare", job_span, job, t1, t2);
  spans.add("sim.launch", job_span, job, t2, t3);
  spans.record(job_span, "sim.job", 0, job, t0, t3, spec.kernel->name);
  run.init_ms = ms_between(t0, t1);
  run.prepare_ms = ms_between(t1, t2);
  run.launch_ms = ms_between(t2, t3);
  run.job_ms = ms_between(t0, t3);

  if (!result.completed || !result.error.empty()) {
    run.error = spec.kernel->name + ": launch failed: " + result.error;
    return run;
  }
  if (spec.verify && prep.verify) {
    std::string msg;
    if (!prep.verify(gpu.memory(), &msg)) {
      run.error = spec.kernel->name + ": wrong kernel output: " + msg;
      return run;
    }
  }
  if (!spec.trace_path.empty() &&
      (gpu.trace_writer() == nullptr || !gpu.trace_writer()->finish())) {
    run.error = spec.kernel->name + ": trace recording failed";
    return run;
  }
  run.cycles = result.cycles;
  run.unique_races = result.races.unique();
  run.races = haccrg::trace::race_identity_set(result.races);
  run.dram_util = result.avg_dram_utilization;
  run.stats = std::move(result.stats);
  run.ok = true;
  return run;
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<u8>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

f64 json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

i64 report_unique_races(const std::string& report) {
  const std::string needle = "\"unique_races\":";
  const size_t pos = report.rfind(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(report.c_str() + pos + needle.size(), nullptr, 10);
}

f64 percentile(std::vector<f64> values, f64 p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const f64 pos = p * static_cast<f64>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<f64>(lo)) * (values[hi] - values[lo]);
}

f64 harrell_davis(std::vector<f64> values, f64 p) {
  const size_t n = values.size();
  if (n < 2) return n == 0 ? 0.0 : values[0];
  std::sort(values.begin(), values.end());
  const f64 a = p * static_cast<f64>(n + 1);
  const f64 b = (1.0 - p) * static_cast<f64>(n + 1);
  const f64 log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  // Weight of order statistic i: the Beta density's mass on
  // [i/n, (i+1)/n], by the midpoint rule; the sum of the weights
  // normalises away the rule's error.
  constexpr u32 kSteps = 16;
  const f64 h = 1.0 / static_cast<f64>(n * kSteps);
  f64 weighted = 0.0, total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    f64 w = 0.0;
    for (u32 k = 0; k < kSteps; ++k) {
      const f64 x = (static_cast<f64>(i * kSteps + k) + 0.5) * h;
      w += std::exp(log_norm + (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x));
    }
    weighted += w * values[i];
    total += w;
  }
  return weighted / total;
}

Summary summarize(const Phase& phase) {
  u64 cycles = 0;
  std::vector<f64> ms;
  for (const JobSample& job : phase.samples) {
    cycles += job.cycles;
    ms.push_back(job.ms);
  }
  Summary s;
  if (phase.seconds > 0.0) s.kips = static_cast<f64>(cycles) / phase.seconds / 1000.0;
  s.p50_ms = harrell_davis(ms, 0.5);
  s.p90_ms = harrell_davis(ms, 0.9);
  return s;
}

}  // namespace perfbench
