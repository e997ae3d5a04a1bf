#include "arch/config.hpp"

#include <sstream>

namespace haccrg::arch {

std::string GpuConfig::validate() const {
  auto fail = [](const char* msg) { return std::string(msg); };
  if (!is_pow2(warp_size)) return fail("warp_size must be a power of two");
  // Lane masks are 32-bit words and the scheduler's ready-warp mask is 64.
  if (warp_size > 32) return fail("warp_size must be at most 32");
  if (simd_width == 0 || warp_size % simd_width != 0)
    return fail("warp_size must be a multiple of simd_width");
  if (max_threads_per_sm % warp_size != 0)
    return fail("max_threads_per_sm must be a multiple of warp_size");
  if (warps_per_sm() > 64) return fail("warps_per_sm must be at most 64");
  if (!is_pow2(shared_mem_banks)) return fail("shared_mem_banks must be a power of two");
  if (!is_pow2(l1_line) || !is_pow2(l2_line)) return fail("cache lines must be powers of two");
  if (l1_size % (l1_ways * l1_line) != 0) return fail("l1 size/ways/line mismatch");
  if (l2_slice_size % (l2_ways * l2_line) != 0) return fail("l2 size/ways/line mismatch");
  if (num_mem_partitions == 0 || num_sms == 0) return fail("need at least one SM and partition");
  if (max_blocks_per_sm == 0) return fail("max_blocks_per_sm must be positive");
  return {};
}

std::string GpuConfig::describe() const {
  std::ostringstream out;
  out << "# SMs / GPU Clusters          : " << num_sms << " / " << num_clusters << "\n"
      << "SIMD Pipeline Width / Warp    : " << simd_width << " / " << warp_size << "\n"
      << "# Threads / Registers per SM  : " << max_threads_per_sm << " / " << registers_per_sm
      << "\n"
      << "Warp Scheduling               : Round Robin\n"
      << "Shared Memory per SM          : " << shared_mem_per_sm / 1024 << "KB, "
      << shared_mem_banks << " banks\n"
      << "L1 Data Cache per SM          : " << l1_size / 1024 << "KB / " << l1_ways << " way / "
      << l1_line << "B line (non-coherent, global write-through)\n"
      << "Unified L2 Cache              : " << l2_slice_size / 1024 << "KB per slice / " << l2_ways
      << " way / " << l2_line << "B line\n"
      << "# Memory Slices               : " << num_mem_partitions << "\n"
      << "DRAM Request Queue Size       : " << dram_queue_size << "\n"
      << "DRAM Latency / Burst          : " << dram_latency << " / " << dram_burst_cycles
      << " cycles\n"
      << "Interconnect Latency          : " << icnt_latency << " cycles\n"
      << "Device Memory                 : " << device_mem_bytes / (1024 * 1024) << "MB\n";
  return out.str();
}

}  // namespace haccrg::arch
