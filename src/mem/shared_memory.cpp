#include "mem/shared_memory.hpp"

#include <algorithm>
#include <cstring>

namespace haccrg::mem {

u32 SharedMemory::read_u32(u32 addr) const {
  addr &= ~3u;
  u32 v;
  std::memcpy(&v, data_.data() + addr, 4);
  return v;
}

void SharedMemory::write_u32(u32 addr, u32 v) {
  addr &= ~3u;
  std::memcpy(data_.data() + addr, &v, 4);
}

void SharedMemory::clear(u32 addr, u32 bytes) {
  std::memset(data_.data() + addr, 0, std::min<size_t>(bytes, data_.size() - addr));
}

u32 SharedMemory::conflict_cycles(const std::vector<u32>& lane_addrs) const {
  // Count distinct word addresses per bank in one pass over the lanes:
  // each lane looks only through the words its own bank has already
  // seen. Broadcast (same word from many lanes) costs one cycle; the
  // answer is the most-loaded bank.
  const size_t stride = lane_addrs.size();
  if (bank_words_.size() < stride * banks_) bank_words_.resize(stride * banks_);
  bank_load_.assign(banks_, 0);
  u32 worst = 1;
  for (const u32 addr : lane_addrs) {
    const u32 word = addr / 4;
    const u32 bank = word & bank_mask_;
    u32* words = bank_words_.data() + bank * stride;
    u32& load = bank_load_[bank];
    if (std::find(words, words + load, word) != words + load) continue;
    words[load++] = word;
    worst = std::max(worst, load);
  }
  return worst;
}

}  // namespace haccrg::mem
