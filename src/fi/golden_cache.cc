#include "fi/golden_cache.h"

#include <sstream>

namespace gfi::fi {

GoldenCache& GoldenCache::instance() {
  static GoldenCache cache;
  return cache;
}

std::string GoldenCache::key_for(const CampaignConfig& config) {
  const sim::MachineConfig& m = config.machine;
  std::ostringstream key;
  key << config.workload << '|' << m.name << '|' << m.num_sms << '|'
      << m.max_warps_per_sm << '|' << m.max_ctas_per_sm << '|'
      << m.regfile_words_per_sm << '|' << m.shared_bytes_per_sm << '|'
      << m.issue_width << '|' << m.global_mem_bytes << '|' << m.l2_bytes << '|'
      << m.mem_latency_cycles << '|' << m.shared_latency_cycles << '|'
      << m.sm_clock_ghz << '|' << static_cast<int>(m.dram_ecc) << '|'
      << static_cast<int>(m.rf_ecc) << '|' << (m.tensor_core_tf32 ? 1 : 0)
      << '|';
  for (int op = 0; op < sim::kOpcodeCount; ++op) {
    key << static_cast<int>(m.latencies.cycles[op]) << ',';
  }
  return key.str();
}

void GoldenCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

std::size_t GoldenCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t GoldenCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

Result<Campaign::Golden> GoldenCache::get_or_run(
    const CampaignConfig& config) {
  const std::string key = key_for(config);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
  }
  auto golden = Campaign::golden_run(config);
  if (!golden.is_ok()) return golden.status();
  std::lock_guard<std::mutex> lock(mutex_);
  ++misses_;
  entries_[key] = golden.value();
  return golden;
}

}  // namespace gfi::fi
