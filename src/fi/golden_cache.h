// Golden-run cache: memoizes the phase-1 fault-free reference in process,
// keyed by (workload, arch, machine parameters), so resuming a journaled
// campaign, supervising N shards, or comparing architectures in one process
// never recomputes the same golden run. Worker processes each compute their
// own: a golden run costs about a millisecond, and a resumed journal's
// header pins the reference the recomputed one is compared against.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>

#include "fi/campaign.h"

namespace gfi::fi {

class GoldenCache {
 public:
  /// Process-wide instance used by Campaign::run.
  static GoldenCache& instance();

  /// Returns the golden run for `config`, computing and caching it on miss.
  /// Lookups key on the workload plus every MachineConfig field that can
  /// influence execution, so e.g. toy-with-ECC and toy-without-ECC never
  /// alias.
  Result<Campaign::Golden> get_or_run(const CampaignConfig& config);

  /// Drops every entry (tests).
  void clear();

  // Observability for tests and the CLI.
  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

  /// The cache key for `config` (exposed for tests).
  static std::string key_for(const CampaignConfig& config);

 private:
  GoldenCache() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Campaign::Golden> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace gfi::fi
