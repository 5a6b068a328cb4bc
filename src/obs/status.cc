#include "obs/status.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/stats.h"
#include "common/table.h"

namespace gfi::obs {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSuffix = ".status.jsonl";

bool has_status_suffix(const std::string& name) {
  const std::string suffix = kSuffix;
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string fmt_eta(f64 eta_s) {
  if (std::isnan(eta_s)) return "?";
  if (eta_s >= 3600.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1fh", eta_s / 3600.0);
    return buffer;
  }
  if (eta_s >= 60.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.1fm", eta_s / 60.0);
    return buffer;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1fs", eta_s);
  return buffer;
}

}  // namespace

Result<std::vector<ShardStatus>> load_status(const std::string& target) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (fs::is_directory(target, ec)) {
    for (const auto& entry : fs::directory_iterator(target, ec)) {
      if (entry.is_regular_file() &&
          has_status_suffix(entry.path().filename().string())) {
        paths.push_back(entry.path().string());
      }
    }
    if (paths.empty()) {
      return Status::not_found("no *" + std::string(kSuffix) + " files in " +
                               target);
    }
    std::sort(paths.begin(), paths.end());
  } else if (has_status_suffix(target)) {
    paths.push_back(target);
  } else {
    // Treat anything else as a journal path and look for its sidecar.
    paths.push_back(status_path_for_journal(target));
  }

  std::vector<ShardStatus> shards;
  Status first_error = Status::ok();
  for (const std::string& path : paths) {
    auto loaded = load_status_file(path);
    if (!loaded.is_ok()) {
      // A sidecar whose shard died before its first complete line is stale
      // noise, not a reason to hide every other shard.
      if (first_error.is_ok()) first_error = loaded.status();
      continue;
    }
    shards.push_back({path, std::move(loaded).take()});
  }
  if (shards.empty()) return first_error;
  std::sort(shards.begin(), shards.end(),
            [](const ShardStatus& a, const ShardStatus& b) {
              return a.state.shard_index < b.state.shard_index;
            });
  return shards;
}

std::string render_status(const std::vector<ShardStatus>& shards,
                          const std::vector<std::string>& outcome_names) {
  std::ostringstream out;
  if (shards.empty()) return "no shard status found\n";

  const HeartbeatState& first = shards.front().state;
  out << "Campaign status: " << first.workload << " on " << first.arch << " ("
      << shards.size() << " of " << first.shard_count
      << " shard(s) reporting)\n";

  Table table;
  table.set_header({"shard", "done", "%", "rate/s", "eta", "state"});
  u64 pooled_done = 0;
  u64 pooled_total = 0;
  f64 pooled_rate = 0.0;
  std::vector<u64> pooled_counts;
  for (const ShardStatus& shard : shards) {
    const HeartbeatState& s = shard.state;
    pooled_done += s.done;
    pooled_total += s.total;
    if (!s.finished) pooled_rate += s.rate;
    if (s.outcome_counts.size() > pooled_counts.size()) {
      pooled_counts.resize(s.outcome_counts.size(), 0);
    }
    for (std::size_t o = 0; o < s.outcome_counts.size(); ++o) {
      pooled_counts[o] += s.outcome_counts[o];
    }
    const f64 frac =
        s.total ? static_cast<f64>(s.done) / static_cast<f64>(s.total) : 0.0;
    table.add_row({std::to_string(s.shard_index) + "/" +
                       std::to_string(s.shard_count),
                   std::to_string(s.done) + "/" + std::to_string(s.total),
                   Table::pct(frac, 1), Table::fmt(s.rate, 1),
                   s.finished ? "-" : fmt_eta(s.eta_s),
                   s.finished ? "done" : "running"});
  }
  out << table.to_ascii();

  if (pooled_done > 0) {
    Table outcomes("pooled outcomes over " + std::to_string(pooled_done) +
                   " injections (Wilson 95% CI)");
    outcomes.set_header({"outcome", "count", "rate", "95% CI"});
    for (std::size_t o = 0; o < pooled_counts.size(); ++o) {
      const std::string name = o < outcome_names.size()
                                   ? outcome_names[o]
                                   : "outcome" + std::to_string(o);
      const auto ci = stats::wilson_interval(pooled_counts[o], pooled_done);
      const f64 rate =
          static_cast<f64>(pooled_counts[o]) / static_cast<f64>(pooled_done);
      std::string interval = "[";
      interval += Table::pct(ci.lo, 2) + ", ";
      interval += Table::pct(ci.hi, 2) + "]";
      outcomes.add_row({name, std::to_string(pooled_counts[o]),
                        Table::pct(rate, 2), interval});
    }
    out << outcomes.to_ascii();
  }

  const u64 remaining = pooled_total > pooled_done
                            ? pooled_total - pooled_done
                            : 0;
  const f64 frac = pooled_total ? static_cast<f64>(pooled_done) /
                                      static_cast<f64>(pooled_total)
                                : 0.0;
  out << "total: " << pooled_done << "/" << pooled_total << " ("
      << Table::pct(frac, 1) << ")";
  if (remaining == 0) {
    out << ", complete\n";
  } else if (pooled_rate > 0.0) {
    out << ", eta ~" << fmt_eta(static_cast<f64>(remaining) / pooled_rate)
        << "\n";
  } else {
    out << ", eta ?\n";
  }
  return out.str();
}

}  // namespace gfi::obs
