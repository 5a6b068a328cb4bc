// Shared helpers for the evaluation-reproduction bench binaries.
//
// Each binary regenerates one table/figure of the reconstructed evaluation
// plan (see DESIGN.md): it runs the campaigns it needs, prints the rows as
// an aligned ASCII table, and writes a CSV into the source tree's results/
// directory, whatever the working directory. `cmake --build build --target
// results` reruns every CSV bench at its defaults.
//
// GFI_INJECTIONS=<n> scales every campaign's injection count (default 300)
// so the suite can be run quickly (100) or to tighter CIs (2000); the
// committed results/ files are the default count.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "arch/arch.h"
#include "common/parse.h"
#include "common/table.h"
#include "fi/campaign.h"
#include "workloads/workload.h"

namespace gfi::benchx {

/// Injection count per campaign, overridable via GFI_INJECTIONS: a positive
/// decimal integer, else the bench exits 2 before running anything.
inline std::size_t injections() {
  const char* env = std::getenv("GFI_INJECTIONS");
  if (env == nullptr) return 300;
  const std::optional<u64> parsed = parse_u64(env);
  if (!parsed || *parsed == 0) {
    std::fprintf(stderr,
                 "bad GFI_INJECTIONS '%s' (want a positive decimal integer)\n",
                 env);
    std::exit(2);
  }
  return static_cast<std::size_t>(*parsed);
}

/// Runs a campaign, aborting the bench with a message on harness errors.
inline fi::CampaignResult must_run(fi::CampaignConfig config) {
  auto result = fi::Campaign::run(config);
  if (!result.is_ok()) {
    std::fprintf(stderr, "campaign '%s' failed: %s\n",
                 config.workload.c_str(),
                 result.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(result).take();
}

/// Baseline campaign config: IOV single-bit, seeded, sized by injections().
inline fi::CampaignConfig base_config(const std::string& workload,
                                      const sim::MachineConfig& machine) {
  fi::CampaignConfig config;
  config.workload = workload;
  config.machine = machine;
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = injections();
  config.seed = 0xD0E5;
  return config;
}

/// The workloads every per-workload table iterates, in reporting order.
inline std::vector<std::string> suite() { return wl::workload_names(); }

/// Prints the experiment banner.
inline void banner(const char* exp_id, const char* title) {
  const char* rule =
      "==================================================================";
  std::printf("%s\n", rule);
  std::printf("%s — %s\n", exp_id, title);
  std::printf(
      "(simulated GPUs; shapes comparable to the paper, absolute numbers are "
      "not)\n");
  std::printf("%s\n\n", rule);
}

/// Prints the table and writes `results/<csv_name>.csv` in the source tree;
/// a failed write exits 1, so a stale committed CSV cannot pass for fresh.
inline void emit(Table& table, const std::string& csv_name) {
  table.print();
  std::printf("\n");
  const Status written =
      table.write_csv(GFI_SOURCE_DIR "/results/" + csv_name + ".csv");
  if (!written.is_ok()) {
    std::fprintf(stderr, "%s\n", written.to_string().c_str());
    std::exit(1);
  }
}

}  // namespace gfi::benchx
