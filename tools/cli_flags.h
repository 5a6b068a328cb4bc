// The gpufi flag table: one list that parses the command line, forwards
// campaign flags to `gpufi run` workers and prints the usage reference.
//
// Each flag is one row of flags(): its name, its value grammar bound to the
// field it sets, its role under `gpufi run` and a one-line help text.
// Values land directly in fi::CampaignConfig / fi::SupervisorConfig where
// such a field exists; Options keeps only what campaign_config() derives
// (machine, retry budget, prune level) and the per-subcommand outputs.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/supervisor.h"

namespace gfi::cli {

/// --recover strategies and --prune levels.
enum class Recover : u8 { kRetry, kAbft };
enum class Prune : u8 { kNone, kDead, kDeadBits };

struct Options {
  std::string command;
  std::string workload;
  std::vector<std::string> positionals;  ///< extra non-flag args (merge)
  std::set<std::string> given;  ///< names of the flags on the command line
  fi::CampaignConfig campaign;
  fi::SupervisorConfig supervisor;
  sim::MachineConfig (*arch)() = gfi::arch::a100;
  std::optional<bool> ecc;
  std::optional<Recover> recover;
  std::optional<u32> max_retries;
  Prune prune = Prune::kNone;
  std::optional<std::string> csv;
  std::optional<std::string> records;
  std::optional<std::string> metrics_out;
  std::optional<std::string> out;    ///< merged journal (run/merge)
  std::optional<std::string> sarif;  ///< (lint)
  bool json = false;
  bool allow_partial = false;
  bool watch = false;
  u64 interval_s = 2;  ///< --watch poll period
};

/// What `gpufi run` does with a flag.
enum class RunRole : u8 {
  kForward,     ///< spelled on every worker's command line
  kForwardSet,  ///< spelled on the worker command line when given
  kLocal,       ///< read by the supervisor itself (or by other commands)
  kReject,      ///< the supervisor sets it per worker, or run has no use
};

/// A flag's value grammar, bound to the field it sets.
struct Value {
  /// The accepted values ("a positive integer", "a100|h100|toy"), for
  /// errors and usage; empty for a bare switch.
  std::string want;
  std::function<bool(const std::string&)> set;  ///< false = rejected
  std::function<std::string()> get;  ///< the field spelled; "" = unset
};

struct Flag {
  const char* name;
  Value value;
  RunRole run;
  const char* help;
};

/// Every gpufi flag, bound to the fields of `options`: the rows point
/// into it and must not outlive it.
std::vector<Flag> flags(Options& options);

/// Parses `gpufi <command> [positionals...] [--flags]` (argv without the
/// program name). A malformed line prints one error and returns nullopt.
std::optional<Options> parse(const std::vector<std::string>& args);

/// The campaign flags `gpufi run` passes to every worker.
std::vector<std::string> worker_flags(Options options);

/// The campaign `options` describe.
fi::CampaignConfig campaign_config(const Options& options);

/// The flag reference usage() prints.
std::string flag_reference();

}  // namespace gfi::cli
