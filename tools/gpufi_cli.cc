// gpufi — command-line front end for the fault-injection framework.
//
// Subcommands:
//   gpufi list                              list built-in workloads
//   gpufi disasm <workload>                 print a kernel's SASS-like listing
//   gpufi golden <workload> [flags]         golden run: profile + timing
//   gpufi campaign <workload> [flags]       run an injection campaign
//   gpufi compare <workload> [flags]        A100-vs-H100 campaign + z-tests
//   gpufi trace <workload> [flags]          trace the first instructions of
//                                           a golden run + opcode histogram
//   gpufi run <workload> [flags]            resilient campaign supervisor:
//                                           forks one shard worker per
//                                           --shard slice into --dir,
//                                           survives worker crashes/hangs
//                                           (lease takeover, backoff retry,
//                                           poison quarantine), auto-merges
//   gpufi merge <journal...> [--csv=]       recombine shard journals into
//                                           the campaign outcome table;
//                                           refuses incomplete/duplicated
//                                           shard sets (exit 2) unless
//                                           --allow-partial
//   gpufi lint [workload] [--json]          static kernel verifier (sa/lint.h)
//                                           over one or all built-in
//                                           workloads; exits 1 on any
//                                           error-severity finding
//   gpufi avf [workload] [--json]           static AVF report: per-group and
//                                           per-bit-position masked-fraction
//                                           lower bounds from bit-liveness
//                                           (sa/bitlive.h), no simulation
//   gpufi status <dir|journal|sidecar>      one-shot progress report over the
//                                           heartbeat sidecars of a running
//                                           (or finished) campaign: per-shard
//                                           %, pooled outcome rates with
//                                           Wilson CIs, ETA. --watch polls.
//
// Flags are listed in tools/cli_flags.cc; `gpufi` with no arguments prints
// them with their defaults.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/compare.h"
#include "analysis/report.h"
#include "arch/arch.h"
#include "cli_flags.h"
#include "common/simd.h"
#include "common/table.h"
#include "fi/campaign.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/supervisor.h"
#include "obs/registry.h"
#include "obs/status.h"
#include "harden/swift.h"
#include "recover/abft.h"
#include "analysis/static_bound.h"
#include "sa/lint.h"
#include "sassim/simulator.h"
#include "sassim/tracer.h"
#include "workloads/workload.h"

namespace {

using namespace gfi;
using cli::Options;
using cli::campaign_config;

/// The source the binary was built from (`git describe`, or a hash of
/// src/ outside a checkout; set by tools/CMakeLists.txt). `gpufi version`
/// pairs it with the compiled SIMD backend so bug reports pin down which
/// execution path produced a journal.
constexpr const char* kVersion = GFI_VERSION;

int usage() {
  std::fprintf(stderr,
               "usage: gpufi "
               "<list|disasm|golden|campaign|run|compare|merge|lint|avf|"
               "status|trace|version> "
               "[workload|journal|dir...] [--flags]\n%s",
               cli::flag_reference().c_str());
  return 2;
}

int cmd_version() {
  std::printf("gpufi %s (simd=%s)\n", kVersion, simd::backend());
  return 0;
}

int cmd_list() {
  for (const std::string& name : wl::workload_names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int cmd_disasm(const Options& options) {
  auto workload = wl::make_workload(options.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  std::printf("%s", workload->program().disassemble().c_str());
  return 0;
}

int cmd_golden(const Options& options) {
  const fi::CampaignConfig config = campaign_config(options);
  auto golden = fi::Campaign::golden_run(config);
  if (!golden.is_ok()) {
    std::fprintf(stderr, "%s\n", golden.status().to_string().c_str());
    return 1;
  }
  sim::LaunchResult timing;
  timing.cycles = golden.value().cycles;
  std::printf("%s on %s: %llu warp instrs, %llu cycles, %.2f us\n",
              options.workload.c_str(), config.machine.name.c_str(),
              static_cast<unsigned long long>(golden.value().dyn_instrs),
              static_cast<unsigned long long>(golden.value().cycles),
              timing.time_us(config.machine));
  Table table("Dynamic instruction mix");
  table.set_header(analysis::profile_header());
  table.add_row(analysis::profile_row(options.workload,
                                      golden.value().profile));
  table.print();
  return 0;
}

int cmd_campaign(const Options& options) {
  fi::CampaignConfig config = campaign_config(options);
  // A per-invocation registry keeps the --metrics-out snapshot scoped to
  // exactly this campaign (the process-global registry would accumulate
  // across compare's two runs).
  obs::Registry metrics;
  // Stamp the compiled execution backend into the snapshot so archived
  // --metrics-out artifacts say which SIMD path produced the campaign.
  metrics.counter(std::string("engine.simd.") + simd::backend()).inc();
  config.metrics = &metrics;
  auto result = fi::Campaign::run(config);
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    return 1;
  }
  std::string title = "Campaign: " + options.workload + " on " +
                      config.machine.name + ", " +
                      std::string(fi::to_string(config.model.mode)) + "/" +
                      fi::to_string(config.model.flip);
  if (config.shard_count > 1) {
    title += " [shard " + std::to_string(config.shard_index) + "/" +
             std::to_string(config.shard_count) + "]";
  }
  if (result.value().resumed > 0) {
    std::printf("resumed %zu of %zu injections from %s\n",
                result.value().resumed, result.value().records.size(),
                config.journal_path->c_str());
  }
  if (result.value().pruned > 0) {
    std::printf("pruned %llu of %zu injections (statically dead sites/bits, "
                "credited analytically)\n",
                static_cast<unsigned long long>(result.value().pruned),
                result.value().records.size());
  }
  Table table(title);
  table.set_header(analysis::outcome_header());
  table.add_row(analysis::outcome_row(options.workload, result.value()));
  table.print();
  std::printf("uncorrected failure rate (SDC+DUE+Hang): %s\n",
              Table::pct(analysis::uncorrected_failure_rate(result.value()))
                  .c_str());
  if (config.planner.active()) {
    if (config.planner.stopping()) {
      if (result.value().effective_injections < config.num_injections) {
        std::printf(
            "planner: stopped at %llu of %zu injections — every tracked "
            "outcome CI inside the ±%.2f%% target\n",
            static_cast<unsigned long long>(
                result.value().effective_injections),
            config.num_injections,
            config.planner.stop.target_half_width * 100.0);
      } else {
        std::printf(
            "planner: budget exhausted at %zu injections before the ±%.2f%% "
            "target was met everywhere\n",
            config.num_injections,
            config.planner.stop.target_half_width * 100.0);
      }
    }
    if (config.planner.stratify) {
      Table strat("Post-stratified rates (Neyman group allocation)");
      strat.set_header({"outcome", "pooled", "post-stratified"});
      for (fi::Outcome outcome : fi::planner_tracked_outcomes()) {
        strat.add_row({fi::to_string(outcome),
                       analysis::rate_cell(result.value(), outcome),
                       analysis::poststratified_cell(
                           result.value(), outcome,
                           config.planner.stop.confidence)});
      }
      strat.print();
    }
  }
  if (config.max_retries > 0) {
    Table recovery(std::string("Recovery (max ") +
                   std::to_string(config.max_retries) + " retries, " +
                   fi::to_string(config.model.persistence) + " faults)");
    recovery.set_header(analysis::recovery_header());
    recovery.add_row(analysis::recovery_row(config.workload, result.value()));
    recovery.print();
  }
  if (options.csv) (void)table.write_csv(*options.csv);
  if (options.records) {
    (void)analysis::write_records_csv(result.value(), *options.records);
  }
  if (options.metrics_out) {
    // Temp file + rename: a crash mid-write must never leave a torn JSON
    // snapshot for downstream tooling to choke on.
    const std::string tmp =
        *options.metrics_out + ".tmp-" + std::to_string(::getpid());
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (out) out << metrics.snapshot().to_json();
      out.flush();
      if (!out) {
        std::fprintf(stderr, "cannot write metrics snapshot to %s\n",
                     options.metrics_out->c_str());
        std::error_code ec;
        std::filesystem::remove(tmp, ec);
        return 1;
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, *options.metrics_out, ec);
    if (ec) {
      std::fprintf(stderr, "cannot write metrics snapshot to %s: %s\n",
                   options.metrics_out->c_str(), ec.message().c_str());
      std::filesystem::remove(tmp, ec);
      return 1;
    }
    std::printf("metrics snapshot written to %s\n",
                options.metrics_out->c_str());
  }
  return 0;
}

/// Outcome display names in fi::Outcome index order, for the status report.
std::vector<std::string> outcome_names() {
  std::vector<std::string> names;
  names.reserve(fi::kOutcomeCount);
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    names.emplace_back(fi::to_string(static_cast<fi::Outcome>(o)));
  }
  return names;
}

/// Renders CI convergence toward the planner's stop target, pooled over the
/// reporting shards. Silent for planner-off campaigns (no sidecar carries a
/// stop target). The sidecar does not record the stop confidence, so the
/// display uses the 95% default; `gpufi campaign` prints the exact verdict.
void print_planner_status(const std::vector<obs::ShardStatus>& shards) {
  f64 target = 0.0;
  u64 done = 0;
  std::vector<u64> counts;
  for (const obs::ShardStatus& shard : shards) {
    target = std::max(target, shard.state.stop_half_width);
    done += shard.state.done;
    if (counts.size() < shard.state.outcome_counts.size()) {
      counts.resize(shard.state.outcome_counts.size(), 0);
    }
    for (std::size_t i = 0; i < shard.state.outcome_counts.size(); ++i) {
      counts[i] += shard.state.outcome_counts[i];
    }
  }
  if (target <= 0.0) return;
  std::string line = "planner: target ±";
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%.2f%%", target * 100.0);
  line += buffer;
  bool converged = done > 0;
  for (fi::Outcome outcome : fi::planner_tracked_outcomes()) {
    const auto index = static_cast<std::size_t>(outcome);
    const u64 successes = index < counts.size() ? counts[index] : 0;
    const auto ci = stats::wilson_interval(successes, done, 0.95);
    const f64 half_width = done > 0 ? ci.half_width() : 1.0;
    converged = converged && half_width <= target;
    std::snprintf(buffer, sizeof(buffer), " | %s %.2f%% ±%.2f",
                  fi::to_string(outcome),
                  done > 0 ? 100.0 * static_cast<f64>(successes) /
                                 static_cast<f64>(done)
                           : 0.0,
                  half_width * 100.0);
    line += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), " (n=%llu, %s)\n",
                static_cast<unsigned long long>(done),
                converged ? "converged" : "converging");
  line += buffer;
  std::printf("%s", line.c_str());
}

int cmd_status(const Options& options) {
  const std::vector<std::string> names = outcome_names();
  // One line of engine provenance above the shard table (not repeated per
  // --watch refresh).
  std::printf("engine: gpufi %s simd=%s\n", kVersion, simd::backend());
  while (true) {
    auto shards = obs::load_status(options.workload);
    if (!shards.is_ok()) {
      std::fprintf(stderr, "%s\n", shards.status().to_string().c_str());
      return 1;
    }
    std::printf("%s", obs::render_status(shards.value(), names).c_str());
    print_planner_status(shards.value());
    if (!options.watch) return 0;
    bool all_done = true;
    for (const obs::ShardStatus& shard : shards.value()) {
      all_done = all_done && shard.state.finished;
    }
    if (all_done) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(options.interval_s));
  }
}

int cmd_compare(Options options) {
  // The two arches would share one journal and one snapshot.
  for (const char* flag : {"journal", "metrics-out"}) {
    if (options.given.contains(flag)) {
      std::fprintf(stderr,
                   "gpufi compare: --%s is campaign-only (compare runs one "
                   "campaign per arch)\n",
                   flag);
      return 2;
    }
  }
  options.arch = arch::a100;
  auto a = fi::Campaign::run(campaign_config(options));
  options.arch = arch::h100;
  auto h = fi::Campaign::run(campaign_config(options));
  if (!a.is_ok() || !h.is_ok()) {
    std::fprintf(stderr, "%s\n",
                 (!a.is_ok() ? a.status() : h.status()).to_string().c_str());
    return 1;
  }
  Table table("A100 vs H100: " + options.workload);
  auto header = analysis::outcome_header();
  header[0] = "arch";
  table.set_header(header);
  table.add_row(analysis::outcome_row("A100", a.value()));
  table.add_row(analysis::outcome_row("H100", h.value()));
  table.print();

  Table tests("Two-proportion z-tests (A100 vs H100)");
  tests.set_header({"outcome", "A100", "H100", "z", "p-value", "verdict"});
  for (fi::Outcome outcome :
       {fi::Outcome::kSdc, fi::Outcome::kDue, fi::Outcome::kMasked}) {
    const auto test =
        analysis::compare_outcome(a.value(), h.value(), outcome);
    tests.add_row({fi::to_string(outcome), Table::pct(test.p1),
                   Table::pct(test.p2), Table::fmt(test.z, 2),
                   Table::fmt(test.p_value, 4),
                   test.significant() ? "DIFFERENT" : "within noise"});
  }
  tests.print();
  return 0;
}

/// Prints the standard campaign outcome table for a merged journal and
/// handles --csv/--records/--out. Shared by `merge` and `run`.
int report_merged(const fi::MergedCampaign& merged, const Options& options) {
  if (merged.missing > 0) {
    std::printf("partial merge: %llu of %llu injections missing\n",
                static_cast<unsigned long long>(merged.missing),
                static_cast<unsigned long long>(merged.header.num_injections));
  }
  // Shell result so the standard reporting helpers apply; the merged table
  // is bit-identical to the one an unsharded campaign would print.
  fi::CampaignResult result;
  result.config.workload = merged.header.workload;
  result.records = merged.records;
  result.outcome_counts = merged.outcome_counts;
  Table table("Campaign: " + merged.header.workload + " on " +
              merged.header.arch + ", " + merged.header.mode + "/" +
              merged.header.flip);
  table.set_header(analysis::outcome_header());
  table.add_row(analysis::outcome_row(merged.header.workload, result));
  table.print();
  std::printf("uncorrected failure rate (SDC+DUE+Hang): %s\n",
              Table::pct(analysis::uncorrected_failure_rate(result)).c_str());
  if (options.csv) (void)table.write_csv(*options.csv);
  if (options.records) {
    (void)analysis::write_records_csv(result, *options.records);
  }
  if (options.out) {
    if (Status written = fi::write_merged_journal(*options.out, merged);
        !written.is_ok()) {
      std::fprintf(stderr, "%s\n", written.to_string().c_str());
      return 1;
    }
    std::printf("merged journal written to %s\n", options.out->c_str());
  }
  return 0;
}

int cmd_merge(const Options& options) {
  // The first journal path lands in the workload slot of the parser.
  std::vector<std::string> paths;
  if (!options.workload.empty()) paths.push_back(options.workload);
  paths.insert(paths.end(), options.positionals.begin(),
               options.positionals.end());
  if (paths.empty()) return usage();
  fi::MergeOptions merge_options;
  merge_options.allow_partial = options.allow_partial;
  auto merged = fi::merge_journals(paths, merge_options);
  if (!merged.is_ok()) {
    std::fprintf(stderr, "%s\n", merged.status().to_string().c_str());
    // Incomplete/duplicated shard sets are a distinct, scriptable failure:
    // exit 2 so campaign drivers can tell "re-run some shards" apart from
    // "these journals are corrupt" (exit 1).
    return merged.status().code() == StatusCode::kFailedPrecondition ? 2 : 1;
  }
  return report_merged(merged.value(), options);
}

/// Resolves the running gpufi binary for `run` worker re-exec. /proc is
/// Linux-specific; argv[0] is the portable fallback.
std::string self_exe(const char* argv0) {
  char buffer[4096];
  const ssize_t length =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (length > 0) {
    buffer[length] = '\0';
    return std::string(buffer);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string("gpufi");
}

int cmd_run(Options options, const char* argv0) {
  if (options.supervisor.dir.empty()) {
    std::fprintf(stderr,
                 "gpufi run requires --dir=<campaign directory> (shard "
                 "journals, leases, and supervisor state live there)\n");
    return 2;
  }
  for (const cli::Flag& flag : cli::flags(options)) {
    if (flag.run == cli::RunRole::kReject &&
        options.given.contains(flag.name)) {
      std::fprintf(stderr,
                   "gpufi run: --%s is campaign-only (the supervisor sets "
                   "each worker's threads, shard, journal, quarantine and "
                   "plan; run writes no metrics snapshot)\n",
                   flag.name);
      return 2;
    }
  }
  // The campaign binds the state log and plan file, and the supervisor
  // computes planner decisions from it: it is the only party seeing the
  // full prefix. Workers run its workload (`--recover=abft` names the
  // _abft kernel).
  fi::SupervisorConfig config = options.supervisor;
  config.exe = self_exe(argv0);
  config.campaign = campaign_config(options);
  config.worker_flags = cli::worker_flags(options);

  auto ran = fi::Supervisor::run(config);
  if (!ran.is_ok()) {
    std::fprintf(stderr, "%s\n", ran.status().to_string().c_str());
    // A refused directory (another campaign's, or no --resume) exits 2, as
    // a refused merge does.
    return ran.status().code() == StatusCode::kFailedPrecondition ? 2 : 1;
  }
  const fi::SupervisorResult& result = ran.value();
  std::printf(
      "supervisor: %llu worker launch(es), %llu crash(es), %llu stall "
      "kill(s), %llu lease takeover(s)\n",
      static_cast<unsigned long long>(result.worker_launches),
      static_cast<unsigned long long>(result.crashes),
      static_cast<unsigned long long>(result.stall_kills),
      static_cast<unsigned long long>(result.takeovers));
  if (result.plan_stop > 0) {
    std::printf("planner: stopped at %llu of %zu injections\n",
                static_cast<unsigned long long>(result.plan_stop),
                options.campaign.num_injections);
  }
  if (!result.quarantined.empty()) {
    std::string list;
    for (u64 index : result.quarantined) {
      if (!list.empty()) list += ",";
      list += std::to_string(index);
    }
    std::printf("quarantined injection(s): %s\n", list.c_str());
  }
  if (result.shards_failed > 0) {
    std::fprintf(stderr,
                 "%u shard(s) abandoned after repeated no-progress crashes; "
                 "see %s and the shard-*.log files\n",
                 result.shards_failed,
                 fi::Supervisor::state_path(config.dir).c_str());
    return 1;
  }
  return report_merged(result.merged, options);
}

int cmd_lint(const Options& options) {
  std::vector<std::string> names;
  if (!options.workload.empty()) {
    names.push_back(options.workload);
  } else {
    names = wl::workload_names();
  }
  bool any_errors = false;
  std::string json = "[";
  std::vector<sa::LintReport> reports;
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto workload = wl::make_workload(names[i]);
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", names[i].c_str());
      return 2;
    }
    const sa::LintReport report = sa::lint(workload->program());
    any_errors = any_errors || report.has_errors();
    if (options.sarif) reports.push_back(report);
    if (options.json) {
      if (i > 0) json += ",\n ";
      json += sa::to_json(report);
      continue;
    }
    std::printf("%s: %d error(s), %d warning(s), %d info\n",
                report.program.c_str(), report.count(sa::Severity::kError),
                report.count(sa::Severity::kWarning),
                report.count(sa::Severity::kInfo));
    for (const sa::LintFinding& finding : report.findings) {
      std::printf("  [%s] pc %u %s: %s\n",
                  sa::severity_name(finding.severity), finding.pc,
                  sa::check_name(finding.check), finding.message.c_str());
    }
  }
  if (options.json) std::printf("%s]\n", json.c_str());
  if (options.sarif) {
    std::ofstream out(*options.sarif, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write SARIF to '%s'\n",
                   options.sarif->c_str());
      return 2;
    }
    out << sa::to_sarif(reports) << "\n";
  }
  return any_errors ? 1 : 0;
}

int cmd_avf(const Options& options) {
  std::vector<std::string> names;
  if (!options.workload.empty()) {
    names.push_back(options.workload);
  } else {
    names = wl::workload_names();
  }
  std::string json = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    Options local = options;
    local.workload = names[i];
    const fi::CampaignConfig config = campaign_config(local);
    auto map = fi::Campaign::build_prune_map(config);
    if (!map.is_ok()) {
      std::fprintf(stderr, "%s\n", map.status().to_string().c_str());
      return 1;
    }
    const analysis::AvfReport report =
        analysis::avf_report(map.value(), config.model.mode);
    if (options.json) {
      if (i > 0) json += ",\n ";
      json += analysis::to_json(report, names[i], config.machine.name);
      continue;
    }
    Table table("Static AVF bounds: " + names[i] + " on " +
                config.machine.name + ", " +
                std::string(fi::to_string(config.model.mode)));
    table.set_header({"group", "eligible", "dead", "partial", "inert",
                      "masked_lb", "bit_masked_lb"});
    auto add_bound_row = [&](const std::string& label,
                             const analysis::StaticBound& bound) {
      table.add_row({label, std::to_string(bound.eligible),
                     std::to_string(bound.dead),
                     std::to_string(bound.partial),
                     std::to_string(bound.inert),
                     Table::pct(bound.masked_lower_bound()),
                     Table::pct(bound.bit_masked_lower_bound())});
    };
    for (const analysis::AvfReport::GroupRow& row : report.groups) {
      add_bound_row(sim::group_name(row.group), row.bound);
    }
    add_bound_row("TOTAL", report.total);
    table.print();
    std::printf(
        "per-bit-position masked lower bound (single-bit flip at fixed "
        "footprint bit b):\n");
    for (u32 bit = 0; bit < 32; ++bit) {
      std::printf("  b%-2u %6.2f%%%s", bit, report.bit_bounds[bit] * 100.0,
                  bit % 8 == 7 ? "\n" : "");
    }
  }
  if (options.json) std::printf("%s]\n", json.c_str());
  return 0;
}

int cmd_trace(const Options& options) {
  auto workload = wl::make_workload(options.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 1;
  }
  sim::Device device(campaign_config(options).machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "%s\n", spec.status().to_string().c_str());
    return 1;
  }
  sim::TracerHook tracer(/*max_entries=*/64);
  sim::LaunchOptions launch_options;
  launch_options.hooks.push_back(&tracer);
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              launch_options);
  if (!launch.is_ok()) {
    std::fprintf(stderr, "%s\n", launch.status().to_string().c_str());
    return 1;
  }
  std::printf("%s", tracer.to_string().c_str());
  std::printf("\n%llu dynamic warp instructions total\n",
              static_cast<unsigned long long>(tracer.seen()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  gfi::harden::register_hardened_workloads();
  gfi::recover::register_abft_workloads();
  if (argc < 2) return usage();
  auto options = gfi::cli::parse({argv + 1, argv + argc});
  if (!options) return 2;
  if (options->command == "version" || options->command == "--version") {
    return cmd_version();
  }
  if (options->command == "list") return cmd_list();
  // `lint`/`avf` with no workload cover every registered kernel.
  if (options->command == "lint") return cmd_lint(*options);
  if (options->command == "avf") return cmd_avf(*options);
  if (options->workload.empty()) return usage();
  if (options->command == "merge") return cmd_merge(*options);
  // `status` takes a directory / journal / sidecar path in the workload slot.
  if (options->command == "status") return cmd_status(*options);
  if (options->command == "disasm") return cmd_disasm(*options);
  if (options->command == "golden") return cmd_golden(*options);
  if (options->command == "campaign") return cmd_campaign(*options);
  if (options->command == "run") return cmd_run(*options, argv[0]);
  if (options->command == "compare") return cmd_compare(*options);
  if (options->command == "trace") return cmd_trace(*options);
  return usage();
}
