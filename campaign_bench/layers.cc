// Per-layer probes of the traced run. Each probe calls one layer's public
// functions the way the campaign loop does, under a span named after the
// layer, so the spans give per-call medians and tails without touching the
// library.
#include <cmath>
#include <memory>
#include <optional>

#include "bench.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "harden/swift.h"
#include "obs/heartbeat.h"
#include "sa/ace.h"
#include "workloads/workload.h"

namespace gfi::cbench {
namespace {

/// The kernel a SWIFT variant hardens ("saxpy_swift" -> "saxpy").
std::string base_kernel(const std::string& name) {
  const std::string suffix = "_swift";
  if (name.size() > suffix.size() &&
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return name.substr(0, name.size() - suffix.size());
  }
  return name;
}

f64 median(const std::vector<f64>& values) { return quantile(values, 0.5); }

}  // namespace

Status probe_launch_layers(const Cell& cell, Tracer& tracer,
                           LayerStats& stats) {
  const std::string& label = cell.label;
  std::unique_ptr<wl::Workload> workload;
  {
    ScopedSpan span(&tracer, "wl.make", label);
    workload = wl::make_workload(cell.config.workload);
  }
  if (!workload) return Status::not_found("unknown workload " + label);
  const sim::Program& program = workload->program();
  {
    // First use of a fresh program: builds its decoded form.
    ScopedSpan span(&tracer, "sassim.decode", label);
    (void)program.decoded();
  }
  std::optional<sim::Device> device;
  Result<wl::LaunchSpec> spec = Status::internal("not set up");
  {
    ScopedSpan span(&tracer, "wl.setup", label);
    device.emplace(cell.config.machine);
    spec = workload->setup(*device);
  }
  if (!spec.is_ok()) return spec.status();
  const wl::LaunchSpec& launch_spec = spec.value();
  const sim::GlobalMemory::Snapshot before = device->snapshot();

  // Hook-free launch on the engine's default tier.
  const auto start = Clock::now();
  auto clean = [&] {
    ScopedSpan span(&tracer, "sassim.clean_launch", label);
    return device->launch(program, launch_spec.grid, launch_spec.block,
                          launch_spec.params);
  }();
  const f64 clean_s = seconds_since(start);
  if (!clean.is_ok()) return clean.status();
  stats.clean_launch_s[label].push_back(clean_s);
  stats.clean_minstr_per_s.push_back(
      static_cast<f64>(clean.value().dyn_warp_instrs) / clean_s / 1e6);
  {
    ScopedSpan span(&tracer, "wl.check", label);
    auto checked = workload->check(*device);
    if (!checked.is_ok()) return checked.status();
    if (!checked.value().result.passed()) {
      return Status::internal(label + ": fault-free launch failed its check");
    }
  }
  {
    // The checkpoint pair a retry pays: snapshot the device, roll it back.
    ScopedSpan span(&tracer, "sassim.snapshot_restore", label);
    (void)device->snapshot();
    device->restore(before);
  }
  // The same launch pinned to the instrumented tier, which hooked launches
  // (the injection prefix) run on.
  sim::LaunchOptions options;
  options.engine = sim::EngineTier::kInstrumented;
  ScopedSpan span(&tracer, "sassim.instrumented_launch", label);
  auto instrumented = device->launch(program, launch_spec.grid,
                                     launch_spec.block, launch_spec.params,
                                     options);
  return instrumented.status();
}

Status probe_static_layers(const Cell& cell, Tracer& tracer) {
  auto workload = wl::make_workload(cell.config.workload);
  auto base = wl::make_workload(base_kernel(cell.config.workload));
  if (!workload || !base) {
    return Status::not_found("unknown workload " + cell.label);
  }
  (void)workload->program().decoded();
  {
    // Register and bit liveness plus site classes (BitLiveness::compute
    // runs inside analyze).
    ScopedSpan span(&tracer, "sa.analyze", cell.label);
    (void)sa::StaticSiteAnalysis::analyze(workload->program());
  }
  {
    ScopedSpan span(&tracer, "harden.swift", cell.label);
    auto hardened = harden::swift_harden(base->program());
    if (!hardened.is_ok()) return hardened.status();
  }
  ScopedSpan span(&tracer, "fi.prune_map", cell.label);
  return fi::Campaign::build_prune_map(cell.config).status();
}

Status probe_loop_layers(const Cell& cell, const fi::CampaignConfig& config,
                         const fi::Campaign::Golden& golden,
                         const std::vector<fi::InjectionRecord>& records,
                         const std::string& scratch_prefix, Tracer& tracer) {
  const std::string& label = cell.label;
  const std::string journal = scratch_prefix + ".jsonl";
  auto writer = fi::JournalWriter::create(
      journal, fi::make_journal_header(config, golden));
  if (!writer.is_ok()) return writer.status();
  for (std::size_t i = 0; i < records.size(); ++i) {
    ScopedSpan span(&tracer, "fi.journal_append", label);
    Status appended = writer.value()->append(i, records[i]);
    if (!appended.is_ok()) return appended;
  }
  writer.value().reset();
  {
    ScopedSpan span(&tracer, "fi.journal_load", label);
    auto loaded = fi::Journal::load(journal);
    if (!loaded.is_ok()) return loaded.status();
  }

  // The planner's per-block work, in the campaign's order: allocate the
  // block, observe its records, test the stopping rule. Memory mode has no
  // strata.
  fi::CampaignConfig planned = config;
  planned.num_injections = records.size();
  planned.planner.stop.target_half_width = 0.05;
  planned.planner.stratify = config.model.mode != fi::InjectionMode::kMemory;
  auto planner = fi::Planner::create(planned, golden.profile);
  if (!planner.is_ok()) return planner.status();
  const u64 k = planner.value().checkpoint_every();
  for (u64 c = 0; c * k < records.size(); ++c) {
    ScopedSpan span(&tracer, "fi.planner", label);
    if (planned.planner.stratify) (void)planner.value().make_alloc(c);
    for (u64 i = c * k; i < planner.value().block_end(c); ++i) {
      planner.value().observe(records[i]);
    }
    (void)planner.value().stop_satisfied();
  }

  obs::HeartbeatState state;
  state.workload = config.workload;
  state.arch = config.machine.name;
  state.total = records.size();
  state.outcome_counts.assign(fi::kOutcomeCount, 0);
  auto heartbeat = obs::HeartbeatWriter::create(
      obs::status_path_for_journal(journal), state, /*interval_ms=*/0);
  if (!heartbeat.is_ok()) return heartbeat.status();
  for (const fi::InjectionRecord& record : records) {
    ScopedSpan span(&tracer, "obs.heartbeat_record", label);
    heartbeat.value()->record(static_cast<int>(record.outcome));
  }
  heartbeat.value()->finish();
  return Status::ok();
}

void append_layer_metrics(const Tracer& tracer, const LayerStats& stats,
                          std::vector<Metric>& out) {
  struct Timed {
    const char* span;
    const char* metric;
    f64 scale;
    const char* unit;
  };
  static constexpr Timed kTimed[] = {
      {"sassim.instrumented_launch", "sassim.instrumented_launch_us", 1e6,
       "us"},
      {"sassim.clean_launch", "sassim.clean_launch_us", 1e6, "us"},
      {"sassim.decode", "sassim.decode_us", 1e6, "us"},
      {"sassim.snapshot_restore", "sassim.snapshot_restore_us", 1e6, "us"},
      {"wl.make", "wl.make_us", 1e6, "us"},
      {"wl.setup", "wl.setup_us", 1e6, "us"},
      {"wl.check", "wl.check_us", 1e6, "us"},
      {"fi.run_single", "fi.run_single_us", 1e6, "us"},
      {"fi.campaign_run", "fi.campaign_run_ms", 1e3, "ms"},
      {"fi.golden_run", "fi.golden_run_ms", 1e3, "ms"},
      {"fi.prune_map", "fi.prune_map_ms", 1e3, "ms"},
      {"fi.journal_load", "fi.journal_load_ms", 1e3, "ms"},
      {"fi.journal_append", "fi.journal_append_us", 1e6, "us"},
      {"fi.planner", "fi.planner_us", 1e6, "us"},
      {"obs.heartbeat_record", "obs.heartbeat_record_us", 1e6, "us"},
      {"sa.analyze", "sa.analyze_ms", 1e3, "ms"},
      {"harden.swift", "harden.swift_ms", 1e3, "ms"},
  };
  for (const Timed& timed : kTimed) {
    const std::vector<f64> durations = tracer.durations(timed.span);
    const std::string name = timed.metric;
    out.push_back({name + ".p50", quantile(durations, 0.5) * timed.scale,
                   timed.unit});
    out.push_back({name + ".p99", quantile(durations, 0.99) * timed.scale,
                   timed.unit});
  }
  out.push_back({"sassim.clean_minstr_per_s.p50",
                 median(stats.clean_minstr_per_s), "Minstr/s"});

  // Injection cost in clean launches of the same cell, geometric mean
  // over cells: about 1 + the instrumented-prefix premium on iov-mix, about
  // the launches per injection on mem-retry.
  f64 log_sum = 0.0;
  std::size_t cells = 0;
  for (const auto& [label, run_single] : stats.run_single_s) {
    const auto clean = stats.clean_launch_s.find(label);
    if (clean == stats.clean_launch_s.end()) continue;
    log_sum += std::log(median(run_single) / median(clean->second));
    ++cells;
  }
  out.push_back({"fi.injection_over_clean",
                 cells ? std::exp(log_sum / static_cast<f64>(cells)) : 0.0,
                 "ratio"});
}

}  // namespace gfi::cbench
