#include "fi/campaign.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/bitutil.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "obs/heartbeat.h"
#include "obs/registry.h"
#include "recover/retry.h"
#include "sa/ace.h"
#include "sa/dataflow.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace gfi::fi {
namespace {

/// Watchdog budget: generous multiple of the golden dynamic length so true
/// hangs are caught without misclassifying slow-but-progressing runs.
u64 watchdog_for(const CampaignConfig& config, u64 golden_dyn_instrs) {
  if (config.watchdog_instrs) return *config.watchdog_instrs;
  constexpr u64 kMultiplier = 3;
  constexpr u64 kFloor = 10000;
  return golden_dyn_instrs * kMultiplier + kFloor;
}

/// Samples the group to strike for instruction-targeted modes, weighted by
/// dynamic frequency over the groups the mode can reach. A pinned group —
/// config.group, or a planner-assigned `stratum` — consumes no RNG draw, so
/// every other field of the record stays a pure function of (seed, index).
Result<sim::InstrGroup> sample_group(
    const CampaignConfig& config, const sim::Profile& profile, Rng& rng,
    const std::optional<sim::InstrGroup>& stratum) {
  const std::optional<sim::InstrGroup>& pinned =
      stratum ? stratum : config.group;
  if (pinned) {
    if (!mode_targets_group(config.model.mode, *pinned)) {
      return Status::invalid_argument(
          std::string("mode ") + to_string(config.model.mode) +
          " cannot target group " + sim::group_name(*pinned));
    }
    if (profile.group_warp_count(*pinned) == 0) {
      return Status::invalid_argument(
          std::string("workload '") + config.workload +
          "' executes no instructions in group " + sim::group_name(*pinned));
    }
    return *pinned;
  }
  u64 total = 0;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (mode_targets_group(config.model.mode, group)) {
      total += profile.group_warp_count(group);
    }
  }
  if (total == 0) {
    return Status::invalid_argument(
        std::string("workload '") + config.workload +
        "' has no instructions eligible for mode " +
        to_string(config.model.mode));
  }
  u64 pick = rng.next_below(total);
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (!mode_targets_group(config.model.mode, group)) continue;
    const u64 count = profile.group_warp_count(group);
    if (pick < count) return group;
    pick -= count;
  }
  return static_cast<sim::InstrGroup>(0);  // unreachable
}

Result<FaultSite> sample_site(const CampaignConfig& config,
                              const sim::Profile& profile,
                              u64 golden_dyn_instrs, Rng& rng,
                              const std::optional<sim::InstrGroup>& stratum) {
  FaultSite site;
  site.model = config.model;
  switch (config.model.mode) {
    case InjectionMode::kIov:
    case InjectionMode::kPred:
    case InjectionMode::kIoa: {
      auto group = sample_group(config, profile, rng, stratum);
      if (!group.is_ok()) return group.status();
      site.group = group.value();
      site.target_occurrence =
          rng.next_below(profile.group_warp_count(group.value()));
      break;
    }
    case InjectionMode::kRf:
      site.target_occurrence =
          rng.next_below(std::max<u64>(golden_dyn_instrs, 1));
      site.reg_sel = static_cast<u16>(rng.next_u32());
      break;
    case InjectionMode::kMemory:
      break;  // the address is sampled after setup (needs the allocation map)
  }
  site.lane_sel = rng.next_u32();
  site.bit_sel = config.fixed_bit ? *config.fixed_bit : rng.next_u32();
  site.bit_sel2 = rng.next_u32();
  site.random_value = rng.next();
  return site;
}

/// A sampled pre-launch memory upset. Sampled once per injection (not per
/// attempt) so a stuck-at retry re-applies the identical fault.
struct MemoryFault {
  u64 addr = 0;
  u32 mask = 0;
};

std::optional<MemoryFault> sample_memory_fault(const sim::GlobalMemory& memory,
                                               const FaultSite& site,
                                               Rng& rng) {
  const u64 allocated = memory.bytes_allocated();
  if (allocated < 4) return std::nullopt;
  const u64 words = allocated / 4;
  MemoryFault fault;
  fault.addr = sim::GlobalMemory::kBaseAddress + rng.next_below(words) * 4;
  switch (site.model.flip) {
    case BitFlipModel::kSingle:
      fault.mask = 1u << (site.bit_sel % 32);
      break;
    case BitFlipModel::kDouble: {
      u32 b2 = site.bit_sel2 % 32;
      if (b2 == site.bit_sel % 32) b2 = (b2 + 1) % 32;
      fault.mask = (1u << (site.bit_sel % 32)) | (1u << b2);
      break;
    }
    case BitFlipModel::kRandomValue:
    case BitFlipModel::kZeroValue:
      // A whole-word upset: random multi-bit pattern (never zero).
      fault.mask = static_cast<u32>(site.random_value) | 1u;
      break;
  }
  return fault;
}

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: return "Masked";
    case Outcome::kMaskedTolerated: return "Tolerated";
    case Outcome::kSdc: return "SDC";
    case Outcome::kDue: return "DUE";
    case Outcome::kHang: return "Hang";
    case Outcome::kDetectedCorrected: return "Corrected";
    case Outcome::kNotActivated: return "NotActivated";
    case Outcome::kRecoveredRetry: return "RecoveredRetry";
    case Outcome::kUnrecoverableDue: return "UnrecoverableDUE";
    case Outcome::kQuarantined: return "Quarantined";
  }
  return "?";
}

Outcome outcome_for_trap(sim::TrapKind kind) {
  return kind == sim::TrapKind::kWatchdogTimeout ? Outcome::kHang
                                                 : Outcome::kDue;
}

f64 CampaignResult::rate(Outcome outcome) const {
  if (records.empty()) return 0.0;
  return static_cast<f64>(count(outcome)) / static_cast<f64>(records.size());
}

stats::Interval CampaignResult::rate_interval(Outcome outcome) const {
  return stats::wilson_interval(count(outcome), records.size());
}

bool needs_golden_tail(const CampaignConfig& config) {
  return config.model.mode != InjectionMode::kMemory;
}

Result<Campaign::Golden> Campaign::golden_run(const CampaignConfig& config) {
  auto workload = wl::make_workload(config.workload);
  if (!workload) {
    return Status::not_found("unknown workload '" + config.workload + "'");
  }
  sim::Device device(config.machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) return spec.status();

  // Profile natively (LaunchOptions::profile) instead of via ProfilerHook:
  // with no hook attached the golden run stays on the hook-free tier.
  // The engine's counts are identical to the hook's.
  Golden golden;
  sim::LaunchOptions options;
  options.profile = &golden.profile;
  options.engine = config.engine;
  golden.live_rows = sa::live_in_rows(workload->program());
  // The grid orders injections for the checkpoints workers keep. The mode
  // is not part of the GoldenCache key, so memory-mode campaigns, which
  // keep none, record it too.
  golden.grid.step = kStrikeGridStep;
  options.issue_grid = &golden.grid;
  // Memory mode strikes no instruction, so no launch of its stops at
  // reconvergence: it records no tail.
  std::shared_ptr<sim::GoldenTail> tail;
  if (needs_golden_tail(config)) {
    tail = std::make_shared<sim::GoldenTail>();
    options.record_tail = tail.get();
  }
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params, options);
  if (!launch.is_ok()) return launch.status();
  if (!launch.value().ok()) {
    return Status::internal("golden run of '" + config.workload +
                            "' trapped: " + launch.value().trap.to_string());
  }
  auto checked = workload->check(device);
  if (!checked.is_ok()) return checked.status();
  if (checked.value().trap != sim::TrapKind::kNone ||
      !checked.value().result.passed()) {
    return Status::internal("golden run of '" + config.workload +
                            "' failed its own reference check (max rel err " +
                            std::to_string(checked.value().result.max_rel_err) +
                            ")");
  }
  golden.dyn_instrs = launch.value().dyn_warp_instrs;
  golden.cycles = launch.value().cycles;
  golden.tail = std::move(tail);
  golden.check = checked.value();
  return golden;
}

namespace {

/// True when the analytic fast path may credit `entry` for this sampled
/// injection. Fully-dead, no-op, and predicated-off sites always qualify;
/// a kPartialDead site qualifies only under prune_dead_bits, and only when
/// every bit the sampled single/double flip would strike is statically dead
/// (mirroring injector.cc strike_iov's bit arithmetic exactly).
bool credit_allowed(const CampaignConfig& config, const sa::PruneMap& map,
                    const sa::PruneEntry& entry, const FaultSite& site) {
  if (entry.exec_mask == 0 || entry.cls != sa::SiteClass::kPartialDead) {
    return true;
  }
  if (!config.prune_dead_bits || config.model.mode != InjectionMode::kIov) {
    return false;
  }
  const sa::StaticSiteAnalysis& analysis = map.analysis;
  const u32 bits = analysis.strike_span(entry.pc) * 32u;
  if (bits == 0) return false;
  switch (config.model.flip) {
    case BitFlipModel::kSingle:
      return analysis.strike_bit_dead(entry.pc, site.bit_sel % bits);
    case BitFlipModel::kDouble: {
      const u32 b1 = site.bit_sel % bits;
      u32 b2 = site.bit_sel2 % bits;
      if (b2 == b1) b2 = (b2 + 1) % bits;
      return analysis.strike_bit_dead(entry.pc, b1) &&
             analysis.strike_bit_dead(entry.pc, b2);
    }
    case BitFlipModel::kRandomValue:
    case BitFlipModel::kZeroValue:
      return false;  // whole-footprint corruption touches the live bits
  }
  return false;
}

/// Fills `record` for a prunable site without simulating, reproducing field
/// by field what the launch would have recorded:
///  - exec_mask == 0: the injector never activates (predicated-off site).
///  - kNoop: the strike hits nothing corruptible (e.g. RZ-dst atomic);
///    activated stays false.
///  - kDead (or kPartialDead with every struck bit dead): the strike lands
///    but nothing it flips is ever read, so the run completes with
///    fault-free output and the golden check verdict.
void credit_pruned(const sa::PruneMap& map, const sa::PruneEntry& entry,
                   u64 golden_dyn_instrs, InjectionRecord& record) {
  record.effect.struck_dyn_index = entry.dyn_index;
  record.effect.struck_opcode = entry.op;
  record.effect.struck_group = *record.site.group;
  record.attempts = 1;
  record.dyn_instrs = golden_dyn_instrs;
  record.trap = sim::TrapKind::kNone;
  if (entry.exec_mask == 0) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return;
  }
  record.effect.struck_lane =
      InjectorHook::pick_lane(entry.exec_mask, record.site.lane_sel);
  if (entry.cls == sa::SiteClass::kNoop) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return;
  }
  record.effect.activated = true;
  record.error_magnitude = map.golden_max_rel_err;
  record.outcome = record.pre_recovery = map.golden_bitwise_equal
                                             ? Outcome::kMasked
                                             : Outcome::kMaskedTolerated;
}

using Snapshot = sim::GlobalMemory::Snapshot;

/// A workload set up once on its own device. `start` is the post-setup
/// device state, checkpoint 0 of every injection run on it: a run restores
/// it before launching (unless it resumes from a later checkpoint), and so
/// does every retry it simulates.
struct InjectionContext {
  explicit InjectionContext(const sim::MachineConfig& machine)
      : device(machine) {}

  std::unique_ptr<wl::Workload> workload;
  sim::Device device;
  wl::LaunchSpec spec;
  std::shared_ptr<const Snapshot> start;
  bool fresh = true;  ///< nothing has run since setup
  /// Strike order: the golden-prefix checkpoint at the grid mark before
  /// the strike of the last run that captured one, and that run's strike
  /// bucket (0 while none is kept).
  sim::LaunchCheckpoint kept;
  std::size_t kept_bucket = 0;
};

/// Sets a context up. Setup is deterministic, so every context of a
/// campaign shares one checkpoint 0: pass the first context's `start` to
/// the others instead of keeping a copy per worker.
Result<std::unique_ptr<InjectionContext>> make_context(
    const CampaignConfig& config,
    std::shared_ptr<const Snapshot> start = nullptr) {
  auto context = std::make_unique<InjectionContext>(config.machine);
  context->workload = wl::make_workload(config.workload);
  if (!context->workload) {
    return Status::not_found("unknown workload '" + config.workload + "'");
  }
  auto spec = context->workload->setup(context->device);
  if (!spec.is_ok()) return spec.status();
  context->spec = std::move(spec).take();
  context->start = start ? std::move(start)
                         : std::make_shared<const Snapshot>(
                               context->device.snapshot());
  return context;
}

/// Whether a campaign's retries relaunch without the fault on the default
/// tier, with a watchdog that lets a fault-free launch finish: each is then
/// the golden launch from checkpoint 0, so it reports no trap,
/// golden.dyn_instrs and golden.check. A budget at or below the golden
/// length hangs every relaunch, so those retries are simulated.
bool shares_retry_verdict(const CampaignConfig& config,
                          const Campaign::Golden& golden) {
  return config.max_retries > 0 &&
         config.model.persistence == FaultPersistence::kTransient &&
         config.engine != sim::EngineTier::kInstrumented &&
         watchdog_for(config, golden.dyn_instrs) > golden.dyn_instrs;
}

using Clock = std::chrono::steady_clock;

/// Microseconds from `started` to now.
f64 micros_since(Clock::time_point started) {
  return std::chrono::duration<f64, std::micro>(Clock::now() - started)
      .count();
}

/// Telemetry, never journaled: the wall time of an injection's phases, in
/// microseconds. `launch` includes the `resume` from a kept checkpoint, the
/// `capture` of one, the armed `prefix` up to the struck slot and the
/// `post_strike` run from it, which the engine times itself
/// (LaunchResult::resume_ns, capture_ns, prefix_ns, post_strike_ns).
struct Phases {
  explicit Phases(obs::Registry& reg)
      : restore(reg.histogram("campaign.phase.restore_us", 0, 500, 500)),
        resume(reg.histogram("campaign.phase.resume_us", 0, 500, 500)),
        capture(reg.histogram("campaign.phase.capture_us", 0, 500, 500)),
        launch(reg.histogram("campaign.phase.launch_us", 0, 20000, 1000)),
        prefix(reg.histogram("campaign.phase.prefix_us", 0, 5000, 1000)),
        post_strike(
            reg.histogram("campaign.phase.post_strike_us", 0, 5000, 1000)),
        check(reg.histogram("campaign.phase.check_us", 0, 500, 500)) {}

  obs::LatencyHistogram& restore;  ///< checkpoint 0, before a launch
  obs::LatencyHistogram& resume;
  obs::LatencyHistogram& capture;
  obs::LatencyHistogram& launch;
  obs::LatencyHistogram& prefix;  ///< armed launches on the threaded tier
  obs::LatencyHistogram& post_strike;
  obs::LatencyHistogram& check;  ///< the workload's output check
};

/// Campaign-scoped fast-forward state, shared by the workers of one
/// Campaign::run: one injection context per worker, their shared
/// checkpoint 0, and the telemetry of its injections.
class FastForward {
 public:
  FastForward(const CampaignConfig& config, obs::Registry& reg)
      : phases(reg),
        config_(config),
        checkpoints_(reg.counter("campaign.fast_forward.checkpoints")),
        image_bytes_(reg.counter("campaign.fast_forward.image_bytes")),
        skipped_(reg.counter("campaign.fast_forward.skipped_warp_instrs")),
        resumed_retries_(
            reg.counter("campaign.fast_forward.resumed_retries")),
        reconverged_(reg.counter("campaign.reconverge.injections")),
        reconverge_skipped_(
            reg.counter("campaign.reconverge.skipped_warp_instrs")),
        contexts_(worker_count(config.threads)) {
    for (const auto& [reason, name] : sim::kTwinGiveUpNames) {
      gave_up_[static_cast<int>(reason)] =
          &reg.counter(std::string("campaign.reconverge.gave_up.") + name);
    }
  }

  /// Worker `worker`'s context (parallel_for's worker id), made on its
  /// first injection run.
  Result<InjectionContext*> context(std::size_t worker) {
    std::unique_ptr<InjectionContext>& context = contexts_[worker];
    if (context) return context.get();
    std::shared_ptr<const Snapshot> start;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      start = start_;
    }
    auto made = make_context(config_, std::move(start));
    if (!made.is_ok()) return made.status();
    context = std::move(made).take();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!start_) start_ = context->start;
    return context.get();
  }

  /// Telemetry, never journaled: checkpoints captured and the image bytes
  /// they wrote, warp instructions a resumed launch or an answered retry
  /// did not run, and the retries answered. All are per campaign: with
  /// several workers what an injection skips depends on what its context
  /// kept.
  void captured(const sim::LaunchCheckpoint& checkpoint) {
    checkpoints_.inc();
    image_bytes_.inc(checkpoint.image_words * sizeof(u32));
  }
  void skipped(u64 warp_instrs) { skipped_.inc(warp_instrs); }
  void resumed_retry(u64 warp_instrs) {
    resumed_retries_.inc();
    skipped_.inc(warp_instrs);
  }
  /// A launch that stopped at reconvergence, `warp_instrs` short of its
  /// end.
  void reconverged(u64 warp_instrs) {
    reconverged_.inc();
    reconverge_skipped_.inc(warp_instrs);
  }
  /// A launch whose struck warp's golden twin gave up, or whose run ahead
  /// could not go on, for `reason`.
  void twin_gave_up(sim::TwinGiveUp reason) {
    if (reason != sim::TwinGiveUp::kNone) {
      gave_up_[static_cast<int>(reason)]->inc();
    }
  }

  Phases phases;

 private:
  const CampaignConfig& config_;
  obs::Counter& checkpoints_;
  obs::Counter& image_bytes_;
  obs::Counter& skipped_;
  obs::Counter& resumed_retries_;
  obs::Counter& reconverged_;
  obs::Counter& reconverge_skipped_;
  /// Per sim::TwinGiveUp, by its value (kTwinGiveUpNames lists every
  /// reason after kNone in order); kNone's stays null.
  obs::Counter* gave_up_[std::size(sim::kTwinGiveUpNames) + 1] = {};
  std::vector<std::unique_ptr<InjectionContext>> contexts_;  ///< by worker
  std::mutex mutex_;
  std::shared_ptr<const Snapshot> start_;  ///< checkpoint 0, shared
};

/// One injection. Campaign::run passes its golden run, its fast-forward
/// state and the worker running the injection; standalone replays pass
/// neither and set up a context of their own.
Result<InjectionRecord> run_injection(
    const CampaignConfig& config, const sim::Profile& profile,
    u64 golden_dyn_instrs, std::size_t run_index,
    const sa::PruneMap* prune_map, bool* pruned_out, obs::Registry* metrics,
    std::optional<sim::InstrGroup> stratum, const Campaign::Golden* golden,
    FastForward* ff, std::size_t worker) {
  Rng rng = Rng::for_stream(config.seed, run_index);
  auto site = sample_site(config, profile, golden_dyn_instrs, rng, stratum);
  if (!site.is_ok()) return site.status();

  // Quarantined injections get their site sampled (the RNG stream and thus
  // every other record stays bit-identical) but are never simulated — this
  // is how the supervisor stops a poison injection from killing worker
  // after worker. attempts = 0 marks "never launched".
  if (!config.quarantine.empty() && config.is_quarantined(run_index)) {
    InjectionRecord record;
    record.site = site.value();
    record.outcome = record.pre_recovery = Outcome::kQuarantined;
    record.attempts = 0;
    record.dyn_instrs = 0;
    return record;
  }
  // Poison-injection modeling for tests/chaos: placed after the quarantine
  // short-circuit so a quarantined index no longer triggers its kill.
  if (fp::enabled()) fp::hit("inject.execute", run_index);

  // Analytic fast path: nothing after sample_site consumes the RNG for
  // IOV/PRED, so skipping the simulation cannot perturb any other record.
  // Partial-dead entries fall through to the full simulation unless the
  // sampled bits are all provably dead (credit_allowed).
  if (prune_map && site.value().group &&
      (config.model.mode == InjectionMode::kIov ||
       config.model.mode == InjectionMode::kPred)) {
    const sa::PruneEntry* entry = prune_map->find(
        *site.value().group, site.value().target_occurrence);
    if (entry && credit_allowed(config, *prune_map, *entry, site.value())) {
      InjectionRecord record;
      record.site = site.value();
      credit_pruned(*prune_map, *entry, golden_dyn_instrs, record);
      if (pruned_out) *pruned_out = true;
      return record;
    }
  }

  std::unique_ptr<InjectionContext> own;  // a standalone replay's
  InjectionContext* context = nullptr;
  if (ff) {
    auto kept = ff->context(worker);
    if (!kept.is_ok()) return kept.status();
    context = kept.value();
  } else {
    auto made = make_context(config);
    if (!made.is_ok()) return made.status();
    own = std::move(made).take();
    context = own.get();
  }
  const wl::Workload& workload = *context->workload;
  sim::Device& device = context->device;
  const wl::LaunchSpec& spec = context->spec;

  InjectionRecord record;
  record.site = site.value();

  // Fast-forward, unless pinned: in strike order an armed first attempt
  // resumes from the checkpoint its context kept unless that lies past its
  // strike, captures the mark before its strike in its place unless the
  // kept one is already there, and stops once its struck warp rejoins its
  // golden twin. Everything else starts from checkpoint 0, the post-setup
  // snapshot, and runs to the end.
  const std::optional<sim::StrikeRequest> strike =
      InjectorHook(site.value(), device.config()).strike_request();
  const bool fast =
      ff && strike && config.engine != sim::EngineTier::kInstrumented;
  const sim::IssueGrid* grid = fast ? &golden->grid : nullptr;
  const std::size_t bucket = grid ? grid->bucket(*strike) : 0;
  const sim::LaunchCheckpoint* resume = nullptr;
  if (grid && context->kept_bucket > 0 &&
      context->kept.issues(strike->groups) <= strike->occurrence) {
    resume = &context->kept;
  }
  const bool capture = bucket > 0 && bucket != context->kept_bucket;
  Phases* phases = ff ? &ff->phases : nullptr;
  // Checkpoint 0 restored, and its phase timed.
  auto restore_start = [&] {
    const auto started = Clock::now();
    device.restore(*context->start);
    if (phases) phases->restore.observe(micros_since(started));
  };
  if (resume) {
    ff->skipped(resume->dyn_warp);
  } else if (!context->fresh) {
    restore_start();
  }
  context->fresh = false;

  const bool memory_mode = config.model.mode == InjectionMode::kMemory;
  // Memory mode samples its struck word once, before any attempt, so a
  // stuck-at retry re-applies the identical upset (and so the rng sequence
  // matches pre-recovery campaigns bit-exactly).
  std::optional<MemoryFault> mem_fault;
  if (memory_mode) {
    mem_fault = sample_memory_fault(device.memory(), site.value(), rng);
  }
  const u64 watchdog = watchdog_for(config, golden_dyn_instrs);
  const bool stuck_at =
      config.model.persistence == FaultPersistence::kStuckAt;

  bool not_activated = false;
  u64 first_launch_sbe = 0;
  std::optional<wl::Workload::Checked> final_check;

  // Dispatch-tier telemetry, keyed on what the engine actually ran
  // (LaunchResult::tier_used) rather than what the launch requested.
  // Purely additive: counters go only to --metrics-out snapshots, never
  // journals, so tier pins cannot perturb journal diffs.
  // engine.generic_warp_instrs counts the warp instructions the threaded
  // tier left to the generic per-lane loop.
  obs::Counter* tier_counter[std::size(sim::kEngineTierNames)] = {};
  obs::Counter* tier_downgrades = nullptr;
  obs::Counter* generic_warp_instrs = nullptr;
  if (metrics) {
    for (const auto& [tier, name] : sim::kEngineTierNames) {
      tier_counter[static_cast<int>(tier)] =
          &metrics->counter(std::string("engine.dispatch.") + name);
    }
    tier_downgrades = &metrics->counter("engine.dispatch.downgrades");
    generic_warp_instrs = &metrics->counter("engine.generic_warp_instrs");
  }

  // One simulated attempt = restore checkpoint 0 (retries) + arm fault (if
  // due) + launch + result check, so every attempt sees bit-identical
  // initial device state.
  auto simulate = [&](u32 attempt) -> Result<recover::Attempt> {
    if (attempt > 0) restore_start();
    const bool armed = attempt == 0 || stuck_at;
    InjectorHook injector(site.value(), device.config());
    sim::LaunchOptions options;
    options.watchdog_instrs = watchdog;
    options.engine = config.engine;
    if (memory_mode) {
      if (armed && mem_fault) {
        device.memory().inject_fault(mem_fault->addr, mem_fault->mask);
      }
    } else if (armed) {
      options.hook = &injector;
    }
    if (attempt == 0) {
      options.resume_from = resume;
      if (capture) {
        options.capture = &context->kept;
        options.capture_at = grid->mark_at(bucket - 1);
      }
      if (fast) {
        options.golden_tail = golden->tail.get();
        options.live_rows = &golden->live_rows;
        options.memory_base = context->start.get();
      }
    }

    const auto launched = Clock::now();
    auto launch = device.launch(workload.program(), spec.grid, spec.block,
                                spec.params, options);
    if (!launch.is_ok()) return launch.status();
    if (phases) {
      phases->launch.observe(micros_since(launched));
      if (resume && attempt == 0) {
        phases->resume.observe(
            static_cast<f64>(launch.value().resume_ns) * 1e-3);
      }
      if (launch.value().captured) {
        phases->capture.observe(
            static_cast<f64>(launch.value().capture_ns) * 1e-3);
      }
      if (options.hook && config.engine != sim::EngineTier::kInstrumented) {
        phases->prefix.observe(
            static_cast<f64>(launch.value().prefix_ns) * 1e-3);
      }
      if (launch.value().downgraded) {
        phases->post_strike.observe(
            static_cast<f64>(launch.value().post_strike_ns) * 1e-3);
      }
    }
    if (launch.value().reconverged) {
      ff->reconverged(launch.value().dyn_warp_instrs -
                      launch.value().reconverged_at);
    }
    if (options.golden_tail) ff->twin_gave_up(launch.value().twin_gave_up);
    if (metrics) {
      tier_counter[static_cast<int>(launch.value().tier_used)]->inc();
      if (launch.value().downgraded) tier_downgrades->inc();
      generic_warp_instrs->inc(launch.value().generic_warp_instrs);
    }
    if (launch.value().captured) {
      context->kept_bucket = bucket;
      ff->captured(context->kept);
    }
    if (attempt == 0) {
      if (memory_mode) {
        record.effect.activated = mem_fault.has_value();
      } else {
        record.effect = injector.effect();
      }
      first_launch_sbe = launch.value().ecc.corrected_sbe;
    }

    recover::Attempt result;
    result.dyn_instrs = launch.value().dyn_warp_instrs;
    final_check.reset();
    if (launch.value().trap.fired()) {
      result.trap = launch.value().trap;
      return result;
    }
    if (attempt == 0 && !memory_mode && !record.effect.activated) {
      not_activated = true;  // site predicated off; output is golden
      return result;
    }
    const auto checking = Clock::now();
    auto checked = workload.check(device);
    if (phases) phases->check.observe(micros_since(checking));
    if (!checked.is_ok()) return checked.status();
    final_check = checked.value();
    if (checked.value().trap != sim::TrapKind::kNone) {
      // DBE consumed during result copy-back: detected at the API boundary.
      result.trap.kind = checked.value().trap;
    }
    return result;
  };

  // A transient retry relaunches the unfaulted kernel from checkpoint 0: it
  // is the golden launch. The campaign answers it from the golden run's
  // verdict, with no restore, launch or check.
  auto attempt_fn = [&](u32 attempt) -> Result<recover::Attempt> {
    if (attempt == 0 || !ff || !shares_retry_verdict(config, *golden)) {
      return simulate(attempt);
    }
    ff->resumed_retry(golden->dyn_instrs);
    if (metrics) {
      tier_counter[static_cast<int>(sim::EngineTier::kThreaded)]->inc();
    }
    final_check = golden->check;
    return recover::Attempt{.trap = {}, .dyn_instrs = golden->dyn_instrs};
  };

  auto executed = recover::run_with_retry(
      recover::RetryPolicy{config.max_retries}, attempt_fn);
  if (!executed.is_ok()) return executed.status();
  const recover::RetryResult& retry = executed.value();
  record.attempts = retry.attempts;
  record.dyn_instrs = retry.total_dyn_instrs;

  if (retry.gave_up()) {
    record.trap = retry.last_trap.kind;
    record.pre_recovery = outcome_for_trap(retry.first_trap.kind);
    // With recovery off the historical labels (DUE / Hang) stand unchanged.
    record.outcome = config.max_retries == 0 ? record.pre_recovery
                                             : Outcome::kUnrecoverableDue;
    return record;
  }

  if (not_activated) {
    record.outcome = record.pre_recovery = Outcome::kNotActivated;
    return record;
  }

  // Final attempt completed and was checked.
  const wl::CheckResult& result = final_check->result;
  record.error_magnitude = result.max_rel_err;
  if (retry.recovered()) {
    // The run would have been lost without recovery; record what was
    // detected and whether the relaunch actually produced a good answer.
    record.trap = retry.first_trap.kind;
    record.pre_recovery = outcome_for_trap(retry.first_trap.kind);
    record.outcome =
        result.passed() ? Outcome::kRecoveredRetry : Outcome::kSdc;
    return record;
  }
  if (record.effect.corrected_by_ecc) {
    record.outcome = Outcome::kDetectedCorrected;
  } else if (result.bitwise_equal) {
    // For memory mode, credit ECC when the launch observed corrections.
    record.outcome = (memory_mode && first_launch_sbe > 0)
                         ? Outcome::kDetectedCorrected
                         : Outcome::kMasked;
  } else if (result.within_tolerance) {
    record.outcome = Outcome::kMaskedTolerated;
  } else {
    record.outcome = Outcome::kSdc;
  }
  record.pre_recovery = record.outcome;
  return record;
}

}  // namespace

std::size_t strike_bucket(const CampaignConfig& config,
                          const Campaign::Golden& golden, u64 run_index,
                          const PlanEvent* alloc) {
  const u64 b0 =
      alloc ? alloc->checkpoint * config.planner.checkpoint_every : 0;
  const std::optional<sim::InstrGroup> stratum =
      alloc ? Planner::group_for(*alloc, run_index - b0) : std::nullopt;
  Rng rng = Rng::for_stream(config.seed, run_index);
  auto site =
      sample_site(config, golden.profile, golden.dyn_instrs, rng, stratum);
  if (!site.is_ok()) return 0;
  const auto strike =
      InjectorHook(site.value(), config.machine).strike_request();
  return strike ? golden.grid.bucket(*strike) : 0;
}

std::vector<std::size_t> run_order(const CampaignConfig& config,
                                   const Campaign::Golden& golden,
                                   std::span<const u64> indices,
                                   const PlanEvent* alloc) {
  std::vector<std::pair<std::size_t, std::size_t>> keyed;  // bucket, pos
  keyed.reserve(indices.size());
  for (std::size_t pos = 0; pos < indices.size(); ++pos) {
    keyed.emplace_back(strike_bucket(config, golden, indices[pos], alloc),
                       pos);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::size_t> order;
  order.reserve(keyed.size());
  for (const auto& [bucket, pos] : keyed) order.push_back(pos);
  return order;
}

Result<InjectionRecord> Campaign::run_single(
    const CampaignConfig& config, const sim::Profile& profile,
    u64 golden_dyn_instrs, std::size_t run_index,
    const sa::PruneMap* prune_map, bool* pruned_out, obs::Registry* metrics,
    std::optional<sim::InstrGroup> stratum) {
  return run_injection(config, profile, golden_dyn_instrs, run_index,
                       prune_map, pruned_out, metrics, stratum, nullptr,
                       nullptr, 0);
}

Result<sa::PruneMap> Campaign::build_prune_map(const CampaignConfig& config) {
  auto workload = wl::make_workload(config.workload);
  if (!workload) {
    return Status::not_found("unknown workload '" + config.workload + "'");
  }
  sim::Device device(config.machine);
  auto spec = workload->setup(device);
  if (!spec.is_ok()) return spec.status();

  sa::PruneMap map;
  map.analysis = sa::StaticSiteAnalysis::analyze(workload->program());
  sa::SiteMapHook hook(map);
  sim::LaunchOptions options;
  options.hook = &hook;
  options.engine = config.engine;
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params, options);
  if (!launch.is_ok()) return launch.status();
  if (!launch.value().ok()) {
    return Status::internal("prune-map run of '" + config.workload +
                            "' trapped: " + launch.value().trap.to_string());
  }
  auto checked = workload->check(device);
  if (!checked.is_ok()) return checked.status();
  if (checked.value().trap != sim::TrapKind::kNone) {
    return Status::internal("prune-map check of '" + config.workload +
                            "' trapped");
  }
  map.golden_bitwise_equal = checked.value().result.bitwise_equal;
  map.golden_max_rel_err = checked.value().result.max_rel_err;
  return map;
}

Result<CampaignResult> Campaign::run(const CampaignConfig& config_in) {
  // Local normalized copy: the quarantine set is sorted once here so the
  // binary-search lookup inside the hot loop is valid, and everything below
  // (journal headers included) sees the same view.
  CampaignConfig config = config_in;
  config.normalize_quarantine();
  if (config.num_injections == 0) {
    return Status::invalid_argument("num_injections must be > 0");
  }
  if (config.shard_count == 0) {
    return Status::invalid_argument("shard_count must be > 0");
  }
  if (config.shard_index >= config.shard_count) {
    return Status::invalid_argument(
        "shard_index " + std::to_string(config.shard_index) +
        " out of range for shard_count " +
        std::to_string(config.shard_count));
  }
  if (config.planner.active() && config.shard_count > 1 &&
      !config.planner.plan_path) {
    return Status::invalid_argument(
        "adaptive planner: a sharded campaign cannot make planner decisions "
        "locally (no shard sees the full record prefix a decision needs) — "
        "run it under `gpufi run`, which publishes a plan file the workers "
        "follow");
  }
  obs::Registry& reg = config.metrics ? *config.metrics
                                      : obs::Registry::global();

  // Golden-cache effectiveness: the cache is process-wide, so attribute the
  // delta this lookup produced rather than its absolute totals.
  const std::size_t cache_hits_before = GoldenCache::instance().hits();
  const std::size_t cache_misses_before = GoldenCache::instance().misses();
  auto golden = GoldenCache::instance().get_or_run(config);
  reg.counter("campaign.golden_cache.hits")
      .inc(GoldenCache::instance().hits() - cache_hits_before);
  reg.counter("campaign.golden_cache.misses")
      .inc(GoldenCache::instance().misses() - cache_misses_before);
  if (!golden.is_ok()) return golden.status();

  CampaignResult result;
  result.config = config;
  result.profile = golden.value().profile;
  result.golden_dyn_instrs = golden.value().dyn_instrs;
  result.golden_cycles = golden.value().cycles;
  // This shard's strided slice of the global index space. Injection i
  // depends only on (seed, i), so the partition is bit-exact.
  for (u64 i = config.shard_index; i < config.num_injections;
       i += config.shard_count) {
    result.run_indices.push_back(i);
  }
  result.records.resize(result.run_indices.size());

  // Journal: restore completed injections, then append the rest. Planner
  // decisions journaled by the interrupted run are restored alongside them —
  // resume must replay the identical schedule, not recompute a fresh one.
  std::vector<u8> done(result.run_indices.size(), 0);
  std::map<u64, PlanEvent> journaled_allocs;  // checkpoint -> allocation
  std::optional<u64> journaled_stop;
  std::unique_ptr<JournalWriter> writer;
  if (config.journal_path) {
    const std::string& path = *config.journal_path;
    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec) &&
                        std::filesystem::file_size(path, ec) > 0;
    Result<JournalContents> loaded =
        exists ? Journal::load(path)
               : Status::not_found("no journal at " + path);
    if (exists && !loaded.is_ok() &&
        loaded.status().code() != StatusCode::kFailedPrecondition) {
      return loaded.status();  // kFailedPrecondition = torn header: recreate
    }
    if (loaded.is_ok()) {
      auto compatible =
          check_journal_compatible(loaded.value().header, config,
                                   golden.value());
      if (!compatible.is_ok()) return compatible;
      for (const auto& [index, record] : loaded.value().records) {
        if (index >= config.num_injections ||
            index % config.shard_count != config.shard_index) {
          return Status::internal(
              "journal " + path + " contains record " +
              std::to_string(index) + " outside this shard");
        }
        const std::size_t slot =
            (index - config.shard_index) / config.shard_count;
        if (done[slot]) continue;  // duplicate append; first one wins
        done[slot] = 1;
        result.records[slot] = record;
        ++result.resumed;
      }
      for (const PlanEvent& event : loaded.value().plan) {
        if (event.kind == PlanEvent::Kind::kAlloc) {
          journaled_allocs[event.checkpoint] = event;
        } else {
          journaled_stop = event.stop_at;
        }
      }
      auto opened = JournalWriter::open_append(path,
                                               loaded.value().valid_bytes);
      if (!opened.is_ok()) return opened.status();
      writer = std::move(opened).take();
    } else {
      auto created = JournalWriter::create(
          path, make_journal_header(config, golden.value()));
      if (!created.is_ok()) return created.status();
      writer = std::move(created).take();
    }
  }

  // Static dead-site pruning: one instrumented fault-free launch maps every
  // prunable (group, occurrence) site; workers then credit those records
  // analytically instead of simulating them.
  std::optional<sa::PruneMap> prune_map;
  if ((config.prune_dead_sites || config.prune_dead_bits) &&
      (config.model.mode == InjectionMode::kIov ||
       config.model.mode == InjectionMode::kPred)) {
    auto map = build_prune_map(config);
    if (!map.is_ok()) return map.status();
    prune_map = std::move(map).take();
  }

  // Campaign metrics: handles resolved once, bumped from the workers.
  // Outcome counters include journal-restored records, so the final
  // registry snapshot totals match the merged journal's outcome counts.
  std::array<obs::Counter*, kOutcomeCount> outcome_counters{};
  for (int o = 0; o < kOutcomeCount; ++o) {
    outcome_counters[o] = &reg.counter(
        std::string("campaign.outcome.") + to_string(static_cast<Outcome>(o)));
  }
  obs::Counter& attempted = reg.counter("campaign.injections.attempted");
  obs::Counter& completed = reg.counter("campaign.injections.completed");
  obs::Counter& resumed_counter = reg.counter("campaign.injections.resumed");
  obs::Counter& pruned_counter = reg.counter("campaign.injections.pruned");
  obs::Counter& retries = reg.counter("campaign.retries");
  obs::Counter& watchdog_hangs = reg.counter("campaign.watchdog.hangs");
  obs::LatencyHistogram& latency = reg.histogram(
      "campaign.injection.latency_ms", 0.0, 500.0, 50);
  obs::LatencyHistogram& append_latency =
      reg.histogram("campaign.phase.journal_append_us", 0, 500, 500);
  reg.gauge("campaign.injections.total")
      .set(static_cast<f64>(result.run_indices.size()));
  for (std::size_t slot = 0; slot < result.run_indices.size(); ++slot) {
    if (!done[slot]) continue;
    resumed_counter.inc();
    outcome_counters[static_cast<int>(result.records[slot].outcome)]->inc();
    if (result.records[slot].pre_recovery == Outcome::kHang) {
      watchdog_hangs.inc();
    }
  }

  // Heartbeat sidecar: journaled campaigns stream per-shard progress into
  // `<journal>.status.jsonl` for `gpufi status` (obs/heartbeat.h).
  std::unique_ptr<obs::HeartbeatWriter> heartbeat;
  if (config.journal_path) {
    obs::HeartbeatState initial;
    initial.workload = config.workload;
    initial.arch = config.machine.name;
    initial.shard_index = config.shard_index;
    initial.shard_count = config.shard_count;
    initial.total = result.run_indices.size();
    initial.stop_half_width = config.planner.stop.target_half_width;
    initial.outcome_counts.assign(kOutcomeCount, 0);
    initial.done = result.resumed;
    for (std::size_t slot = 0; slot < result.run_indices.size(); ++slot) {
      if (!done[slot]) continue;
      ++initial.outcome_counts[static_cast<int>(
          result.records[slot].outcome)];
    }
    auto created = obs::HeartbeatWriter::create(
        obs::status_path_for_journal(*config.journal_path), initial,
        config.heartbeat_interval_ms);
    if (created.is_ok()) {
      heartbeat = std::move(created).take();
    } else {
      // Telemetry must never abort a campaign: run without the sidecar.
      GFI_LOG(kWarn) << "heartbeat sidecar disabled: "
                     << created.status().message();
    }
  }

  std::vector<Status> errors(result.run_indices.size());
  std::vector<u8> pruned_flags(result.run_indices.size(), 0);
  // Strike order (DESIGN.md §4.14): pending injections run by the grid
  // bucket of their strike, then index (run_order), so each worker's next
  // strike lies at or past the checkpoint its context kept. The order is
  // the same on every tier; only armed launches keep checkpoints. Memory
  // mode strikes no instruction: every bucket is 0, so index order.
  FastForward ff(config, reg);
  // `slots` in run order.
  auto in_run_order = [&](std::vector<std::size_t> slots,
                          const PlanEvent* alloc) {
    std::vector<u64> indices;
    indices.reserve(slots.size());
    for (const std::size_t slot : slots) {
      indices.push_back(result.run_indices[slot]);
    }
    std::vector<std::size_t> order;
    order.reserve(slots.size());
    for (const std::size_t pos :
         run_order(config, golden.value(), indices, alloc)) {
      order.push_back(slots[pos]);
    }
    return order;
  };

  // One injection slot, run by `worker`: sample, simulate (or credit),
  // journal, measure. `stratum` pins the instruction group under a
  // stratified allocation.
  auto run_slot = [&](std::size_t worker, std::size_t slot,
                      std::optional<sim::InstrGroup> stratum) {
    if (done[slot]) return;
    // Generic chaos site: "worker dies at the n-th injection it attempts"
    // (or at a specific global index via key=). The kill is executed inside
    // fp::hit, mid-shard, after some records are already journaled — which
    // is exactly the crash shape the supervisor must recover from.
    if (fp::enabled()) fp::hit("campaign.injection", result.run_indices[slot]);
    attempted.inc();
    bool pruned = false;
    const auto started = std::chrono::steady_clock::now();
    auto record = run_injection(config, result.profile,
                                result.golden_dyn_instrs,
                                result.run_indices[slot],
                                prune_map ? &*prune_map : nullptr, &pruned,
                                &reg, stratum, &golden.value(), &ff, worker);
    latency.observe(
        std::chrono::duration_cast<std::chrono::duration<f64, std::milli>>(
            std::chrono::steady_clock::now() - started)
            .count());
    pruned_flags[slot] = pruned ? 1 : 0;
    if (pruned) pruned_counter.inc();
    if (record.is_ok()) {
      result.records[slot] = std::move(record).take();
      if (writer) {
        const auto appending = Clock::now();
        errors[slot] =
            writer->append(result.run_indices[slot], result.records[slot]);
        append_latency.observe(micros_since(appending));
      }
      const InjectionRecord& final_record = result.records[slot];
      completed.inc();
      outcome_counters[static_cast<int>(final_record.outcome)]->inc();
      if (final_record.attempts > 1) retries.inc(final_record.attempts - 1);
      if (final_record.pre_recovery == Outcome::kHang) watchdog_hangs.inc();
      // After the journal append, so status never runs ahead of the journal.
      if (heartbeat) {
        heartbeat->record(static_cast<int>(final_record.outcome));
      }
    } else {
      errors[slot] = record.status();
    }
  };

  if (!config.planner.active()) {
    // Classic fixed budget: one flat fan-out over the pending slots.
    std::vector<std::size_t> order;
    for (std::size_t slot = 0; slot < result.run_indices.size(); ++slot) {
      if (!done[slot]) order.push_back(slot);
    }
    order = in_run_order(std::move(order), nullptr);
    parallel_for(config.threads, order.size(),
                 [&](std::size_t worker, std::size_t k) {
                   run_slot(worker, order[k], std::nullopt);
                 });
    result.effective_injections = config.num_injections;
  } else {
    auto planner_or = Planner::create(config, result.profile);
    if (!planner_or.is_ok()) return planner_or.status();
    Planner planner = std::move(planner_or).take();
    const u64 k = planner.checkpoint_every();
    const bool follow = config.planner.plan_path.has_value();
    // decide: unsharded (validated above) — this process holds the full
    // record prefix and makes every decision itself. follow: a `gpufi run`
    // worker replaying the supervisor's published plan.
    const bool decide = !follow;

    u64 effective = config.num_injections;
    std::optional<u64> stop_at;
    if (follow && journaled_stop) {
      // Resuming a worker journal that already recorded the supervisor's
      // stop decision: the boundary is authoritative.
      stop_at = journaled_stop;
      effective = std::min<u64>(effective, *journaled_stop);
    }

    // Polls the plan file until the supervisor publishes what block `c`
    // needs: its allocation, or a stop at/before its start.
    auto wait_for_plan = [&](u64 c, u64 b0) -> Result<PlanEvent> {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(config.planner.plan_wait_ms);
      while (true) {
        auto plan_now = load_plan_file(*config.planner.plan_path, config,
                                       golden.value());
        if (plan_now.is_ok()) {
          if (plan_now.value().stop_at && *plan_now.value().stop_at <= b0) {
            PlanEvent stop;
            stop.kind = PlanEvent::Kind::kStop;
            stop.stop_at = *plan_now.value().stop_at;
            return stop;
          }
          auto it = plan_now.value().allocs.find(c);
          if (it != plan_now.value().allocs.end()) return it->second;
        } else if (plan_now.status().code() != StatusCode::kNotFound) {
          return plan_now.status();
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          return Status::internal(
              "timed out after " +
              std::to_string(config.planner.plan_wait_ms) +
              " ms waiting for the supervisor to publish the allocation "
              "for checkpoint " + std::to_string(c) + " in " +
              *config.planner.plan_path);
        }
        // Keep the heartbeat fresh while parked, so the supervisor's stall
        // detector does not mistake waiting for a hang.
        if (heartbeat) heartbeat->idle_beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    };

    std::vector<PlanEvent> allocs_used;
    for (u64 c = 0; c * k < effective; ++c) {
      const u64 b0 = c * k;
      const u64 b1 =
          std::min<u64>(b0 + k, static_cast<u64>(config.num_injections));

      // Resolve this block's allocation (stratified campaigns only).
      std::optional<PlanEvent> alloc;
      const auto journaled = journaled_allocs.find(c);
      if (config.planner.stratify) {
        if (decide) {
          PlanEvent computed = planner.make_alloc(c);
          if (journaled != journaled_allocs.end() &&
              !(journaled->second == computed)) {
            return Status::failed_precondition(
                "journaled allocation for checkpoint " + std::to_string(c) +
                " is not reproduced by this run — the journal was written "
                "under a different plan");
          }
          alloc = computed;
        } else if (journaled != journaled_allocs.end()) {
          alloc = journaled->second;
        } else {
          auto waited = wait_for_plan(c, b0);
          if (!waited.is_ok()) return waited.status();
          if (waited.value().kind == PlanEvent::Kind::kStop) {
            stop_at = waited.value().stop_at;
            effective = std::min<u64>(effective, *stop_at);
            break;
          }
          alloc = waited.value();
        }
      }

      // This shard's slots inside the block.
      std::vector<std::size_t> block_slots;
      const u64 delta = (config.shard_index + config.shard_count -
                         b0 % config.shard_count) % config.shard_count;
      for (u64 i = b0 + delta; i < b1; i += config.shard_count) {
        block_slots.push_back(static_cast<std::size_t>(
            (i - config.shard_index) / config.shard_count));
      }

      // Journal the allocation before its block's records (not on resume if
      // already present, and not when the shard owns none of the block).
      if (alloc && writer && !block_slots.empty() &&
          journaled == journaled_allocs.end()) {
        Status appended = writer->append_plan(*alloc);
        if (!appended.is_ok()) return appended;
      }
      if (alloc) allocs_used.push_back(*alloc);

      const std::vector<std::size_t> order =
          in_run_order(block_slots, alloc ? &*alloc : nullptr);
      parallel_for(config.threads, order.size(),
                   [&](std::size_t worker, std::size_t b) {
                     const std::size_t slot = order[b];
                     run_slot(worker, slot,
                              alloc ? Planner::group_for(
                                          *alloc, result.run_indices[slot] - b0)
                                    : std::nullopt);
                   });
      for (const std::size_t slot : block_slots) {
        if (!errors[slot].is_ok()) return errors[slot];
      }

      if (decide) {
        // Feed the planner the completed prefix in global index order
        // (unsharded, so block_slots IS [b0, b1) in order).
        for (const std::size_t slot : block_slots) {
          planner.observe(result.records[slot]);
        }
        if (config.planner.stopping() && b1 < config.num_injections) {
          if (planner.stop_satisfied()) {
            if (journaled_stop && *journaled_stop != b1) {
              return Status::failed_precondition(
                  "journaled stop at " + std::to_string(*journaled_stop) +
                  " is not reproduced by this run (the stopping rule fired "
                  "at " + std::to_string(b1) + ")");
            }
            if (writer && !journaled_stop) {
              PlanEvent stop;
              stop.kind = PlanEvent::Kind::kStop;
              stop.stop_at = b1;
              Status appended = writer->append_plan(stop);
              if (!appended.is_ok()) return appended;
            }
            stop_at = b1;
            effective = b1;
            break;
          }
          if (journaled_stop && *journaled_stop == b1) {
            return Status::failed_precondition(
                "journaled stop at " + std::to_string(b1) +
                " is not reproduced by this run (the stopping rule did not "
                "fire there)");
          }
        }
      } else {
        // Opportunistic stop check: stop-only workers never block on the
        // plan file, so they may overshoot the boundary by however many
        // blocks they complete before noticing — the merge drops the
        // overshoot deterministically. A plan of another campaign is
        // refused, as wait_for_plan refuses it.
        auto plan_now = load_plan_file(*config.planner.plan_path, config,
                                       golden.value());
        if (!plan_now.is_ok() &&
            plan_now.status().code() != StatusCode::kNotFound) {
          return plan_now.status();
        }
        if (plan_now.is_ok() && plan_now.value().stop_at) {
          stop_at = plan_now.value().stop_at;
          effective = std::min<u64>(effective, *stop_at);
        }
      }
    }

    // Truncate to the effective boundary: blocks beyond it never ran, but a
    // resumed journal may have restored records past a stop published after
    // this shard had raced ahead.
    std::size_t keep = result.run_indices.size();
    while (keep > 0 && result.run_indices[keep - 1] >= effective) --keep;
    for (std::size_t s = keep; s < result.run_indices.size(); ++s) {
      if (done[s]) --result.resumed;
    }
    result.run_indices.resize(keep);
    result.records.resize(keep);
    pruned_flags.resize(keep);

    result.effective_injections = effective;
    result.plan = std::move(allocs_used);
    if (stop_at) {
      PlanEvent stop;
      stop.kind = PlanEvent::Kind::kStop;
      stop.stop_at = *stop_at;
      result.plan.push_back(stop);
    }
    reg.gauge("campaign.planner.effective_injections")
        .set(static_cast<f64>(effective));
    if (stop_at) {
      reg.gauge("campaign.planner.stopped_at").set(static_cast<f64>(*stop_at));
    }
  }

  for (const Status& status : errors) {
    if (!status.is_ok()) return status;
  }
  // Records were appended in run order, as the workers finished them: the
  // finished journal lists them as a run in index order appends them, the
  // bytes a merge of its shards writes.
  if (writer) {
    writer.reset();
    if (Status sorted = Journal::sort_records(*config.journal_path);
        !sorted.is_ok()) {
      return sorted;
    }
  }
  for (u8 flag : pruned_flags) result.pruned += flag;

  for (const InjectionRecord& record : result.records) {
    ++result.outcome_counts[static_cast<int>(record.outcome)];
  }
  if (heartbeat) heartbeat->finish();
  return result;
}

}  // namespace gfi::fi
