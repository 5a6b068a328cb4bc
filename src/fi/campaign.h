// Two-phase fault-injection campaign (NVBitFI style):
//   Phase 1 — golden run with the profiler: dynamic instruction counts per
//             group, golden output, watchdog budget, and the golden tail
//             (write-once words, final memory pages).
//   Phase 2 — N independent injection runs fanned out over host workers
//             (common/parallel_for.h); every run strikes exactly one fault
//             at a uniformly sampled eligible site and is classified
//             against the golden outcome. Each worker owns one context: it
//             sets the workload up once and restores it before every run.
//             Runs go in strike order and each worker resumes from the
//             golden-prefix checkpoint its previous run kept, and an armed
//             first attempt stops once its struck warp rejoins its golden
//             twin (DESIGN.md §4.14).
//             A transient retry is the golden launch again: the golden
//             run's verdict answers it.
//
// Injection i depends only on (config.seed, i), which makes runs resumable
// (fi/journal.h), shardable (CampaignConfig::shard_*), and replayable
// (run_single). Phase 1 results are memoized in process by
// fi/golden_cache.h; a resumed journal's header pins the golden reference,
// and Campaign::run compares the recomputed one against it.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "fi/fault_model.h"
#include "fi/injector.h"
#include "sassim/machine_config.h"
#include "sassim/profiler.h"
#include "sassim/simulator.h"
#include "sassim/trap.h"
#include "workloads/workload.h"

namespace gfi::sa {
struct PruneMap;
}  // namespace gfi::sa

namespace gfi::obs {
class Registry;
}  // namespace gfi::obs

namespace gfi::fi {

/// Classification of one injection run.
enum class Outcome : u8 {
  kMasked,             ///< bitwise-identical output
  kMaskedTolerated,    ///< output differs but within workload tolerance
  kSdc,                ///< silent data corruption (beyond tolerance)
  kDue,                ///< detected unrecoverable error (trap / ECC DBE)
  kHang,               ///< watchdog timeout
  kDetectedCorrected,  ///< ECC corrected the fault (no corruption occurred)
  kNotActivated,       ///< site was predicated off / never consumed
  // Recovery outcomes (max_retries > 0 only): what a DUE/Hang turned into
  // after checkpoint-restore relaunches (recover/retry.h).
  kRecoveredRetry,     ///< trapped, then a relaunch from checkpoint passed
  kUnrecoverableDue,   ///< trapped on every allowed relaunch attempt
  /// Supervisor verdict, never produced by a simulation: this injection
  /// repeatedly killed its worker process and was skipped after K attempts
  /// (CampaignConfig::quarantine) so the rest of the shard could finish.
  kQuarantined,
};

inline constexpr int kOutcomeCount =
    static_cast<int>(Outcome::kQuarantined) + 1;
const char* to_string(Outcome outcome);

/// The campaign classifier's trap rule: a watchdog timeout is a Hang,
/// everything else a trap can report is a DUE.
Outcome outcome_for_trap(sim::TrapKind kind);

/// Adaptive-campaign planner knobs (fi/planner.h). Off by default: a
/// campaign with an inactive planner runs the classic fixed budget and
/// writes byte-identical journals to pre-planner builds.
struct PlannerConfig {
  /// Sequential early stopping: once every tracked outcome rate (Masked,
  /// SDC, DUE — planner_tracked_outcomes()) has a Wilson CI no wider than
  /// this on each side, the campaign halts at the checkpoint boundary.
  /// target_half_width <= 0 disables stopping.
  stats::StoppingRule stop;
  /// Checkpoint period K: planner decisions (stop / reallocate) happen only
  /// after a multiple of K global injections has completed, so the decision
  /// is a pure function of a deterministic record prefix.
  u64 checkpoint_every = 100;
  /// Stratified allocation: split each checkpoint block across instruction
  /// groups (dynamic-frequency strata from the profile), reallocating
  /// Neyman-style from the observed per-group spread at every checkpoint.
  bool stratify = false;
  /// Follow an externally computed plan (`gpufi run` workers): the worker
  /// polls this file for the supervisor's alloc/stop events instead of
  /// deciding anything itself — sharded workers never see the full global
  /// prefix a decision needs.
  std::optional<std::string> plan_path;
  /// How long a plan-following worker waits for the supervisor to publish
  /// the next checkpoint's allocation before giving up (the supervisor then
  /// relaunches it with backoff).
  u64 plan_wait_ms = 120000;

  [[nodiscard]] bool stopping() const { return stop.enabled(); }
  [[nodiscard]] bool active() const { return stopping() || stratify; }
  bool operator==(const PlannerConfig&) const = default;
};

/// One journaled planner decision. Decisions are replayable log entries
/// exactly like injection records: resume, sharding, and merge reproduce the
/// identical schedule from them.
struct PlanEvent {
  enum class Kind : u8 {
    kAlloc,  ///< per-group injection allocation for one checkpoint block
    kStop,   ///< sequential stopping rule fired at a checkpoint boundary
  };
  Kind kind = Kind::kStop;
  /// kAlloc: block ordinal c — the block covers global indices
  /// [c*K, min((c+1)*K, num_injections)).
  u64 checkpoint = 0;
  /// kStop: the boundary B; only indices < B belong to the campaign.
  u64 stop_at = 0;
  /// kAlloc: injections assigned to each instruction group (enum order);
  /// zero for groups the fault mode cannot target.
  std::array<u64, sim::kInstrGroupCount> alloc{};

  bool operator==(const PlanEvent&) const = default;
};

struct CampaignConfig {
  std::string workload;            ///< registry name
  sim::MachineConfig machine;      ///< arch preset (a100() / h100() / toy())
  FaultModel model;
  /// Dispatch tier forwarded to every launch of the campaign (golden run
  /// included). kThreaded — the default — runs injections armed and
  /// resumes them from golden-prefix checkpoints; kInstrumented runs every
  /// launch instrumented from instruction 0, the reference tier-equivalence
  /// CI diffs paired-seed journals against byte-for-byte. Like
  /// `quarantine`, deliberately NOT part of the journal header: both tiers
  /// are bit-identical, so a journal is resumable under either.
  sim::EngineTier engine = sim::EngineTier::kThreaded;
  /// Instruction-group filter for IOV/PRED/IOA. nullopt = sample across all
  /// groups the mode can target, weighted by dynamic frequency.
  std::optional<sim::InstrGroup> group;
  std::size_t num_injections = 1000;
  u64 seed = 0x5eed;
  /// Workers, the calling thread among them (parallel_for); 0 = hardware
  /// concurrency.
  std::size_t threads = 0;
  /// Fixes the flipped bit index for all runs (bit-sensitivity sweeps);
  /// nullopt = uniform random bit per run.
  std::optional<u32> fixed_bit;

  // --- scale-out ---------------------------------------------------------
  /// Shard `shard_index` of `shard_count` runs the global injection indices
  /// i with i % shard_count == shard_index. Every injection derives its RNG
  /// stream from (seed, global index), so N shards partition the same
  /// campaign bit-exactly and merge_journals() recombines them.
  u32 shard_index = 0;
  u32 shard_count = 1;
  /// JSONL journal path: every completed injection is appended and flushed;
  /// if the file already exists (and matches this campaign) journaled
  /// injections are skipped — crash/kill + rerun resumes where it stopped.
  std::optional<std::string> journal_path;

  // --- per-injection watchdog --------------------------------------------
  /// A faulty run is aborted as kHang after 3 * golden_dyn_instrs + 10000
  /// dynamic warp instructions: generous enough that slow-but-progressing
  /// runs finish, tight enough that one hung injection cannot wedge a shard.
  /// This overrides that budget (tests / pathological kernels).
  std::optional<u64> watchdog_instrs;

  // --- recovery ----------------------------------------------------------
  /// Global injection indices the supervisor has condemned: run_single
  /// records them as kQuarantined (site still sampled — the RNG stream is
  /// untouched — but nothing is simulated, so a poison injection that
  /// crashes the process cannot fire again). Kept out of the journal
  /// header so a quarantined resume stays compatible with earlier journals.
  /// Must be sorted (normalize_quarantine()): is_quarantined runs once per
  /// injection inside the hot parallel_for, where the old linear scan cost
  /// O(|quarantine|) per record.
  std::vector<u64> quarantine;
  [[nodiscard]] bool is_quarantined(u64 run_index) const {
    return std::binary_search(quarantine.begin(), quarantine.end(),
                              run_index);
  }
  /// Sorts + dedups `quarantine` into the form is_quarantined requires.
  /// Campaign::run applies this to its own copy, so callers may pass the
  /// set in any order.
  void normalize_quarantine() {
    std::sort(quarantine.begin(), quarantine.end());
    quarantine.erase(std::unique(quarantine.begin(), quarantine.end()),
                     quarantine.end());
  }

  /// >0 enables trap-and-retry: a run ending in a detected error (DUE or
  /// Hang) is restored to its pre-launch checkpoint and relaunched up to
  /// this many extra times. A retry that completes and passes its check is
  /// kRecoveredRetry; one that traps on every attempt is kUnrecoverableDue.
  /// Whether the retry sees the fault again is model.persistence. SDCs are
  /// never retried — nothing detected them. Campaign::run answers a
  /// transient retry on the default tier from the golden run's verdict
  /// when the watchdog budget exceeds the golden length; run_single and
  /// the kInstrumented pin simulate every retry.
  u32 max_retries = 0;

  // --- observability (src/obs) -------------------------------------------
  /// Metrics sink for campaign counters and latency histograms; nullptr
  /// uses obs::Registry::global(). Telemetry is purely additive: records,
  /// RNG streams, and outcome tables are bit-identical with or without it.
  obs::Registry* metrics = nullptr;
  /// Heartbeat flush interval for the `<journal>.status.jsonl` sidecar
  /// (written only when journal_path is set). 0 beats after every record.
  u64 heartbeat_interval_ms = 2000;

  // --- static pruning (sa/ace.h) -----------------------------------------
  /// Skip simulating IOV/PRED sites whose strike footprint is statically
  /// dead (or has nothing to corrupt): the record is credited analytically
  /// with the outcome the simulation would have produced, so results stay
  /// bit-identical to an unpruned campaign on the same seeds while the
  /// pruned launches cost nothing. Ignored for other modes.
  bool prune_dead_sites = false;
  /// Superset of prune_dead_sites (implies it): additionally credit
  /// single/double-bit flips whose sampled bits all land on statically dead
  /// bits of a partially-dead footprint (sa/bitlive.h). Same bit-identity
  /// guarantee; other flip models at partial sites are still simulated.
  bool prune_dead_bits = false;

  // --- adaptive planner (fi/planner.h) -----------------------------------
  /// Sequential stopping + stratified allocation. Inactive by default.
  PlannerConfig planner;
};

struct InjectionRecord {
  Outcome outcome = Outcome::kNotActivated;
  /// Classification before any recovery ran (== outcome when the run didn't
  /// trap or max_retries is 0): what this injection would have cost an
  /// unprotected system.
  Outcome pre_recovery = Outcome::kNotActivated;
  u32 attempts = 1;  ///< launches consumed (1 = no retry needed)
  FaultSite site;
  InjectionEffect effect;
  sim::TrapKind trap = sim::TrapKind::kNone;
  f64 error_magnitude = 0.0;  ///< max relative output error when mismatched
  u64 dyn_instrs = 0;  ///< dynamic warp instructions, summed over attempts
};

struct CampaignResult {
  CampaignConfig config;
  sim::Profile profile;  ///< golden dynamic-instruction profile
  u64 golden_dyn_instrs = 0;
  u64 golden_cycles = 0;
  std::vector<InjectionRecord> records;
  /// Global injection index of records[k] (0..n-1 unsharded; the shard's
  /// strided subsequence otherwise).
  std::vector<u64> run_indices;
  /// How many of `records` were restored from the journal instead of run.
  std::size_t resumed = 0;
  /// How many of `records` were credited analytically by dead-site pruning
  /// instead of simulated (prune_dead_sites only).
  u64 pruned = 0;
  /// Global injections the campaign actually covers: num_injections, or the
  /// stop boundary when the sequential stopping rule fired early. records /
  /// run_indices only contain indices below this.
  u64 effective_injections = 0;
  /// Planner decisions in effect for this run (journaled ones included),
  /// allocs in checkpoint order followed by the stop event if any.
  std::vector<PlanEvent> plan;
  std::array<u64, kOutcomeCount> outcome_counts{};

  [[nodiscard]] u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<int>(outcome)];
  }
  /// Rate of `outcome` among all injections.
  [[nodiscard]] f64 rate(Outcome outcome) const;
  /// 95% Wilson interval for that rate.
  [[nodiscard]] stats::Interval rate_interval(Outcome outcome) const;
};

/// Spacing, in warp instructions, of the golden issue grid (Golden::grid):
/// the marks a kept checkpoint sits at.
inline constexpr u64 kStrikeGridStep = 64;

class Campaign {
 public:
  /// Runs the full two-phase campaign.
  static Result<CampaignResult> run(const CampaignConfig& config);

  /// Replays a single injection (used by tests and for debugging): returns
  /// the record produced for global run index `i` of `config`, on a device
  /// set up for this call alone, launched from instruction 0 and run to
  /// its end: it never resumes and never stops at reconvergence. Sharding,
  /// fast-forward and early stops never change what a given index
  /// produces. When `prune_map` is given
  /// and the sampled site is prunable, the record is filled analytically
  /// without simulating (and `*pruned_out` is set when provided) — the
  /// record is field-identical to what the simulation would produce.
  /// `metrics`, when given, receives the engine.dispatch.* tier counters; it
  /// never influences the record produced. `stratum`, when given, pins the
  /// sampled instruction group (stratified campaigns assign each index its
  /// group from the journaled allocation; the pinned path consumes no group
  /// RNG draw, so the record stays a pure function of (seed, index, plan)).
  static Result<InjectionRecord> run_single(
      const CampaignConfig& config, const sim::Profile& profile,
      u64 golden_dyn_instrs, std::size_t run_index,
      const sa::PruneMap* prune_map = nullptr, bool* pruned_out = nullptr,
      obs::Registry* metrics = nullptr,
      std::optional<sim::InstrGroup> stratum = std::nullopt);

  /// Builds the dynamic prune map for `config`'s workload: one fault-free
  /// instrumented launch recording every prunable (group, occurrence) site,
  /// plus the golden check outcome used to credit dead sites analytically.
  static Result<sa::PruneMap> build_prune_map(const CampaignConfig& config);

  /// Phase-1 only: golden profile for a (workload, machine) pair.
  struct Golden {
    sim::Profile profile;
    u64 dyn_instrs = 0;
    u64 cycles = 0;
    /// Per-group issue counts every kStrikeGridStep warp instructions:
    /// where each injection's strike falls (strike_bucket).
    sim::IssueGrid grid;
    /// The program's live-in register rows (sa::live_in_rows): what a
    /// checkpoint keeps of each warp, and which rows an injection's struck
    /// warp must agree on with its golden twin to stop early.
    sim::LiveRows live_rows;
    /// The golden launch's write-once words, final memory pages and their
    /// writers, which an armed first attempt of Campaign::run finishes from
    /// when it stops at reconvergence (DESIGN.md §4.14); null when
    /// needs_golden_tail() is false. Shared: a GoldenCache lookup copies
    /// the Golden.
    std::shared_ptr<const sim::GoldenTail> tail;
    /// The golden launch's output check: with no trap and dyn_instrs warp
    /// instructions, what every transient retry of Campaign::run reports.
    wl::Workload::Checked check;
  };
  static Result<Golden> golden_run(const CampaignConfig& config);
};

/// Whether Campaign::golden_run records a GoldenTail for `config`: in
/// every mode but memory mode, whose campaigns strike no instruction and
/// so never stop at reconvergence.
[[nodiscard]] bool needs_golden_tail(const CampaignConfig& config);

/// The strike-order key of global injection `run_index`, whose planner
/// block has the stratified allocation `alloc` (null without one): how
/// many marks of golden.grid lie before its strike, 0 when its site cannot
/// be sampled or strikes no instruction (memory mode).
[[nodiscard]] std::size_t strike_bucket(const CampaignConfig& config,
                                        const Campaign::Golden& golden,
                                        u64 run_index, const PlanEvent* alloc);

/// The order in which Campaign::run runs the pending global injections
/// `indices` (ascending) of a flat slice or of one planner block with
/// allocation `alloc` (DESIGN.md §4.14): positions into `indices`, by
/// (strike_bucket, index), so memory mode keeps them as given. Every
/// context of a campaign keeps golden-prefix checkpoints of the armed
/// launches it runs, unless the campaign is pinned to kInstrumented.
[[nodiscard]] std::vector<std::size_t> run_order(
    const CampaignConfig& config, const Campaign::Golden& golden,
    std::span<const u64> indices, const PlanEvent* alloc);

}  // namespace gfi::fi
