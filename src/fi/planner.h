// Adaptive campaign planner: sequential early stopping + stratified
// allocation, with every decision journaled so it replays bit-exactly.
//
// Determinism contract: injection record i is a pure function of
// (config.seed, global index i, plan). The plan itself is a pure function
// of the record prefix at checkpoint boundaries — a decision for boundary
// B = c*K may only read records [0, B), and the campaign executes blocks
// [c*K, (c+1)*K) strictly in order. Any party holding the complete prefix
// (an unsharded campaign in-process, or the supervisor pooling its shard
// journals) therefore computes the identical schedule, and a resumed,
// sharded, or merged campaign is byte-identical to an uninterrupted
// unsharded one.
//
// Decisions made:
//   * stop     — halt at boundary B once every tracked outcome rate
//                (Masked / SDC / DUE) has a Wilson CI inside the target
//                half-width (stats::StoppingRule, with a min-sample floor);
//   * alloc    — per-block split of the K injections across instruction
//                groups: proportional to the profile's dynamic-frequency
//                strata for block 0, Neyman-reweighted (W_g * s_g with the
//                observed per-group SDC spread) at every later checkpoint.
//
// Sharded campaigns cannot decide locally (no shard sees the full prefix),
// so `gpufi run` workers follow a shared plan file (`<dir>/plan.jsonl`)
// that the supervisor appends decisions to as global prefixes complete.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fi/campaign.h"

namespace gfi::fi {

/// The outcome rates the stopping rule must bound: the paper's headline
/// Masked / SDC / DUE cells. A fixed set, so the stop decision never
/// depends on which outcomes a particular run happened to produce.
const std::vector<Outcome>& planner_tracked_outcomes();

/// Checkpoint-block geometry and the deterministic decision state. Feed it
/// every record of the prefix (order within a block does not matter —
/// decisions only read counts at block boundaries) and ask for decisions
/// at boundaries.
class Planner {
 public:
  /// Validates the planner config against the campaign (stratify needs an
  /// instruction-targeted mode with no pinned group and at least one
  /// eligible stratum; stopping needs a valid confidence level).
  static Result<Planner> create(const CampaignConfig& config,
                                const sim::Profile& profile);

  [[nodiscard]] u64 checkpoint_every() const { return k_; }
  /// Global index range [start, end) of block `c`.
  [[nodiscard]] u64 block_start(u64 c) const { return c * k_; }
  [[nodiscard]] u64 block_end(u64 c) const;

  /// Accumulates one completed record of the prefix.
  void observe(const InjectionRecord& record);
  /// Injections observed so far (== the prefix boundary when fed in block
  /// order).
  [[nodiscard]] u64 observed() const { return observed_; }

  /// True when every tracked outcome's Wilson CI over the observed prefix
  /// is inside the target half-width (and the min-sample floor is met).
  [[nodiscard]] bool stop_satisfied() const;

  /// The allocation decision for block `c`, computed from the counts
  /// observed so far (the caller must have observed exactly [0, c*K)).
  [[nodiscard]] PlanEvent make_alloc(u64 c) const;

  /// The instruction group assigned to offset `i - block_start` under an
  /// allocation; nullopt when the offset exceeds the allocated total.
  static std::optional<sim::InstrGroup> group_for(const PlanEvent& alloc,
                                                  u64 offset);

  /// Eligible strata (instruction groups the mode targets with nonzero
  /// dynamic count), in enum order, and their profile weights.
  [[nodiscard]] const std::vector<sim::InstrGroup>& eligible() const {
    return eligible_;
  }
  [[nodiscard]] const std::vector<f64>& weights() const { return weights_; }

  /// Cumulative per-outcome counts over the observed prefix.
  [[nodiscard]] const std::array<u64, kOutcomeCount>& outcome_counts() const {
    return outcome_counts_;
  }

 private:
  Planner() = default;

  stats::StoppingRule rule_;
  bool stratify_ = false;
  u64 k_ = 100;
  u64 num_injections_ = 0;
  std::vector<sim::InstrGroup> eligible_;
  std::vector<f64> weights_;  ///< dynamic-frequency share per eligible group
  u64 observed_ = 0;
  std::array<u64, kOutcomeCount> outcome_counts_{};
  // Neyman inputs, indexed like eligible_: per-stratum trials and SDCs.
  std::vector<u64> group_trials_;
  std::vector<u64> group_sdc_;
};

// ------------------------------------------------- event serialization ---

/// One JSONL line for a decision (no trailing newline):
///   {"plan":"alloc","ckpt":2,"alloc":[40,0,35,...]}
///   {"plan":"stop","at":600}
/// The same format appears in journals (fi/journal.h) and the plan file.
std::string plan_event_line(const PlanEvent& event);
Result<PlanEvent> parse_plan_event(const std::string& line);
/// Cheap dispatch test: plan lines always start with `{"plan":`.
bool is_plan_line(const std::string& line);

// ------------------------------------------------------ the plan file ---
//
// `gpufi run` publishes supervisor decisions to `<dir>/plan.jsonl`: the
// unsharded campaign's journal header under the plan magic (fi/journal.h
// campaign_header_line), then one PlanEvent line per decision, appended and
// flushed as each global prefix completes.
// Workers poll it (Campaign follows it when CampaignConfig::planner
// .plan_path is set); it uses the same line format as journaled plan
// events, so the two logs stay trivially comparable.

struct PlanFileContents {
  std::map<u64, PlanEvent> allocs;  ///< keyed by checkpoint ordinal
  std::optional<u64> stop_at;
  u64 valid_bytes = 0;  ///< end of the last kept line (jsonl::read_log)
};

/// The plan-file header line for a campaign, shard fields normalised to
/// 0/1 (no trailing newline).
std::string plan_file_header(const CampaignConfig& config,
                             const Campaign::Golden& golden);

/// Loads a plan file under the log rule of common/jsonl.h (the supervisor
/// may die mid-append; everything before the tear is still authoritative).
/// Its header must bind the campaign `config` (any shard of it) and
/// `golden`: kFailedPrecondition names the first differing field. kNotFound
/// when the file does not exist yet.
Result<PlanFileContents> load_plan_file(const std::string& path,
                                        const CampaignConfig& config,
                                        const Campaign::Golden& golden);

/// Appends one decision line (+ flush) to the plan file. The file must end
/// on a whole line: a resumed supervisor first cuts a torn tail off with
/// jsonl::open_append.
Status append_plan_event(const std::string& path, const PlanEvent& event);

}  // namespace gfi::fi
