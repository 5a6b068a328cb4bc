// Campaign benchmark: runs one named campaign workload in this process and
// measures what a user of gpufi pays for it.
//
// A workload is a list of cells (workload kernel x arch, each a full
// fi::CampaignConfig). The run is a number of passes over a fixed list of
// rows; a row holds one unit per cell — a campaign with its own seed —
// followed by one cold set-up of every cell. The number of rows is fixed
// per workload and --seconds, never sized from the host's speed, so every
// run times the same campaigns. Every unit and set-up item is timed once
// per pass. A one-thread unit is timed in process CPU seconds, which leave
// out a virtual machine's steal time; a unit with worker threads in wall
// seconds, so waits at barriers count. Each repeat's time is scaled to the
// nominal speed of a host reference sampled just before it (host_ref.h),
// and each item's time is the median of its scaled repeats:
//
//   inj_per_s = sum(unit injections) / sum(median scaled repeat of each unit)
//   setup_s   = sum(median scaled repeat of each set-up item)
//
// Repeats double as the output check: every repeat of a unit must produce
// records identical to its first run.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "fi/campaign.h"
#include "trace.h"

namespace gfi::cbench {

enum class WorkloadKind { kIovMix, kMemRetry, kJournalAdaptive };

/// Parses a workload name (iov-mix, mem-retry, journal-adaptive).
std::optional<WorkloadKind> parse_workload(const std::string& name);
const char* workload_name(WorkloadKind kind);

struct Cell {
  std::string label;  ///< "<kernel>/<arch>", also the span cell id
  fi::CampaignConfig config;  ///< seed and sizes are set per unit
};

/// Everything that defines one workload.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kIovMix;
  std::vector<Cell> cells;
  /// Injections per unit (journal-adaptive: campaign size before stopping).
  std::size_t unit_injections = 0;
  /// Rows a run of --seconds 30 times; other lengths scale it.
  f64 rows_per_30s = 0.0;
  /// Journal-adaptive: resumed units cut their reference journal inside
  /// the record at this fraction of the completed records.
  f64 resume_cut = 0.0;
  /// The set-up includes SWIFT registration (hardening every built-in
  /// kernel once, as register_hardened_workloads does at start-up).
  bool swift_registration = false;
};

WorkloadSpec make_spec(WorkloadKind kind);

struct Options {
  WorkloadKind workload = WorkloadKind::kIovMix;
  u64 seed = 1;
  f64 seconds = 10.0;
  bool trace = false;
  std::string work_dir;    ///< scratch journals and sidecars
  std::string trace_path;  ///< where the traced run writes its spans
};

/// Number of passes; each unit and set-up item is timed this many times.
inline constexpr std::size_t kPasses = 3;
/// Passes of the traced run, which times every unit twice per pass (once
/// untraced, once traced) and probes the layers besides.
inline constexpr std::size_t kTracedPasses = 2;
/// Rows every run contains whatever its speed: their records are the
/// pinned output check and their counters the exact per-layer counts.
inline constexpr std::size_t kCheckRows = 2;

struct Metric {
  std::string name;
  f64 value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> mismatches;  ///< empty when every check held
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// One fingerprint line per check unit (records digest, outcome counts,
  /// stop boundary, exact counters), compared against the pinned file on
  /// the pinned seed.
  std::vector<std::string> fingerprint;
};

/// Runs one workload for options.seconds and returns its metrics: the
/// end-to-end ones untraced, the per-layer ones when options.trace.
Result<RunResult> run_benchmark(const Options& options);

// ------------------------------------------------- per-layer probes ---

/// Samples and exact counts gathered by the traced run.
struct LayerStats {
  std::vector<f64> clean_minstr_per_s;
  /// Per cell: median run_single and median clean launch, for the ratio.
  std::map<std::string, std::vector<f64>> run_single_s;
  std::map<std::string, std::vector<f64>> clean_launch_s;
};

/// Times the sassim and workloads layers on one cell: make, first decode,
/// device + setup, snapshot/restore, clean and instrumented launches, check.
Status probe_launch_layers(const Cell& cell, Tracer& tracer,
                           LayerStats& stats);

/// Times the static-analysis, hardening and prune-map layers on one cell.
Status probe_static_layers(const Cell& cell, Tracer& tracer);

/// Replays `records` of a finished campaign through the journal writer and
/// reader, the planner and the heartbeat writer, timing each call.
Status probe_loop_layers(const Cell& cell, const fi::CampaignConfig& config,
                         const fi::Campaign::Golden& golden,
                         const std::vector<fi::InjectionRecord>& records,
                         const std::string& scratch_prefix, Tracer& tracer);

/// Per-layer metrics from the spans and samples of a traced run.
void append_layer_metrics(const Tracer& tracer, const LayerStats& stats,
                          std::vector<Metric>& out);

}  // namespace gfi::cbench
