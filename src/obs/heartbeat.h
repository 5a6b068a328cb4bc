// Periodic per-shard heartbeat stream for long-running campaigns.
//
// Each campaign shard appends self-contained progress records to a sidecar
// file next to its journal (`<journal>.status.jsonl`), one flushed JSONL
// line per beat:
//
//   {"ev":"heartbeat","workload":"gemm","arch":"A100","shard":0,
//    "shard_count":4,"done":120,"total":250,"outcome_counts":[...],
//    "t_s":9.8,"rate":12.2,"eta_s":10.6}
//
// The final line on completion carries ev:"done". The writer flushes every
// line, so a killed shard leaves at worst one torn trailing line. Readers
// follow the log rule of common/jsonl.h with its one exception for racing
// the writer: a line that does not parse is skipped wherever it is, and the
// last parseable record wins.
// Heartbeats deliberately live in a sidecar, NOT interleaved in the journal:
// the journal is the campaign's replayable source of truth and must stay a
// dense record-per-injection log that merge/resume can validate; heartbeats
// are disposable telemetry, overwritten per run and never merged.
//
// The serialization uses the same flat-JSONL helpers as fi::Journal
// (common/jsonl.h), so non-finite rates/ETAs (an idle shard has rate 0 and
// ETA NaN) are valid JSON (`null`) and parse back as NaN.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace gfi::obs {

/// One parsed heartbeat record; also the writer's identity/progress state.
struct HeartbeatState {
  std::string workload;
  std::string arch;
  u32 shard_index = 0;
  u32 shard_count = 1;
  u64 done = 0;           ///< completed injections (resumed ones included)
  u64 total = 0;          ///< this shard's slice size
  std::vector<u64> outcome_counts;  ///< indexed by fi::Outcome order
  f64 elapsed_s = 0.0;    ///< wall seconds since the shard (re)started
  f64 rate = 0.0;         ///< injections/s this session (0 until work runs)
  f64 eta_s = 0.0;        ///< remaining/rate; NaN when rate is 0
  /// Adaptive-campaign stop target (0 when the stopping rule is off).
  /// Serialized only when nonzero, so planner-off sidecars are unchanged;
  /// `gpufi status` uses it to render per-outcome CI convergence.
  f64 stop_half_width = 0.0;
  bool finished = false;  ///< last record carried ev:"done"
};

/// Serializes one heartbeat line (no trailing newline). `ev` is "heartbeat"
/// or "done".
std::string heartbeat_line(const HeartbeatState& state);

/// Parses one line; fails on malformed/torn input.
Result<HeartbeatState> parse_heartbeat(const std::string& line);

/// Loads a sidecar file and returns the LAST parseable complete record (a
/// torn or corrupt line never hides other progress). Fails only when no
/// record parses at all.
Result<HeartbeatState> load_status_file(const std::string& path);

/// The sidecar path for a journal: `<journal>.status.jsonl`.
std::string status_path_for_journal(const std::string& journal_path);

/// Milliseconds since the sidecar file was last written — the supervisor's
/// stall signal: a live shard beats at least every heartbeat interval, so a
/// sidecar far older than that means the worker is hung (or its IO is).
/// kNotFound when the sidecar does not exist yet.
Result<u64> sidecar_age_ms(const std::string& path);

/// Thread-safe heartbeat emitter. record() is called once per completed
/// injection; a line is written when `interval_ms` has elapsed since the
/// last one (0 = every record, used by tests), and finish()/the destructor
/// always write a final line so crashes and error returns leave fresh state.
class HeartbeatWriter {
 public:
  /// Truncates `path` and writes an initial heartbeat for `initial` (which
  /// carries identity plus any resumed progress).
  static Result<std::unique_ptr<HeartbeatWriter>> create(
      const std::string& path, const HeartbeatState& initial, u64 interval_ms);

  ~HeartbeatWriter();
  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  /// Counts one completed injection with the given outcome index and beats
  /// if the interval elapsed. Out-of-range indices only bump `done`.
  void record(int outcome_index);

  /// Beats without counting progress, if the interval elapsed. Called by
  /// plan-following workers while parked waiting for the supervisor, so the
  /// stall detector can tell "waiting" from "hung".
  void idle_beat();

  /// Writes the final ev:"done" record.
  void finish();

 private:
  HeartbeatWriter(std::FILE* file, HeartbeatState state, u64 interval_ms);

  void write_line_locked(bool done_event);

  std::FILE* file_ = nullptr;
  std::mutex mutex_;
  HeartbeatState state_;
  u64 session_start_done_ = 0;  ///< `done` at create() (resumed records)
  u64 interval_ms_ = 0;
  bool finished_ = false;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_beat_;
};

}  // namespace gfi::obs
