#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>

#include "bench.h"
#include "host_ref.h"
#include "common/rng.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "harden/swift.h"
#include "obs/heartbeat.h"
#include "obs/registry.h"
#include "sa/ace.h"
#include "workloads/workload.h"

namespace gfi::cbench {
namespace {

constexpr u64 kFnvBasis = 0xcbf29ce484222325ULL;

u64 fnv1a(u64 hash, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex(u64 value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Digest of every record of a campaign, in its journal serialization.
u64 records_digest(const fi::CampaignResult& result) {
  u64 hash = kFnvBasis;
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    hash = fnv1a(hash, fi::Journal::record_line(result.run_indices[i],
                                                result.records[i]));
  }
  return hash;
}

std::string outcome_list(const fi::CampaignResult& result) {
  std::string out;
  for (int o = 0; o < fi::kOutcomeCount; ++o) {
    if (o) out += ',';
    out += std::to_string(result.outcome_counts[o]);
  }
  return out;
}

/// The registry counters the traced run reports as exact counts; they must
/// repeat bit-for-bit whenever the same campaign runs again.
const std::vector<std::string>& exact_counters() {
  static const std::vector<std::string> names = {
      "campaign.injections.attempted", "campaign.injections.pruned",
      "campaign.retries",              "engine.dispatch.clean",
      "engine.dispatch.downgrades",    "engine.dispatch.instrumented",
      "engine.dispatch.threaded"};
  return names;
}

std::map<std::string, u64> counter_values(const obs::Registry& registry) {
  const obs::Snapshot snapshot = registry.snapshot();
  std::map<std::string, u64> out;
  for (const std::string& name : exact_counters()) {
    const auto it = snapshot.counters.find(name);
    out[name] = it == snapshot.counters.end() ? 0 : it->second;
  }
  return out;
}

std::string counter_list(const std::map<std::string, u64>& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!out.empty()) out += ',';
    out += name + "=" + std::to_string(value);
  }
  return out;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::not_found("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Status write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return out ? Status::ok() : Status::internal("cannot write " + path);
}

/// Byte offset in the middle of the record line that completes
/// `fraction` of the journal's records: loading the prefix keeps every
/// earlier line and drops the torn one, as after a crash mid-append.
std::size_t cut_offset(const std::string& journal, f64 fraction) {
  std::vector<std::pair<std::size_t, std::size_t>> records;  // start, length
  std::size_t start = journal.find('\n') + 1;  // skip the header
  while (start < journal.size()) {
    const std::size_t end = journal.find('\n', start);
    const std::size_t length =
        (end == std::string::npos ? journal.size() : end) - start;
    if (journal.compare(start, 8, "{\"plan\":") != 0) {
      records.emplace_back(start, length);
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  if (records.empty()) return journal.size();
  const std::size_t pick = std::min(
      records.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<f64>(records.size())));
  return records[pick].first + records[pick].second / 2;
}

/// Digest of a journal in canonical form. Worker threads append records
/// in completion order, so two runs of one multi-threaded campaign differ
/// in line order; write_merged_journal rewrites a journal in the byte form
/// an uninterrupted single-threaded run writes, the form the resume and
/// merge guarantees are stated in.
Result<u64> canonical_journal_digest(const std::string& path) {
  auto merged = fi::merge_journals({path});
  if (!merged.is_ok()) return merged.status();
  const std::string canonical = path + ".canonical";
  Status written = fi::write_merged_journal(canonical, merged.value());
  if (!written.is_ok()) return written;
  auto bytes = read_file(canonical);
  if (!bytes.is_ok()) return bytes.status();
  return fnv1a(kFnvBasis, bytes.value());
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss would also carry the peak of the process that exec'd us (the
/// launcher script), which can exceed ours.
f64 peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

f64 median(const std::vector<f64>& times) { return quantile(times, 0.5); }

/// One campaign of one cell: timed once per pass.
struct Unit {
  std::size_t id = 0;
  std::size_t cell = 0;
  std::size_t row = 0;
  u64 seed = 0;
  u64 injections = 0;  ///< injections one repeat runs (fresh, on resume)
  u64 digest = 0;      ///< records of the first repeat (journal: canonical)
  std::string counters;     ///< exact counters of the first repeat
  std::string cut;  ///< journal-adaptive: uninterrupted journal, torn mid-way
  std::string journal_path; ///< journal-adaptive: the resumed journal
  bool failed = false;
  /// Injection-phase seconds of each repeat, scaled (host_ref.h).
  std::vector<f64> untraced_s;
  std::vector<f64> traced_s;  ///< the same, of each traced repeat
};

struct SetupItem {
  std::function<Status(Tracer*)> run;
  std::vector<f64> times_s;  ///< scaled CPU seconds of each repeat
};

/// Totals over the check rows of pass 0, behind the per-layer counts.
struct CheckTotals {
  std::map<std::string, u64> counters;
  u64 records = 0;
  u64 dyn_instrs = 0;
  u64 attempts = 0;
  u64 activated = 0;
  u64 effective = 0;  ///< summed stop boundaries (num_injections unplanned)
  u64 units = 0;
};

class Runner {
 public:
  Runner(const Options& options, std::vector<std::string> base_kernels)
      : options_(options),
        spec_(make_spec(options.workload)),
        base_kernels_(std::move(base_kernels)) {}

  Result<RunResult> run();

 private:
  [[nodiscard]] bool journaled() const {
    return spec_.kind == WorkloadKind::kJournalAdaptive;
  }
  std::string path(const std::string& name) const {
    return options_.work_dir + "/" + name;
  }
  /// The clock a unit's injection phase is timed on. A one-thread campaign
  /// is timed in process CPU seconds: its wall time less the host's steal
  /// time. A campaign with worker threads is timed in wall seconds, so
  /// time a worker waits at a planner barrier or for a lock counts.
  [[nodiscard]] f64 unit_clock() const {
    return threaded_ ? wall_seconds() : cpu_seconds();
  }
  void mismatch(const std::string& what) { result_.mismatches.push_back(what); }

  void build_setup_items();
  Status run_row(std::size_t row, std::size_t pass, bool probe);
  Status run_unit(Unit& unit, std::size_t pass, Tracer* tracer, bool probe);
  Status make_reference(Unit& unit, const fi::CampaignConfig& config);
  Status replay(const Unit& unit, const fi::CampaignConfig& config,
                const fi::CampaignResult& result,
                const std::map<std::string, u64>& counters, Tracer& tracer);
  void record_check(const Unit& unit, const fi::CampaignResult& result,
                    const std::map<std::string, u64>& counters);
  f64 rate(bool traced) const;
  void append_count_metrics();

  Options options_;
  WorkloadSpec spec_;
  std::vector<std::string> base_kernels_;
  std::vector<Unit> units_;
  std::vector<SetupItem> setup_;
  Tracer tracer_;
  LayerStats layers_;
  CheckTotals check_;
  RunResult result_;
  HostReference host_;
  bool threaded_ = false;  ///< some cell runs more than one worker thread
};

void Runner::build_setup_items() {
  if (spec_.swift_registration) {
    // register_hardened_workloads() hardens every built-in kernel once per
    // process to find the ones SWIFT accepts; it is idempotent, so the
    // benchmark repeats the work it does rather than the call.
    setup_.push_back({[this](Tracer* tracer) {
                        ScopedSpan span(tracer, "harden.register", "");
                        for (const std::string& kernel : base_kernels_) {
                          (void)harden::make_hardened(kernel);
                        }
                        return Status::ok();
                      },
                      {}});
  }
  for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
    const Cell& cell = spec_.cells[c];
    setup_.push_back({[this, &cell, c](Tracer* tracer) {
                        {
                          ScopedSpan span(tracer, "fi.golden_run", cell.label);
                          auto golden = fi::Campaign::golden_run(cell.config);
                          if (!golden.is_ok()) return golden.status();
                        }
                        if (!journaled()) return Status::ok();
                        {
                          ScopedSpan span(tracer, "fi.prune_map", cell.label);
                          auto map = fi::Campaign::build_prune_map(cell.config);
                          if (!map.is_ok()) return map.status();
                        }
                        ScopedSpan span(tracer, "fi.journal_load", cell.label);
                        auto loaded = fi::Journal::load(
                            path("setup" + std::to_string(c) + ".jsonl"));
                        return loaded.status();
                      },
                      {}});
  }
}

Status Runner::make_reference(Unit& unit, const fi::CampaignConfig& config) {
  // The uninterrupted campaign every resume of this unit must reproduce.
  fi::CampaignConfig reference = config;
  const std::string ref_path = path("ref" + std::to_string(unit.id) +
                                    ".jsonl");
  reference.journal_path = ref_path;
  obs::Registry registry;
  reference.metrics = &registry;
  auto run = fi::Campaign::run(reference);
  if (!run.is_ok()) return run.status();
  auto bytes = read_file(ref_path);
  if (!bytes.is_ok()) return bytes.status();
  auto digest = canonical_journal_digest(ref_path);
  if (!digest.is_ok()) return digest.status();
  unit.digest = digest.value();
  unit.cut = bytes.value().substr(0, cut_offset(bytes.value(),
                                                spec_.resume_cut));
  unit.journal_path = path("u" + std::to_string(unit.id) + ".jsonl");
  if (unit.row == 0) {
    // The journal the cell's set-up item loads, as a resume would.
    Status written = write_file(
        path("setup" + std::to_string(unit.cell) + ".jsonl"), unit.cut);
    if (!written.is_ok()) return written;
  }
  return Status::ok();
}

Status Runner::run_unit(Unit& unit, std::size_t pass, Tracer* tracer,
                        bool probe) {
  const Cell& cell = spec_.cells[unit.cell];
  ScopedSpan unit_span(tracer, "bench.unit", cell.label);
  fi::CampaignConfig config = cell.config;
  config.seed = unit.seed;
  config.num_injections = spec_.unit_injections;
  obs::Registry registry;
  config.metrics = &registry;
  if (journaled()) {
    if (unit.cut.empty()) {
      Status made = make_reference(unit, config);
      if (!made.is_ok()) return made;
    }
    Status written = write_file(unit.journal_path, unit.cut);
    if (!written.is_ok()) return written;
    config.journal_path = unit.journal_path;
  }

  // The unit's time is scaled by a reference sample taken just before it,
  // so a host that runs this unit slowly runs its sample slowly too.
  host_.sample();
  const f64 scale = threaded_ ? host_.wall_scale() : host_.cpu_scale();

  // A resume pays its journal load and prune map inside Campaign::run,
  // before the first injection. Those are set-up: their time, measured on
  // the same inputs just before, is taken off the run's.
  f64 setup_time = 0.0;
  if (journaled()) {
    const f64 setup_start = unit_clock();
    auto loaded = fi::Journal::load(unit.journal_path);
    if (!loaded.is_ok()) return loaded.status();
    auto map = fi::Campaign::build_prune_map(config);
    if (!map.is_ok()) return map.status();
    setup_time = unit_clock() - setup_start;
  }

  const f64 start = unit_clock();
  Result<fi::CampaignResult> run = [&] {
    ScopedSpan span(tracer, "fi.campaign_run", cell.label);
    return fi::Campaign::run(config);
  }();
  const f64 elapsed = unit_clock() - start - setup_time;
  const u64 expected = unit.injections ? unit.injections
                                       : spec_.unit_injections;
  if (!run.is_ok()) {
    std::fprintf(stderr, "campaign %s seed %s failed: %s\n",
                 cell.label.c_str(), hex(unit.seed).c_str(),
                 run.status().to_string().c_str());
    result_.attempted += expected;
    result_.failed += expected;
    unit.failed = true;
    return Status::ok();
  }
  const fi::CampaignResult& result = run.value();
  const u64 fresh = result.records.size() - result.resumed;
  result_.attempted += fresh;

  u64 digest = 0;
  if (journaled()) {
    // The resumed journal must be byte-identical to the uninterrupted one,
    // and its heartbeat sidecar must end with the final "done" line.
    auto canonical = canonical_journal_digest(unit.journal_path);
    if (!canonical.is_ok()) return canonical.status();
    digest = canonical.value();
    auto beat = obs::load_status_file(
        obs::status_path_for_journal(unit.journal_path));
    if (!beat.is_ok() || !beat.value().finished ||
        beat.value().done != result.records.size()) {
      mismatch(cell.label + ": resumed campaign left no final heartbeat");
    }
  } else {
    digest = records_digest(result);
    if (result.records.size() != config.num_injections) {
      mismatch(cell.label + ": campaign returned " +
               std::to_string(result.records.size()) + " of " +
               std::to_string(config.num_injections) + " records");
    }
  }
  for (const fi::InjectionRecord& record : result.records) {
    if (record.outcome == fi::Outcome::kQuarantined) {
      mismatch(cell.label + ": record quarantined");
    }
  }
  const std::map<std::string, u64> counters = counter_values(registry);
  if (unit.untraced_s.empty() && unit.traced_s.empty()) {
    unit.injections = fresh;
    unit.counters = counter_list(counters);
    if (journaled()) {
      if (digest != unit.digest) {
        mismatch(cell.label + ": resumed journal differs from the "
                 "uninterrupted one (seed " + hex(unit.seed) + ")");
      }
    } else {
      unit.digest = digest;
    }
    if (unit.row < kCheckRows) record_check(unit, result, counters);
  } else if (digest != unit.digest || fresh != unit.injections ||
             counter_list(counters) != unit.counters) {
    mismatch(cell.label + ": repeat of seed " + hex(unit.seed) + " in pass " +
             std::to_string(pass) + " differs from its first run (" +
             (digest != unit.digest ? "records" :
              fresh != unit.injections ? "injection count" :
              "counters " + counter_list(counters) + " vs " + unit.counters) +
             ")");
  }
  (tracer ? unit.traced_s : unit.untraced_s).push_back(elapsed * scale);

  if (probe && tracer) {
    Status replayed = replay(unit, config, result, counters, *tracer);
    if (!replayed.is_ok()) return replayed;
  }
  return Status::ok();
}

void Runner::record_check(const Unit& unit, const fi::CampaignResult& result,
                          const std::map<std::string, u64>& counters) {
  ++check_.units;
  for (const auto& [name, value] : counters) check_.counters[name] += value;
  for (const fi::InjectionRecord& record : result.records) {
    ++check_.records;
    check_.dyn_instrs += record.dyn_instrs;
    check_.attempts += record.attempts;
    check_.activated += record.effect.activated ? 1 : 0;
  }
  check_.effective += result.effective_injections;
  result_.fingerprint.push_back(
      std::string(workload_name(spec_.kind)) + " " +
      spec_.cells[unit.cell].label + " seed=" + hex(unit.seed) +
      " digest=" + hex(unit.digest) + " outcomes=" + outcome_list(result) +
      " stop_at=" + std::to_string(result.effective_injections) +
      " counters=" + unit.counters);
}

Status Runner::replay(const Unit& unit, const fi::CampaignConfig& config,
                      const fi::CampaignResult& result,
                      const std::map<std::string, u64>& counters,
                      Tracer& tracer) {
  const Cell& cell = spec_.cells[unit.cell];
  fi::Campaign::Golden golden;
  golden.profile = result.profile;
  golden.dyn_instrs = result.golden_dyn_instrs;
  golden.cycles = result.golden_cycles;

  // Tracing on vs off: run_single under spans must rebuild every record
  // Campaign::run produced, with the same dispatch counts. Journal-adaptive
  // records depend on the planner's strata and the prune map, so there the
  // replay times plain injections of the same cell instead.
  fi::CampaignConfig plain = config;
  plain.journal_path.reset();
  plain.planner = {};
  plain.prune_dead_bits = false;
  obs::Registry registry;
  const std::size_t count =
      journaled() ? std::min<std::size_t>(result.records.size(), 10)
                  : result.records.size();
  for (std::size_t i = 0; i < count; ++i) {
    const auto start = Clock::now();
    auto record = [&] {
      ScopedSpan span(&tracer, "fi.run_single", cell.label);
      return fi::Campaign::run_single(plain, golden.profile, golden.dyn_instrs,
                                      result.run_indices[i], nullptr, nullptr,
                                      &registry);
    }();
    layers_.run_single_s[cell.label].push_back(seconds_since(start));
    if (!record.is_ok()) return record.status();
    if (!journaled() &&
        fi::Journal::record_line(result.run_indices[i], record.value()) !=
            fi::Journal::record_line(result.run_indices[i],
                                     result.records[i])) {
      mismatch(cell.label + ": traced run_single of injection " +
               std::to_string(result.run_indices[i]) +
               " differs from the untraced campaign record");
    }
  }
  if (!journaled()) {
    const std::map<std::string, u64> replayed = counter_values(registry);
    for (const char* name :
         {"engine.dispatch.clean", "engine.dispatch.downgrades",
          "engine.dispatch.instrumented", "engine.dispatch.threaded"}) {
      if (replayed.at(name) != counters.at(name)) {
        mismatch(cell.label + ": traced replay counted " +
                 std::to_string(replayed.at(name)) + " " + name + ", the " +
                 "campaign " + std::to_string(counters.at(name)));
      }
    }
  }

  Status probed = probe_launch_layers(cell, tracer, layers_);
  if (!probed.is_ok()) return probed;
  probed = probe_static_layers(cell, tracer);
  if (!probed.is_ok()) return probed;
  return probe_loop_layers(cell, config, golden, result.records,
                           path("probe"), tracer);
}

Status Runner::run_row(std::size_t row, std::size_t pass, bool probe) {
  // Every span of a traced row nests under it: a unit's campaign, replay
  // and probes under the unit's span, the set-up items directly.
  Tracer* tracer = options_.trace ? &tracer_ : nullptr;
  ScopedSpan row_span(tracer, "bench.row", "");
  for (Unit& unit : units_) {
    if (unit.row != row) continue;
    if (tracer) {
      // The traced run times each unit untraced and then traced, back to
      // back, so the tracing overhead compares repeats of the same
      // campaign taken seconds apart.
      Status ran = run_unit(unit, pass, nullptr, false);
      if (!ran.is_ok()) return ran;
    }
    Status ran = run_unit(unit, pass, tracer, probe);
    if (!ran.is_ok()) return ran;
  }
  host_.sample();
  for (SetupItem& item : setup_) {
    const f64 start = cpu_seconds();
    Status ran = item.run(tracer);
    item.times_s.push_back((cpu_seconds() - start) * host_.cpu_scale());
    if (!ran.is_ok()) return ran;
  }
  return Status::ok();
}

Result<RunResult> Runner::run() {
  build_setup_items();
  for (const Cell& cell : spec_.cells) {
    // Campaign::run finds its golden run in the process-wide cache, as any
    // campaign after the first does; the cold golden run is a set-up item.
    auto golden = fi::GoldenCache::instance().get_or_run(cell.config);
    if (!golden.is_ok()) return golden.status();
  }

  for (const Cell& cell : spec_.cells) {
    threaded_ = threaded_ || cell.config.threads > 1;
  }
  // A fixed number of rows per --seconds, so every run of every build times
  // the same campaigns whatever the host's speed.
  const std::size_t rows = std::max<std::size_t>(
      kCheckRows, static_cast<std::size_t>(std::llround(
                      spec_.rows_per_30s * options_.seconds / 30.0)));
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
      Unit unit;
      unit.id = units_.size();
      unit.cell = c;
      unit.row = row;
      unit.seed = Rng::stream_seed(options_.seed, row);
      units_.push_back(std::move(unit));
    }
  }
  const std::size_t passes = options_.trace ? kTracedPasses : kPasses;
  const f64 probe_budget = options_.seconds / static_cast<f64>(kPasses);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto pass_start = Clock::now();
    f64 probe_s = 0.0;
    for (std::size_t row = 0; row < rows; ++row) {
      // Probes cost about as much again as the units; past the budget a
      // traced pass only times units (check rows are always probed).
      const bool probe =
          options_.trace && (row < kCheckRows || probe_s < probe_budget);
      const auto row_start = Clock::now();
      Status ran = run_row(row, pass, probe);
      if (!ran.is_ok()) return ran;
      if (probe) probe_s += seconds_since(row_start);
    }
    std::fprintf(stderr, "campaign_bench: pass %zu: %zu rows, %.2f s\n",
                 pass, rows, seconds_since(pass_start));
  }
  std::fprintf(stderr, "campaign_bench: median reference sample %.1f us CPU\n",
               host_.median_cpu_s() * 1e6);

  if (!options_.trace) {
    result_.metrics.push_back({"inj_per_s", rate(false), "1/s"});
    f64 setup_s = 0.0;
    for (const SetupItem& item : setup_) setup_s += median(item.times_s);
    result_.metrics.push_back({"setup_s", setup_s, "s"});
    // The reference's cycle is resident from start to end, so it adds its
    // exact size to the peak; what is left is the campaigns' own peak.
    result_.metrics.push_back(
        {"peak_rss_mb", peak_rss_mb() - host_.resident_mb(), "MB"});
  } else {
    append_layer_metrics(tracer_, layers_, result_.metrics);
    const f64 traced = rate(true);
    const f64 untraced = rate(false);
    result_.metrics.push_back({"trace.inj_per_s_traced", traced, "1/s"});
    result_.metrics.push_back({"trace.inj_per_s_untraced", untraced, "1/s"});
    result_.metrics.push_back(
        {"trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%"});
    result_.metrics.push_back(
        {"host.ref_sample_us", host_.median_cpu_s() * 1e6, "us"});
    append_count_metrics();
    Status written = tracer_.write_jsonl(options_.trace_path);
    if (!written.is_ok()) return written;
  }
  return result_;
}

f64 Runner::rate(bool traced) const {
  std::vector<f64> injections(spec_.cells.size(), 0.0);
  std::vector<f64> seconds(spec_.cells.size(), 0.0);
  for (const Unit& unit : units_) {
    const std::vector<f64>& times = traced ? unit.traced_s : unit.untraced_s;
    if (unit.failed || times.empty()) continue;
    injections[unit.cell] += static_cast<f64>(unit.injections);
    seconds[unit.cell] += median(times);
  }
  f64 total_injections = 0.0;
  f64 total_seconds = 0.0;
  for (std::size_t c = 0; c < spec_.cells.size(); ++c) {
    std::fprintf(stderr,
                 "campaign_bench: %-18s %s %6.0f injections %8.1f/s "
                 "scaled\n",
                 spec_.cells[c].label.c_str(), traced ? "traced" : "",
                 injections[c], injections[c] / seconds[c]);
    total_injections += injections[c];
    total_seconds += seconds[c];
  }
  return total_seconds > 0.0 ? total_injections / total_seconds : 0.0;
}

void Runner::append_count_metrics() {
  const auto ratio = [](u64 num, u64 den) {
    return den ? static_cast<f64>(num) / static_cast<f64>(den) : 0.0;
  };
  const std::map<std::string, u64>& c = check_.counters;
  // tier_used is the tier a launch finished on: a hooked launch that
  // downgraded after its strike counts as threaded plus one downgrade.
  const u64 launches = c.at("engine.dispatch.clean") +
                       c.at("engine.dispatch.instrumented") +
                       c.at("engine.dispatch.threaded");
  const u64 instrumented = c.at("engine.dispatch.instrumented") +
                           c.at("engine.dispatch.downgrades");
  const u64 attempted = c.at("campaign.injections.attempted");
  std::vector<Metric>& out = result_.metrics;
  out.push_back({"sassim.warp_instrs_per_inj",
                 ratio(check_.dyn_instrs, check_.records), "count"});
  out.push_back({"engine.instrumented_launch_frac",
                 ratio(instrumented, launches), "ratio"});
  out.push_back({"engine.launches_per_inj", ratio(launches, attempted),
                 "count"});
  out.push_back({"engine.downgrades_per_inj",
                 ratio(c.at("engine.dispatch.downgrades"), attempted),
                 "count"});
  out.push_back({"recover.attempts_per_inj",
                 ratio(check_.attempts, check_.records), "count"});
  out.push_back({"recover.retries", static_cast<f64>(c.at("campaign.retries")),
                 "count"});
  out.push_back({"fi.pruned_frac",
                 ratio(c.at("campaign.injections.pruned"), attempted),
                 "ratio"});
  out.push_back({"fi.activated_frac", ratio(check_.activated, check_.records),
                 "ratio"});
  out.push_back({"fi.stop_at",
                 ratio(check_.effective, check_.units), "count"});
  out.push_back({"fi.check_injections", static_cast<f64>(attempted),
                 "count"});
}

}  // namespace

Result<RunResult> run_benchmark(const Options& options) {
  // The built-in kernel list before SWIFT variants are registered: the set
  // registration hardens.
  std::vector<std::string> base_kernels = wl::workload_names();
  harden::register_hardened_workloads();
  Runner runner(options, std::move(base_kernels));
  return runner.run();
}

}  // namespace gfi::cbench
