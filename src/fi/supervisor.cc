#include "fi/supervisor.h"

#ifndef _WIN32
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/backoff.h"
#include "common/failpoint.h"
#include "common/jsonl.h"
#include "common/logging.h"
#include "fi/golden_cache.h"
#include "fi/lease.h"
#include "fi/planner.h"
#include "obs/heartbeat.h"

namespace gfi::fi {

std::string Supervisor::shard_journal_path(const std::string& dir, u32 shard) {
  return dir + "/shard-" + std::to_string(shard) + ".jsonl";
}

std::string Supervisor::state_path(const std::string& dir) {
  return dir + "/supervisor.jsonl";
}

std::string Supervisor::plan_path(const std::string& dir) {
  return dir + "/plan.jsonl";
}

namespace {

constexpr HeaderMagic kStateMagic{"supervisor", "gpufi-run-v1"};

}  // namespace

std::string Supervisor::state_header(const SupervisorConfig& config,
                                     const Campaign::Golden& golden) {
  return campaign_header_line(kStateMagic, config.campaign, golden,
                              config.shards);
}

Result<SupervisorState> Supervisor::load_state(
    const std::string& path, const SupervisorConfig& config,
    const Campaign::Golden& golden) {
  SupervisorState state;
  auto header = [&](const std::string& line) {
    return check_campaign_header_line(path, line, kStateMagic,
                                      config.campaign, golden, config.shards);
  };
  auto event = [&](const std::string& line) -> Status {
    jsonl::Fields fields;
    if (!jsonl::parse_fields(line, &fields) || !jsonl::get_str(fields, "ev")) {
      return Status::invalid_argument("not a state event");
    }
    if (jsonl::get_str(fields, "ev") != "quarantine") return Status::ok();
    auto index = jsonl::get_u64(fields, "index");
    if (!index) return Status::invalid_argument("quarantine without index");
    state.quarantine.insert(*index);
    return Status::ok();
  };
  auto valid_bytes = jsonl::read_log(path, header, event);
  if (!valid_bytes.is_ok()) return valid_bytes.status();
  state.valid_bytes = valid_bytes.value();
  return state;
}

#ifdef _WIN32

Result<SupervisorResult> Supervisor::run(const SupervisorConfig&) {
  return Status::unimplemented(
      "gpufi run requires POSIX process control (fork/waitpid)");
}

#else

namespace {

enum class ShardPhase { kPending, kRunning, kDone, kFailed };

struct ShardState {
  u32 index = 0;
  ShardPhase phase = ShardPhase::kPending;
  pid_t pid = -1;
  u64 launched_at_ms = 0;
  u64 lease_refreshed_ms = 0;
  u64 backoff_until_ms = 0;
  u32 backoff_level = 0;         ///< consecutive crashes feeding the backoff
  u32 no_progress_crashes = 0;   ///< consecutive crashes with zero progress
  u64 records_at_launch = 0;
  std::optional<u64> poison_candidate;
  u32 poison_streak = 0;
};

/// Size of shard `s`'s strided slice of [0, n).
u64 slice_size(u64 n, u32 shards, u32 s) {
  return s < n ? (n - s - 1) / shards + 1 : 0;
}

/// The distinct global indices journaled for a shard (empty on any journal
/// problem — a torn header just means "no progress yet").
std::set<u64> journaled_indices(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return {};
  auto loaded = Journal::load(path);
  if (!loaded.is_ok()) return {};
  std::set<u64> indices;
  for (const auto& [index, record] : loaded.value().records) {
    indices.insert(index);
  }
  return indices;
}

/// The injection a crashed worker of shard `s` died executing: the first,
/// in its one thread's run order (run_order), of the slice's unjournaled
/// indices in the first unfinished planner block of `block` indices (0: no
/// planner, the whole slice is one block); `allocs` are the published
/// allocations a stratified block draws its strata from.
std::optional<u64> crash_candidate(const CampaignConfig& campaign,
                                   const Campaign::Golden& golden, u32 shards,
                                   u32 s, const std::set<u64>& done, u64 block,
                                   const std::map<u64, PlanEvent>& allocs) {
  const u64 n = campaign.num_injections;
  std::vector<u64> pending;
  for (u64 i = s; i < n; i += shards) {
    if (done.find(i) != done.end()) continue;
    if (!pending.empty() && block && i / block != pending.front() / block) {
      break;
    }
    pending.push_back(i);
  }
  if (pending.empty()) return std::nullopt;
  const PlanEvent* alloc = nullptr;
  if (campaign.planner.stratify) {
    const auto it = allocs.find(pending.front() / block);
    if (it == allocs.end()) return pending.front();  // block not started
    alloc = &it->second;
  }
  return pending[run_order(campaign, golden, pending, alloc).front()];
}

/// Append-only flushed event log mirroring the journal's crash-safety
/// discipline: one self-contained JSONL line per supervisor decision.
class StateLog {
 public:
  /// Creates `path`, or, resuming, cuts it back to `valid_bytes` (from
  /// Supervisor::load_state) and appends to it.
  static Result<std::unique_ptr<StateLog>> open(
      const std::string& path, std::optional<u64> valid_bytes) {
    if (valid_bytes) {
      auto file = jsonl::open_append(path, *valid_bytes);
      if (!file.is_ok()) return file.status();
      return std::unique_ptr<StateLog>(new StateLog(file.value()));
    }
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (!file) {
      return Status::internal("cannot open supervisor state " + path + ": " +
                              std::strerror(errno));
    }
    return std::unique_ptr<StateLog>(new StateLog(file));
  }

  ~StateLog() {
    if (file_) std::fclose(file_);
  }

  void write(const std::string& line) {
    // State-log IO failure must not kill the campaign: the log exists to
    // make --resume smarter. But a short write leaves a partial line, and
    // the next event glued onto it would be mid-file corruption that fails
    // the next --resume; so the first failed write ends logging for the
    // run, leaving a torn tail that resume drops.
    if (!file_) return;
    const std::string out = line + "\n";
    if (std::fwrite(out.data(), 1, out.size(), file_) != out.size() ||
        std::fflush(file_) != 0) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

  void event(const std::string& ev,
             const std::vector<std::pair<const char*, u64>>& fields) {
    std::string line = "{";
    jsonl::append_str(line, "ev", ev);
    for (const auto& [key, value] : fields) {
      jsonl::append_u64(line, key, value);
    }
    line += '}';
    write(line);
  }

 private:
  explicit StateLog(std::FILE* file) : file_(file) {}
  std::FILE* file_ = nullptr;
};

std::string quarantine_flag(const std::set<u64>& quarantine) {
  std::string flag = "--quarantine=";
  bool first = true;
  for (u64 index : quarantine) {
    if (!first) flag += ',';
    flag += std::to_string(index);
    first = false;
  }
  return flag;
}

Result<pid_t> spawn_worker(const SupervisorConfig& config, u32 shard,
                           const std::set<u64>& quarantine) {
  std::vector<std::string> argv;
  argv.push_back(config.exe);
  argv.push_back("campaign");
  argv.push_back(config.campaign.workload);
  for (const std::string& flag : config.worker_flags) argv.push_back(flag);
  // Supervisor-owned flags last, so they win over anything in worker_flags.
  // --threads=1 is load-bearing: the poison-candidate heuristic (first
  // unjournaled index in run order == crash point, crash_candidate) needs
  // one injection in flight.
  argv.push_back("--threads=1");
  argv.push_back("--shard=" + std::to_string(shard) + "/" +
                 std::to_string(config.shards));
  argv.push_back("--journal=" +
                 Supervisor::shard_journal_path(config.dir, shard));
  argv.push_back("--heartbeat-ms=" +
                 std::to_string(config.campaign.heartbeat_interval_ms));
  if (!quarantine.empty()) argv.push_back(quarantine_flag(quarantine));
  // Adaptive campaigns: workers never decide anything — they follow the
  // supervisor's published plan file.
  if (config.campaign.planner.active()) {
    argv.push_back("--plan=" + Supervisor::plan_path(config.dir));
  }

  const std::string log_path =
      config.dir + "/shard-" + std::to_string(shard) + ".log";

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::internal(std::string("fork failed: ") +
                            std::strerror(errno));
  }
  if (pid == 0) {
    // Child. Only async-signal-safe-ish work before exec.
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    // Workers get exactly the configured failpoint spec — never the
    // supervisor's own (a supervisor.tick clause firing inside a worker
    // would be chaos aimed at the wrong process).
    if (config.worker_failpoints.empty()) {
      ::unsetenv("GFI_FAILPOINTS");
    } else {
      ::setenv("GFI_FAILPOINTS", config.worker_failpoints.c_str(), 1);
    }
    std::vector<char*> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string& arg : argv) cargv.push_back(arg.data());
    cargv.push_back(nullptr);
    ::execv(config.exe.c_str(), cargv.data());
    std::fprintf(stderr, "execv %s failed: %s\n", config.exe.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

int exit_code_of(int wait_status) {
  if (WIFEXITED(wait_status)) return WEXITSTATUS(wait_status);
  if (WIFSIGNALED(wait_status)) return 128 + WTERMSIG(wait_status);
  return -1;
}

}  // namespace

Result<SupervisorResult> Supervisor::run(const SupervisorConfig& config) {
  if (config.shards == 0) {
    return Status::invalid_argument("gpufi run: shards must be > 0");
  }
  const CampaignConfig& campaign = config.campaign;
  const u64 num_injections = campaign.num_injections;
  if (num_injections == 0) {
    return Status::invalid_argument("gpufi run: num_injections must be > 0");
  }
  if (config.exe.empty() || campaign.workload.empty() || config.dir.empty()) {
    return Status::invalid_argument(
        "gpufi run: exe, workload, and dir are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.dir, ec);
  if (ec) {
    return Status::internal("cannot create campaign dir " + config.dir +
                            ": " + ec.message());
  }

  // The golden run binds the state log and plan file to the campaign (and
  // feeds the planner); resume recomputes it and compares.
  auto golden_or = GoldenCache::instance().get_or_run(campaign);
  if (!golden_or.is_ok()) return golden_or.status();
  const Campaign::Golden golden = std::move(golden_or).take();

  // --- supervisor state: refuse to silently clobber a previous run -------
  const std::string spath = state_path(config.dir);
  std::set<u64> quarantine;
  std::optional<u64> state_bytes;  ///< set when resuming a state log
  const bool state_exists = std::filesystem::exists(spath, ec) &&
                            std::filesystem::file_size(spath, ec) > 0;
  if (state_exists && !config.resume) {
    return Status::failed_precondition(
        spath + " exists — a supervisor already ran this directory; pass "
        "--resume to continue it (or use a fresh --dir)");
  }
  if (state_exists) {
    auto replayed = load_state(spath, config, golden);
    if (!replayed.is_ok()) return replayed.status();
    quarantine = std::move(replayed.value().quarantine);
    state_bytes = replayed.value().valid_bytes;
  }
  auto log_opened = StateLog::open(spath, state_bytes);
  if (!log_opened.is_ok()) return log_opened.status();
  std::unique_ptr<StateLog> log = std::move(log_opened).take();
  if (state_bytes) {
    log->event("resume", {});
  } else {
    log->write(state_header(config, golden));
  }

  char host[256] = "unknown";
  (void)::gethostname(host, sizeof(host) - 1);
  const std::string owner =
      std::string(host) + ":" + std::to_string(::getpid());

  SupervisorResult result;
  for (u64 index : quarantine) result.quarantined.push_back(index);

  std::vector<ShardState> shards(config.shards);
  for (u32 s = 0; s < config.shards; ++s) shards[s].index = s;
  const u32 max_workers =
      config.max_workers == 0 ? config.shards : config.max_workers;
  const u64 refresh_ms = std::max<u64>(config.lease_ttl_ms / 3, 1);

  // --- adaptive planner: supervisor-side decisions -----------------------
  // The supervisor pools shard journals into the global record prefix and
  // computes every stop/alloc decision exactly as an unsharded campaign
  // would, publishing each to the plan file the workers follow.
  const std::string ppath = plan_path(config.dir);
  std::optional<Planner> planner;
  std::set<u64> published_allocs;
  std::optional<u64> plan_stop;
  u64 plan_frontier = 0;  ///< records fed to `planner` (contiguous prefix)
  if (campaign.planner.active()) {
    auto planner_or = Planner::create(campaign, golden.profile);
    if (!planner_or.is_ok()) return planner_or.status();
    planner.emplace(std::move(planner_or).take());
    if (std::filesystem::exists(ppath, ec) &&
        std::filesystem::file_size(ppath, ec) > 0) {
      // Resume: already-published decisions are authoritative — they were
      // computed from the identical prefix and must not be re-derived.
      auto existing = load_plan_file(ppath, campaign, golden);
      if (!existing.is_ok()) return existing.status();
      for (const auto& [c, alloc] : existing.value().allocs) {
        published_allocs.insert(c);
      }
      plan_stop = existing.value().stop_at;
      // Cut a torn tail off before append_plan_event adds to the file.
      auto reopened = jsonl::open_append(ppath, existing.value().valid_bytes);
      if (!reopened.is_ok()) return reopened.status();
      std::fclose(reopened.value());
    } else {
      std::ofstream out(ppath, std::ios::binary | std::ios::trunc);
      out << plan_file_header(campaign, golden) << '\n';
      out.flush();
      if (!out) return Status::internal("cannot create plan file " + ppath);
    }
  }

  auto journal_of = [&](u32 s) { return shard_journal_path(config.dir, s); };
  auto lease_of = [&](u32 s) {
    return lease_path_for_journal(journal_of(s));
  };
  auto shard_complete = [&](u32 s) {
    // A planner stop shrinks every slice: only indices below the boundary
    // belong to the campaign (overshoot is dropped at merge).
    const u64 effective =
        plan_stop ? std::min<u64>(*plan_stop, num_injections) : num_injections;
    const std::set<u64> done = journaled_indices(journal_of(s));
    u64 in_range = 0;
    for (u64 i : done) {
      if (i < effective) ++in_range;
    }
    return in_range >= slice_size(effective, config.shards, s);
  };

  // Crash bookkeeping shared by "worker exited badly", "worker exited
  // cleanly but incomplete", and "worker hung and was killed".
  auto handle_crash = [&](ShardState& shard, int exit_code) {
    const std::set<u64> done = journaled_indices(journal_of(shard.index));
    const bool progress = done.size() > shard.records_at_launch;
    std::map<u64, PlanEvent> allocs;
    if (campaign.planner.stratify) {
      auto plan = load_plan_file(ppath, campaign, golden);
      if (plan.is_ok()) allocs = std::move(plan.value().allocs);
    }
    const std::optional<u64> candidate = crash_candidate(
        campaign, golden, config.shards, shard.index, done,
        planner ? planner->checkpoint_every() : 0, allocs);
    if (candidate && shard.poison_candidate == candidate) {
      ++shard.poison_streak;
    } else {
      shard.poison_candidate = candidate;
      shard.poison_streak = candidate ? 1 : 0;
    }
    log->event("crash",
               {{"shard", shard.index},
                {"exit", static_cast<u64>(static_cast<u32>(exit_code))},
                {"records", done.size()},
                {"candidate", candidate.value_or(~0ULL)}});
    bool quarantined_now = false;
    if (candidate && shard.poison_streak >= config.poison_threshold) {
      // Journal the verdict BEFORE any worker can act on it: resume must
      // see the same quarantine set the relaunched worker saw, or the
      // merged journal's content would depend on crash timing.
      quarantine.insert(*candidate);
      result.quarantined.push_back(*candidate);
      log->event("quarantine", {{"index", *candidate}});
      GFI_LOG(kWarn) << "shard " << shard.index << ": injection "
                     << *candidate << " killed " << shard.poison_streak
                     << " workers in a row; quarantined";
      shard.poison_streak = 0;
      shard.poison_candidate.reset();
      quarantined_now = true;
    }
    if (progress || quarantined_now) {
      shard.no_progress_crashes = 0;
      shard.backoff_level = 1;
    } else {
      ++shard.no_progress_crashes;
      ++shard.backoff_level;
    }
    if (shard.no_progress_crashes >= config.max_shard_attempts) {
      shard.phase = ShardPhase::kFailed;
      ++result.shards_failed;
      log->event("shard_failed", {{"shard", shard.index}});
      GFI_LOG(kError) << "shard " << shard.index << ": abandoned after "
                      << shard.no_progress_crashes
                      << " consecutive no-progress crashes";
      (void)release_lease(lease_of(shard.index), owner);
      return;
    }
    shard.phase = ShardPhase::kPending;
    shard.backoff_until_ms =
        unix_now_ms() + backoff_delay_ms(shard.backoff_level,
                                         config.backoff_base_ms,
                                         config.backoff_cap_ms, campaign.seed,
                                         shard.index);
  };

  // Writes the stop decision into every shard journal that does not carry
  // one yet, so each journal matches what an unsharded stopped campaign
  // would have recorded for that slice. A journal that was never created
  // (or has only a torn header) is safe to synthesize fresh: the stop only
  // fires once the whole prefix [0, at) is journaled, so that shard's slice
  // below the boundary must be empty.
  auto ensure_stop_journaled = [&](u64 at) -> Status {
    PlanEvent stop;
    stop.kind = PlanEvent::Kind::kStop;
    stop.stop_at = at;
    for (u32 s = 0; s < config.shards; ++s) {
      const std::string path = journal_of(s);
      auto loaded = Journal::load(path);
      std::unique_ptr<JournalWriter> writer;
      if (loaded.is_ok()) {
        bool has_stop = false;
        for (const PlanEvent& event : loaded.value().plan) {
          if (event.kind == PlanEvent::Kind::kStop) has_stop = true;
        }
        if (has_stop) continue;
        auto opened =
            JournalWriter::open_append(path, loaded.value().valid_bytes);
        if (!opened.is_ok()) return opened.status();
        writer = std::move(opened).take();
      } else {
        CampaignConfig worker = campaign;
        worker.shard_index = s;
        worker.shard_count = config.shards;
        auto created =
            JournalWriter::create(path, make_journal_header(worker, golden));
        if (!created.is_ok()) return created.status();
        writer = std::move(created).take();
      }
      if (Status appended = writer->append_plan(stop); !appended.is_ok()) {
        return appended;
      }
    }
    return Status::ok();
  };

  // Applies a stop decision: kill the fleet FIRST (journaling the stop
  // truncates each journal to its valid byte count, which must not race a
  // live worker's appends), then settle the survivors — the stop-aware
  // shard_complete promotes them to kDone on the next pass.
  auto apply_stop = [&](u64 at) -> Status {
    plan_stop = at;
    result.plan_stop = at;
    log->event("plan_stop", {{"at", at}});
    GFI_LOG(kInfo) << "planner: stopping rule satisfied at " << at << " of "
                   << num_injections << " injections";
    for (ShardState& shard : shards) {
      if (shard.phase == ShardPhase::kRunning) {
        if (shard.pid > 0) {
          ::kill(shard.pid, SIGKILL);
          ::waitpid(shard.pid, nullptr, 0);
          shard.pid = -1;
        }
        shard.phase = ShardPhase::kPending;
        shard.backoff_until_ms = 0;
        (void)release_lease(lease_of(shard.index), owner);
      }
    }
    return ensure_stop_journaled(at);
  };

  // One planner step per supervision cycle: pool the shard journals into
  // the global record sequence, advance the observed prefix in strict block
  // order, publish the allocation each frontier block needs (workers park
  // on exactly that line), and test the stopping rule at every completed
  // boundary — the same decision procedure, over the same prefix, as an
  // unsharded campaign deciding locally.
  auto planner_tick = [&]() -> Status {
    std::map<u64, InjectionRecord> pooled;
    for (u32 s = 0; s < config.shards; ++s) {
      auto loaded = Journal::load(journal_of(s));
      if (!loaded.is_ok()) continue;  // not started yet / torn header
      for (const auto& [index, record] : loaded.value().records) {
        pooled.emplace(index, record);
      }
    }
    const u64 k = planner->checkpoint_every();
    while (plan_frontier < num_injections) {
      const u64 c = plan_frontier / k;
      const u64 b0 = plan_frontier;
      const u64 b1 = planner->block_end(c);
      if (campaign.planner.stratify &&
          published_allocs.find(c) == published_allocs.end()) {
        // Publish before waiting on the block's records: no worker can
        // produce them until the allocation is visible.
        if (Status appended = append_plan_event(ppath, planner->make_alloc(c));
            !appended.is_ok()) {
          return appended;
        }
        published_allocs.insert(c);
        log->event("plan_alloc", {{"ckpt", c}});
      }
      bool block_complete = true;
      for (u64 i = b0; i < b1; ++i) {
        if (pooled.find(i) == pooled.end()) {
          block_complete = false;
          break;
        }
      }
      if (!block_complete) break;
      for (u64 i = b0; i < b1; ++i) planner->observe(pooled.find(i)->second);
      plan_frontier = b1;
      if (campaign.planner.stopping() &&
          b1 < num_injections && planner->stop_satisfied()) {
        PlanEvent stop;
        stop.kind = PlanEvent::Kind::kStop;
        stop.stop_at = b1;
        if (Status appended = append_plan_event(ppath, stop);
            !appended.is_ok()) {
          return appended;
        }
        return apply_stop(b1);
      }
    }
    return Status::ok();
  };

  if (planner && plan_stop) {
    // Resumed into a campaign the planner already stopped: re-assert the
    // boundary before any completeness is judged.
    result.plan_stop = *plan_stop;
    if (Status stopped = ensure_stop_journaled(*plan_stop); !stopped.is_ok()) {
      return stopped;
    }
  }

  while (true) {
    if (fp::enabled() &&
        fp::hit("supervisor.tick").action == fp::Action::kErr) {
      // Simulated supervisor death (test hook): reap the children so the
      // test process leaks nothing, but leave leases and journals exactly
      // as a real crash would — the takeover/resume paths start from here.
      for (ShardState& shard : shards) {
        if (shard.phase == ShardPhase::kRunning && shard.pid > 0) {
          ::kill(shard.pid, SIGKILL);
          ::waitpid(shard.pid, nullptr, 0);
        }
      }
      return Status::internal("supervisor aborted [failpoint supervisor.tick]");
    }

    u32 running = 0;
    for (const ShardState& shard : shards) {
      if (shard.phase == ShardPhase::kRunning) ++running;
    }

    bool all_settled = true;
    for (ShardState& shard : shards) {
      const u64 now = unix_now_ms();
      switch (shard.phase) {
        case ShardPhase::kDone:
        case ShardPhase::kFailed:
          continue;
        case ShardPhase::kPending: {
          all_settled = false;
          if (now < shard.backoff_until_ms) break;
          if (shard_complete(shard.index)) {
            shard.phase = ShardPhase::kDone;
            log->event("shard_done", {{"shard", shard.index}});
            (void)release_lease(lease_of(shard.index), owner);
            break;
          }
          if (running >= max_workers) break;
          // Lease protocol: a live foreign lease means another supervisor
          // is working this shard — wait (it may die; its TTL will lapse).
          auto prior = read_lease(lease_of(shard.index));
          Lease lease;
          lease.owner = owner;
          lease.pid = static_cast<u64>(::getpid());
          lease.shard = shard.index;
          lease.expires_ms = now + config.lease_ttl_ms;
          Status acquired = acquire_lease(lease_of(shard.index), lease, now);
          if (!acquired.is_ok()) {
            if (acquired.code() == StatusCode::kFailedPrecondition) break;
            return acquired;  // corrupt lease file: operator attention
          }
          if (prior.is_ok() && prior.value().owner != owner) {
            ++result.takeovers;
            log->event("takeover", {{"shard", shard.index}});
            GFI_LOG(kWarn) << "shard " << shard.index
                           << ": took over expired lease of "
                           << prior.value().owner;
          }
          shard.records_at_launch =
              journaled_indices(journal_of(shard.index)).size();
          auto spawned = spawn_worker(config, shard.index, quarantine);
          if (!spawned.is_ok()) return spawned.status();
          shard.pid = spawned.value();
          shard.phase = ShardPhase::kRunning;
          shard.launched_at_ms = now;
          shard.lease_refreshed_ms = now;
          ++running;
          ++result.worker_launches;
          log->event("launch", {{"shard", shard.index},
                                {"pid", static_cast<u64>(shard.pid)}});
          break;
        }
        case ShardPhase::kRunning: {
          all_settled = false;
          if (now >= shard.lease_refreshed_ms + refresh_ms) {
            Lease lease;
            lease.owner = owner;
            lease.pid = static_cast<u64>(::getpid());
            lease.shard = shard.index;
            lease.expires_ms = now + config.lease_ttl_ms;
            if (Status refreshed =
                    acquire_lease(lease_of(shard.index), lease, now);
                refreshed.is_ok()) {
              shard.lease_refreshed_ms = now;
            } else {
              // Lease write failure degrades to a shorter effective TTL;
              // losing the lease is recoverable (another supervisor would
              // resume from the journal), so only warn.
              GFI_LOG(kWarn) << "shard " << shard.index
                             << ": lease refresh failed: "
                             << refreshed.message();
            }
          }
          int wait_status = 0;
          const pid_t reaped = ::waitpid(shard.pid, &wait_status, WNOHANG);
          if (reaped == 0) {
            // Still running: hang detection via heartbeat staleness.
            if (config.stall_timeout_ms > 0 &&
                now >= shard.launched_at_ms + config.stall_timeout_ms) {
              auto age = obs::sidecar_age_ms(
                  obs::status_path_for_journal(journal_of(shard.index)));
              const bool stale =
                  !age.is_ok() || age.value() >= config.stall_timeout_ms;
              if (stale) {
                GFI_LOG(kWarn)
                    << "shard " << shard.index << " (pid " << shard.pid
                    << "): no heartbeat for " << config.stall_timeout_ms
                    << "ms; killing";
                ::kill(shard.pid, SIGKILL);
                ::waitpid(shard.pid, &wait_status, 0);
                ++result.stall_kills;
                ++result.crashes;
                log->event("stall_kill", {{"shard", shard.index}});
                shard.pid = -1;
                handle_crash(shard, 128 + SIGKILL);
              }
            }
            break;
          }
          if (reaped < 0) {
            // ECHILD etc.: we lost track of the worker; treat as a crash.
            shard.pid = -1;
            ++result.crashes;
            handle_crash(shard, -1);
            break;
          }
          shard.pid = -1;
          const int code = exit_code_of(wait_status);
          if (code == 0 && shard_complete(shard.index)) {
            shard.phase = ShardPhase::kDone;
            log->event("shard_done", {{"shard", shard.index}});
            (void)release_lease(lease_of(shard.index), owner);
          } else {
            // Nonzero exit, death by signal, or a "clean" exit that left
            // the slice incomplete (e.g. journal ENOSPC errored the
            // campaign): retry with backoff, resuming from the journal.
            ++result.crashes;
            handle_crash(shard, code);
          }
          break;
        }
      }
    }
    if (planner && !plan_stop) {
      if (Status ticked = planner_tick(); !ticked.is_ok()) return ticked;
      // A stop shrinks every slice: re-judge each shard's completeness
      // immediately instead of sleeping on stale phases.
      if (plan_stop) continue;
    }
    if (all_settled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }

  std::sort(result.quarantined.begin(), result.quarantined.end());
  log->event("run_done", {{"crashes", result.crashes},
                          {"takeovers", result.takeovers},
                          {"stall_kills", result.stall_kills},
                          {"shards_failed", result.shards_failed}});
  if (result.shards_failed > 0) {
    return result;  // caller inspects shards_failed; no merge
  }

  std::vector<std::string> paths;
  paths.reserve(config.shards);
  for (u32 s = 0; s < config.shards; ++s) paths.push_back(journal_of(s));
  auto merged = merge_journals(paths);
  if (!merged.is_ok()) return merged.status();
  result.merged = std::move(merged).take();
  return result;
}

#endif  // _WIN32

}  // namespace gfi::fi
