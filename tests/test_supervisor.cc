// End-to-end tests for the resilient campaign supervisor (`gpufi run`):
// shard leases, crash/retry with resume, poison quarantine, stall kills,
// supervisor death + --resume — all driven by failpoints injected into
// forked workers (the real gpufi binary, path baked in as GFI_GPUFI_BIN).
//
// The load-bearing assertion, repeated across scenarios: whatever the
// supervisor survived, the merged journal it produces is byte-identical to
// the journal an uninterrupted unsharded single-threaded campaign writes
// (modulo records the supervisor deliberately quarantined).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "arch/arch.h"
#include "common/failpoint.h"
#include "common/jsonl.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "fi/lease.h"
#include "fi/supervisor.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::Campaign;
using fi::CampaignConfig;
using fi::Lease;
using fi::Outcome;
using fi::Supervisor;
using fi::SupervisorConfig;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_sup_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The campaign every scenario runs: vecadd on the toy machine. Small
/// enough that a worker attempt is fast, big enough that mid-shard crashes
/// leave real resume state behind.
constexpr u64 kSeed = 7;

CampaignConfig campaign_config(u64 injections) {
  CampaignConfig config;
  config.workload = "vecadd";
  config.machine = arch::toy();
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = injections;
  config.seed = kSeed;
  config.threads = 1;  // journal lines in index order
  return config;
}

SupervisorConfig sup_config(const fs::path& dir, u64 injections, u32 shards) {
  SupervisorConfig config;
  config.exe = GFI_GPUFI_BIN;
  config.campaign = campaign_config(injections);
  config.campaign.heartbeat_interval_ms = 50;
  config.dir = dir.string();
  config.shards = shards;
  config.lease_ttl_ms = 3000;
  config.poll_ms = 25;
  config.stall_timeout_ms = 0;  // hang detection: only the stall test
  config.max_shard_attempts = 12;
  config.poison_threshold = 3;
  config.backoff_base_ms = 5;
  config.backoff_cap_ms = 20;
  config.worker_flags = {
      "--arch=toy",
      "--mode=iov",
      "--flip=single",
      "--injections=" + std::to_string(injections),
      "--seed=" + std::to_string(kSeed),
  };
  return config;
}

/// The uninterrupted unsharded single-threaded reference journal the
/// supervisor's merge must reproduce byte-for-byte.
std::string write_reference_journal(const fs::path& dir, u64 injections) {
  CampaignConfig config = campaign_config(injections);
  config.journal_path = (dir / "reference.jsonl").string();
  auto result = Campaign::run(config);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return *config.journal_path;
}

/// Journal lines keyed by global record index ("" key = the header line).
std::map<std::string, std::string> lines_by_index(const std::string& path) {
  std::map<std::string, std::string> lines;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  while (std::getline(in, line)) {
    const auto i = line.find("\"i\":");
    if (i == std::string::npos) {
      lines[""] = line;
      continue;
    }
    const auto end = line.find_first_of(",}", i + 4);
    lines[line.substr(i + 4, end - i - 4)] = line;
  }
  return lines;
}

/// Runs the supervisor, writes its merged journal, and returns the merged
/// journal's bytes (asserting the run itself succeeded).
std::string merged_bytes(const SupervisorConfig& config,
                         fi::SupervisorResult* out = nullptr) {
  auto ran = Supervisor::run(config);
  EXPECT_TRUE(ran.is_ok()) << ran.status().to_string();
  if (!ran.is_ok()) return "";
  EXPECT_EQ(ran.value().shards_failed, 0u);
  const std::string path = config.dir + "/merged.jsonl";
  Status written = fi::write_merged_journal(path, ran.value().merged);
  EXPECT_TRUE(written.is_ok()) << written.to_string();
  if (out != nullptr) *out = ran.value();
  return read_file(path);
}

// -------------------------------------------------------------- leases ----

TEST(Lease, LineRoundTripsAndRejectsGarbage) {
  Lease lease;
  lease.owner = "host:4242";
  lease.pid = 4242;
  lease.shard = 3;
  lease.expires_ms = 1234567890123ULL;
  auto parsed = fi::parse_lease(fi::lease_line(lease));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().owner, lease.owner);
  EXPECT_EQ(parsed.value().pid, lease.pid);
  EXPECT_EQ(parsed.value().shard, lease.shard);
  EXPECT_EQ(parsed.value().expires_ms, lease.expires_ms);

  EXPECT_FALSE(fi::parse_lease("not json").is_ok());
  EXPECT_FALSE(fi::parse_lease("{\"lease\":\"wrong-magic\"}").is_ok());
}

TEST(Lease, AcquireRespectsLivenessExpiryAndOwnership) {
  const fs::path dir = scratch_dir("lease");
  const std::string path =
      fi::lease_path_for_journal((dir / "shard-0.jsonl").string());
  const u64 now = fi::unix_now_ms();

  Lease mine;
  mine.owner = "me:1";
  mine.shard = 0;
  mine.expires_ms = now + 60000;
  // Absent: acquirable.
  ASSERT_TRUE(fi::acquire_lease(path, mine, now).is_ok());
  // Live and mine: refresh succeeds.
  mine.expires_ms = now + 90000;
  ASSERT_TRUE(fi::acquire_lease(path, mine, now).is_ok());

  // Live and foreign: refused, error names the holder.
  Lease theirs = mine;
  theirs.owner = "them:2";
  Status refused = fi::acquire_lease(path, theirs, now);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.message().find("me:1"), std::string::npos);

  // Expired: anyone may take it over.
  ASSERT_TRUE(fi::acquire_lease(path, theirs, mine.expires_ms + 1).is_ok());
  auto held = fi::read_lease(path);
  ASSERT_TRUE(held.is_ok());
  EXPECT_EQ(held.value().owner, "them:2");
}

TEST(Lease, ReleaseIsIdempotentAndOwnerChecked) {
  const fs::path dir = scratch_dir("lease_release");
  const std::string path = (dir / "a.lease").string();
  // Releasing a lease that never existed is fine (crash cleanup paths).
  EXPECT_TRUE(fi::release_lease(path, "me:1").is_ok());

  Lease lease;
  lease.owner = "me:1";
  lease.expires_ms = fi::unix_now_ms() + 60000;
  ASSERT_TRUE(fi::acquire_lease(path, lease, fi::unix_now_ms()).is_ok());
  // A live lease cannot be released by someone else...
  EXPECT_FALSE(fi::release_lease(path, "them:2").is_ok());
  // ...but the owner can, after which the file is gone.
  EXPECT_TRUE(fi::release_lease(path, "me:1").is_ok());
  EXPECT_FALSE(fi::read_lease(path).is_ok());
}

// ---------------------------------------------------------- supervisor ----

TEST(Supervisor, FaultFreeRunMergesBitIdenticalToUnshardedReference) {
  const fs::path dir = scratch_dir("fault_free");
  const std::string reference = write_reference_journal(dir, 36);
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(sup_config(dir / "run", 36, 3),
                                          &result);
  EXPECT_EQ(result.crashes, 0u);
  EXPECT_EQ(result.stall_kills, 0u);
  EXPECT_EQ(result.takeovers, 0u);
  EXPECT_EQ(result.worker_launches, 3u);
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, RepeatedWorkerKillsAreRetriedToBitIdenticalCompletion) {
  const fs::path dir = scratch_dir("worker_kills");
  const std::string reference = write_reference_journal(dir, 36);
  auto config = sup_config(dir / "run", 36, 3);
  // Every worker process dies before its 4th fresh injection: each shard
  // (12 injections) needs several relaunches, each resuming mid-shard.
  config.worker_failpoints = "campaign.injection=kill@hit=4";
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_GE(result.crashes, 3u);  // >= 1 kill per shard (expected: 9)
  EXPECT_GT(result.worker_launches, 3u);
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, TornJournalWritesAreDiscardedOnResume) {
  const fs::path dir = scratch_dir("torn_journal");
  const std::string reference = write_reference_journal(dir, 24);
  auto config = sup_config(dir / "run", 24, 2);
  // Each worker writes half a record line on its 3rd append, then dies —
  // resume must truncate the torn tail and re-run that injection.
  config.worker_failpoints = "journal.append=torn@hit=3";
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_GE(result.crashes, 2u);
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, EnospcOnAppendFailsTheWorkerButNotTheCampaign) {
  const fs::path dir = scratch_dir("enospc");
  const std::string reference = write_reference_journal(dir, 24);
  auto config = sup_config(dir / "run", 24, 2);
  // The 5th append in each worker process reports ENOSPC: the worker exits
  // nonzero with its slice incomplete (a "clean" crash), and the relaunch
  // journals the one missing record.
  config.worker_failpoints = "journal.append=err@hit=5";
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_GE(result.crashes, 2u);
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, PoisonInjectionIsQuarantinedDeterministically) {
  const fs::path dir = scratch_dir("poison");
  const std::string reference = write_reference_journal(dir, 36);
  auto config = sup_config(dir / "run", 36, 3);
  // Global injection 19 kills whichever worker executes it, every time.
  config.worker_failpoints = "inject.execute=kill@key=19";
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  // Quarantined after exactly poison_threshold consecutive pinned crashes.
  EXPECT_EQ(result.crashes, 3u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0], 19u);

  // Every record except the quarantined one is byte-identical to the
  // reference; record 19 is journaled as Quarantined instead of wedging
  // shard 1 forever.
  auto merged_lines = lines_by_index(config.dir + "/merged.jsonl");
  auto reference_lines = lines_by_index(reference);
  ASSERT_EQ(merged_lines.size(), reference_lines.size());
  for (const auto& [index, line] : reference_lines) {
    if (index == "19") {
      EXPECT_NE(merged_lines.at(index).find("\"outcome\":\"Quarantined\""),
                std::string::npos)
          << merged_lines.at(index);
      continue;
    }
    EXPECT_EQ(merged_lines.at(index), line) << "record " << index;
  }
  (void)merged;
}

TEST(Supervisor, StaleHeartbeatGetsTheWorkerKilledAndRetried) {
  const fs::path dir = scratch_dir("stall");
  const std::string reference = write_reference_journal(dir, 8);
  auto config = sup_config(dir / "run", 8, 2);
  // The worker wedges (20s sleep) at its 3rd injection while all heartbeat
  // writes are dropped, so the sidecar goes stale and the supervisor's
  // hang detector must SIGKILL and relaunch it.
  config.worker_failpoints =
      "campaign.injection=stall:20000@hit=3;heartbeat.write=err";
  config.stall_timeout_ms = 1500;
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_GE(result.stall_kills, 1u);
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, ExpiredForeignLeaseIsTakenOver) {
  const fs::path dir = scratch_dir("takeover");
  const std::string reference = write_reference_journal(dir, 24);
  auto config = sup_config(dir / "run", 24, 2);
  fs::create_directories(config.dir);
  // A dead supervisor left an expired lease on shard 0: work-stealing must
  // take it over rather than waiting forever.
  Lease stale;
  stale.owner = "dead-host:1";
  stale.pid = 1;
  stale.shard = 0;
  stale.expires_ms = fi::unix_now_ms() - 10000;
  ASSERT_TRUE(fi::acquire_lease(
                  fi::lease_path_for_journal(
                      Supervisor::shard_journal_path(config.dir, 0)),
                  stale, stale.expires_ms - 1)
                  .is_ok());
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_EQ(result.takeovers, 1u);
  EXPECT_EQ(merged, read_file(reference));
}

TEST(Supervisor, DiesMidCampaignThenResumeIsBitIdentical) {
  const fs::path dir = scratch_dir("resume");
  const std::string reference = write_reference_journal(dir, 48);
  auto config = sup_config(dir / "run", 48, 3);
  // Workers crash-loop (die before their 4th injection) so the campaign is
  // still in flight when the supervisor itself is aborted by a failpoint
  // on its 3rd supervision tick.
  config.worker_failpoints = "campaign.injection=kill@hit=4";
  ASSERT_TRUE(fp::set_spec("supervisor.tick=err@hit=3").is_ok());
  auto first = Supervisor::run(config);
  (void)fp::set_spec("");
  ASSERT_FALSE(first.is_ok());
  EXPECT_NE(first.status().message().find("supervisor aborted"),
            std::string::npos);

  // A second supervisor must refuse the directory without --resume...
  auto refused = Supervisor::run(config);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("--resume"), std::string::npos);

  // ...and with it, reconstruct state and finish to the identical bytes.
  config.resume = true;
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_EQ(merged, read_file(reference));
}

/// The state-log header `gpufi run` writes for `config`.
std::string state_header(const SupervisorConfig& config) {
  auto golden = fi::GoldenCache::instance().get_or_run(config.campaign);
  EXPECT_TRUE(golden.is_ok()) << golden.status().to_string();
  return Supervisor::state_header(config, golden.value());
}

TEST(Supervisor, ResumeRefusesAStateLogCorruptBeforeItsLastLine) {
  const fs::path dir = scratch_dir("corrupt_state");
  auto config = sup_config(dir / "run", 24, 2);
  fs::create_directories(config.dir);
  const std::string state = Supervisor::state_path(config.dir);
  // Line 2 is damaged; line 3 convicts injection 19. Replaying past the
  // damage would be fine here, but the damaged line could have been the
  // quarantine itself: resume must stop, not forget.
  std::ofstream(state, std::ios::binary)
      << state_header(config) << "\n"
      << R"({"ev":"crash","sha)" << "\n"
      << R"({"ev":"quarantine","shard":1,"index":19})" << "\n";
  config.resume = true;
  auto ran = Supervisor::run(config);
  ASSERT_FALSE(ran.is_ok());
  EXPECT_NE(ran.status().message().find(state + " is corrupt at line 2"),
            std::string::npos)
      << ran.status().to_string();
}

TEST(Supervisor, ResumeDropsATornStateLogTailAndKeepsItsQuarantine) {
  const fs::path dir = scratch_dir("torn_state");
  const std::string reference = write_reference_journal(dir, 24);
  auto config = sup_config(dir / "run", 24, 2);
  fs::create_directories(config.dir);
  const std::string state = Supervisor::state_path(config.dir);
  // A supervisor died mid-write, after convicting injection 19.
  std::ofstream(state, std::ios::binary)
      << state_header(config) << "\n"
      << R"({"ev":"quarantine","shard":1,"index":19})" << "\n"
      << R"({"ev":"cra)";
  config.resume = true;
  fi::SupervisorResult result;
  const std::string merged = merged_bytes(config, &result);
  EXPECT_EQ(result.quarantined, std::vector<u64>{19});
  auto merged_lines = lines_by_index(config.dir + "/merged.jsonl");
  auto reference_lines = lines_by_index(reference);
  ASSERT_EQ(merged_lines.size(), reference_lines.size());
  for (const auto& [index, line] : reference_lines) {
    if (index == "19") {
      EXPECT_NE(merged_lines.at(index).find("\"outcome\":\"Quarantined\""),
                std::string::npos);
    } else {
      EXPECT_EQ(merged_lines.at(index), line) << "record " << index;
    }
  }

  // The torn tail was cut, not glued onto: every line of the log parses...
  std::istringstream log(read_file(state));
  std::string line;
  while (std::getline(log, line)) {
    jsonl::Fields fields;
    EXPECT_TRUE(jsonl::parse_fields(line, &fields)) << line;
  }
  // ...so a second resume replays the same quarantine to the same merge.
  fi::SupervisorResult again;
  EXPECT_EQ(merged_bytes(config, &again), merged);
  EXPECT_EQ(again.quarantined, std::vector<u64>{19});
}

TEST(Supervisor, AbandonsAShardAfterMaxNoProgressAttempts) {
  const fs::path dir = scratch_dir("abandon");
  auto config = sup_config(dir / "run", 24, 2);
  // Workers die before journaling anything, and the poison threshold is out
  // of reach: the supervisor must give up after max_shard_attempts per
  // shard instead of relaunching forever.
  config.worker_failpoints = "campaign.injection=kill@hit=1";
  config.max_shard_attempts = 3;
  config.poison_threshold = 100;
  auto ran = Supervisor::run(config);
  ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
  EXPECT_EQ(ran.value().shards_failed, 2u);
  EXPECT_EQ(ran.value().crashes, 6u);  // max_shard_attempts per shard
  EXPECT_EQ(ran.value().merged.records.size(), 0u);  // no merge attempted
}

TEST(Supervisor, ValidatesConfigAndPlatformPrerequisites) {
  auto config = sup_config(scratch_dir("validate"), 24, 2);
  config.shards = 0;
  EXPECT_EQ(Supervisor::run(config).status().code(),
            StatusCode::kInvalidArgument);
  config.shards = 2;
  config.exe = "";
  EXPECT_EQ(Supervisor::run(config).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gfi
