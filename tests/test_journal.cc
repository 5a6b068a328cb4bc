// Resilience tests for the campaign engine: journal round-trip, crash/kill
// resume (record-boundary and mid-record truncation), shard partitioning +
// merge, the per-injection watchdog, and the golden-run cache.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/journal.h"
#include "sassim/kernel_builder.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::BitFlipModel;
using fi::Campaign;
using fi::CampaignConfig;
using fi::CampaignResult;
using fi::InjectionMode;
using fi::InjectionRecord;
using fi::Journal;
using fi::Outcome;

CampaignConfig base_config(const std::string& workload) {
  CampaignConfig config;
  config.workload = workload;
  config.machine = arch::toy();
  config.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  config.num_injections = 60;
  config.seed = 7;
  config.threads = 4;
  return config;
}

/// Fresh per-test scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void expect_records_equal(const InjectionRecord& a, const InjectionRecord& b,
                          const std::string& context) {
  EXPECT_EQ(a.outcome, b.outcome) << context;
  EXPECT_EQ(a.trap, b.trap) << context;
  EXPECT_EQ(a.error_magnitude, b.error_magnitude) << context;  // bit-exact
  EXPECT_EQ(a.dyn_instrs, b.dyn_instrs) << context;
  EXPECT_EQ(a.site.group, b.site.group) << context;
  EXPECT_EQ(a.site.target_occurrence, b.site.target_occurrence) << context;
  EXPECT_EQ(a.site.lane_sel, b.site.lane_sel) << context;
  EXPECT_EQ(a.site.bit_sel, b.site.bit_sel) << context;
  EXPECT_EQ(a.site.bit_sel2, b.site.bit_sel2) << context;
  EXPECT_EQ(a.site.reg_sel, b.site.reg_sel) << context;
  EXPECT_EQ(a.site.random_value, b.site.random_value) << context;
  EXPECT_EQ(a.effect.activated, b.effect.activated) << context;
  EXPECT_EQ(a.effect.corrected_by_ecc, b.effect.corrected_by_ecc) << context;
  EXPECT_EQ(a.effect.struck_dyn_index, b.effect.struck_dyn_index) << context;
  EXPECT_EQ(a.effect.struck_opcode, b.effect.struck_opcode) << context;
  EXPECT_EQ(a.effect.struck_group, b.effect.struck_group) << context;
  EXPECT_EQ(a.effect.struck_lane, b.effect.struck_lane) << context;
}

void expect_results_equal(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_EQ(a.outcome_counts, b.outcome_counts);
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    expect_records_equal(a.records[i], b.records[i],
                         "record " + std::to_string(i));
  }
}

// ------------------------------------------------------------ journal ----

TEST(Journal, RecordLineRoundTrips) {
  InjectionRecord record;
  record.outcome = Outcome::kSdc;
  record.trap = sim::TrapKind::kEccDoubleBit;
  record.error_magnitude = 0.1234567890123456789;  // needs %.17g fidelity
  record.dyn_instrs = 987654321;
  record.site.group = sim::InstrGroup::kFp32;
  record.site.target_occurrence = 123456789012345ULL;
  record.site.lane_sel = 0xdeadbeef;
  record.site.bit_sel = 31;
  record.site.bit_sel2 = 7;
  record.site.reg_sel = 300;
  record.site.random_value = ~0ULL;
  record.effect.activated = true;
  record.effect.struck_dyn_index = 42;
  record.effect.struck_opcode = sim::Opcode::kFAdd;
  record.effect.struck_group = sim::InstrGroup::kFp32;
  record.effect.struck_lane = 17;

  const std::string line = Journal::record_line(99, record);
  auto parsed = Journal::parse_record(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().first, 99u);
  expect_records_equal(parsed.value().second, record, "roundtrip");
}

TEST(Journal, NonFiniteErrorMagnitudeStaysValidJsonl) {
  // %.17g prints the bare `inf`/`nan` tokens, which are not JSON; the shared
  // jsonl helpers serialize NaN as null (parsed back as NaN) and ±inf as the
  // overflowing JSON number ±1e999 (parsed back as ±inf, so a record whose
  // relative error is genuinely infinite still resumes bit-exactly).
  for (const f64 magnitude : {std::numeric_limits<f64>::quiet_NaN(),
                              std::numeric_limits<f64>::infinity(),
                              -std::numeric_limits<f64>::infinity()}) {
    InjectionRecord record;
    record.outcome = Outcome::kSdc;
    record.error_magnitude = magnitude;
    const std::string line = Journal::record_line(7, record);
    EXPECT_EQ(line.find("inf"), std::string::npos) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos) << line;
    auto parsed = Journal::parse_record(line);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    if (std::isnan(magnitude)) {
      EXPECT_NE(line.find("\"err\":null"), std::string::npos) << line;
      EXPECT_TRUE(std::isnan(parsed.value().second.error_magnitude)) << line;
    } else {
      EXPECT_NE(line.find("1e999"), std::string::npos) << line;
      EXPECT_EQ(parsed.value().second.error_magnitude, magnitude) << line;
    }
    EXPECT_EQ(parsed.value().second.outcome, Outcome::kSdc);
  }
}

TEST(Journal, WrittenJournalMatchesInMemoryResult) {
  const fs::path dir = scratch_dir("roundtrip");
  auto config = base_config("vecadd");
  config.journal_path = (dir / "campaign.jsonl").string();
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().resumed, 0u);

  auto loaded = Journal::load(*config.journal_path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().header.workload, "vecadd");
  EXPECT_EQ(loaded.value().header.num_injections, config.num_injections);
  ASSERT_EQ(loaded.value().records.size(), config.num_injections);
  for (const auto& [index, record] : loaded.value().records) {
    ASSERT_LT(index, result.value().records.size());
    expect_records_equal(record, result.value().records[index],
                         "journaled record " + std::to_string(index));
  }
}

TEST(Journal, ResumeAfterRecordBoundaryTruncation) {
  const fs::path dir = scratch_dir("resume_boundary");
  const std::string path = (dir / "campaign.jsonl").string();

  auto config = base_config("saxpy");
  auto uninterrupted = Campaign::run(config);
  ASSERT_TRUE(uninterrupted.is_ok());

  config.journal_path = path;
  ASSERT_TRUE(Campaign::run(config).is_ok());

  // Simulate a kill: keep the header plus the first 25 complete records.
  std::ifstream in(path);
  std::string line, kept;
  for (int i = 0; i < 26 && std::getline(in, line); ++i) kept += line + "\n";
  in.close();
  std::ofstream(path, std::ios::trunc) << kept;

  auto resumed = Campaign::run(config);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().resumed, 25u);
  expect_results_equal(resumed.value(), uninterrupted.value());
}

TEST(Journal, ResumeAfterMidRecordTruncation) {
  const fs::path dir = scratch_dir("resume_midrecord");
  const std::string path = (dir / "campaign.jsonl").string();

  auto config = base_config("saxpy");
  auto uninterrupted = Campaign::run(config);
  ASSERT_TRUE(uninterrupted.is_ok());

  config.journal_path = path;
  ASSERT_TRUE(Campaign::run(config).is_ok());

  // Tear the file mid-record at several offsets; resume must always
  // reproduce the uninterrupted campaign bit-exactly.
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string full = buffer.str();
  in.close();
  for (const double fraction : {0.999, 0.61, 0.30}) {
    const auto cut = static_cast<std::size_t>(
        static_cast<double>(full.size()) * fraction);
    std::ofstream(path, std::ios::trunc | std::ios::binary)
        << full.substr(0, cut);
    auto resumed = Campaign::run(config);
    ASSERT_TRUE(resumed.is_ok())
        << "cut at " << cut << ": " << resumed.status().to_string();
    expect_results_equal(resumed.value(), uninterrupted.value());
  }
}

TEST(Journal, ResumeWithTornHeaderRecreates) {
  const fs::path dir = scratch_dir("torn_header");
  const std::string path = (dir / "campaign.jsonl").string();
  std::ofstream(path) << R"({"journal":"gpufi-journal-v1","workl)";  // no \n

  auto config = base_config("vecadd");
  config.journal_path = path;
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().resumed, 0u);
  auto loaded = Journal::load(path);
  ASSERT_TRUE(loaded.is_ok());
  EXPECT_EQ(loaded.value().records.size(), config.num_injections);
}

TEST(Journal, ResumeRejectsDifferentCampaign) {
  const fs::path dir = scratch_dir("mismatch");
  const std::string path = (dir / "campaign.jsonl").string();
  auto config = base_config("vecadd");
  config.journal_path = path;
  ASSERT_TRUE(Campaign::run(config).is_ok());

  auto reseeded = config;
  reseeded.seed = config.seed + 1;
  auto result = Campaign::run(reseeded);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  auto resharded = config;
  resharded.shard_count = 2;
  EXPECT_FALSE(Campaign::run(resharded).is_ok());
}

TEST(Journal, ResumeRejectsDifferentEcc) {
  // Every preset protects RF and DRAM with SECDED, which the header leaves
  // unwritten; with ECC off the journal says so and cannot resume with it on.
  const fs::path dir = scratch_dir("ecc_mismatch");
  const std::string path = (dir / "campaign.jsonl").string();
  auto config = base_config("vecadd");
  config.model.mode = InjectionMode::kRf;
  config.num_injections = 20;
  config.journal_path = path;
  ASSERT_TRUE(Campaign::run(config).is_ok());
  std::string header;
  std::getline(std::ifstream(path), header);
  EXPECT_EQ(header.find("\"ecc\""), std::string::npos) << header;

  auto unprotected = config;
  unprotected.machine.rf_ecc = ecc::EccMode::kDisabled;
  unprotected.machine.dram_ecc = ecc::EccMode::kDisabled;
  auto refused = Campaign::run(unprotected);
  ASSERT_FALSE(refused.is_ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find(
                "ecc is 'rf=secded,dram=secded', campaign has "
                "'rf=off,dram=off'"),
            std::string::npos)
      << refused.status().to_string();

  unprotected.journal_path = (dir / "unprotected.jsonl").string();
  ASSERT_TRUE(Campaign::run(unprotected).is_ok());
  auto loaded = Journal::load(*unprotected.journal_path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().header.ecc, "rf=off,dram=off");
  config.journal_path = unprotected.journal_path;
  EXPECT_EQ(Campaign::run(config).status().code(),
            StatusCode::kFailedPrecondition);
}

// ----------------------------------------------------------- sharding ----

TEST(Journal, ShardsPartitionAndMergeToUnshardedCampaign) {
  const fs::path dir = scratch_dir("shards");
  auto config = base_config("vecadd");
  auto unsharded = Campaign::run(config);
  ASSERT_TRUE(unsharded.is_ok());

  std::vector<std::string> journals;
  for (u32 shard = 0; shard < 3; ++shard) {
    auto shard_config = config;
    shard_config.shard_index = shard;
    shard_config.shard_count = 3;
    shard_config.journal_path =
        (dir / ("shard" + std::to_string(shard) + ".jsonl")).string();
    journals.push_back(*shard_config.journal_path);
    auto result = Campaign::run(shard_config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    // The shard's records are the strided slice of the unsharded campaign.
    ASSERT_EQ(result.value().run_indices.size(),
              result.value().records.size());
    for (std::size_t k = 0; k < result.value().records.size(); ++k) {
      const u64 global = result.value().run_indices[k];
      EXPECT_EQ(global % 3, shard);
      expect_records_equal(result.value().records[k],
                           unsharded.value().records[global],
                           "shard record " + std::to_string(global));
    }
  }

  auto merged = fi::merge_journals(journals);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  EXPECT_EQ(merged.value().outcome_counts, unsharded.value().outcome_counts);
  ASSERT_EQ(merged.value().records.size(), unsharded.value().records.size());
  for (std::size_t i = 0; i < merged.value().records.size(); ++i) {
    expect_records_equal(merged.value().records[i],
                         unsharded.value().records[i],
                         "merged record " + std::to_string(i));
  }
}

TEST(Journal, MergeRejectsIncompleteOrOverlappingShards) {
  const fs::path dir = scratch_dir("merge_errors");
  auto config = base_config("vecadd");
  config.shard_count = 2;
  config.shard_index = 0;
  config.journal_path = (dir / "shard0.jsonl").string();
  ASSERT_TRUE(Campaign::run(config).is_ok());

  // Missing shard 1: refused, and the error names the missing shard and the
  // escape hatch.
  auto incomplete = fi::merge_journals({*config.journal_path});
  ASSERT_FALSE(incomplete.is_ok());
  EXPECT_EQ(incomplete.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(incomplete.status().message().find("missing shard(s) [1] of 2"),
            std::string::npos)
      << incomplete.status().to_string();
  EXPECT_NE(incomplete.status().message().find("--allow-partial"),
            std::string::npos);

  // The same shard twice is a duplicate, named with both paths.
  auto overlap =
      fi::merge_journals({*config.journal_path, *config.journal_path});
  ASSERT_FALSE(overlap.is_ok());
  EXPECT_EQ(overlap.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overlap.status().message().find("duplicate shard 0/2"),
            std::string::npos)
      << overlap.status().to_string();
}

TEST(Journal, MergeRejectsUnfinishedShardUnlessAllowPartial) {
  const fs::path dir = scratch_dir("merge_unfinished");
  auto config = base_config("vecadd");
  config.shard_count = 2;
  std::vector<std::string> journals;
  for (u32 shard = 0; shard < 2; ++shard) {
    config.shard_index = shard;
    config.journal_path =
        (dir / ("shard" + std::to_string(shard) + ".jsonl")).string();
    journals.push_back(*config.journal_path);
    ASSERT_TRUE(Campaign::run(config).is_ok());
  }
  // Truncate shard 1 to the header plus 10 of its 30 records: an unfinished
  // (crashed, not-yet-resumed) shard.
  std::ifstream in(journals[1]);
  std::string line, kept;
  for (int i = 0; i < 11 && std::getline(in, line); ++i) kept += line + "\n";
  in.close();
  std::ofstream(journals[1], std::ios::trunc) << kept;

  auto strict = fi::merge_journals(journals);
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(strict.status().message().find("incomplete shard(s)"),
            std::string::npos)
      << strict.status().to_string();
  EXPECT_NE(strict.status().message().find("10 of 30 records"),
            std::string::npos)
      << strict.status().to_string();

  fi::MergeOptions allow;
  allow.allow_partial = true;
  auto partial = fi::merge_journals(journals, allow);
  ASSERT_TRUE(partial.is_ok()) << partial.status().to_string();
  EXPECT_EQ(partial.value().missing, 20u);
  ASSERT_EQ(partial.value().records.size(), 40u);
  ASSERT_EQ(partial.value().indices.size(), 40u);
  // The surviving records keep their global indices, in order: all 30 of
  // shard 0 (even) plus the first 10 of shard 1 (odd).
  u64 odd_seen = 0;
  for (std::size_t k = 1; k < partial.value().indices.size(); ++k) {
    EXPECT_LT(partial.value().indices[k - 1], partial.value().indices[k]);
  }
  for (u64 index : partial.value().indices) {
    if (index % 2 == 1) ++odd_seen;
  }
  EXPECT_EQ(odd_seen, 10u);
}

TEST(Journal, WriteMergedJournalIsByteIdenticalToUnshardedRun) {
  const fs::path dir = scratch_dir("merge_bytes");
  auto config = base_config("vecadd");
  config.threads = 1;  // index-ordered journal lines
  config.journal_path = (dir / "reference.jsonl").string();
  ASSERT_TRUE(Campaign::run(config).is_ok());

  std::vector<std::string> journals;
  for (u32 shard = 0; shard < 3; ++shard) {
    auto shard_config = config;
    shard_config.shard_index = shard;
    shard_config.shard_count = 3;
    shard_config.journal_path =
        (dir / ("shard" + std::to_string(shard) + ".jsonl")).string();
    journals.push_back(*shard_config.journal_path);
    ASSERT_TRUE(Campaign::run(shard_config).is_ok());
  }
  auto merged = fi::merge_journals(journals);
  ASSERT_TRUE(merged.is_ok()) << merged.status().to_string();
  const std::string out = (dir / "merged.jsonl").string();
  ASSERT_TRUE(fi::write_merged_journal(out, merged.value()).is_ok());

  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  EXPECT_EQ(read_all(out), read_all(*config.journal_path));
}

TEST(Journal, QuarantinedRecordRoundTrips) {
  InjectionRecord record;
  record.outcome = Outcome::kQuarantined;
  record.pre_recovery = Outcome::kQuarantined;
  record.attempts = 0;  // never launched
  record.site.bit_sel = 13;
  const std::string line = Journal::record_line(133, record);
  auto parsed = Journal::parse_record(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().first, 133u);
  EXPECT_EQ(parsed.value().second.outcome, Outcome::kQuarantined);
  EXPECT_EQ(parsed.value().second.pre_recovery, Outcome::kQuarantined);
  EXPECT_EQ(parsed.value().second.attempts, 0u);
}

TEST(Journal, ShardValidationRejectsBadIndices) {
  auto config = base_config("vecadd");
  config.shard_count = 0;
  EXPECT_FALSE(Campaign::run(config).is_ok());
  config.shard_count = 2;
  config.shard_index = 2;
  EXPECT_FALSE(Campaign::run(config).is_ok());
}

// ----------------------------------------------------------- watchdog ----

TEST(Watchdog, InfiniteLoopKernelIsTrappedNotWedged) {
  sim::KernelBuilder b("infloop");
  auto top = b.new_label();
  b.bind(top);
  b.mov_u32(2, sim::Operand::imm_u(1));
  b.bra(top);  // unconditional back-edge: loops forever
  b.exit_();
  auto program = b.build();
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  sim::Device device(arch::toy());
  sim::LaunchOptions options;
  options.watchdog_instrs = 1000;
  auto launch =
      device.launch(program.value(), Dim3(1), Dim3(32), {}, options);
  ASSERT_TRUE(launch.is_ok()) << launch.status().to_string();
  EXPECT_TRUE(launch.value().trap.fired());
  EXPECT_EQ(launch.value().trap.kind, sim::TrapKind::kWatchdogTimeout);
  EXPECT_LE(launch.value().dyn_warp_instrs, 1001u);
}

TEST(Watchdog, TinyBudgetClassifiesEveryInjectionAsHang) {
  auto config = base_config("vecadd");
  config.num_injections = 10;
  config.watchdog_instrs = 5;  // nothing finishes in 5 warp instructions
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().count(Outcome::kHang),
            result.value().records.size());
  for (const auto& record : result.value().records) {
    EXPECT_EQ(record.trap, sim::TrapKind::kWatchdogTimeout);
  }
}

TEST(Watchdog, MultiplierBudgetLeavesHealthyRunsAlone) {
  auto config = base_config("vecadd");
  config.num_injections = 20;
  config.watchdog_multiplier = 3;
  config.watchdog_floor = 10000;
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok());
  // IOV strikes on vecadd cannot extend control flow by 3x.
  EXPECT_EQ(result.value().count(Outcome::kHang), 0u);
}

// ------------------------------------------------------- golden cache ----

TEST(GoldenCache, MemoizesPerConfigAndDistinguishesMachines) {
  auto& cache = fi::GoldenCache::instance();
  cache.clear();
  auto config = base_config("vecadd");
  const std::size_t misses_before = cache.misses();
  auto first = cache.get_or_run(config);
  auto second = cache.get_or_run(config);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(cache.misses(), misses_before + 1);
  EXPECT_GE(cache.hits(), 1u);
  EXPECT_EQ(first.value().dyn_instrs, second.value().dyn_instrs);

  // Same arch name, different ECC setting: must not alias.
  auto ecc_off = config;
  ecc_off.machine.rf_ecc = ecc::EccMode::kDisabled;
  EXPECT_NE(fi::GoldenCache::key_for(config),
            fi::GoldenCache::key_for(ecc_off));
}

TEST(GoldenCache, CampaignResumeReusesJournaledGolden) {
  // Campaign::run goes through the golden cache, so a shard pair in one
  // process profiles the workload exactly once.
  auto& cache = fi::GoldenCache::instance();
  cache.clear();
  auto config = base_config("vecadd");
  config.num_injections = 12;
  config.shard_count = 2;
  config.shard_index = 0;
  ASSERT_TRUE(Campaign::run(config).is_ok());
  config.shard_index = 1;
  ASSERT_TRUE(Campaign::run(config).is_ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

}  // namespace
}  // namespace gfi
