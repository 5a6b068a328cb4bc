// Fast-forward equivalence: Campaign::run sets each worker's workload up
// once, restores its post-setup snapshot before every injection, and, where
// checkpoint images fit, runs injections in strike order, each resuming
// from the golden-prefix checkpoint its worker's context kept. Journal
// record lines must equal those of the kInstrumented-pinned campaign
// (every launch from instruction 0, never armed) and of standalone
// run_single on a fresh device, for every built-in workload and SWIFT
// variant x the four hooked modes x the four flip models (RF with
// register-file ECC off and on), with one worker and with three; the IOV
// and RF campaigns of kernels whose flips can die or leave by plain
// global stores must stop some injections at reconvergence (DESIGN.md
// §4.14). Journals are appended in (strike bucket, index) order on both
// tiers and finish in index order at any number of workers, and a killed
// journal resumes to the same bytes. Transient
// retries, the golden launch again, are answered from the golden run's
// verdict: their journals must match the pin too, in memory, IOV and RF
// modes, across a journal kill and resume, and under a watchdog too short
// for a fault-free launch, whose retries are simulated. The sassim-level
// tests check the golden issue grid against captured checkpoints, strike
// just before, at and after a mark's own count, strike across an adjacent
// FFMA pair split by a checkpoint, and check what a pruned image keeps: the
// rows live where a divergent warp's lanes resume (dead rows load as zero),
// and the memory pages that differ from launch start.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/arch.h"
#include "common/failpoint.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/journal.h"
#include "harden/swift.h"
#include "obs/registry.h"
#include "sa/dataflow.h"
#include "sassim/device.h"
#include "sassim/kernel_builder.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using fi::BitFlipModel;
using fi::FaultSite;
using fi::InjectionMode;
using sim::EngineTier;

using WorkloadMaker = std::function<std::unique_ptr<wl::Workload>()>;

constexpr InjectionMode kModes[] = {InjectionMode::kIov, InjectionMode::kPred,
                                    InjectionMode::kIoa, InjectionMode::kRf};
constexpr BitFlipModel kFlips[] = {BitFlipModel::kSingle, BitFlipModel::kDouble,
                                   BitFlipModel::kRandomValue,
                                   BitFlipModel::kZeroValue};

/// A100 with register-file ECC off, so RF strikes corrupt the register
/// instead of being corrected (or trapping) at the strike itself.
const sim::MachineConfig& machine() {
  static const sim::MachineConfig config = [] {
    sim::MachineConfig a100 = arch::a100();
    a100.rf_ecc = ecc::EccMode::kDisabled;
    return a100;
  }();
  return config;
}

std::vector<std::string> record_lines(const fi::CampaignResult& result) {
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < result.records.size(); ++k) {
    lines.push_back(
        fi::Journal::record_line(result.run_indices[k], result.records[k]));
  }
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- campaign level ---------------------------------------------------------

/// A100 as it ships, register-file ECC on: a single-bit RF strike is
/// corrected at the strike, and any wider one traps there.
const sim::MachineConfig& ecc_machine() {
  static const sim::MachineConfig config = arch::a100();
  return config;
}

/// Every flip model of (workload, mode) on `machine`: the fast-forwarded
/// campaign with 1 and 3 workers and standalone run_single against the
/// instrumented pin. Returns how many of the fast-forwarded injections
/// stopped at reconvergence, nullopt when the mode has nothing to strike.
std::optional<u64> campaign_sweep(const std::string& workload,
                                  InjectionMode mode,
                                  const sim::MachineConfig& machine) {
  fi::CampaignConfig config;
  config.workload = workload;
  config.machine = machine;
  config.model.mode = mode;
  config.num_injections = 12;
  config.seed = 77;
  auto golden = fi::Campaign::golden_run(config);
  EXPECT_TRUE(golden.is_ok()) << golden.status().to_string();
  if (!golden.is_ok()) return std::nullopt;
  bool targetable = false;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    targetable |= fi::mode_targets_group(mode, group) &&
                  golden.value().profile.group_warp_count(group) > 0;
  }
  if (!targetable) return std::nullopt;

  u64 skipped = 0;
  u64 reconverged = 0;
  for (const BitFlipModel flip : kFlips) {
    config.model.flip = flip;
    config.engine = EngineTier::kInstrumented;
    config.threads = 1;
    auto pinned = fi::Campaign::run(config);
    EXPECT_TRUE(pinned.is_ok()) << pinned.status().to_string();
    if (!pinned.is_ok()) return std::nullopt;
    const std::vector<std::string> want = record_lines(pinned.value());
    const std::string what = workload + " " + to_string(mode) + " " +
                             to_string(flip) + " on " + machine.name +
                             (machine.rf_ecc == ecc::EccMode::kDisabled
                                  ? " (RF ECC off)"
                                  : "");

    config.engine = EngineTier::kThreaded;
    for (const std::size_t threads : {1, 3}) {
      obs::Registry metrics;
      config.threads = threads;
      config.metrics = &metrics;
      auto fast = fi::Campaign::run(config);
      config.metrics = nullptr;
      EXPECT_TRUE(fast.is_ok()) << fast.status().to_string();
      if (!fast.is_ok()) return std::nullopt;
      EXPECT_EQ(record_lines(fast.value()), want)
          << what << ", " << threads << " threads";
      skipped +=
          metrics.counter("campaign.fast_forward.skipped_warp_instrs").value();
      reconverged +=
          metrics.counter("campaign.reconverge.injections").value();
    }

    for (std::size_t i = 0; i < config.num_injections; ++i) {
      auto fresh = fi::Campaign::run_single(config, golden.value().profile,
                                            golden.value().dyn_instrs, i);
      EXPECT_TRUE(fresh.is_ok()) << fresh.status().to_string();
      if (!fresh.is_ok()) return std::nullopt;
      EXPECT_EQ(fi::Journal::record_line(i, fresh.value()), want[i])
          << what << ", standalone";
    }
  }
  // Not vacuous: every context keeps checkpoints, so injections resumed.
  EXPECT_GT(skipped, 0u) << workload << " " << to_string(mode);
  return reconverged;
}

class FastForward
    : public ::testing::TestWithParam<std::tuple<std::string, InjectionMode>> {
};

/// Kernels some of whose IOV flips stop early within the sweep's
/// injections: the campaign benchmark's, and vecadd. A flip that reaches
/// shared memory or an atomic (reduce_u32's tree) runs to the end.
const std::set<std::string> kStopsUnderIov = {
    "gemm", "histogram", "saxpy", "saxpy_swift", "spmv", "vecadd"};

TEST_P(FastForward, CampaignRecordsMatchInstrumentedPinAndFreshDevice) {
  harden::register_hardened_workloads();
  const auto& [name, mode] = GetParam();
  std::vector<std::string> workloads = {name};
  if (harden::make_hardened(name) != nullptr) {
    workloads.push_back(name + "_swift");
  }
  for (const std::string& workload : workloads) {
    const std::optional<u64> stopped =
        campaign_sweep(workload, mode, machine());
    // Not vacuous where flips can die or leave by plain global stores:
    // some injections stopped early. Predicate flips mostly change an
    // exit or a branch, and the IOA strike is the store itself.
    const bool stops = mode == InjectionMode::kRf ||
                       (mode == InjectionMode::kIov &&
                        kStopsUnderIov.count(workload) != 0);
    if (stopped && stops) {
      EXPECT_GT(*stopped, 0u) << workload << " " << to_string(mode);
    }
    if (mode != InjectionMode::kRf) continue;
    // With RF ECC on, a single-bit strike is corrected and stops there.
    const std::optional<u64> corrected =
        campaign_sweep(workload, mode, ecc_machine());
    ASSERT_TRUE(corrected.has_value());
    EXPECT_GT(*corrected, 0u) << workload << " RF, RF ECC on";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FastForward,
    ::testing::Combine(::testing::ValuesIn(wl::workload_names()),
                       ::testing::ValuesIn(kModes)),
    [](const ::testing::TestParamInfo<FastForward::ParamType>& info) {
      return std::get<0>(info.param) + "_" +
             fi::to_string(std::get<1>(info.param));
    });

u64 counter(obs::Registry& metrics, const std::string& name) {
  return metrics.counter(name).value();
}

/// How many launches a campaign timed.
u64 launches(obs::Registry& metrics) {
  const auto sample =
      metrics.histogram("campaign.phase.launch_us", 0, 20000, 1000).sample();
  return sample.stats.count();
}

/// Retry campaigns of `config` under both persistences, with 1 and 3
/// workers, against the instrumented pin. A transient retry relaunches the
/// unfaulted kernel from checkpoint 0, so it is the golden launch: every
/// one is answered from the golden run's verdict and launches nothing. A
/// stuck-at retry re-arms the fault and is always simulated; an armed
/// first attempt still resumes mid-launch.
void retry_sweep(fi::CampaignConfig config) {
  for (const fi::FaultPersistence persistence :
       {fi::FaultPersistence::kTransient, fi::FaultPersistence::kStuckAt}) {
    config.model.persistence = persistence;
    config.engine = EngineTier::kInstrumented;
    config.threads = 1;
    auto pinned = fi::Campaign::run(config);
    ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
    u32 retried = 0;
    for (const fi::InjectionRecord& record : pinned.value().records) {
      retried += record.attempts > 1;
    }
    const std::string what = config.workload + " " +
                             to_string(config.model.mode) + " " +
                             to_string(persistence);
    ASSERT_GT(retried, 1u) << what << ": too few retries, the test is vacuous";

    config.engine = EngineTier::kThreaded;
    for (const std::size_t threads : {1, 3}) {
      obs::Registry metrics;
      config.threads = threads;
      config.metrics = &metrics;
      auto fast = fi::Campaign::run(config);
      config.metrics = nullptr;
      ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
      EXPECT_EQ(record_lines(fast.value()), record_lines(pinned.value()))
          << what << ", " << threads << " threads";
      const u64 resumed =
          counter(metrics, "campaign.fast_forward.resumed_retries");
      const u64 skipped =
          counter(metrics, "campaign.fast_forward.skipped_warp_instrs");
      const u64 retries = counter(metrics, "campaign.retries");
      if (persistence == fi::FaultPersistence::kStuckAt) {
        EXPECT_EQ(resumed, 0u) << what;
        EXPECT_EQ(launches(metrics), config.num_injections + retries) << what;
      } else {
        EXPECT_EQ(resumed, retries) << what << ", " << threads << " threads";
        EXPECT_EQ(launches(metrics), config.num_injections)
            << what << ", " << threads << " threads: a retry launched";
      }
      if (config.model.mode != InjectionMode::kMemory ||
          persistence == fi::FaultPersistence::kTransient) {
        EXPECT_GT(skipped, 0u) << what;
      }
    }
  }
}

TEST(FastForwardRetry, MemoryRetriesMatchInstrumentedPin) {
  for (const char* workload : {"saxpy", "spmv", "histogram"}) {
    fi::CampaignConfig config;
    config.workload = workload;
    config.machine = machine();
    config.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
    config.max_retries = 3;
    config.num_injections = 30;
    config.seed = 11;
    retry_sweep(config);
  }
}

fi::CampaignConfig gemm_retries(InjectionMode mode, BitFlipModel flip) {
  fi::CampaignConfig config;
  config.workload = "gemm";
  config.machine = machine();
  config.model = {mode, flip};
  config.max_retries = 2;
  config.num_injections = 40;
  config.seed = 9;
  return config;
}

TEST(FastForwardRetry, RfGemmRetriesMatchInstrumentedPin) {
  retry_sweep(gemm_retries(InjectionMode::kRf, BitFlipModel::kRandomValue));
}

TEST(FastForwardRetry, IovGemmRetriesMatchInstrumentedPin) {
  retry_sweep(gemm_retries(InjectionMode::kIov, BitFlipModel::kSingle));
}

/// A journaled transient-retry campaign killed mid-run resumes to the same
/// journal, and the resumed run answers every retry it meets from the
/// golden run's verdict.
TEST(FastForwardRetry, JournalKillAndResumeStaysIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "gfi_ff_retry_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "campaign.jsonl").string();
  auto read = [&] { return read_file(path); };

  fi::CampaignConfig config;
  config.workload = "spmv";
  config.machine = machine();
  config.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
  config.max_retries = 3;
  config.num_injections = 40;
  config.seed = 13;
  config.threads = 1;
  config.engine = EngineTier::kInstrumented;
  auto pinned = fi::Campaign::run(config);
  ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();

  config.engine = EngineTier::kThreaded;
  config.journal_path = path;
  ASSERT_TRUE(fi::Campaign::run(config).is_ok());
  const std::string full = read();

  for (const double fraction : {0.5, 0.73}) {
    const auto cut =
        static_cast<std::size_t>(static_cast<double>(full.size()) * fraction);
    std::ofstream(path, std::ios::trunc | std::ios::binary)
        << full.substr(0, cut);
    obs::Registry metrics;
    config.metrics = &metrics;
    auto resumed = fi::Campaign::run(config);
    config.metrics = nullptr;
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_GT(resumed.value().resumed, 0u);
    EXPECT_EQ(read(), full) << "cut at " << cut;
    EXPECT_EQ(record_lines(resumed.value()), record_lines(pinned.value()));
    const u64 retries = counter(metrics, "campaign.retries");
    const u64 resumed_retries =
        counter(metrics, "campaign.fast_forward.resumed_retries");
    ASSERT_GT(retries, 1u) << "cut at " << cut;
    EXPECT_EQ(resumed_retries, retries) << "cut at " << cut;
  }
  fs::remove_all(dir);
}

/// A watchdog budget at or below the golden length hangs a fault-free
/// relaunch, so a transient retry under it is not the golden launch: every
/// retry is simulated, hangs, and the records match the pin and
/// standalone run_single at 1 and 3 workers.
TEST(FastForwardRetry, ShortWatchdogRetriesAreSimulated) {
  fi::CampaignConfig config;
  config.machine = machine();
  config.max_retries = 2;
  config.num_injections = 20;
  config.seed = 17;
  for (const auto& [workload, mode] :
       {std::pair{"saxpy", InjectionMode::kMemory},
        std::pair{"vecadd", InjectionMode::kIov}}) {
    config.workload = workload;
    config.model = {mode, BitFlipModel::kDouble,
                    fi::FaultPersistence::kTransient};
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    const u64 length = golden.value().dyn_instrs;
    for (const u64 budget : {length, length / 2}) {
      const std::string what =
          std::string(workload) + ", watchdog " + std::to_string(budget);
      config.watchdog_instrs = budget;
      config.engine = EngineTier::kInstrumented;
      config.threads = 1;
      auto pinned = fi::Campaign::run(config);
      ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
      const std::vector<std::string> want = record_lines(pinned.value());
      for (const fi::InjectionRecord& record : pinned.value().records) {
        EXPECT_EQ(record.attempts, config.max_retries + 1) << what;
        EXPECT_EQ(record.trap, sim::TrapKind::kWatchdogTimeout) << what;
        EXPECT_EQ(record.outcome, fi::Outcome::kUnrecoverableDue) << what;
      }
      for (std::size_t i = 0; i < config.num_injections; ++i) {
        auto single = fi::Campaign::run_single(config, golden.value().profile,
                                               length, i);
        ASSERT_TRUE(single.is_ok()) << single.status().to_string();
        EXPECT_EQ(fi::Journal::record_line(i, single.value()), want[i])
            << what << ", standalone";
      }
      config.engine = EngineTier::kThreaded;
      for (const std::size_t threads : {1, 3}) {
        obs::Registry metrics;
        config.threads = threads;
        config.metrics = &metrics;
        auto fast = fi::Campaign::run(config);
        config.metrics = nullptr;
        ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
        EXPECT_EQ(record_lines(fast.value()), want)
            << what << ", " << threads << " threads";
        EXPECT_EQ(counter(metrics, "campaign.fast_forward.resumed_retries"),
                  0u)
            << what;
      }
    }
  }
}

/// Memory mode never resumes mid-launch (no strike to arm), but every
/// injection after a worker's first runs on a restored, reused device, and
/// every transient retry is answered from the golden run's verdict.
TEST(FastForwardMemory, ReusedDevicesMatchFreshOnes) {
  for (const char* workload : {"saxpy", "spmv", "histogram"}) {
    fi::CampaignConfig config;
    config.workload = workload;
    config.machine = arch::a100();
    config.model = {InjectionMode::kMemory, BitFlipModel::kDouble,
                    fi::FaultPersistence::kTransient};
    config.max_retries = 1;
    config.num_injections = 30;
    config.seed = 5;
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    std::vector<std::string> fresh;
    for (std::size_t i = 0; i < config.num_injections; ++i) {
      auto record = fi::Campaign::run_single(config, golden.value().profile,
                                             golden.value().dyn_instrs, i);
      ASSERT_TRUE(record.is_ok()) << record.status().to_string();
      fresh.push_back(fi::Journal::record_line(i, record.value()));
    }
    for (const std::size_t threads : {1, 3}) {
      obs::Registry metrics;
      config.threads = threads;
      config.metrics = &metrics;
      auto reused = fi::Campaign::run(config);
      ASSERT_TRUE(reused.is_ok()) << reused.status().to_string();
      EXPECT_EQ(record_lines(reused.value()), fresh)
          << workload << ", " << threads << " threads";
      const u64 resumed =
          counter(metrics, "campaign.fast_forward.resumed_retries");
      EXPECT_GT(resumed, 0u) << workload << ", " << threads << " threads";
      EXPECT_EQ(resumed, counter(metrics, "campaign.retries"));
      // Every skipped instruction belongs to a whole golden launch.
      const u64 skipped =
          counter(metrics, "campaign.fast_forward.skipped_warp_instrs");
      EXPECT_EQ(skipped, resumed * golden.value().dyn_instrs)
          << workload << ", " << threads << " threads";
    }
  }
}

// ---- strike order -----------------------------------------------------------

/// Memory mode strikes no instruction, so every strike bucket is 0 and it
/// runs in index order. In the other modes every context keeps
/// checkpoints unless the campaign is pinned. The wide, shallow kernels
/// keep one too: their images hold few live rows.
TEST(StrikeOrder, EveryContextKeepsACheckpoint) {
  harden::register_hardened_workloads();
  fi::CampaignConfig config;
  config.machine = machine();
  {
    fi::CampaignConfig memory = config;
    memory.workload = "saxpy";
    memory.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
    auto golden = fi::Campaign::golden_run(memory);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    std::vector<u64> indices(40);
    for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (const u64 index : indices) {
      EXPECT_EQ(fi::strike_bucket(memory, golden.value(), index, nullptr), 0u)
          << "memory mode has no strike";
    }
    const std::vector<std::size_t> order =
        fi::run_order(memory, golden.value(), indices, nullptr);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      EXPECT_EQ(order[pos], pos) << "memory mode runs in index order";
    }
  }

  // Under one and four workers every context keeps checkpoints, the three
  // largest images included; the records still match the instrumented
  // pin, which keeps none.
  config.model = {};
  config.num_injections = 24;
  for (const char* workload : {"gemm", "saxpy_swift", "vecadd"}) {
    config.workload = workload;
    config.threads = 1;
    config.engine = EngineTier::kInstrumented;
    obs::Registry pinned_metrics;
    config.metrics = &pinned_metrics;
    auto pinned = fi::Campaign::run(config);
    config.metrics = nullptr;
    ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
    EXPECT_EQ(counter(pinned_metrics, "campaign.fast_forward.checkpoints"),
              0u)
        << workload << ": the pin kept a checkpoint";
    config.engine = EngineTier::kThreaded;
    for (const u32 threads : {1u, 4u}) {
      obs::Registry metrics;
      config.threads = threads;
      config.metrics = &metrics;
      auto result = fi::Campaign::run(config);
      config.metrics = nullptr;
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      const u64 captured =
          metrics.counter("campaign.fast_forward.checkpoints").value();
      EXPECT_GT(captured, 0u) << workload << ", " << threads << " threads";
      EXPECT_LE(captured, 24u);  // at most one per injection
      EXPECT_GT(metrics.counter("campaign.fast_forward.image_bytes").value(),
                0u);
      EXPECT_EQ(record_lines(result.value()), record_lines(pinned.value()))
          << workload << ", " << threads << " threads";
    }
  }
}

/// One-thread journaled campaigns append records in run order: (strike
/// bucket, index), within each block under a stratified planner, and index
/// order in memory mode. The journal a failed last append leaves shows that
/// order; a finished one lists the records in index order. The default tier
/// and the instrumented pin write the same bytes either way.
TEST(StrikeOrder, JournalsFollowRunOrderOnBothTiers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "gfi_strike_order";
  fs::remove_all(dir);
  fs::create_directories(dir);
  struct Written {
    std::string finished;
    fi::JournalContents cut;  ///< the journal a failed last append left
  };
  auto both_tiers = [&](fi::CampaignConfig config, const std::string& what) {
    config.threads = 1;
    Written written;
    std::vector<std::string> bytes;
    for (const EngineTier tier :
         {EngineTier::kThreaded, EngineTier::kInstrumented}) {
      config.engine = tier;
      config.journal_path =
          (dir / (what + sim::engine_tier_name(tier) + ".jsonl")).string();
      EXPECT_TRUE(fi::Campaign::run(config).is_ok()) << what;
      written.finished = read_file(*config.journal_path);
      bytes.push_back(written.finished);
      const std::string spec =
          "journal.append=err@hit=" + std::to_string(config.num_injections);
      fs::remove(*config.journal_path);
      EXPECT_TRUE(fp::set_spec(spec).is_ok());
      EXPECT_FALSE(fi::Campaign::run(config).is_ok()) << what;
      EXPECT_TRUE(fp::set_spec("").is_ok());
      bytes.push_back(read_file(*config.journal_path));
      auto cut = fi::Journal::load(*config.journal_path);
      EXPECT_TRUE(cut.is_ok()) << cut.status().to_string();
      if (cut.is_ok()) written.cut = std::move(cut).take();
    }
    EXPECT_EQ(bytes[0], bytes[2]) << what << ": finished journals differ";
    EXPECT_EQ(bytes[1], bytes[3]) << what << ": cut journals differ";
    std::vector<u64> finished;
    std::istringstream lines(written.finished);
    std::string line;
    while (std::getline(lines, line)) {
      if (auto record = fi::Journal::parse_record(line); record.is_ok()) {
        finished.push_back(record.value().first);
      }
    }
    EXPECT_EQ(finished.size(), config.num_injections) << what;
    EXPECT_TRUE(std::is_sorted(finished.begin(), finished.end())) << what;
    return written.cut;
  };

  for (const char* workload : {"gemm", "histogram"}) {
    fi::CampaignConfig config;
    config.workload = workload;
    config.machine = machine();
    config.num_injections = 60;
    config.seed = 21;
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    const fi::JournalContents cut = both_tiers(config, workload);
    ASSERT_EQ(cut.records.size(), config.num_injections - 1) << workload;
    std::vector<std::pair<std::size_t, u64>> keys;
    for (const auto& [index, record] : cut.records) {
      keys.emplace_back(
          fi::strike_bucket(config, golden.value(), index, nullptr), index);
    }
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << workload;
    EXPECT_FALSE(std::is_sorted(
        keys.begin(), keys.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; }))
        << workload << ": strike order is index order, the test is vacuous";
  }

  {
    fi::CampaignConfig config;
    config.workload = "histogram";
    config.machine = machine();
    config.num_injections = 60;
    config.seed = 22;
    config.planner.stratify = true;
    config.planner.checkpoint_every = 20;
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    const fi::JournalContents cut = both_tiers(config, "stratified");
    ASSERT_EQ(cut.plan.size(), 3u);
    const auto& records = cut.records;
    ASSERT_EQ(records.size(), config.num_injections - 1);
    const u64 k = config.planner.checkpoint_every;
    for (std::size_t r = 1; r < records.size(); ++r) {
      const u64 block = records[r].first / k;
      if (records[r - 1].first / k != block) {
        EXPECT_LT(records[r - 1].first / k, block) << "blocks out of order";
        continue;
      }
      auto key = [&](u64 i) {
        return std::make_pair(
            fi::strike_bucket(config, golden.value(), i, &cut.plan[block]),
            i);
      };
      EXPECT_LT(key(records[r - 1].first), key(records[r].first));
    }
  }

  fi::CampaignConfig memory;
  memory.workload = "spmv";
  memory.machine = machine();
  memory.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
  memory.num_injections = 30;
  memory.seed = 23;
  std::vector<u64> order;
  for (const auto& [index, record] : both_tiers(memory, "memory").records) {
    order.push_back(index);
  }
  EXPECT_EQ(order.size(), memory.num_injections - 1);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  fs::remove_all(dir);
}

/// Every finished journal is sorted into index order, so it does not depend
/// on how many workers wrote it or on the order they finished in: a
/// three-worker memory-mode campaign, which appends records as its workers
/// complete them, writes the one-worker journal's bytes.
TEST(StrikeOrder, FinishedJournalsDoNotDependOnWorkers) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "gfi_journal_workers";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* workload : {"saxpy", "spmv"}) {
    fi::CampaignConfig config;
    config.workload = workload;
    config.machine = arch::a100();
    config.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
    config.max_retries = 3;
    config.num_injections = 120;
    config.seed = 2025;
    std::vector<std::string> journals;
    for (const u32 threads : {1u, 3u}) {
      config.threads = threads;
      config.journal_path =
          (dir / (std::string(workload) + std::to_string(threads) + ".jsonl"))
              .string();
      auto result = fi::Campaign::run(config);
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      journals.push_back(read_file(*config.journal_path));
    }
    EXPECT_EQ(journals[1], journals[0]) << workload;
  }
  fs::remove_all(dir);
}

/// A strike-ordered journal killed mid-run resumes to the same bytes: the
/// resumed run takes the pending injections in the same order.
TEST(StrikeOrder, JournalKillAndResumeStaysIdentical) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "gfi_strike_order_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "campaign.jsonl").string();

  fi::CampaignConfig config;
  config.workload = "gemm";
  config.machine = machine();
  config.num_injections = 48;
  config.seed = 24;
  config.threads = 1;
  config.journal_path = path;
  ASSERT_TRUE(fi::Campaign::run(config).is_ok());
  const std::string full = read_file(path);

  for (const double fraction : {0.3, 0.61}) {
    const auto cut =
        static_cast<std::size_t>(static_cast<double>(full.size()) * fraction);
    std::ofstream(path, std::ios::trunc | std::ios::binary)
        << full.substr(0, cut);
    obs::Registry metrics;
    config.metrics = &metrics;
    auto resumed = fi::Campaign::run(config);
    config.metrics = nullptr;
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_GT(resumed.value().resumed, 0u);
    EXPECT_EQ(read_file(path), full) << "cut at " << cut;
    EXPECT_GT(counter(metrics, "campaign.fast_forward.skipped_warp_instrs"),
              0u);
  }
  fs::remove_all(dir);
}

// ---- launch level -----------------------------------------------------------

/// Everything one injection launch can produce.
struct Run {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
  fi::InjectionEffect effect;
};

void expect_identical(const Run& a, const Run& b, const std::string& what) {
  EXPECT_EQ(a.result.trap.kind, b.result.trap.kind) << what;
  EXPECT_EQ(a.result.trap.pc, b.result.trap.pc) << what;
  EXPECT_EQ(a.result.trap.cta, b.result.trap.cta) << what;
  EXPECT_EQ(a.result.trap.warp, b.result.trap.warp) << what;
  EXPECT_EQ(a.result.dyn_warp_instrs, b.result.dyn_warp_instrs) << what;
  EXPECT_EQ(a.result.dyn_thread_instrs, b.result.dyn_thread_instrs) << what;
  EXPECT_EQ(a.result.cycles, b.result.cycles) << what;
  EXPECT_EQ(a.result.ecc.corrected_sbe, b.result.ecc.corrected_sbe) << what;
  EXPECT_EQ(a.result.ecc.detected_dbe, b.result.ecc.detected_dbe) << what;
  EXPECT_TRUE(a.memory.brk == b.memory.brk && a.memory.data == b.memory.data)
      << what << ": global memory differs";
  EXPECT_EQ(a.effect.activated, b.effect.activated) << what;
  EXPECT_EQ(a.effect.struck_dyn_index, b.effect.struck_dyn_index) << what;
  EXPECT_EQ(a.effect.struck_opcode, b.effect.struck_opcode) << what;
  EXPECT_EQ(a.effect.struck_lane, b.effect.struck_lane) << what;
}

FaultSite make_site(InjectionMode mode, u64 occurrence) {
  FaultSite site;
  site.model = {mode, BitFlipModel::kSingle};
  site.target_occurrence = occurrence;
  site.lane_sel = 7;
  site.bit_sel = 5;
  site.reg_sel = 3;
  return site;
}

/// One issue of a fault-free instrumented launch.
struct Issue {
  u64 dyn_index = 0;
  u32 cta = 0;
  u32 warp = 0;
  u32 pc = 0;
  sim::InstrGroup group = sim::InstrGroup::kControl;
};

class Recorder final : public sim::InstrumentHook {
 public:
  void on_before_instr(sim::InstrContext& ctx) override {
    issues.push_back({ctx.dyn_index, ctx.cta, ctx.warp, ctx.warp_state->pc,
                      ctx.group});
  }
  std::vector<Issue> issues;
};

/// A workload set up once on a device that every launch of a test reuses,
/// plus the fresh-device instrumented reference.
class Bench {
 public:
  explicit Bench(WorkloadMaker make) : make_(std::move(make)) {
    workload_ = make_();
    spec_ = workload_->setup(device_).value();
    start_ = device_.snapshot();
    live_rows_ = sa::live_in_rows(workload_->program());
    Recorder recorder;
    launch_fresh(&recorder, EngineTier::kInstrumented);
    issues_ = std::move(recorder.issues);
  }

  [[nodiscard]] const std::vector<Issue>& issues() const { return issues_; }
  [[nodiscard]] const sim::Program& program() const {
    return workload_->program();
  }

  /// Eligible occurrences of `groups` issued before dynamic index `dyn`.
  [[nodiscard]] u64 occurrence_at(u32 groups, u64 dyn) const {
    u64 count = 0;
    for (const Issue& issue : issues_) {
      if (issue.dyn_index >= dyn) break;
      count += (groups >> static_cast<int>(issue.group)) & 1u;
    }
    return count;
  }
  [[nodiscard]] u64 eligible(u32 groups) const {
    return occurrence_at(groups, ~u64{0});
  }

  /// Armed launch on the reused device: from `resume` (or launch start),
  /// capturing into `capture` at `capture_at` on the way. A pruned capture
  /// keeps live rows and the pages that differ from launch start, as
  /// campaigns do; an unpruned one keeps everything.
  Run inject(const FaultSite& site, const sim::LaunchCheckpoint* resume,
             sim::LaunchCheckpoint* capture = nullptr, u64 capture_at = 0,
             bool pruned = true) {
    if (!resume) device_.restore(start_);
    fi::InjectorHook hook(site, machine());
    sim::LaunchOptions options;
    options.hook = &hook;
    options.resume_from = resume;
    options.capture = capture;
    options.capture_at = capture_at;
    if (pruned) {
      options.live_rows = &live_rows_;
      options.memory_base = &start_;
    }
    auto result = device_.launch(workload_->program(), spec_.grid,
                                 spec_.block, spec_.params, options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().tier_used, EngineTier::kThreaded);
    EXPECT_TRUE(result.value().downgraded);
    EXPECT_EQ(result.value().captured, capture != nullptr);
    return Run{result.value(), device_.snapshot(), hook.effect()};
  }

  /// The golden-prefix checkpoint at the first boundary reaching `mark`,
  /// captured by an armed launch whose strike comes last.
  sim::LaunchCheckpoint golden_checkpoint(u64 mark, bool pruned = true) {
    sim::LaunchCheckpoint checkpoint;
    const u64 last = issues_.size() - 1;
    inject(make_site(fi::InjectionMode::kRf, last), nullptr, &checkpoint,
           mark, pruned);
    return checkpoint;
  }

  /// Overwrites all of device memory, as a faulted run might leave it.
  void scribble() {
    sim::GlobalMemory& memory = device_.memory();
    ASSERT_EQ(memory.fill(sim::GlobalMemory::kBaseAddress, 0xA5,
                          memory.bytes_allocated()),
              sim::TrapKind::kNone);
  }

  /// The same site on a fresh device, instrumented from instruction 0.
  Run reference(const FaultSite& site) {
    fi::InjectorHook hook(site, machine());
    Run run = launch_fresh(&hook, EngineTier::kInstrumented);
    run.effect = hook.effect();
    return run;
  }

 private:
  Run launch_fresh(sim::InstrumentHook* hook, EngineTier tier) {
    auto workload = make_();
    sim::Device device(machine());
    auto spec = workload->setup(device);
    sim::LaunchOptions options;
    options.engine = tier;
    options.hook = hook;
    auto result = device.launch(workload->program(), spec.value().grid,
                                spec.value().block, spec.value().params,
                                options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return Run{result.value(), device.snapshot(), {}};
  }

  WorkloadMaker make_;
  std::unique_ptr<wl::Workload> workload_;
  sim::Device device_{machine()};
  wl::LaunchSpec spec_;
  sim::GlobalMemory::Snapshot start_;
  sim::LiveRows live_rows_;
  std::vector<Issue> issues_;
};

u32 strike_groups(InjectionMode mode) {
  FaultSite probe;
  probe.model.mode = mode;
  return fi::InjectorHook(probe, machine()).strike_request()->groups;
}

/// The golden grid of `name` on machine(), as Campaign::golden_run takes it.
sim::IssueGrid golden_grid(const std::string& name) {
  fi::CampaignConfig config;
  config.workload = name;
  config.machine = machine();
  auto golden = fi::Campaign::golden_run(config);
  EXPECT_TRUE(golden.is_ok()) << golden.status().to_string();
  return golden.is_ok() ? golden.value().grid : sim::IssueGrid{};
}

/// The grid a profiled hook-free launch of `name` on machine() records
/// every kStrikeGridStep warp instructions, whatever its launch state.
sim::IssueGrid launch_grid(const std::string& name, EngineTier tier) {
  auto workload = wl::make_workload(name);
  sim::Device device(machine());
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  sim::Profile profile;
  sim::IssueGrid grid;
  grid.step = fi::kStrikeGridStep;
  sim::LaunchOptions options;
  options.engine = tier;
  options.profile = &profile;
  options.issue_grid = &grid;
  auto result = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return grid;
}

/// Up to four marks spread over `grid`, first and last included.
std::vector<std::size_t> sample_marks(const sim::IssueGrid& grid) {
  std::vector<std::size_t> marks;
  const std::size_t n = grid.marks();
  for (const std::size_t mark : {std::size_t{0}, n / 3, 2 * n / 3, n - 1}) {
    if (n > 0 && (marks.empty() || marks.back() != mark)) {
      marks.push_back(mark);
    }
  }
  return marks;
}

/// For every workload the grid's row at mark i holds the group issues of
/// an armed checkpoint captured at mark i, and both tiers record the same
/// grid, which Campaign::golden_run keeps.
TEST(GoldenGrid, RowsMatchCapturedCheckpoints) {
  for (const std::string& name : wl::workload_names()) {
    const sim::IssueGrid grid = launch_grid(name, EngineTier::kThreaded);
    EXPECT_EQ(grid.step, fi::kStrikeGridStep);
    ASSERT_GT(grid.marks(), 0u) << name;
    EXPECT_EQ(launch_grid(name, EngineTier::kInstrumented).counts,
              grid.counts)
        << name;
    fi::CampaignConfig config;
    config.workload = name;
    config.machine = machine();
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    EXPECT_EQ(golden.value().grid.step, grid.step) << name;
    EXPECT_EQ(golden.value().grid.counts, grid.counts) << name;
    Bench bench([name] { return wl::make_workload(name); });
    EXPECT_LT(grid.mark_at(grid.marks() - 1), bench.issues().size()) << name;
    for (const std::size_t mark : sample_marks(grid)) {
      const sim::LaunchCheckpoint checkpoint =
          bench.golden_checkpoint(grid.mark_at(mark));
      EXPECT_GE(checkpoint.dyn_warp, grid.mark_at(mark)) << name;
      for (int g = 0; g < sim::kInstrGroupCount; ++g) {
        EXPECT_EQ(checkpoint.group_issues[g],
                  grid.counts[mark * sim::kInstrGroupCount + g])
            << name << " mark " << mark << " group " << g;
      }
    }
  }
}

/// Strikes one eligible occurrence below, at and above a mark's own count:
/// the bucket puts the mark before the strike exactly when the count is at
/// most the occurrence, and the launch resumed from the checkpoint of the
/// bucket's mark matches the instrumented reference.
void strike_around_marks(const std::string& name, InjectionMode mode) {
  Bench bench([name] { return wl::make_workload(name); });
  const sim::IssueGrid grid = golden_grid(name);
  const u32 groups = strike_groups(mode);
  const u64 eligible = bench.eligible(groups);
  ASSERT_GT(eligible, 2u);

  for (const std::size_t mark : sample_marks(grid)) {
    const u64 count = grid.issues(mark, groups);
    for (const u64 occurrence : {count - 1, count, count + 1}) {
      if (occurrence >= eligible) continue;  // also count - 1 wrapped at 0
      const FaultSite site = make_site(mode, occurrence);
      const std::size_t bucket =
          grid.bucket(*fi::InjectorHook(site, machine()).strike_request());
      const std::string what = name + " mark " + std::to_string(mark) + " " +
                               site.to_string();
      if (occurrence < count) {
        EXPECT_LE(bucket, mark) << what;
      } else {
        EXPECT_GT(bucket, mark) << what;
      }
      if (bucket == 0) {
        expect_identical(bench.inject(site, nullptr), bench.reference(site),
                         what);
        continue;
      }
      const sim::LaunchCheckpoint from =
          bench.golden_checkpoint(grid.mark_at(bucket - 1));
      EXPECT_LE(from.issues(groups), occurrence) << what;
      expect_identical(bench.inject(site, &from), bench.reference(site),
                       what);
    }
  }
}

TEST(FastForwardLaunch, StrikesAroundMarkCountsMatchInstrumented) {
  for (const char* name : {"gemm", "histogram", "spmv"}) {
    for (const InjectionMode mode : {InjectionMode::kIov, InjectionMode::kRf,
                                     InjectionMode::kPred}) {
      strike_around_marks(name, mode);
    }
  }
}

/// A launch resumed from the checkpoint it captures into reads it before
/// it writes it: the kept checkpoint of a context moves forward in place.
TEST(FastForwardLaunch, CaptureIntoTheResumedCheckpoint) {
  Bench bench([] { return wl::make_workload("gemm"); });
  const sim::IssueGrid grid = golden_grid("gemm");
  ASSERT_GT(grid.marks(), 3u);
  sim::LaunchCheckpoint kept = bench.golden_checkpoint(grid.mark_at(0));
  const u64 late = grid.mark_at(grid.marks() - 1);
  const FaultSite site =
      make_site(InjectionMode::kRf, bench.issues().size() - 1);
  expect_identical(bench.inject(site, &kept, &kept, late),
                   bench.reference(site), "resumed and captured in place");
  const sim::LaunchCheckpoint fresh = bench.golden_checkpoint(late);
  EXPECT_EQ(kept.dyn_warp, fresh.dyn_warp);
  EXPECT_EQ(kept.cycle, fresh.cycle);
  EXPECT_EQ(kept.group_issues, fresh.group_issues);
  expect_identical(bench.inject(site, &kept), bench.reference(site),
                   "resumed from the moved checkpoint");
}

TEST(FastForwardLaunch, ResumeRejectsMisuse) {
  Bench bench([] { return wl::make_workload("gemm"); });
  const sim::IssueGrid grid = golden_grid("gemm");
  const u32 groups = strike_groups(InjectionMode::kIov);
  sim::LaunchCheckpoint checkpoint =
      bench.golden_checkpoint(grid.mark_at(grid.marks() / 2));

  auto workload = wl::make_workload("gemm");
  sim::Device device(machine());
  auto spec = workload->setup(device).value();
  const sim::GlobalMemory::Snapshot start = device.snapshot();
  auto launch = [&](sim::LaunchOptions options) {
    return device.launch(workload->program(), spec.grid, spec.block,
                         spec.params, options);
  };
  sim::LaunchOptions options;
  options.resume_from = &checkpoint;
  options.memory_base = &start;
  EXPECT_EQ(launch(options).status().code(), StatusCode::kInvalidArgument)
      << "hook-free launch resumed";
  fi::InjectorHook early(make_site(InjectionMode::kIov, 0), machine());
  options.hook = &early;
  EXPECT_FALSE(launch(options).is_ok()) << "resumed past the strike";
  fi::InjectorHook late(
      make_site(InjectionMode::kIov, checkpoint.issues(groups)), machine());
  options.hook = &late;
  sim::Profile profile;
  options.profile = &profile;
  EXPECT_FALSE(launch(options).is_ok()) << "profiled a skipped prefix";
  options.profile = nullptr;
  options.memory_base = nullptr;
  EXPECT_FALSE(launch(options).is_ok())
      << "resumed from dirty pages without the memory they differ from";
  options.memory_base = &start;
  const sim::LiveRows other =
      sa::live_in_rows(wl::make_workload("saxpy")->program());
  options.live_rows = &other;
  EXPECT_FALSE(launch(options).is_ok()) << "another program's live rows";
  options.live_rows = nullptr;
  EXPECT_TRUE(launch(options).is_ok());

  sim::LaunchOptions capture;
  sim::LaunchCheckpoint target;
  capture.capture = &target;
  EXPECT_FALSE(launch(capture).is_ok()) << "hook-free launch captured";
  sim::IssueGrid issue_grid;
  issue_grid.step = fi::kStrikeGridStep;
  sim::LaunchOptions gridded;
  gridded.issue_grid = &issue_grid;
  EXPECT_FALSE(launch(gridded).is_ok()) << "grid without a profile";
  gridded.profile = &profile;
  issue_grid.step = 0;
  EXPECT_FALSE(launch(gridded).is_ok()) << "grid without a step";
}

// ---- what an image keeps ----------------------------------------------------

/// A resume from an image that keeps only the pages that differ from
/// launch start rebuilds the memory an image of every page holds, whatever
/// the device memory held before the resume.
TEST(FastForwardImage, DirtyPagesRebuildWholeMemory) {
  Bench bench([] { return wl::make_workload("saxpy"); });
  const sim::IssueGrid grid = golden_grid("saxpy");
  ASSERT_GT(grid.marks(), 2u);
  const u64 mark = grid.mark_at(grid.marks() * 3 / 4);
  const sim::LaunchCheckpoint pruned = bench.golden_checkpoint(mark);
  const sim::LaunchCheckpoint whole =
      bench.golden_checkpoint(mark, /*pruned=*/false);
  const std::size_t all_pages =
      (whole.memory.brk - sim::GlobalMemory::kBaseAddress +
       sim::LaunchCheckpoint::kPageBytes - 1) /
      sim::LaunchCheckpoint::kPageBytes;
  EXPECT_EQ(whole.pages.size(), all_pages);
  EXPECT_GT(pruned.pages.size(), 0u)
      << "the prefix wrote no output by " << mark << " of "
      << bench.issues().size();
  EXPECT_LT(pruned.pages.size(), all_pages);
  EXPECT_LT(pruned.image_words, whole.image_words);

  const u32 groups = strike_groups(InjectionMode::kIov);
  const FaultSite site =
      make_site(InjectionMode::kIov, pruned.issues(groups) + 3);
  const auto reference = bench.reference(site);
  bench.scribble();
  expect_identical(bench.inject(site, &pruned), reference, "dirty pages");
  bench.scribble();
  expect_identical(bench.inject(site, &whole, nullptr, 0, /*pruned=*/false),
                   reference, "every page");
}

/// A warp caught between the two sides of an if/else keeps the rows live
/// at its pc and at the pcs of its SIMT-stack entries, where its other
/// lanes resume; every other row loads as zero, and the launch resumed
/// from that image still matches the instrumented reference.
TEST(FastForwardImage, MaskedRowsRoundTripMidDivergence) {
  using sim::Operand;
  sim::KernelBuilder b("diverge");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.mov_u32(2, Operand::imm_u(222));  // read on the else side only
  b.mov_u32(6, Operand::imm_u(666));  // rewritten before any read
  b.mov_u32(4, Operand::imm_u(0));
  b.isetp(sim::CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16),
          sim::DType::kU32);
  b.if_then_else(
      0, false,
      [&] {
        for (int i = 0; i < 8; ++i) {
          b.iadd_u32(4, Operand::reg(4), Operand::reg(0));
        }
      },
      [&] { b.iadd_u32(4, Operand::reg(2), Operand::reg(0)); });
  b.mov_u32(6, Operand::reg(0));
  b.iadd_u32(10, Operand::reg(4), Operand::reg(6));
  b.ldc_u64(40, 0);
  b.imad_wide(42, Operand::reg(0), Operand::imm_u(4), Operand::reg(40));
  b.stg(42, 10);
  b.exit_();
  auto program = b.build();
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  const sim::LiveRows live = sa::live_in_rows(program.value());

  sim::Device device(machine());
  const u64 out = device.malloc_n<u32>(32).value();
  const u64 params[] = {out};
  const sim::GlobalMemory::Snapshot start = device.snapshot();
  auto launch = [&](const FaultSite& site, sim::LaunchOptions options) {
    fi::InjectorHook hook(site, machine());
    options.hook = &hook;
    auto result = device.launch(program.value(), Dim3(1), Dim3(32), params,
                                options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    return gfi::Run{result.value(), device.snapshot(), hook.effect()};
  };

  // Captured three IADDs into the then side, which 16 lanes run while the
  // other 16 wait in a divergence entry at the else side.
  const u32 groups = strike_groups(InjectionMode::kIov);
  const FaultSite late = make_site(InjectionMode::kIov, 14);
  sim::LaunchCheckpoint checkpoint;
  sim::LaunchOptions capture;
  capture.capture = &checkpoint;
  capture.capture_at = 10;
  capture.live_rows = &live;
  capture.memory_base = &start;
  ASSERT_TRUE(launch(late, capture).result.captured);
  sim::LaunchArena arena;
  const std::vector<sim::WarpState> warps =
      sim::Simulator::checkpoint_warps(checkpoint, arena);
  ASSERT_EQ(warps.size(), 1u);
  const sim::WarpState& warp = warps[0];
  ASSERT_EQ(warp.stack().size(), 2u)
      << "not captured mid-divergence: pc " << warp.pc << " at "
      << checkpoint.dyn_warp << " active " << warp.active();
  EXPECT_EQ(warp.active(), 0x0000FFFFu);
  EXPECT_EQ(warp.stack().back().mask, 0xFFFF0000u);
  EXPECT_EQ(live.at(warp.pc)[0] & (1u << 2), 0u)
      << "R2 is live at the warp's pc: the test does not reach the stack";
  EXPECT_NE(live.at(warp.stack().back().pc)[0] & (1u << 2), 0u);
  for (u32 lane = 0; lane < sim::kWarpSize; ++lane) {
    EXPECT_EQ(warp.reg(lane, 0), lane) << "live at the pc";
    EXPECT_EQ(warp.reg(lane, 2), 222u) << "live at a stack entry";
    EXPECT_EQ(warp.reg(lane, 6), 0u) << "dead row, 666 before the capture";
  }

  // Resumed from the image, struck after it: as the fresh instrumented run.
  const FaultSite site =
      make_site(InjectionMode::kIov, checkpoint.issues(groups) + 2);
  sim::LaunchOptions resume;
  resume.resume_from = &checkpoint;
  resume.memory_base = &start;
  device.restore(start);
  ASSERT_EQ(device.memory().fill(out, 0xA5, 32 * sizeof(u32)),
            sim::TrapKind::kNone);
  const auto resumed = launch(site, resume);
  EXPECT_TRUE(resumed.effect.activated);
  device.restore(start);
  sim::LaunchOptions pinned;
  pinned.engine = EngineTier::kInstrumented;
  expect_identical(resumed, launch(site, pinned), site.to_string());
}

// ---- FFMA pair split by a checkpoint ----------------------------------------
//
// A checkpoint taken between the two FFMAs of an adjacent pair must leave
// the second to run after the resume: struck (IOV) or with its source
// struck (RF), exactly as on the instrumented tier.

/// Whether the FFMA at `pc` is followed by another FFMA.
bool ffma_pair_at(const sim::Program& program, u32 pc) {
  return pc + 1 < program.size() &&
         program.at(pc).op == sim::Opcode::kFFma &&
         program.at(pc + 1).op == sim::Opcode::kFFma;
}

void expect_chain_straddle_matches(InjectionMode mode) {
  // Plain gemm has no FFMA pair; its SWIFT-hardened variant issues every
  // FFMA next to its shadow copy.
  Bench bench([] { return harden::make_hardened("gemm"); });
  const std::vector<Issue>& issues = bench.issues();
  std::size_t head = 0;
  while (head < issues.size() &&
         !ffma_pair_at(bench.program(), issues[head].pc)) {
    ++head;
  }
  ASSERT_LT(head, issues.size()) << "no adjacent FFMA pair issued";
  std::size_t tail = head + 1;
  while (issues[tail].cta != issues[head].cta ||
         issues[tail].warp != issues[head].warp) {
    ++tail;
  }
  ASSERT_EQ(issues[tail].pc, issues[head].pc + 1);

  // A mark one past the head: captured at the first boundary after it.
  const sim::LaunchCheckpoint checkpoint =
      bench.golden_checkpoint(issues[head].dyn_index + 1);
  // The head has issued at the checkpoint and the tail has not.
  ASSERT_GT(checkpoint.dyn_warp, issues[head].dyn_index);
  ASSERT_LE(checkpoint.dyn_warp, issues[tail].dyn_index);

  const u32 groups = strike_groups(mode);
  FaultSite site = make_site(mode, bench.occurrence_at(
                                       groups, issues[tail].dyn_index));
  const sim::Instr& instr = bench.program().at(issues[tail].pc);
  site.reg_sel = instr.src[0].index;  // RF: a source of the tail's FFMA
  ASSERT_LE(checkpoint.issues(groups), site.target_occurrence);
  const Run resumed = bench.inject(site, &checkpoint);
  EXPECT_TRUE(resumed.effect.activated);
  EXPECT_EQ(resumed.effect.struck_opcode, sim::Opcode::kFFma);
  EXPECT_EQ(resumed.effect.struck_dyn_index, issues[tail].dyn_index);
  expect_identical(resumed, bench.reference(site), site.to_string());
}

TEST(FastForwardFfmaChain, IovOnTailAfterCheckpointMatchesInstrumented) {
  expect_chain_straddle_matches(InjectionMode::kIov);
}

TEST(FastForwardFfmaChain, RfOnTailSourceAfterCheckpointMatchesInstrumented) {
  expect_chain_straddle_matches(InjectionMode::kRf);
}

}  // namespace
}  // namespace gfi
