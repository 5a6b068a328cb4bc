// Fast-forward equivalence: Campaign::run sets each worker's workload up
// once, restores its post-setup snapshot before every injection, and starts
// every armed injection from the latest golden-prefix checkpoint before its
// strike. Journal record lines must equal those of the kInstrumented-pinned
// campaign (every launch from instruction 0, never armed) and of standalone
// run_single on a fresh device, for every built-in workload and SWIFT
// variant x the four hooked modes x the four flip models, with one worker
// and with three. The sassim-level tests strike just before, at and after a
// checkpoint's own count, and across an FFMA-chain head/tail pair split by
// a checkpoint.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/journal.h"
#include "harden/swift.h"
#include "obs/registry.h"
#include "sassim/decoded.h"
#include "sassim/device.h"
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

/// Mid-launch checkpoints a `workers`-thread campaign of `name` keeps.
u32 checkpoints_for(const std::string& name, std::size_t workers) {
  auto workload = wl::make_workload(name);
  EXPECT_NE(workload, nullptr) << name;
  sim::Device device(arch::a100());
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  const u64 state = sim::launch_state_bytes(
      device.config(), workload->program(), spec.value().grid,
      spec.value().block, device.memory().bytes_allocated());
  return fi::fast_forward_checkpoints(state, workers);
}

// ---- campaign level ---------------------------------------------------------

/// Every flip model of (workload, mode): the fast-forwarded campaign with 1
/// and 3 workers and standalone run_single against the instrumented pin.
void campaign_sweep(const std::string& workload, InjectionMode mode) {
  fi::CampaignConfig config;
  config.workload = workload;
  config.machine = machine();
  config.model.mode = mode;
  config.num_injections = 12;
  config.seed = 77;
  auto golden = fi::Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
  bool targetable = false;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    targetable |= fi::mode_targets_group(mode, group) &&
                  golden.value().profile.group_warp_count(group) > 0;
  }
  if (!targetable) return;

  u64 skipped = 0;
  for (const BitFlipModel flip : kFlips) {
    config.model.flip = flip;
    config.engine = EngineTier::kInstrumented;
    config.threads = 1;
    auto pinned = fi::Campaign::run(config);
    ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
    const std::vector<std::string> want = record_lines(pinned.value());
    const std::string what =
        workload + " " + to_string(mode) + " " + to_string(flip);

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
      skipped +=
          metrics.counter("campaign.fast_forward.skipped_warp_instrs").value();
    }

    for (std::size_t i = 0; i < config.num_injections; ++i) {
      auto fresh = fi::Campaign::run_single(config, golden.value().profile,
                                            golden.value().dyn_instrs, i);
      ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
      EXPECT_EQ(fi::Journal::record_line(i, fresh.value()), want[i])
          << what << ", standalone";
    }
  }
  // Not vacuous: where the budget keeps checkpoints, injections resumed.
  if (checkpoints_for(workload, 1) > 0) {
    EXPECT_GT(skipped, 0u) << workload << " " << to_string(mode);
  }
}

class FastForward
    : public ::testing::TestWithParam<std::tuple<std::string, InjectionMode>> {
};

TEST_P(FastForward, CampaignRecordsMatchInstrumentedPinAndFreshDevice) {
  harden::register_hardened_workloads();
  const auto& [name, mode] = GetParam();
  campaign_sweep(name, mode);
  if (harden::make_hardened(name) != nullptr) {
    campaign_sweep(name + "_swift", mode);
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

/// Trap-and-retry relaunches from launch start (checkpoint 0), also when
/// the first attempt resumed mid-launch.
TEST(FastForwardRetry, RfGemmRetriesMatchInstrumentedPin) {
  for (const fi::FaultPersistence persistence :
       {fi::FaultPersistence::kTransient, fi::FaultPersistence::kStuckAt}) {
    fi::CampaignConfig config;
    config.workload = "gemm";
    config.machine = machine();
    config.model = {InjectionMode::kRf, BitFlipModel::kRandomValue,
                    persistence};
    config.max_retries = 2;
    config.num_injections = 40;
    config.seed = 9;
    config.engine = EngineTier::kInstrumented;
    config.threads = 1;
    auto pinned = fi::Campaign::run(config);
    ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
    u32 retried = 0;
    for (const fi::InjectionRecord& record : pinned.value().records) {
      retried += record.attempts > 1;
    }
    EXPECT_GT(retried, 0u) << "no injection trapped: the test is vacuous";

    config.engine = EngineTier::kThreaded;
    for (const std::size_t threads : {1, 3}) {
      obs::Registry metrics;
      config.threads = threads;
      config.metrics = &metrics;
      auto fast = fi::Campaign::run(config);
      ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
      EXPECT_EQ(record_lines(fast.value()), record_lines(pinned.value()))
          << to_string(persistence) << ", " << threads << " threads";
      EXPECT_GT(
          metrics.counter("campaign.fast_forward.skipped_warp_instrs").value(),
          0u);
    }
  }
}

/// Memory mode never resumes mid-launch, but every injection after a
/// worker's first runs on a restored, reused device.
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
      EXPECT_EQ(metrics.counter("campaign.fast_forward.checkpoints").value(),
                0u);
    }
  }
}

/// The 2 MiB budget over the probed launch states: (K + workers) states
/// fit, K <= 16.
TEST(FastForwardBudget, CheckpointCountsFollowLaunchState) {
  harden::register_hardened_workloads();
  EXPECT_EQ(checkpoints_for("histogram", 1), 15u);
  EXPECT_EQ(checkpoints_for("spmv", 1), 10u);
  EXPECT_EQ(checkpoints_for("gemm", 1), 6u);
  EXPECT_EQ(checkpoints_for("saxpy", 1), 0u);
  EXPECT_EQ(checkpoints_for("saxpy_swift", 1), 0u);
  EXPECT_EQ(checkpoints_for("vecadd", 2), 0u);
  EXPECT_EQ(fi::fast_forward_checkpoints(1, 1), fi::kMaxCheckpoints);

  for (const char* workload : {"gemm", "saxpy_swift"}) {
    obs::Registry metrics;
    fi::CampaignConfig config;
    config.workload = workload;
    config.machine = arch::a100();
    config.num_injections = 24;
    config.threads = 1;
    config.metrics = &metrics;
    auto result = fi::Campaign::run(config);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const u64 captured =
        metrics.counter("campaign.fast_forward.checkpoints").value();
    if (std::string(workload) == "gemm") {
      EXPECT_GT(captured, 0u);
      EXPECT_LE(captured, 6u);
    } else {
      EXPECT_EQ(captured, 0u);
    }
  }
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

  /// Armed launch on the reused device: from `resume` (or launch start)
  /// filling `table` on the way.
  Run inject(const FaultSite& site, sim::CheckpointTable* table,
             const sim::LaunchCheckpoint* resume) {
    if (!resume) device_.restore(start_);
    fi::InjectorHook hook(site, machine());
    sim::LaunchOptions options;
    options.hooks.push_back(&hook);
    options.checkpoints = table;
    options.resume_from = resume;
    auto result = device_.launch(workload_->program(), spec_.grid,
                                 spec_.block, spec_.params, options);
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().tier_used, EngineTier::kThreaded);
    EXPECT_TRUE(result.value().downgraded);
    return Run{result.value(), device_.snapshot(), hook.effect()};
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
    options.hooks.push_back(hook);
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
  std::vector<Issue> issues_;
};

FaultSite make_site(InjectionMode mode, u64 occurrence) {
  FaultSite site;
  site.model = {mode, BitFlipModel::kSingle};
  site.target_occurrence = occurrence;
  site.lane_sel = 7;
  site.bit_sel = 5;
  site.reg_sel = 3;
  return site;
}

u32 strike_groups(InjectionMode mode) {
  FaultSite probe;
  probe.model.mode = mode;
  return fi::InjectorHook(probe, machine()).strike_request()->groups;
}

/// Fills a four-mark table from one late strike, then strikes one eligible
/// occurrence before, at and after each checkpoint's own count.
void strike_around_checkpoints(const std::string& name, InjectionMode mode) {
  Bench bench([name] { return wl::make_workload(name); });
  const u32 groups = strike_groups(mode);
  const u64 eligible = bench.eligible(groups);
  ASSERT_GT(eligible, 2u);
  sim::CheckpointTable table(sim::CheckpointTable::even_marks(
      bench.issues().size(), 4));
  bench.inject(make_site(mode, eligible - 1), &table, nullptr);
  ASSERT_EQ(table.filled(), 4u) << name;

  for (std::size_t slot = 0; slot < table.marks().size(); ++slot) {
    const auto checkpoint = table.at(slot);
    const u64 count = checkpoint->issues(groups);
    for (const u64 occurrence : {count - 1, count, count + 1}) {
      if (occurrence >= eligible) continue;  // also count - 1 wrapped at 0
      const FaultSite site = make_site(mode, occurrence);
      const auto from = table.nearest(*fi::InjectorHook(site, machine())
                                           .strike_request());
      if (occurrence < count) {
        EXPECT_TRUE(from == nullptr || from->dyn_warp < checkpoint->dyn_warp);
      } else {
        ASSERT_NE(from, nullptr);
        EXPECT_GE(from->dyn_warp, checkpoint->dyn_warp);
        EXPECT_LE(from->issues(groups), occurrence);
      }
      const std::string what = name + " slot " + std::to_string(slot) + " " +
                               site.to_string();
      expect_identical(bench.inject(site, nullptr, from.get()),
                       bench.reference(site), what);
    }
  }
}

TEST(FastForwardLaunch, StrikesAroundCheckpointCountMatchInstrumented) {
  for (const char* name : {"gemm", "histogram", "spmv"}) {
    for (const InjectionMode mode : {InjectionMode::kIov, InjectionMode::kRf,
                                     InjectionMode::kPred}) {
      strike_around_checkpoints(name, mode);
    }
  }
}

TEST(FastForwardLaunch, ResumeRejectsMisuse) {
  Bench bench([] { return wl::make_workload("gemm"); });
  const u32 groups = strike_groups(InjectionMode::kIov);
  sim::CheckpointTable table(sim::CheckpointTable::even_marks(
      bench.issues().size(), 1));
  bench.inject(make_site(InjectionMode::kIov, bench.eligible(groups) - 1),
               &table, nullptr);
  ASSERT_EQ(table.filled(), 1u);
  const auto checkpoint = table.at(0);

  auto workload = wl::make_workload("gemm");
  sim::Device device(machine());
  auto spec = workload->setup(device).value();
  auto launch = [&](sim::LaunchOptions options) {
    options.resume_from = checkpoint.get();
    return device.launch(workload->program(), spec.grid, spec.block,
                         spec.params, options);
  };
  EXPECT_FALSE(launch({}).is_ok()) << "hook-free launch resumed";
  fi::InjectorHook early(make_site(InjectionMode::kIov, 0), machine());
  sim::LaunchOptions options;
  options.hooks.push_back(&early);
  EXPECT_FALSE(launch(options).is_ok()) << "resumed past the strike";
  fi::InjectorHook late(
      make_site(InjectionMode::kIov, checkpoint->issues(groups)), machine());
  options.hooks = {&late};
  sim::Profile profile;
  options.profile = &profile;
  EXPECT_FALSE(launch(options).is_ok()) << "profiled a skipped prefix";
  options.profile = nullptr;
  EXPECT_TRUE(launch(options).is_ok());
}

// ---- FFMA-chain pair split by a checkpoint ----------------------------------
//
// An armed run issues FFMA-chain heads unfused. A checkpoint taken between a
// head and its tail must leave the tail to run itself after the resume:
// struck (IOV) or with its source struck (RF), exactly as on the
// instrumented tier.

void expect_chain_straddle_matches(InjectionMode mode) {
  // Plain gemm has no FFMA pair; its SWIFT-hardened variant issues every
  // FFMA next to its shadow copy, an accumulator chain the lowering fuses.
  Bench bench([] { return harden::make_hardened("gemm"); });
  const sim::DecodedProgram& decoded = bench.program().decoded();
  const std::vector<Issue>& issues = bench.issues();
  std::size_t head = 0;
  while (head < issues.size() &&
         decoded.at(issues[head].pc).handler != sim::Handler::kFFmaChainHead) {
    ++head;
  }
  ASSERT_LT(head, issues.size()) << "no FFMA-chain head issued";
  std::size_t tail = head + 1;
  while (issues[tail].cta != issues[head].cta ||
         issues[tail].warp != issues[head].warp) {
    ++tail;
  }
  ASSERT_EQ(issues[tail].pc, issues[head].pc + 1);

  // A mark one past the head: captured at the first boundary after it.
  sim::CheckpointTable table({issues[head].dyn_index + 1});
  const u32 groups = strike_groups(mode);
  bench.inject(make_site(mode, bench.eligible(groups) - 1), &table, nullptr);
  ASSERT_EQ(table.filled(), 1u);
  const auto checkpoint = table.at(0);
  // The head has issued at the checkpoint and the tail has not.
  ASSERT_GT(checkpoint->dyn_warp, issues[head].dyn_index);
  ASSERT_LE(checkpoint->dyn_warp, issues[tail].dyn_index);

  FaultSite site = make_site(mode, bench.occurrence_at(
                                       groups, issues[tail].dyn_index));
  const sim::Instr& instr = bench.program().at(issues[tail].pc);
  site.reg_sel = instr.src[0].index;  // RF: a source of the tail's FFMA
  const auto from =
      table.nearest(*fi::InjectorHook(site, machine()).strike_request());
  ASSERT_EQ(from, checkpoint);
  const Run resumed = bench.inject(site, nullptr, from.get());
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
