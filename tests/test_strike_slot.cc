// Strike-slot equivalence: a launch whose only hook is a one-shot injector
// runs armed (threaded up to the struck instruction, that one slot on the
// instrumented tier, threaded after it) and must reproduce, bit for bit,
// the same injection run entirely on the instrumented tier. Swept over
// every built-in workload (and its SWIFT-hardened variant) x the four
// hooked injection modes x the four flip models, striking the first and
// last eligible occurrence and one occurrence of every fused head and tail
// pc, where the threaded tier's superinstruction stash could leak across
// the strike.
#include <gtest/gtest.h>

#include <functional>
#include <map>
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
using sim::Handler;

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

bool is_fusion(Handler handler) {
  switch (handler) {
    case Handler::kCmpBraHead:
    case Handler::kBraFusedTail:
    case Handler::kAddrLdgHead:
    case Handler::kLdgFusedTail:
    case Handler::kAddrStgHead:
    case Handler::kStgFusedTail:
    case Handler::kFFmaChainHead:
    case Handler::kFFmaChainTail:
      return true;
    default:
      return false;
  }
}

/// Counts the issues a strike mask names in one fault-free launch and
/// remembers each static pc's first occurrence among them, and the pc of
/// the last.
class Census final : public sim::InstrumentHook {
 public:
  explicit Census(u32 groups) : groups_(groups) {}

  void on_before_instr(sim::InstrContext& ctx) override {
    if (((groups_ >> static_cast<int>(ctx.group)) & 1u) == 0) return;
    first_.try_emplace(ctx.warp_state->pc, seen_);
    last_pc_ = ctx.warp_state->pc;
    ++seen_;
  }

  [[nodiscard]] u64 seen() const { return seen_; }
  [[nodiscard]] const std::map<u32, u64>& first() const { return first_; }
  [[nodiscard]] u32 last_pc() const { return last_pc_; }

 private:
  u32 groups_;
  u64 seen_ = 0;
  std::map<u32, u64> first_;  ///< pc -> first eligible occurrence
  u32 last_pc_ = 0;
};

/// Everything one injection launch can produce.
struct Run {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
  fi::InjectionEffect effect;
};

/// Launches `make()`'s workload on a fresh device with `hook` attached.
Run launch(const WorkloadMaker& make, sim::InstrumentHook* hook,
           EngineTier tier, u64 watchdog) {
  auto workload = make();
  EXPECT_NE(workload, nullptr);
  sim::Device device(machine());
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  sim::LaunchOptions options;
  options.engine = tier;
  options.watchdog_instrs = watchdog;
  if (hook) options.hooks.push_back(hook);
  auto result = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return Run{result.value(), device.snapshot(), {}};
}

Run inject(const WorkloadMaker& make, const FaultSite& site, EngineTier tier,
           u64 watchdog) {
  fi::InjectorHook hook(site, machine());
  Run run = launch(make, &hook, tier, watchdog);
  run.effect = hook.effect();
  return run;
}

/// Field-by-field identity of two injection launches.
void expect_identical(const Run& armed, const Run& reference,
                      const std::string& what) {
  const sim::LaunchResult& a = armed.result;
  const sim::LaunchResult& b = reference.result;
  EXPECT_EQ(a.trap.kind, b.trap.kind) << what;
  EXPECT_EQ(a.trap.pc, b.trap.pc) << what;
  EXPECT_EQ(a.trap.cta, b.trap.cta) << what;
  EXPECT_EQ(a.trap.warp, b.trap.warp) << what;
  EXPECT_EQ(a.trap.address, b.trap.address) << what;
  EXPECT_EQ(a.dyn_warp_instrs, b.dyn_warp_instrs) << what;
  EXPECT_EQ(a.dyn_thread_instrs, b.dyn_thread_instrs) << what;
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.ecc.corrected_sbe, b.ecc.corrected_sbe) << what;
  EXPECT_EQ(a.ecc.detected_dbe, b.ecc.detected_dbe) << what;
  EXPECT_EQ(a.ecc.silent_corrupted, b.ecc.silent_corrupted) << what;
  EXPECT_TRUE(armed.memory.brk == reference.memory.brk &&
              armed.memory.data == reference.memory.data)
      << what << ": global memory differs";
  const fi::InjectionEffect& x = armed.effect;
  const fi::InjectionEffect& y = reference.effect;
  EXPECT_EQ(x.activated, y.activated) << what;
  EXPECT_EQ(x.corrected_by_ecc, y.corrected_by_ecc) << what;
  EXPECT_EQ(x.struck_dyn_index, y.struck_dyn_index) << what;
  EXPECT_EQ(x.struck_opcode, y.struck_opcode) << what;
  EXPECT_EQ(x.struck_group, y.struck_group) << what;
  EXPECT_EQ(x.struck_lane, y.struck_lane) << what;
}

/// The census of `mode`'s eligible issues in a fault-free launch.
Census take_census(const WorkloadMaker& make, InjectionMode mode) {
  FaultSite probe;
  probe.model.mode = mode;
  Census census(fi::InjectorHook(probe, machine()).strike_request()->groups);
  launch(make, &census, EngineTier::kInstrumented, 0);
  return census;
}

/// A site at `occurrence` of `mode`'s eligible stream. RF strikes the
/// first register source of the struck instruction (else its destination),
/// the register a stashed head result or proof depends on.
FaultSite make_site(InjectionMode mode, BitFlipModel flip, u64 occurrence,
                    const sim::Instr& struck) {
  FaultSite site;
  site.model = {mode, flip};
  site.target_occurrence = occurrence;
  site.lane_sel = 7;
  site.bit_sel = 5;
  site.bit_sel2 = 17;
  site.random_value = 0x9e3779b97f4a7c15ULL;
  site.reg_sel = struck.dst.index;
  for (const sim::Operand& src : struck.src) {
    if (src.kind == sim::OperandKind::kReg && src.index != sim::kRegZ) {
      site.reg_sel = src.index;
      break;
    }
  }
  return site;
}

/// Runs the flip x site sweep of one mode on one workload.
void sweep(const std::string& name, const WorkloadMaker& make,
           InjectionMode mode) {
  const Run golden = launch(make, nullptr, EngineTier::kThreaded, 0);
  ASSERT_TRUE(golden.result.ok()) << name;
  const u64 watchdog = golden.result.dyn_warp_instrs * 3 + 10000;
  const auto workload = make();
  const sim::Program& program = workload->program();
  const sim::DecodedProgram& decoded = program.decoded();

  const Census census = take_census(make, mode);
  if (census.seen() == 0) return;  // nothing this mode can strike

  // occurrence -> struck pc: the first, the last, and the first of every
  // fused pc.
  std::map<u64, u32> sites = {{census.seen() - 1, census.last_pc()}};
  for (const auto& [pc, first] : census.first()) {
    if (first == 0 || is_fusion(decoded.at(pc).handler)) sites[first] = pc;
  }

  for (const BitFlipModel flip : kFlips) {
    for (const auto& [occurrence, pc] : sites) {
      const FaultSite site = make_site(mode, flip, occurrence, program.at(pc));
      const Run expected =
          inject(make, site, EngineTier::kInstrumented, watchdog);
      const Run armed = inject(make, site, EngineTier::kThreaded, watchdog);
      const std::string what = name + " " + site.to_string();
      expect_identical(armed, expected, what);
      EXPECT_EQ(armed.result.tier_used, EngineTier::kThreaded) << what;
      EXPECT_TRUE(armed.result.downgraded) << what;
      EXPECT_EQ(expected.result.tier_used, EngineTier::kInstrumented) << what;
      EXPECT_FALSE(expected.result.downgraded) << what;
    }
  }
}

/// (workload, mode): one test per pair keeps each under the per-test
/// timeout in sanitizer builds.
class StrikeSlot
    : public ::testing::TestWithParam<std::tuple<std::string, InjectionMode>> {
};

TEST_P(StrikeSlot, ArmedLaunchMatchesInstrumentedTier) {
  const auto& [name, mode] = GetParam();
  sweep(name, [name] { return wl::make_workload(name); }, mode);
  if (harden::make_hardened(name) != nullptr) {
    sweep(name + "_swift", [name] { return harden::make_hardened(name); },
          mode);
  }
}

/// Campaign-level identity: run_single's journal lines are the same under
/// the default (armed) engine and the instrumented pin, and every armed
/// launch reports the threaded tier with one downgrade.
TEST_P(StrikeSlot, RunSingleRecordsMatchInstrumentedPin) {
  fi::CampaignConfig config;
  config.workload = std::get<0>(GetParam());
  config.machine = machine();
  config.model.mode = std::get<1>(GetParam());
  config.seed = 2025;
  auto golden = fi::Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
  const sim::Profile& profile = golden.value().profile;
  bool targetable = false;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    targetable |= fi::mode_targets_group(config.model.mode, group) &&
                  profile.group_warp_count(group) > 0;
  }
  if (!targetable) return;
  for (const BitFlipModel flip : kFlips) {
    config.model.flip = flip;
    obs::Registry metrics;
    constexpr std::size_t kRuns = 3;
    for (std::size_t i = 0; i < kRuns; ++i) {
      config.engine = EngineTier::kThreaded;
      auto armed = fi::Campaign::run_single(config, profile,
                                            golden.value().dyn_instrs, i,
                                            nullptr, nullptr, &metrics);
      config.engine = EngineTier::kInstrumented;
      auto pinned = fi::Campaign::run_single(config, profile,
                                             golden.value().dyn_instrs, i);
      ASSERT_TRUE(armed.is_ok()) << armed.status().to_string();
      ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
      EXPECT_EQ(fi::Journal::record_line(i, armed.value()),
                fi::Journal::record_line(i, pinned.value()))
          << config.workload << " " << armed.value().site.to_string();
    }
    EXPECT_EQ(metrics.counter("engine.dispatch.threaded").value(), kRuns);
    EXPECT_EQ(metrics.counter("engine.dispatch.downgrades").value(), kRuns);
    EXPECT_EQ(metrics.counter("engine.dispatch.instrumented").value(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, StrikeSlot,
    ::testing::Combine(::testing::ValuesIn(wl::workload_names()),
                       ::testing::ValuesIn(kModes)),
    [](const ::testing::TestParamInfo<StrikeSlot::ParamType>& info) {
      return std::get<0>(info.param) + "_" +
             fi::to_string(std::get<1>(info.param));
    });

// ---- FFMA-chain hazard ------------------------------------------------------
//
// A chain head computes its tail's result in its own slot. If it fused when
// its tail is the struck slot, the instrumented tail would run a second
// time on top of its own result (IOV), or the RF strike on its source would
// come after the tail's value had been computed.

/// First eligible occurrence (under `mode`) of the workload's first
/// FFMA-chain tail pc, and that pc.
struct ChainTail {
  u64 occurrence = 0;
  u32 pc = 0;
};

ChainTail first_chain_tail(const WorkloadMaker& make, InjectionMode mode) {
  const auto workload = make();
  const sim::DecodedProgram& decoded = workload->program().decoded();
  const Census census = take_census(make, mode);
  for (const auto& [pc, first] : census.first()) {
    if (decoded.at(pc).handler == Handler::kFFmaChainTail) {
      return ChainTail{first, pc};
    }
  }
  ADD_FAILURE() << "no FFMA-chain tail executed";
  return {};
}

void expect_chain_tail_strike_matches(const WorkloadMaker& make,
                                      InjectionMode mode) {
  const ChainTail tail = first_chain_tail(make, mode);
  const auto workload = make();
  const sim::Instr& instr = workload->program().at(tail.pc);
  const FaultSite site =
      make_site(mode, BitFlipModel::kSingle, tail.occurrence, instr);
  const Run armed = inject(make, site, EngineTier::kThreaded, 0);
  const Run expected = inject(make, site, EngineTier::kInstrumented, 0);
  EXPECT_TRUE(armed.effect.activated);
  EXPECT_EQ(armed.effect.struck_opcode, sim::Opcode::kFFma);
  expect_identical(armed, expected, site.to_string());
  EXPECT_EQ(armed.result.tier_used, EngineTier::kThreaded);
  EXPECT_TRUE(armed.result.downgraded);
}

// Plain gemm has no FFMA pair; its SWIFT-hardened variant issues every FFMA
// next to its shadow copy, an accumulator chain the lowering fuses.
TEST(StrikeSlotFfmaChain, IovOnChainTailMatchesInstrumented) {
  expect_chain_tail_strike_matches([] { return harden::make_hardened("gemm"); },
                                   InjectionMode::kIov);
}

TEST(StrikeSlotFfmaChain, RfOnChainTailSourceMatchesInstrumented) {
  expect_chain_tail_strike_matches([] { return harden::make_hardened("gemm"); },
                                   InjectionMode::kRf);
}

}  // namespace
}  // namespace gfi
