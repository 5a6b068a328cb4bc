// Injector unit tests: each injection mode strikes the sampled site with
// the intended corruption, including the register-file ECC interaction.
#include <gtest/gtest.h>

#include "fi/injector.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

using fi::BitFlipModel;
using fi::FaultSite;
using fi::InjectionMode;
using fi::InjectorHook;
using sim::Device;
using gfi::Dim3;
using sim::KernelBuilder;
using sim::LaunchOptions;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;

/// Kernel: out[lane] = lane + 1000 (one IADD, one store).
sim::Program make_add_kernel() {
  KernelBuilder b("add1000");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.iadd_u32(4, Operand::reg(0), Operand::imm_u(1000));
  b.ldc_u64(6, 0);
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
  b.stg(8, 4);
  b.exit_();
  return must(b);
}

struct RunOutput {
  sim::LaunchResult launch;
  std::vector<u32> out;
  fi::InjectionEffect effect;
};

RunOutput run_with_injection(const FaultSite& site,
                             sim::MachineConfig machine) {
  Device device(machine);
  auto program = make_add_kernel();
  auto out = device.malloc_n<u32>(32);
  EXPECT_TRUE(out.is_ok());
  const u64 params[] = {out.value()};
  InjectorHook injector(site, device.config());
  LaunchOptions options;
  options.hook = &injector;
  options.watchdog_instrs = 100000;
  auto launch = device.launch(program, Dim3(1), Dim3(32), params, options);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();

  RunOutput result;
  result.launch = launch.value();
  result.effect = injector.effect();
  result.out.resize(32);
  if (result.launch.ok()) {
    EXPECT_EQ(device.to_host(std::span<u32>(result.out), out.value()),
              TrapKind::kNone);
  }
  return result;
}

TEST(Injector, IovSingleBitFlipsExactlyOneLaneBit) {
  FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kInt;
  site.target_occurrence = 1;  // 0: S2R, 1: the IADD (both kInt)
  site.lane_sel = 5;
  site.bit_sel = 3;

  auto result = run_with_injection(site, arch::toy());
  ASSERT_TRUE(result.launch.ok());
  EXPECT_TRUE(result.effect.activated);
  EXPECT_EQ(result.effect.struck_opcode, sim::Opcode::kIAdd);
  for (u32 lane = 0; lane < 32; ++lane) {
    const u32 want = lane + 1000;
    if (lane == 5) {
      EXPECT_EQ(result.out[lane], want ^ (1u << 3));
    } else {
      EXPECT_EQ(result.out[lane], want);
    }
  }
}

TEST(Injector, IovZeroValueZeroesDestination) {
  FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kZeroValue};
  site.group = sim::InstrGroup::kInt;
  site.target_occurrence = 1;
  site.lane_sel = 31;

  auto result = run_with_injection(site, arch::toy());
  ASSERT_TRUE(result.launch.ok());
  EXPECT_EQ(result.out[31], 0u);
  EXPECT_EQ(result.out[30], 1030u);
}

TEST(Injector, IovDoubleBitFlipsTwoDistinctBits) {
  FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kDouble};
  site.group = sim::InstrGroup::kInt;
  site.target_occurrence = 1;
  site.lane_sel = 0;
  site.bit_sel = 4;
  site.bit_sel2 = 4;  // collides; injector must pick a different second bit

  auto result = run_with_injection(site, arch::toy());
  ASSERT_TRUE(result.launch.ok());
  const u32 diff = result.out[0] ^ 1000u;
  EXPECT_EQ(std::popcount(diff), 2);
}

TEST(Injector, IovOnLoadGroupStrikesLoadedValue) {
  FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kIntMad;  // the IMAD.WIDE address compute
  site.target_occurrence = 0;
  site.lane_sel = 2;
  site.bit_sel = 2;  // low address bit -> likely misaligned or shifted store

  auto result = run_with_injection(site, arch::toy());
  // Either a trap (address corruption detected) or a displaced store; both
  // are acceptable outcomes, but the strike must have registered.
  EXPECT_TRUE(result.effect.activated);
  EXPECT_EQ(result.effect.struck_opcode, sim::Opcode::kIMad);
}

TEST(Injector, PredFlipChangesCompareOutcome) {
  // Kernel with a SETP + SEL: flipping the predicate flips the select.
  KernelBuilder b("predsel");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.isetp(sim::CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(100));  // true
  b.sel(4, Operand::imm_u(1), Operand::imm_u(2), 0);
  b.ldc_u64(6, 0);
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
  b.stg(8, 4);
  b.exit_();
  auto program = must(b);

  Device device(arch::toy());
  auto out = device.malloc_n<u32>(32);
  ASSERT_TRUE(out.is_ok());
  FaultSite site;
  site.model = {InjectionMode::kPred, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kSetp;
  site.target_occurrence = 0;
  site.lane_sel = 7;
  InjectorHook injector(site, device.config());
  LaunchOptions options;
  options.hook = &injector;
  const u64 params[] = {out.value()};
  auto launch = device.launch(program, Dim3(1), Dim3(32), params, options);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_TRUE(launch.value().ok());

  std::vector<u32> host(32);
  ASSERT_EQ(device.to_host(std::span<u32>(host), out.value()),
            TrapKind::kNone);
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(host[lane], lane == 7 ? 2u : 1u);
  }
}

TEST(Injector, IoaRedirectsOneLanesStore) {
  FaultSite site;
  site.model = {InjectionMode::kIoa, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kStore;
  site.target_occurrence = 0;
  site.lane_sel = 4;
  site.bit_sel = 3;  // flip bit 3: lane 4's store lands on lane 6's slot

  auto result = run_with_injection(site, arch::toy());
  ASSERT_TRUE(result.launch.ok()) << result.launch.trap.to_string();
  EXPECT_TRUE(result.effect.activated);
  // lane 4's slot keeps its initial value (0), lane 6's slot was
  // overwritten by lane 4's data then by its own store (lane order).
  EXPECT_EQ(result.out[4], 0u);
}

TEST(Injector, IoaHighBitCausesAddressTrap) {
  FaultSite site;
  site.model = {InjectionMode::kIoa, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kStore;
  site.target_occurrence = 0;
  site.lane_sel = 0;
  site.bit_sel = 30;  // far outside the arena

  auto result = run_with_injection(site, arch::toy());
  EXPECT_FALSE(result.launch.ok());
  EXPECT_EQ(result.launch.trap.kind, TrapKind::kIllegalGlobalAddress);
}

TEST(Injector, RfSingleBitCorrectedWhenEccOn) {
  FaultSite site;
  site.model = {InjectionMode::kRf, BitFlipModel::kSingle};
  site.target_occurrence = 2;
  site.reg_sel = 4;
  site.bit_sel = 9;

  sim::MachineConfig machine = arch::toy();
  machine.rf_ecc = ecc::EccMode::kSecded;
  auto result = run_with_injection(site, machine);
  ASSERT_TRUE(result.launch.ok());
  EXPECT_TRUE(result.effect.corrected_by_ecc);
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(result.out[lane], lane + 1000);  // no corruption reached state
  }
}

TEST(Injector, RfDoubleBitTrapsWhenEccOn) {
  FaultSite site;
  site.model = {InjectionMode::kRf, BitFlipModel::kDouble};
  site.target_occurrence = 2;

  sim::MachineConfig machine = arch::toy();
  machine.rf_ecc = ecc::EccMode::kSecded;
  auto result = run_with_injection(site, machine);
  EXPECT_FALSE(result.launch.ok());
  EXPECT_EQ(result.launch.trap.kind, TrapKind::kEccDoubleBit);
}

TEST(Injector, RfSingleBitCorruptsWhenEccOff) {
  FaultSite site;
  site.model = {InjectionMode::kRf, BitFlipModel::kSingle};
  site.target_occurrence = 2;  // strike before the IADD consumes R0/R4
  site.reg_sel = 4;            // the destination value register
  site.bit_sel = 7;
  site.lane_sel = 3;

  sim::MachineConfig machine = arch::toy();
  machine.rf_ecc = ecc::EccMode::kDisabled;
  auto result = run_with_injection(site, machine);
  ASSERT_TRUE(result.launch.ok());
  EXPECT_TRUE(result.effect.activated);
  EXPECT_FALSE(result.effect.corrected_by_ecc);
  // The flip landed in a live register of lane 3 before the store.
  EXPECT_EQ(result.out[3], (3u + 1000u) ^ (1u << 7));
}

TEST(Injector, SiteToStringMentionsModeAndGroup) {
  FaultSite site;
  site.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32Fma;
  const std::string text = site.to_string();
  EXPECT_NE(text.find("IOV"), std::string::npos);
  EXPECT_NE(text.find("FP32-FMA"), std::string::npos);
}

}  // namespace
}  // namespace gfi
