// Simulator-level tests: launch validation, scheduling across CTAs/SMs,
// determinism, timing model, instrumentation hook contract, occupancy.
#include <gtest/gtest.h>

#include "sassim/profiler.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

using sim::Device;
using gfi::Dim3;
using sim::KernelBuilder;
using sim::LaunchOptions;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;

/// counter[0] += 1 from every thread of every CTA (global atomic).
sim::Program make_count_kernel() {
  KernelBuilder b("count");
  b.ldc_u64(2, 0);
  b.atomg(sim::AtomKind::kAdd, sim::kRegZ, 2, Operand::imm_u(1));
  b.exit_();
  return must(b);
}

TEST(Simulator, RejectsBadLaunches) {
  Device device(arch::toy());
  auto program = make_count_kernel();
  EXPECT_FALSE(device.launch(program, Dim3(0), Dim3(32), {{0}}).is_ok());
  EXPECT_FALSE(device.launch(program, Dim3(1), Dim3(2048), {{0}}).is_ok());
  EXPECT_FALSE(device.launch(program, Dim3(1), Dim3(32), {}).is_ok());
}

TEST(Simulator, AllCtasOfLargeGridExecute) {
  Device device(arch::toy());
  auto counter = device.malloc_n<u32>(1);
  ASSERT_TRUE(counter.is_ok());
  const u32 zero = 0;
  ASSERT_TRUE(
      device.to_device<u32>(counter.value(), std::span<const u32>(&zero, 1))
          .is_ok());
  auto program = make_count_kernel();
  const u64 params[] = {counter.value()};
  // 64 CTAs x 64 threads on a 2-SM toy machine: waves of residency.
  auto launch = device.launch(program, Dim3(64), Dim3(64), params);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_TRUE(launch.value().ok());
  u32 total = 0;
  ASSERT_EQ(device.to_host(std::span<u32>(&total, 1), counter.value()),
            TrapKind::kNone);
  EXPECT_EQ(total, 64u * 64u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    Device device(arch::toy());
    auto counter = device.malloc_n<u32>(1);
    const u32 zero = 0;
    (void)device.to_device<u32>(counter.value(),
                                std::span<const u32>(&zero, 1));
    auto program = make_count_kernel();
    const u64 params[] = {counter.value()};
    auto launch = device.launch(program, Dim3(16), Dim3(64), params);
    EXPECT_TRUE(launch.value().ok());
    return std::make_pair(launch.value().cycles,
                          launch.value().dyn_warp_instrs);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Simulator, CyclesScaleWithWork) {
  Device device(arch::toy());
  auto counter = device.malloc_n<u32>(1);
  const u32 zero = 0;
  ASSERT_TRUE(
      device.to_device<u32>(counter.value(), std::span<const u32>(&zero, 1))
          .is_ok());
  auto program = make_count_kernel();
  const u64 params[] = {counter.value()};
  auto small = device.launch(program, Dim3(2), Dim3(32), params);
  auto large = device.launch(program, Dim3(32), Dim3(32), params);
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  EXPECT_GT(large.value().cycles, small.value().cycles);
  EXPECT_EQ(large.value().dyn_warp_instrs,
            16 * small.value().dyn_warp_instrs);
}

TEST(Simulator, MoreSmsFinishFaster) {
  auto cycles_with = [](u32 sms) {
    sim::MachineConfig config = arch::toy();
    config.num_sms = sms;
    Device device(config);
    auto counter = device.malloc_n<u32>(1);
    const u32 zero = 0;
    (void)device.to_device<u32>(counter.value(),
                                std::span<const u32>(&zero, 1));
    auto program = make_count_kernel();
    const u64 params[] = {counter.value()};
    auto launch = device.launch(program, Dim3(64), Dim3(64), params);
    EXPECT_TRUE(launch.value().ok());
    return launch.value().cycles;
  };
  EXPECT_LT(cycles_with(8), cycles_with(1));
}

TEST(Simulator, OccupancyLimitsRespected) {
  const sim::MachineConfig config = arch::toy();
  // Toy: 16 warp slots -> at most 2 CTAs of 256 threads (8 warps each).
  EXPECT_EQ(config.ctas_per_sm(256, 8, 0), 2u);
  // Shared memory limits: 32 KiB per SM, 16 KiB per CTA -> 2.
  EXPECT_EQ(config.ctas_per_sm(32, 8, 16384), 2u);
  // Register file: 16384 words; 256 threads x 32 regs = 8192 -> 2.
  EXPECT_EQ(config.ctas_per_sm(256, 32, 0), 2u);
  // A CTA that does not fit at all.
  EXPECT_EQ(config.ctas_per_sm(1024, 64, 0), 0u);
}

TEST(Simulator, CtaTooLargeIsRejected) {
  sim::MachineConfig config = arch::toy();
  config.shared_bytes_per_sm = 128;
  Device device(config);
  KernelBuilder b("fat");
  b.set_shared_bytes(4096);
  b.exit_();
  auto program = must(b);
  auto launch = device.launch(program, Dim3(1), Dim3(32), {});
  EXPECT_FALSE(launch.is_ok());
}

TEST(Simulator, TimeUsReflectsClock) {
  sim::LaunchResult result;
  result.cycles = 1980;
  sim::MachineConfig h100 = arch::h100();
  sim::MachineConfig a100 = arch::a100();
  EXPECT_LT(result.time_us(h100), result.time_us(a100));
  EXPECT_NEAR(result.time_us(h100), 1.0, 1e-9);  // 1980 cycles @ 1.98 GHz
}

// --------------------------------------------------------------- hooks --

class CountingHook final : public sim::InstrumentHook {
 public:
  int launches = 0;
  int ends = 0;
  u64 before = 0;
  u64 after = 0;
  u64 last_dyn_index = 0;

  void on_launch_begin(const sim::Program&) override { ++launches; }
  void on_launch_end() override { ++ends; }
  void on_before_instr(sim::InstrContext& ctx) override {
    ++before;
    last_dyn_index = ctx.dyn_index;
  }
  void on_after_instr(sim::InstrContext&) override { ++after; }
};

TEST(Simulator, HooksSeeEveryInstruction) {
  Device device(arch::toy());
  auto counter = device.malloc_n<u32>(1);
  const u32 zero = 0;
  ASSERT_TRUE(
      device.to_device<u32>(counter.value(), std::span<const u32>(&zero, 1))
          .is_ok());
  auto program = make_count_kernel();
  CountingHook hook;
  LaunchOptions options;
  options.hook = &hook;
  const u64 params[] = {counter.value()};
  auto launch = device.launch(program, Dim3(4), Dim3(64), params, options);
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(hook.launches, 1);
  EXPECT_EQ(hook.ends, 1);
  EXPECT_EQ(hook.before, launch.value().dyn_warp_instrs);
  EXPECT_EQ(hook.after, launch.value().dyn_warp_instrs);
  EXPECT_EQ(hook.last_dyn_index + 1, launch.value().dyn_warp_instrs);
}

class TrapRequestingHook final : public sim::InstrumentHook {
 public:
  void on_before_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index == 5) ctx.requested_trap = TrapKind::kEccDoubleBit;
  }
};

TEST(Simulator, HookRequestedTrapAbortsLaunch) {
  Device device(arch::toy());
  auto counter = device.malloc_n<u32>(1);
  const u32 zero = 0;
  ASSERT_TRUE(
      device.to_device<u32>(counter.value(), std::span<const u32>(&zero, 1))
          .is_ok());
  auto program = make_count_kernel();
  TrapRequestingHook hook;
  LaunchOptions options;
  options.hook = &hook;
  const u64 params[] = {counter.value()};
  auto launch = device.launch(program, Dim3(4), Dim3(64), params, options);
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(launch.value().trap.kind, TrapKind::kEccDoubleBit);
  EXPECT_EQ(launch.value().dyn_warp_instrs, 6u);
}

// ------------------------------------------------------------- profiler --

TEST(Profiler, CountsMatchLaunchTotals) {
  Device device(arch::toy());
  auto counter = device.malloc_n<u32>(1);
  const u32 zero = 0;
  ASSERT_TRUE(
      device.to_device<u32>(counter.value(), std::span<const u32>(&zero, 1))
          .is_ok());
  auto program = make_count_kernel();
  sim::ProfilerHook profiler;
  LaunchOptions options;
  options.hook = &profiler;
  const u64 params[] = {counter.value()};
  auto launch = device.launch(program, Dim3(2), Dim3(64), params, options);
  ASSERT_TRUE(launch.is_ok());

  const sim::Profile& profile = profiler.profile();
  EXPECT_EQ(profile.total_warp_instrs, launch.value().dyn_warp_instrs);
  EXPECT_EQ(profile.total_thread_instrs, launch.value().dyn_thread_instrs);
  // Kernel: LDC + ATOMG + EXIT per warp, 4 warps total.
  EXPECT_EQ(
      profile.warp_instrs_by_opcode[static_cast<int>(sim::Opcode::kAtomG)],
      4u);
  EXPECT_EQ(profile.group_warp_count(sim::InstrGroup::kAtomic), 4u);
  EXPECT_EQ(profile.group_thread_count(sim::InstrGroup::kAtomic), 4u * 32u);
}

TEST(Profiler, MergeAddsCounts) {
  sim::Profile a, b;
  a.total_warp_instrs = 5;
  a.warp_instrs_by_group[0] = 5;
  b.total_warp_instrs = 7;
  b.warp_instrs_by_group[0] = 7;
  a.merge(b);
  EXPECT_EQ(a.total_warp_instrs, 12u);
  EXPECT_EQ(a.warp_instrs_by_group[0], 12u);
}

}  // namespace
}  // namespace gfi
