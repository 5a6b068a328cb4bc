// A Device keeps its launches' resident CTAs in one LaunchArena, reused
// from launch to launch. Nothing a launch leaves there may reach the next
// one: a program that reads registers and shared memory before writing
// them sees zeros after one that wrote every register and shared word, a
// device that changes shape (saxpy, gemm, saxpy) matches fresh ones, and a
// resume into an arena a larger launch filled matches the instrumented
// reference. Each is compared with a fresh device and with the
// instrumented pin bit for bit. Devices, and so their arenas, also pass
// from worker to worker with the campaign's injection contexts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/injector.h"
#include "fi/journal.h"
#include "sa/dataflow.h"
#include "sassim/device.h"
#include "sassim/kernel_builder.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using sim::EngineTier;
using sim::Operand;

/// What a launch leaves behind: its result and device memory.
struct Ran {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
};

void expect_same(const Ran& a, const Ran& b, const std::string& what) {
  EXPECT_EQ(a.result.trap.kind, b.result.trap.kind) << what;
  EXPECT_EQ(a.result.dyn_warp_instrs, b.result.dyn_warp_instrs) << what;
  EXPECT_EQ(a.result.dyn_thread_instrs, b.result.dyn_thread_instrs) << what;
  EXPECT_EQ(a.result.cycles, b.result.cycles) << what;
  EXPECT_TRUE(a.memory.brk == b.memory.brk && a.memory.data == b.memory.data)
      << what << ": global memory differs";
}

constexpr u32 kThreads = 64;      // two warps a CTA
constexpr u32 kCtas = 64;         // four waves over the toy machine's 16 slots
constexpr u32 kSharedBytes = 1024;

/// Writes every one of its 32 registers and every word of its shared
/// memory with values no fresh CTA holds.
sim::Program scribbler() {
  sim::KernelBuilder b("scribble");
  b.set_shared_bytes(kSharedBytes);
  for (u16 r = 1; r < 32; ++r) {
    b.mov_u32(r, Operand::imm_u(0xA5A50000u + r));
  }
  b.s2r(0, sim::SpecialReg::kTidX);
  b.shf(sim::ShiftKind::kLeft, 1, Operand::reg(0), Operand::imm_u(4));
  for (u32 k = 0; k < kSharedBytes / kThreads / 4; ++k) {
    b.sts(1, 2, k * 4);
  }
  b.exit_();
  return b.build().value();
}

/// Reads registers R2..R22 and its thread's shared word before writing
/// them, and stores their sum: zero on a fresh device.
sim::Program reader() {
  sim::KernelBuilder b("read_before_write");
  b.set_shared_bytes(kSharedBytes);
  b.s2r(0, sim::SpecialReg::kTidX);
  b.shf(sim::ShiftKind::kLeft, 1, Operand::reg(0), Operand::imm_u(2));
  for (u16 r = 2; r <= 21; ++r) {
    b.iadd_u32(22, Operand::reg(22), Operand::reg(r));
  }
  b.lds(23, 1);
  b.iadd_u32(22, Operand::reg(22), Operand::reg(23));
  b.s2r(26, sim::SpecialReg::kCtaidX);
  b.imad_u32(26, Operand::reg(26), Operand::imm_u(kThreads), Operand::reg(0));
  b.ldc_u64(24, 0);
  b.imad_wide(28, Operand::reg(26), Operand::imm_u(4), Operand::reg(24));
  b.stg(28, 22);
  b.exit_();
  return b.build().value();
}

Ran launch(sim::Device& device, const sim::Program& program,
           std::span<const u64> params,
           EngineTier tier = EngineTier::kThreaded) {
  sim::LaunchOptions options;
  options.engine = tier;
  auto result = device.launch(program, Dim3(kCtas), Dim3(kThreads), params,
                              options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().ok()) << result.value().trap.to_string();
  return {result.value(), device.snapshot()};
}

TEST(LaunchArena, ReadsBeforeWritesSeeZerosAfterAScribbler) {
  const sim::Program scribble = scribbler();
  const sim::Program read = reader();
  ASSERT_EQ(scribble.num_regs(), 32u);
  ASSERT_LT(read.num_regs(), scribble.num_regs());

  auto fresh = [&](EngineTier tier) {
    sim::Device device(arch::toy());
    const u64 out = device.malloc_n<u32>(kCtas * kThreads).value();
    const u64 params[] = {out};
    return launch(device, read, params, tier);
  };
  const Ran threaded = fresh(EngineTier::kThreaded);
  const Ran pinned = fresh(EngineTier::kInstrumented);
  expect_same(threaded, pinned, "fresh devices");
  for (const u8 byte : threaded.memory.data) ASSERT_EQ(byte, 0u);

  sim::Device device(arch::toy());
  const u64 out = device.malloc_n<u32>(kCtas * kThreads).value();
  const u64 params[] = {out};
  for (int round = 0; round < 2; ++round) {
    (void)launch(device, scribble, params);
    device.restore(pinned.memory);
    expect_same(launch(device, read, params), threaded,
                "after the scribbler, round " + std::to_string(round));
  }

  // A new device takes the pages the scribbler's device gave back.
  {
    sim::Device scribbled(arch::toy());
    const u64 scribbled_out = scribbled.malloc_n<u32>(kCtas * kThreads).value();
    const u64 scribbled_params[] = {scribbled_out};
    (void)launch(scribbled, scribble, scribbled_params);
  }
  sim::Device next(arch::toy());
  const u64 next_out = next.malloc_n<u32>(kCtas * kThreads).value();
  const u64 next_params[] = {next_out};
  expect_same(launch(next, read, next_params), threaded,
              "on a device after the scribbler's");
}

/// A workload set up on `device` as on a fresh one, then launched.
Ran run_workload(sim::Device& device, const std::string& name,
                 EngineTier tier = EngineTier::kThreaded) {
  device.memory().reset();
  auto workload = wl::make_workload(name);
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  sim::LaunchOptions options;
  options.engine = tier;
  auto result = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params,
                              options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return {result.value(), device.snapshot()};
}

TEST(LaunchArena, ShapeChangesMatchFreshDevices) {
  sim::Device reused(arch::a100());
  for (const char* name : {"saxpy", "gemm", "saxpy"}) {
    sim::Device fresh(arch::a100());
    sim::Device pinned(arch::a100());
    const Ran reference = run_workload(fresh, name);
    expect_same(run_workload(pinned, name, EngineTier::kInstrumented),
                reference, std::string(name) + " pinned");
    expect_same(run_workload(reused, name), reference,
                std::string(name) + " on the reused device");
  }
}

/// IOV strike `after` eligible issues past the checkpoint.
fi::FaultSite site_past(const sim::LaunchCheckpoint& checkpoint,
                        const sim::MachineConfig& machine, u64 after) {
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.lane_sel = 3;
  site.bit_sel = 9;
  const u32 groups =
      fi::InjectorHook(site, machine).strike_request()->groups;
  site.target_occurrence = checkpoint.issues(groups) + after;
  return site;
}

TEST(LaunchArena, ResumeAfterALargerLaunchMatchesInstrumented) {
  const sim::MachineConfig machine = arch::a100();
  auto saxpy = wl::make_workload("saxpy");
  const sim::LiveRows live = sa::live_in_rows(saxpy->program());

  // A pruned checkpoint a third of the way in, from its own device.
  sim::Device capturer(machine);
  const wl::LaunchSpec spec = saxpy->setup(capturer).value();
  const sim::GlobalMemory::Snapshot start = capturer.snapshot();
  sim::LaunchCheckpoint checkpoint;
  {
    fi::FaultSite last;
    last.model = {fi::InjectionMode::kRf, fi::BitFlipModel::kSingle};
    last.target_occurrence = ~u64{0} >> 1;  // never reached
    fi::InjectorHook hook(last, machine);
    sim::LaunchOptions options;
    options.hook = &hook;
    options.capture = &checkpoint;
    options.capture_at = 2000;
    options.live_rows = &live;
    options.memory_base = &start;
    auto result = capturer.launch(saxpy->program(), spec.grid, spec.block,
                                  spec.params, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    ASSERT_TRUE(result.value().captured);
  }

  for (const u64 after : {u64{0}, u64{7}, u64{500}}) {
    const fi::FaultSite site = site_past(checkpoint, machine, after);
    const std::string what = "strike " + std::to_string(after) + " past";

    // The instrumented reference: a fresh device from instruction 0.
    sim::Device fresh(machine);
    const wl::LaunchSpec fresh_spec = saxpy->setup(fresh).value();
    fi::InjectorHook reference_hook(site, machine);
    sim::LaunchOptions pinned;
    pinned.engine = EngineTier::kInstrumented;
    pinned.hook = &reference_hook;
    auto reference = fresh.launch(saxpy->program(), fresh_spec.grid,
                                  fresh_spec.block, fresh_spec.params, pinned);
    ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();

    // Gemm, with more warps and rows a CTA, fills the arena first.
    sim::Device device(machine);
    (void)run_workload(device, "gemm");
    device.memory().reset();
    const wl::LaunchSpec reused_spec = saxpy->setup(device).value();
    ASSERT_EQ(reused_spec.params, spec.params);
    fi::InjectorHook hook(site, machine);
    sim::LaunchOptions options;
    options.hook = &hook;
    options.resume_from = &checkpoint;
    options.memory_base = &start;
    auto resumed = device.launch(saxpy->program(), reused_spec.grid,
                                 reused_spec.block, reused_spec.params,
                                 options);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    EXPECT_TRUE(hook.effect().activated) << what;
    EXPECT_EQ(hook.effect().struck_dyn_index,
              reference_hook.effect().struck_dyn_index)
        << what;
    expect_same({resumed.value(), device.snapshot()},
                {reference.value(), fresh.snapshot()}, what);
  }
}

/// Issue order is what an SM's order list keeps: admission appends and
/// retirement erases, keeping the others' order. The toy machine's two
/// SMs run every workload in several waves of admissions and retirements,
/// and any other order moves these golden warp-instruction and cycle
/// counts, which the per-CTA pools the arena replaced produced.
TEST(LaunchArena, IssueOrderKeepsGoldenCycles) {
  struct Pinned {
    const char* workload;
    u64 warp_instrs;
    u64 cycles;
  };
  const Pinned pinned[] = {
      {"bitonic_sort", 17337, 11205},
      {"conv2d", 9612, 2860},
      {"dotprod", 2112, 716},
      {"gemm", 36360, 12704},
      {"gemm_hmma", 2296, 1795},
      {"histogram", 3064, 1011},
      {"layernorm", 62080, 16565},
      {"mc_pi", 8000, 2277},
      {"nbody", 39120, 37299},
      {"pathfinder", 6336, 4714},
      {"reduce_u32", 7872, 2321},
      {"saxpy", 8704, 2416},
      {"scan", 15184, 4059},
      {"softmax", 61056, 16497},
      {"spmv", 6535, 2271},
      {"stencil", 5280, 2064},
      {"vecadd", 9216, 2606},
  };
  for (const Pinned& pin : pinned) {
    fi::CampaignConfig config;
    config.workload = pin.workload;
    config.machine = arch::toy();
    auto golden = fi::Campaign::golden_run(config);
    ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
    EXPECT_EQ(golden.value().dyn_instrs, pin.warp_instrs) << pin.workload;
    EXPECT_EQ(golden.value().cycles, pin.cycles) << pin.workload;
  }
}

TEST(LaunchArena, ContextsPassBetweenWorkers) {
  fi::CampaignConfig config;
  config.workload = "saxpy";
  config.machine = arch::a100();
  config.num_injections = 48;
  config.seed = 5;
  config.engine = EngineTier::kInstrumented;
  auto pinned = fi::Campaign::run(config);
  ASSERT_TRUE(pinned.is_ok()) << pinned.status().to_string();
  config.engine = EngineTier::kThreaded;
  config.threads = 4;
  auto shared = fi::Campaign::run(config);
  ASSERT_TRUE(shared.is_ok()) << shared.status().to_string();
  ASSERT_EQ(shared.value().records.size(), pinned.value().records.size());
  for (std::size_t i = 0; i < pinned.value().records.size(); ++i) {
    EXPECT_EQ(fi::Journal::record_line(i, shared.value().records[i]),
              fi::Journal::record_line(i, pinned.value().records[i]));
  }
}

}  // namespace
}  // namespace gfi
