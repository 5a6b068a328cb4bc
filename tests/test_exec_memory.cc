// Memory-system instruction tests: global/shared loads and stores at all
// widths, atomics, parameter loads, and the address traps on both engine
// tiers.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "sim_test_util.h"

namespace gfi {
namespace {

using sim::AtomKind;
using sim::CmpOp;
using sim::Device;
using gfi::Dim3;
using sim::DType;
using sim::KernelBuilder;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;
using sim_test::run_lane_kernel;

/// Launches `program` with the given params and returns the result.
sim::LaunchResult launch_or_die(Device& device, const sim::Program& program,
                                Dim3 grid, Dim3 block,
                                std::span<const u64> params) {
  auto launch = device.launch(program, grid, block, params);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
  return launch.value();
}

TEST(ExecMemory, GlobalLoadStoreRoundTrip) {
  Device device(arch::toy());
  auto in = device.malloc_n<u32>(32);
  auto out = device.malloc_n<u32>(32);
  ASSERT_TRUE(in.is_ok());
  ASSERT_TRUE(out.is_ok());
  std::vector<u32> data(32);
  for (u32 i = 0; i < 32; ++i) data[i] = i * 1000 + 7;
  ASSERT_TRUE(device.to_device<u32>(in.value(), data).is_ok());

  KernelBuilder b("copy");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(2, 0);
  b.ldc_u64(4, 1);
  b.imad_wide(6, Operand::reg(0), Operand::imm_u(4), Operand::reg(2));
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
  b.ldg(12, 6);
  b.stg(8, 12);
  b.exit_();
  auto program = must(b);

  const u64 params[] = {in.value(), out.value()};
  auto result = launch_or_die(device, program, Dim3(1), Dim3(32), params);
  ASSERT_TRUE(result.ok()) << result.trap.to_string();

  std::vector<u32> host(32);
  ASSERT_EQ(device.to_host(std::span<u32>(host), out.value()), TrapKind::kNone);
  EXPECT_EQ(host, data);
}

TEST(ExecMemory, NarrowWidthsZeroExtend) {
  Device device(arch::toy());
  auto in = device.malloc_n<u32>(32);
  auto out = device.malloc_n<u32>(32);
  ASSERT_TRUE(in.is_ok());
  ASSERT_TRUE(out.is_ok());
  std::vector<u32> data(32, 0xAABBCCDDu);
  ASSERT_TRUE(device.to_device<u32>(in.value(), data).is_ok());

  for (u8 width : {u8{1}, u8{2}}) {
    KernelBuilder b("narrow");
    b.s2r(0, sim::SpecialReg::kLaneId);
    b.ldc_u64(2, 0);
    b.ldc_u64(4, 1);
    b.imad_wide(6, Operand::reg(0), Operand::imm_u(4), Operand::reg(2));
    b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.ldg(12, 6, 0, width);
    b.stg(8, 12);
    b.exit_();
    auto program = must(b);
    const u64 params[] = {in.value(), out.value()};
    auto result = launch_or_die(device, program, Dim3(1), Dim3(32), params);
    ASSERT_TRUE(result.ok());
    std::vector<u32> host(32);
    ASSERT_EQ(device.to_host(std::span<u32>(host), out.value()),
              TrapKind::kNone);
    const u32 want = width == 1 ? 0xDDu : 0xCCDDu;
    for (u32 v : host) EXPECT_EQ(v, want);
  }
}

TEST(ExecMemory, SharedMemoryRoundTripAndRotation) {
  // Each lane writes lane*3 to shared[lane], reads shared[(lane+1)%32].
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.set_shared_bytes(32 * 4);
    b.imul_u32(4, Operand::reg(0), Operand::imm_u(3));
    b.shf(sim::ShiftKind::kLeft, 5, Operand::reg(0), Operand::imm_u(2));
    b.sts(5, 4);
    b.bar();
    b.iadd_u32(6, Operand::reg(0), Operand::imm_u(1));
    b.lop(sim::LopKind::kAnd, 6, Operand::reg(6), Operand::imm_u(31));
    b.shf(sim::ShiftKind::kLeft, 6, Operand::reg(6), Operand::imm_u(2));
    b.lds(10, 6);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], ((lane + 1) % 32) * 3);
  }
}

TEST(ExecMemory, GlobalAtomicsAllKinds) {
  // 32 lanes atomically add lane id into one word: sum = 496.
  Device device(arch::toy());
  auto cell = device.malloc_n<u32>(4);
  ASSERT_TRUE(cell.is_ok());
  const std::vector<u32> init = {0, 100, 5, 42};
  ASSERT_TRUE(device.to_device<u32>(cell.value(), init).is_ok());

  KernelBuilder b("atomics");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(2, 0);
  b.atomg(AtomKind::kAdd, sim::kRegZ, 2, Operand::reg(0));
  // min into cell[1]: lanes write min(100, lane) -> 0
  b.iadd_u64(4, Operand::reg(2), Operand::imm_u(4));
  b.atomg(AtomKind::kMin, sim::kRegZ, 4, Operand::reg(0));
  // max into cell[2]: -> 31
  b.iadd_u64(6, Operand::reg(2), Operand::imm_u(8));
  b.atomg(AtomKind::kMax, sim::kRegZ, 6, Operand::reg(0));
  // cas on cell[3]: only the lane seeing 42 swaps to 7.
  b.iadd_u64(8, Operand::reg(2), Operand::imm_u(12));
  b.atomg(AtomKind::kCas, 12, 8, Operand::imm_u(42), Operand::imm_u(7));
  b.exit_();
  auto program = must(b);
  const u64 params[] = {cell.value()};
  auto result = launch_or_die(device, program, Dim3(1), Dim3(32), params);
  ASSERT_TRUE(result.ok()) << result.trap.to_string();

  std::vector<u32> host(4);
  ASSERT_EQ(device.to_host(std::span<u32>(host), cell.value()),
            TrapKind::kNone);
  EXPECT_EQ(host[0], 496u);  // sum 0..31
  EXPECT_EQ(host[1], 0u);
  EXPECT_EQ(host[2], 31u);  // max(5, lanes 0..31)
  EXPECT_EQ(host[3], 7u);    // CAS succeeded exactly once
}

TEST(ExecMemory, SharedAtomicsAndExchange) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.set_shared_bytes(8);
    b.mov_u32(4, Operand::imm_u(0));
    b.isetp(CmpOp::kEq, 0, Operand::reg(0), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.mov_u32(5, Operand::imm_u(0));
      b.sts(4, 5);
    });
    b.bar();
    b.atoms(AtomKind::kAdd, 6, 4, Operand::imm_u(1));  // R6 = old ticket
    b.mov_u32(10, Operand::reg(6));
  });
  // Tickets are 0..31 in some order; each exactly once.
  std::vector<bool> seen(32, false);
  for (u32 lane = 0; lane < 32; ++lane) {
    ASSERT_LT(out[lane], 32u);
    EXPECT_FALSE(seen[out[lane]]);
    seen[out[lane]] = true;
  }
}

TEST(ExecMemory, FloatAtomicAdd) {
  Device device(arch::toy());
  auto cell = device.malloc_n<f32>(1);
  ASSERT_TRUE(cell.is_ok());
  const f32 zero = 0.0f;
  ASSERT_TRUE(
      device.to_device<f32>(cell.value(), std::span<const f32>(&zero, 1))
          .is_ok());

  KernelBuilder b("fatomic");
  b.ldc_u64(2, 0);
  b.mov_f32(4, 1.5f);
  b.atomg(AtomKind::kAdd, sim::kRegZ, 2, Operand::reg(4), Operand::none(),
          DType::kF32);
  b.exit_();
  auto program = must(b);
  const u64 params[] = {cell.value()};
  auto result = launch_or_die(device, program, Dim3(1), Dim3(32), params);
  ASSERT_TRUE(result.ok());

  f32 host = 0;
  ASSERT_EQ(device.to_host(std::span<f32>(&host, 1), cell.value()),
            TrapKind::kNone);
  EXPECT_EQ(host, 48.0f);  // 32 * 1.5, exact in f32
}

TEST(ExecMemory, ParamLoadBoundsChecked) {
  KernelBuilder b("bad_param");
  b.ldc_u32(2, 3);  // requires 4 params
  b.exit_();
  auto program = must(b);
  Device device(arch::toy());
  const u64 params[] = {1, 2};  // too few
  auto launch = device.launch(program, Dim3(1), Dim3(32), params);
  EXPECT_FALSE(launch.is_ok());  // rejected before execution
}

// ------------------------------------------------------------- traps --
//
// Every trap test runs on both engine tiers. The full-warp rows further down
// have one bad lane in mid-warp (lane 17): the threaded tier's row handler
// declines such a row, and its generic fallback must then reproduce the
// instrumented tier's lane-order trap and partial progress exactly.

constexpr sim::EngineTier kTiers[] = {sim::EngineTier::kThreaded,
                                      sim::EngineTier::kInstrumented};

sim::LaunchOptions on_tier(sim::EngineTier tier) {
  sim::LaunchOptions options;
  options.engine = tier;
  return options;
}

TEST(ExecMemoryTrap, OutOfBoundsGlobalLoad) {
  KernelBuilder b("oob");
  b.mov_u64(2, 0x10ULL);  // below the device arena base
  b.ldg(4, 2);
  b.exit_();
  auto program = must(b);
  for (const sim::EngineTier tier : kTiers) {
    SCOPED_TRACE(sim::engine_tier_name(tier));
    Device device(arch::toy());
    auto launch = device.launch(program, Dim3(1), Dim3(32), {}, on_tier(tier));
    ASSERT_TRUE(launch.is_ok());
    EXPECT_EQ(launch.value().trap.kind, TrapKind::kIllegalGlobalAddress);
  }
}

TEST(ExecMemoryTrap, MisalignedAccess) {
  KernelBuilder b("misaligned");
  b.ldc_u64(2, 0);
  b.iadd_u64(2, Operand::reg(2), Operand::imm_u(2));  // 2-byte offset
  b.ldg(4, 2);  // 4-byte load at 2-byte alignment
  b.exit_();
  auto program = must(b);
  for (const sim::EngineTier tier : kTiers) {
    SCOPED_TRACE(sim::engine_tier_name(tier));
    Device device(arch::toy());
    auto buf = device.malloc_n<u32>(64);
    ASSERT_TRUE(buf.is_ok());
    const u64 params[] = {buf.value()};
    auto launch =
        device.launch(program, Dim3(1), Dim3(32), params, on_tier(tier));
    ASSERT_TRUE(launch.is_ok());
    EXPECT_EQ(launch.value().trap.kind, TrapKind::kMisalignedAddress);
  }
}

TEST(ExecMemoryTrap, SharedOutOfBounds) {
  KernelBuilder b("shared_oob");
  b.set_shared_bytes(64);
  b.mov_u32(2, Operand::imm_u(128));
  b.mov_u32(3, Operand::imm_u(1));
  b.sts(2, 3);
  b.exit_();
  auto program = must(b);
  for (const sim::EngineTier tier : kTiers) {
    SCOPED_TRACE(sim::engine_tier_name(tier));
    Device device(arch::toy());
    auto launch = device.launch(program, Dim3(1), Dim3(32), {}, on_tier(tier));
    ASSERT_TRUE(launch.is_ok());
    EXPECT_EQ(launch.value().trap.kind, TrapKind::kIllegalSharedAddress);
    EXPECT_GT(launch.value().trap.pc, 0u);
  }
}

TEST(ExecMemoryTrap, TrapReportsFaultingAddress) {
  KernelBuilder b("addr_report");
  b.mov_u64(2, 0xDEAD0000ULL);
  b.stg(2, 4);
  b.exit_();
  auto program = must(b);
  for (const sim::EngineTier tier : kTiers) {
    SCOPED_TRACE(sim::engine_tier_name(tier));
    Device device(arch::toy());
    auto launch = device.launch(program, Dim3(1), Dim3(32), {}, on_tier(tier));
    ASSERT_TRUE(launch.is_ok());
    EXPECT_EQ(launch.value().trap.kind, TrapKind::kIllegalGlobalAddress);
    EXPECT_EQ(launch.value().trap.address, 0xDEAD0000ULL);
  }
}

constexpr u32 kBadLane = 17;
// Byte offsets that leave lane 17's address misaligned, past the end of the
// global allocations, or past the end of shared memory.
constexpr u32 kMisalign = 2;
constexpr u32 kPastGlobal = 1u << 24;
constexpr u32 kSharedBytes = 32 * 4;  // one word per lane
constexpr u32 kPastShared = kSharedBytes;

/// Which access of a row kernel carries lane 17's bad address.
enum BadAccess : u8 { kLoad, kStore };

/// Sets R8 to `offset` on lane 17 and to 0 on every other lane (R0 = lane).
void bad_lane_offset(KernelBuilder& b, u32 offset) {
  b.isetp(CmpOp::kEq, 0, Operand::reg(0), Operand::imm_u(kBadLane));
  b.sel(8, Operand::imm_u(offset), Operand::imm_u(0), 0);
}

/// out[lane] = in[lane] with params {in, out}: a full-warp LDG row, then a
/// full-warp STG row. Lane 17's address in `bad` moves by `offset` bytes.
sim::Program global_row_kernel(BadAccess bad, u32 offset) {
  KernelBuilder b("global_row");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(2, 0);
  b.ldc_u64(4, 1);
  bad_lane_offset(b, offset);
  b.imad_wide(6, Operand::reg(0), Operand::imm_u(4), Operand::reg(2));
  b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
  const u16 moved = bad == kLoad ? 6 : 10;
  b.imad_wide(moved, Operand::reg(8), Operand::imm_u(1), Operand::reg(moved));
  b.ldg(12, 6);
  b.stg(10, 12);
  b.exit_();
  return must(b);
}

/// shared[lane] = lane, then out[lane] = shared[lane] with params {in,
/// out} (`in` unused): full-warp STS and LDS rows. Lane 17's address in
/// `bad` moves by `offset` bytes.
sim::Program shared_row_kernel(BadAccess bad, u32 offset) {
  KernelBuilder b("shared_row");
  b.set_shared_bytes(kSharedBytes);
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(2, 1);
  bad_lane_offset(b, offset);
  b.shf(sim::ShiftKind::kLeft, 5, Operand::reg(0), Operand::imm_u(2));
  b.iadd_u32(6, Operand::reg(5), Operand::reg(8));
  b.sts(bad == kStore ? 6 : 5, 0);
  b.bar();
  b.lds(12, bad == kLoad ? 6 : 5);
  b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(2));
  b.stg(10, 12);
  b.exit_();
  return must(b);
}

/// Device addresses of a row kernel's buffers: `in` holds lane * 1000 + 7
/// per lane, `out` starts zeroed.
struct RowBuffers {
  u64 in = 0;
  u64 out = 0;
};

/// A row kernel's launch result and the device memory it left behind.
struct RowRun {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
  RowBuffers buffers;

  /// out[lane] as the launch left it.
  [[nodiscard]] u32 out(u32 lane) const {
    const u64 offset = buffers.out + lane * 4 - sim::GlobalMemory::kBaseAddress;
    u32 value = 0;
    std::memcpy(&value, memory.data.data() + offset, 4);
    return value;
  }
};

using ArmFn = std::function<void(Device&, const RowBuffers&)>;

/// Runs `program` once per tier, each on a fresh toy device with SECDED on
/// and fresh buffers; `arm` may then plant a pending memory fault. Expects
/// both tiers to agree on the trap (kind, address, pc, CTA, warp), the
/// counters and the whole post-launch memory, pending faults included.
/// Returns the instrumented tier's run.
RowRun run_both_tiers(const sim::Program& program, const ArmFn& arm = {}) {
  std::vector<RowRun> runs;
  for (const sim::EngineTier tier : kTiers) {
    Device device(arch::toy());
    device.memory().set_ecc_mode(ecc::EccMode::kSecded);
    std::vector<u32> data(sim::kWarpSize);
    for (u32 lane = 0; lane < sim::kWarpSize; ++lane) {
      data[lane] = lane * 1000 + 7;
    }
    const std::vector<u32> zeros(sim::kWarpSize, 0);
    RowBuffers buffers;
    buffers.in = device.malloc_n<u32>(sim::kWarpSize).value();
    buffers.out = device.malloc_n<u32>(sim::kWarpSize).value();
    EXPECT_TRUE(device.to_device<u32>(buffers.in, data).is_ok());
    EXPECT_TRUE(device.to_device<u32>(buffers.out, zeros).is_ok());
    if (arm) arm(device, buffers);
    const u64 params[] = {buffers.in, buffers.out};
    auto launch =
        device.launch(program, Dim3(1), Dim3(32), params, on_tier(tier));
    EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
    runs.push_back(RowRun{launch.value(), device.snapshot(), buffers});
  }
  const RowRun& threaded = runs[0];
  const RowRun& instrumented = runs[1];
  EXPECT_EQ(threaded.result.tier_used, sim::EngineTier::kThreaded);
  EXPECT_EQ(instrumented.result.tier_used, sim::EngineTier::kInstrumented);
  const sim::Trap& a = threaded.result.trap;
  const sim::Trap& b = instrumented.result.trap;
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.address, b.address);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.cta, b.cta);
  EXPECT_EQ(a.warp, b.warp);
  EXPECT_EQ(threaded.result.dyn_warp_instrs,
            instrumented.result.dyn_warp_instrs);
  EXPECT_EQ(threaded.result.dyn_thread_instrs,
            instrumented.result.dyn_thread_instrs);
  EXPECT_EQ(threaded.result.cycles, instrumented.result.cycles);
  EXPECT_EQ(threaded.result.ecc.corrected_sbe,
            instrumented.result.ecc.corrected_sbe);
  EXPECT_EQ(threaded.result.ecc.detected_dbe,
            instrumented.result.ecc.detected_dbe);
  EXPECT_EQ(threaded.memory.brk, instrumented.memory.brk);
  EXPECT_EQ(threaded.memory.data, instrumented.memory.data);
  EXPECT_EQ(threaded.memory.faults, instrumented.memory.faults);
  return instrumented;
}

/// Plants a double-bit upset (a SECDED trap on read) in word 17 of the
/// buffer `which` points at.
ArmFn dbe_at_lane17(u64 RowBuffers::*which) {
  return [which](Device& device, const RowBuffers& buffers) {
    device.memory().inject_fault(buffers.*which + kBadLane * 4, 0b11u);
  };
}

TEST(ExecMemoryTrap, LdgRowWithOneBadLaneTrapsAlikeOnBothTiers) {
  {
    SCOPED_TRACE("misaligned");
    const RowRun run = run_both_tiers(global_row_kernel(kLoad, kMisalign));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kMisalignedAddress);
    EXPECT_EQ(run.result.trap.address,
              run.buffers.in + kBadLane * 4 + kMisalign);
  }
  {
    SCOPED_TRACE("out of bounds");
    const RowRun run = run_both_tiers(global_row_kernel(kLoad, kPastGlobal));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalGlobalAddress);
    EXPECT_EQ(run.result.trap.address,
              run.buffers.in + kBadLane * 4 + kPastGlobal);
  }
  {
    SCOPED_TRACE("pending memory fault");
    const ArmFn arm = dbe_at_lane17(&RowBuffers::in);
    const RowRun run = run_both_tiers(global_row_kernel(kLoad, 0), arm);
    EXPECT_EQ(run.result.trap.kind, TrapKind::kEccDoubleBit);
    EXPECT_EQ(run.result.trap.address, run.buffers.in + kBadLane * 4);
    EXPECT_EQ(run.result.ecc.detected_dbe, 1u);
  }
}

TEST(ExecMemoryTrap, StgRowWithOneBadLaneTrapsAlikeOnBothTiers) {
  // The store's lanes run in order, so lanes 0..16 land before lane 17
  // traps and lanes 18..31 never do.
  auto expect_partial_progress = [](const RowRun& run) {
    for (u32 lane = 0; lane < sim::kWarpSize; ++lane) {
      EXPECT_EQ(run.out(lane), lane < kBadLane ? lane * 1000 + 7 : 0u)
          << "lane " << lane;
    }
  };
  {
    SCOPED_TRACE("misaligned");
    const RowRun run = run_both_tiers(global_row_kernel(kStore, kMisalign));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kMisalignedAddress);
    EXPECT_EQ(run.result.trap.address,
              run.buffers.out + kBadLane * 4 + kMisalign);
    expect_partial_progress(run);
  }
  {
    SCOPED_TRACE("out of bounds");
    const RowRun run = run_both_tiers(global_row_kernel(kStore, kPastGlobal));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalGlobalAddress);
    EXPECT_EQ(run.result.trap.address,
              run.buffers.out + kBadLane * 4 + kPastGlobal);
    expect_partial_progress(run);
  }
  {
    // A store overwrites the faulted word whole, which clears the upset.
    SCOPED_TRACE("pending memory fault");
    const ArmFn arm = dbe_at_lane17(&RowBuffers::out);
    const RowRun run = run_both_tiers(global_row_kernel(kStore, 0), arm);
    EXPECT_FALSE(run.result.trap.fired());
    EXPECT_TRUE(run.memory.faults.empty());
    for (u32 lane = 0; lane < sim::kWarpSize; ++lane) {
      EXPECT_EQ(run.out(lane), lane * 1000 + 7) << "lane " << lane;
    }
  }
}

TEST(ExecMemoryTrap, LdsRowWithOneBadLaneTrapsAlikeOnBothTiers) {
  {
    SCOPED_TRACE("misaligned");
    const RowRun run = run_both_tiers(shared_row_kernel(kLoad, kMisalign));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kMisalignedAddress);
    EXPECT_EQ(run.result.trap.address, kBadLane * 4 + kMisalign);
  }
  {
    SCOPED_TRACE("out of bounds");
    const RowRun run = run_both_tiers(shared_row_kernel(kLoad, kPastShared));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalSharedAddress);
    EXPECT_EQ(run.result.trap.address, kBadLane * 4 + kPastShared);
  }
}

TEST(ExecMemoryTrap, StsRowWithOneBadLaneTrapsAlikeOnBothTiers) {
  {
    SCOPED_TRACE("misaligned");
    const RowRun run = run_both_tiers(shared_row_kernel(kStore, kMisalign));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kMisalignedAddress);
    EXPECT_EQ(run.result.trap.address, kBadLane * 4 + kMisalign);
  }
  {
    SCOPED_TRACE("out of bounds");
    const RowRun run = run_both_tiers(shared_row_kernel(kStore, kPastShared));
    EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalSharedAddress);
    EXPECT_EQ(run.result.trap.address, kBadLane * 4 + kPastShared);
  }
}

}  // namespace
}  // namespace gfi
