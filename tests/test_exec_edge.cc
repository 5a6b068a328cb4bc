// Edge cases: wide memory ops interacting with the ECC fault map, deep
// divergence nesting, nested loops, negated predicates, SYNC underflow,
// exits inside divergent regions, and injection replay determinism.
#include <gtest/gtest.h>

#include "fi/injector.h"
#include "sassim/warp.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

using gfi::Dim3;
using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;
using sim_test::run_lane_kernel;
using sim_test::run_lane_kernel64;

TEST(ExecEdge, Wide64LoadStoreRoundTrip) {
  Device device(arch::toy());
  auto in = device.malloc_n<u64>(32);
  auto out = device.malloc_n<u64>(32);
  std::vector<u64> data(32);
  for (u32 i = 0; i < 32; ++i) data[i] = 0x1111111100000000ULL * i + i;
  ASSERT_TRUE(device.to_device<u64>(in.value(), data).is_ok());

  KernelBuilder b("copy64");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(2, 0);
  b.ldc_u64(4, 1);
  b.imad_wide(6, Operand::reg(0), Operand::imm_u(8), Operand::reg(2));
  b.imad_wide(8, Operand::reg(0), Operand::imm_u(8), Operand::reg(4));
  b.ldg(12, 6, 0, 8);
  b.stg(8, 12, 0, 8);
  b.exit_();
  auto program = must(b);
  const u64 params[] = {in.value(), out.value()};
  auto launch = device.launch(program, Dim3(1), Dim3(32), params);
  ASSERT_TRUE(launch.value().ok());
  std::vector<u64> host(32);
  ASSERT_EQ(device.to_host(std::span<u64>(host), out.value()), TrapKind::kNone);
  EXPECT_EQ(host, data);
}

TEST(ExecEdge, EightByteLoadSeesFaultsInBothWords) {
  sim::GlobalMemory memory(1u << 20, ecc::EccMode::kSecded);
  const u64 addr = memory.allocate(64).value();
  const u64 value = 0xAABBCCDD11223344ULL;
  ASSERT_EQ(memory.write(addr, &value, 8), TrapKind::kNone);
  memory.inject_fault(addr, 1u << 0);      // low word
  memory.inject_fault(addr + 4, 1u << 9);  // high word
  u64 got = 0;
  EXPECT_EQ(memory.read(addr, &got, 8), TrapKind::kNone);
  EXPECT_EQ(got, value);                            // both corrected
  EXPECT_EQ(memory.counters().corrected_sbe, 2u);   // counted per word
}

TEST(ExecEdge, EightByteLoadTrapsIfEitherWordHasDbe) {
  sim::GlobalMemory memory(1u << 20, ecc::EccMode::kSecded);
  const u64 addr = memory.allocate(64).value();
  memory.inject_fault(addr + 4, 0b11);
  u64 got = 0;
  EXPECT_EQ(memory.read(addr, &got, 8), TrapKind::kEccDoubleBit);
}

TEST(ExecEdge, NestedUniformLoops) {
  // result = sum over i<4, j<3 of 1 = 12 per lane.
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(10, Operand::imm_u(0));
    b.mov_u32(4, Operand::imm_u(0));
    b.uniform_loop(4, Operand::imm_u(4), 1, [&] {
      b.mov_u32(5, Operand::imm_u(0));
      b.uniform_loop(5, Operand::imm_u(3), 2, [&] {
        b.iadd_u32(10, Operand::reg(10), Operand::imm_u(1));
      });
    });
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 12u);
}

TEST(ExecEdge, FourLevelNestedDivergence) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(10, Operand::imm_u(0));
    // level 1: lane < 16
    b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
    b.if_then(0, false, [&] {
      b.iadd_u32(10, Operand::reg(10), Operand::imm_u(1));
      // level 2: lane < 8
      b.isetp(CmpOp::kLt, 1, Operand::reg(0), Operand::imm_u(8));
      b.if_then(1, false, [&] {
        b.iadd_u32(10, Operand::reg(10), Operand::imm_u(10));
        // level 3: lane < 4
        b.isetp(CmpOp::kLt, 2, Operand::reg(0), Operand::imm_u(4));
        b.if_then(2, false, [&] {
          b.iadd_u32(10, Operand::reg(10), Operand::imm_u(100));
          // level 4: lane < 2
          b.isetp(CmpOp::kLt, 3, Operand::reg(0), Operand::imm_u(2));
          b.if_then(3, false, [&] {
            b.iadd_u32(10, Operand::reg(10), Operand::imm_u(1000));
          });
        });
      });
    });
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    u32 want = 0;
    if (lane < 16) want += 1;
    if (lane < 8) want += 10;
    if (lane < 4) want += 100;
    if (lane < 2) want += 1000;
    EXPECT_EQ(out[lane], want) << lane;
  }
}

TEST(ExecEdge, ExitInsideDivergentRegion) {
  // Lanes < 8 exit inside the if; the rest reconverge and keep computing.
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(10, Operand::imm_u(1));
    // Pre-store sentinel for exiting lanes through the normal path: store
    // now, then conditionally exit, survivors overwrite via the harness.
    b.ldc_u64(30, 0);
    b.s2r(34, sim::SpecialReg::kLaneId);
    b.imad_wide(32, Operand::reg(34), Operand::imm_u(4), Operand::reg(30));
    b.stg(32, 10);
    b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
    b.if_then(0, false, [&] {
      b.isetp(CmpOp::kLt, 1, Operand::reg(0), Operand::imm_u(8));
      b.exit_if(1);
      b.mov_u32(10, Operand::imm_u(2));  // lanes 8..15
    });
    b.iadd_u32(10, Operand::reg(10), Operand::imm_u(100));  // survivors
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    const u32 want = lane < 8 ? 1u : lane < 16 ? 102u : 101u;
    EXPECT_EQ(out[lane], want) << lane;
  }
}

TEST(ExecEdge, NegatedGuardAndNegatedPredSource) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
    // SEL with negated predicate source.
    b.sel(4, Operand::imm_u(7), Operand::imm_u(9), 0, /*negated=*/true);
    // Guarded move with @!P0.
    b.mov_u32(10, Operand::reg(4));
    b.mov_u32(10, Operand::imm_u(42));
    b.guard_last(0, /*negated=*/true);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    // lanes < 16: P0 true -> sel(!P0) = 9; guard @!P0 false -> keeps 9.
    // lanes >= 16: sel = 7 then overwritten by 42.
    EXPECT_EQ(out[lane], lane < 16 ? 9u : 42u);
  }
}

TEST(ExecEdge, SyncWithoutSsyTraps) {
  KernelBuilder b("bad_sync");
  b.sync_();
  b.exit_();
  auto program = must(b);
  Device device(arch::toy());
  auto launch = device.launch(program, Dim3(1), Dim3(32), {});
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(launch.value().trap.kind, TrapKind::kIllegalInstruction);
}

TEST(ExecEdge, LdcU64LoadsFullPair) {
  Device device(arch::toy());
  auto out = device.malloc_n<u64>(32);
  KernelBuilder b("ldc_pair");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.ldc_u64(10, 1);  // the 64-bit sentinel parameter into R10:R11
  b.ldc_u64(4, 0);
  b.imad_wide(6, Operand::reg(0), Operand::imm_u(8), Operand::reg(4));
  b.stg(6, 10, 0, 8);
  b.exit_();
  auto program = must(b);
  const u64 params[] = {out.value(), 0xFEEDFACE12345678ULL};
  auto launch = device.launch(program, Dim3(1), Dim3(32), params);
  ASSERT_TRUE(launch.value().ok());
  std::vector<u64> host(32);
  ASSERT_EQ(device.to_host(std::span<u64>(host), out.value()), TrapKind::kNone);
  for (u64 v : host) EXPECT_EQ(v, 0xFEEDFACE12345678ULL);
}

TEST(ExecEdge, InjectionReplayIsDeterministic) {
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kInt;
  site.target_occurrence = 3;
  site.lane_sel = 9;
  site.bit_sel = 17;

  auto run = [&site] {
    Device device(arch::toy());
    auto out = device.malloc_n<u32>(32);
    KernelBuilder b("replay");
    b.s2r(0, sim::SpecialReg::kLaneId);
    for (int i = 0; i < 6; ++i) {
      b.iadd_u32(4, Operand::reg(0), Operand::imm_u(static_cast<u64>(i)));
    }
    b.ldc_u64(6, 0);
    b.imad_wide(8, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
    b.stg(8, 4);
    b.exit_();
    auto program = must(b);
    fi::InjectorHook injector(site, device.config());
    sim::LaunchOptions options;
    options.hook = &injector;
    const u64 params[] = {out.value()};
    auto launch = device.launch(program, Dim3(1), Dim3(32), params, options);
    EXPECT_TRUE(launch.value().ok());
    std::vector<u32> host(32);
    EXPECT_EQ(device.to_host(std::span<u32>(host), out.value()),
              TrapKind::kNone);
    return host;
  };
  EXPECT_EQ(run(), run());
}

TEST(ExecEdge, RegZWritesAreDiscarded) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.iadd_u32(sim::kRegZ, Operand::reg(0), Operand::imm_u(1));
    b.mov_u32(10, Operand::reg(sim::kRegZ));  // RZ always reads 0
    b.iadd_u32(10, Operand::reg(10), Operand::imm_u(5));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 5u);
}

TEST(ExecEdge, StackedDivergenceWithLoopInside) {
  // if (lane < 16) { for j<lane%4+1: ++acc }  — divergent loop nested in a
  // divergent if.
  auto out = run_lane_kernel([](KernelBuilder& b) {
    using sim::LopKind;
    b.mov_u32(10, Operand::imm_u(0));
    b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
    b.if_then(0, false, [&] {
      b.lop(LopKind::kAnd, 4, Operand::reg(0), Operand::imm_u(3));
      b.iadd_u32(4, Operand::reg(4), Operand::imm_u(1));  // bound
      b.mov_u32(5, Operand::imm_u(0));
      b.uniform_loop(5, Operand::reg(4), 1, [&] {
        b.iadd_u32(10, Operand::reg(10), Operand::imm_u(1));
      });
    });
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], lane < 16 ? (lane & 3) + 1 : 0u) << lane;
  }
}

// RZ as a 64-bit pair base must not touch the register file at all: the
// upper half would alias register kRegZ + 1, one past the file's end.
TEST(ExecEdge, RegisterZeroPairAccessesAreInert) {
  std::vector<u32> rows(4 * sim::kWarpSize);
  sim::WarpState warp(0, 4, 0xFFFFFFFFu, rows.data());
  warp.set_reg(0, 3, 0x1234u);
  warp.set_reg64(0, sim::kRegZ, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(warp.reg64(0, sim::kRegZ), 0u);
  warp.set_reg(0, sim::kRegZ, 7u);
  EXPECT_EQ(warp.reg(0, sim::kRegZ), 0u);
  // Neighbouring architected state is untouched.
  EXPECT_EQ(warp.reg(0, 3), 0x1234u);
}

}  // namespace
}  // namespace gfi
