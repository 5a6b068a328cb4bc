// Instruction-semantics tests: integer ALU, floating point, conversions,
// selects, special registers — each op verified per-lane against C++
// semantics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bitutil.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

using sim::CmpOp;
using sim::DType;
using sim::KernelBuilder;
using sim::LopKind;
using sim::MinMax;
using sim::MufuKind;
using sim::Operand;
using sim::ShiftKind;
using sim_test::run_lane_kernel;
using sim_test::run_lane_kernel64;

TEST(ExecAlu, IAddRegImm) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.iadd_u32(10, Operand::reg(0), Operand::imm_u(100));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], lane + 100);
}

TEST(ExecAlu, IAddWraps) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(10, Operand::imm_u(0xFFFFFFFFu));
    b.iadd_u32(10, Operand::reg(10), Operand::reg(0));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], static_cast<u32>(0xFFFFFFFFu + lane));
  }
}

TEST(ExecAlu, IMulLow32) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.imul_u32(10, Operand::reg(0), Operand::imm_u(0x10001));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], lane * 0x10001u);
}

TEST(ExecAlu, IMadFused) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.imad_u32(10, Operand::reg(0), Operand::imm_u(7), Operand::imm_u(3));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], lane * 7 + 3);
}

TEST(ExecAlu, IMadWideProduces64BitProduct) {
  auto out = run_lane_kernel64([](KernelBuilder& b) {
    b.mov_u32(4, Operand::imm_u(0x10000000u));  // 2^28
    b.mov_u64(6, 0x100000000ULL);               // 2^32 accumulator
    b.imad_wide(10, Operand::reg(0), Operand::reg(4), Operand::reg(6));
  });
  for (u64 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], lane * 0x10000000ULL + 0x100000000ULL);
  }
}

TEST(ExecAlu, IAdd64UsesPairs) {
  auto out = run_lane_kernel64([](KernelBuilder& b) {
    b.mov_u64(4, 0xFFFFFFFFFFFFFFF0ULL);
    b.mov_u64(6, 0x20ULL);
    b.iadd_u64(10, Operand::reg(4), Operand::reg(6));
  });
  for (u64 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 0x10ULL);
}

TEST(ExecAlu, MinMaxSignedVsUnsigned) {
  // signed: min(-1, 1) = -1; unsigned: min(0xFFFFFFFF, 1) = 1.
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(4, Operand::imm_u(0xFFFFFFFFu));
    b.imnmx_s32(5, Operand::reg(4), Operand::imm_u(1), MinMax::kMin);
    b.imnmx_u32(6, Operand::reg(4), Operand::imm_u(1), MinMax::kMin);
    // pack: signed-min == -1 ? 0xS : 0, plus unsigned-min
    b.iadd_u32(10, Operand::reg(5), Operand::reg(6));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], 0xFFFFFFFFu + 1u);  // (-1) + 1
  }
}

TEST(ExecAlu, MaxVariants) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.imnmx_s32(10, Operand::reg(0), Operand::imm_u(16), MinMax::kMax);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], std::max(lane, 16u));
  }
}

TEST(ExecAlu, LogicOps) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.lop(LopKind::kAnd, 4, Operand::reg(0), Operand::imm_u(0x6));
    b.lop(LopKind::kOr, 5, Operand::reg(0), Operand::imm_u(0x100));
    b.lop(LopKind::kXor, 6, Operand::reg(4), Operand::reg(5));
    b.lop(LopKind::kNot, 7, Operand::reg(6), Operand::none());
    b.lop(LopKind::kNot, 10, Operand::reg(7), Operand::none());
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], (lane & 0x6u) ^ (lane | 0x100u));
  }
}

TEST(ExecAlu, Shifts) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.shf(ShiftKind::kLeft, 10, Operand::reg(0), Operand::imm_u(4));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], lane << 4);
}

TEST(ExecAlu, ArithmeticShiftPreservesSign) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(4, Operand::imm_u(0x80000000u));
    b.lop(LopKind::kOr, 4, Operand::reg(4), Operand::reg(0));
    b.shf(ShiftKind::kRightArith, 10, Operand::reg(4), Operand::imm_u(4),
          DType::kS32);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane],
              static_cast<u32>(static_cast<i32>(0x80000000u | lane) >> 4));
  }
}

TEST(ExecAlu, LogicalShiftZeroFills) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(4, Operand::imm_u(0xF0000000u));
    b.shf(ShiftKind::kRightLogical, 10, Operand::reg(4), Operand::imm_u(28));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 0xFu);
}

TEST(ExecAlu, Popcount) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.popc(10, Operand::reg(0));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], static_cast<u32>(std::popcount(lane)));
  }
}

TEST(ExecAlu, SelPicksByPredicate) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
    b.sel(10, Operand::imm_u(111), Operand::imm_u(222), 0);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], lane < 16 ? 111u : 222u);
  }
}

TEST(ExecAlu, IsetpAllComparators) {
  struct Case {
    CmpOp cmp;
    std::function<bool(u32)> expect;
  };
  const Case cases[] = {
      {CmpOp::kLt, [](u32 l) { return l < 7; }},
      {CmpOp::kLe, [](u32 l) { return l <= 7; }},
      {CmpOp::kGt, [](u32 l) { return l > 7; }},
      {CmpOp::kGe, [](u32 l) { return l >= 7; }},
      {CmpOp::kEq, [](u32 l) { return l == 7; }},
      {CmpOp::kNe, [](u32 l) { return l != 7; }},
  };
  for (const Case& c : cases) {
    auto out = run_lane_kernel([&](KernelBuilder& b) {
      b.isetp(c.cmp, 0, Operand::reg(0), Operand::imm_u(7));
      b.sel(10, Operand::imm_u(1), Operand::imm_u(0), 0);
    });
    for (u32 lane = 0; lane < 32; ++lane) {
      EXPECT_EQ(out[lane], c.expect(lane) ? 1u : 0u)
          << "cmp=" << static_cast<int>(c.cmp) << " lane=" << lane;
    }
  }
}

TEST(ExecAlu, SignedCompare) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_u32(4, Operand::imm_u(0xFFFFFFFFu));  // -1 signed
    b.isetp(CmpOp::kLt, 0, Operand::reg(4), Operand::imm_u(0), DType::kS32);
    b.sel(10, Operand::imm_u(1), Operand::imm_u(0), 0);
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 1u);
}

// ------------------------------------------------------ floating point --

TEST(ExecFp, FAddFMul) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0));
    b.fadd_f32(5, Operand::reg(4), Operand::imm_f32(0.5f));
    b.fmul_f32(10, Operand::reg(5), Operand::imm_f32(2.0f));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(bits_f32(out[lane]), (static_cast<f32>(lane) + 0.5f) * 2.0f);
  }
}

TEST(ExecFp, FfmaIsFused) {
  // Pick values where fma(a,b,c) != a*b+c in f32.
  const f32 a = 1.0f + 0x1.0p-12f;
  const f32 c = -1.0f;
  auto out = run_lane_kernel([&](KernelBuilder& b) {
    b.mov_f32(4, a);
    b.ffma_f32(10, Operand::reg(4), Operand::reg(4), Operand::imm_f32(c));
  });
  const f32 want = std::fmaf(a, a, c);
  EXPECT_NE(want, a * a + c);  // the case actually distinguishes fusion
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(bits_f32(out[lane]), want);
}

TEST(ExecFp, FMinMaxF32) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0));
    b.fmnmx_f32(10, Operand::reg(4), Operand::imm_f32(15.5f), MinMax::kMin);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(bits_f32(out[lane]), std::fmin(static_cast<f32>(lane), 15.5f));
  }
}

TEST(ExecFp, F64ArithmeticOnPairs) {
  auto out = run_lane_kernel64([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0), DType::kF64);  // lane as double in R4:5
    b.mov_u64(6, f64_bits(2.5));
    b.ffma_f64(8, Operand::reg(4), Operand::reg(6), Operand::reg(6));
    b.fmul_f64(10, Operand::reg(8), Operand::reg(6));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    const f64 want = std::fma(static_cast<f64>(lane), 2.5, 2.5) * 2.5;
    EXPECT_EQ(bits_f64(out[lane]), want);
  }
}

TEST(ExecFp, FsetpF32) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0));
    b.fsetp(CmpOp::kGt, 0, Operand::reg(4), Operand::imm_f32(15.0f));
    b.sel(10, Operand::imm_u(1), Operand::imm_u(0), 0);
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(out[lane], lane > 15 ? 1u : 0u);
  }
}

TEST(ExecFp, MufuFunctions) {
  struct Case {
    MufuKind kind;
    std::function<f32(f32)> expect;
  };
  const Case cases[] = {
      {MufuKind::kRcp, [](f32 x) { return 1.0f / x; }},
      {MufuKind::kSqrt, [](f32 x) { return std::sqrt(x); }},
      {MufuKind::kRsq, [](f32 x) { return 1.0f / std::sqrt(x); }},
      {MufuKind::kExp2, [](f32 x) { return std::exp2(x); }},
      {MufuKind::kLog2, [](f32 x) { return std::log2(x); }},
      {MufuKind::kSin, [](f32 x) { return std::sin(x); }},
      {MufuKind::kCos, [](f32 x) { return std::cos(x); }},
  };
  for (const Case& c : cases) {
    auto out = run_lane_kernel([&](KernelBuilder& b) {
      b.iadd_u32(4, Operand::reg(0), Operand::imm_u(1));  // avoid 0
      b.i2f(4, Operand::reg(4));
      b.mufu(c.kind, 10, Operand::reg(4));
    });
    for (u32 lane = 0; lane < 32; ++lane) {
      EXPECT_EQ(bits_f32(out[lane]), c.expect(static_cast<f32>(lane + 1)))
          << "kind=" << static_cast<int>(c.kind) << " lane=" << lane;
    }
  }
}

TEST(ExecFp, F2IConversionsSaturateAndTruncate) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0));
    b.fmul_f32(4, Operand::reg(4), Operand::imm_f32(1.75f));
    b.f2i(10, Operand::reg(4));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    const f32 scaled = static_cast<f32>(lane) * 1.75f;
    EXPECT_EQ(out[lane], static_cast<u32>(static_cast<i32>(scaled)));
  }
}

TEST(ExecFp, F2ISaturatesAtIntMax) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.mov_f32(4, 1e20f);
    b.f2i(10, Operand::reg(4));
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(static_cast<i32>(out[lane]), std::numeric_limits<i32>::max());
  }
}

TEST(ExecFp, F2FWidenNarrowRoundTrip) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.i2f(4, Operand::reg(0));
    b.fmul_f32(4, Operand::reg(4), Operand::imm_f32(0.1f));
    b.f2f_widen(6, Operand::reg(4));   // F32 -> F64 in R6:7
    b.f2f_narrow(10, Operand::reg(6)); // back to F32
  });
  for (u32 lane = 0; lane < 32; ++lane) {
    EXPECT_EQ(bits_f32(out[lane]), static_cast<f32>(lane) * 0.1f);
  }
}

// ------------------------------------------------- special registers --

TEST(ExecSpecial, ThreadAndBlockCoordinates) {
  using sim::SpecialReg;
  // 2x2 grid of 4x8-thread blocks; store flattened coordinates.
  KernelBuilder b("coords");
  b.s2r(2, SpecialReg::kTidX);
  b.s2r(3, SpecialReg::kTidY);
  b.s2r(4, SpecialReg::kCtaidX);
  b.s2r(5, SpecialReg::kCtaidY);
  b.s2r(6, SpecialReg::kNtidX);
  b.s2r(7, SpecialReg::kNtidY);
  // gx = ctaid.x*ntid.x+tid.x ; gy = ctaid.y*ntid.y+tid.y
  b.imad_u32(8, Operand::reg(4), Operand::reg(6), Operand::reg(2));
  b.imad_u32(9, Operand::reg(5), Operand::reg(7), Operand::reg(3));
  // linear = gy * (2*4) + gx ; out[linear] = linear
  b.imad_u32(12, Operand::reg(9), Operand::imm_u(8), Operand::reg(8));
  b.ldc_u64(14, 0);
  b.imad_wide(16, Operand::reg(12), Operand::imm_u(4), Operand::reg(14));
  b.stg(16, 12);
  b.exit_();
  auto program = sim_test::must(b);

  sim::Device device(arch::toy());
  auto out = device.malloc_n<u32>(8 * 16);
  ASSERT_TRUE(out.is_ok());
  const u64 params[] = {out.value()};
  auto launch =
      device.launch(program, Dim3(2, 2), Dim3(4, 8), params);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_TRUE(launch.value().ok()) << launch.value().trap.to_string();

  std::vector<u32> host(8 * 16);
  ASSERT_EQ(device.to_host(std::span<u32>(host), out.value()),
            sim::TrapKind::kNone);
  for (u32 i = 0; i < host.size(); ++i) EXPECT_EQ(host[i], i);
}

TEST(ExecSpecial, GridDimensionRegisters) {
  auto out = run_lane_kernel([](KernelBuilder& b) {
    b.s2r(4, sim::SpecialReg::kNctaidX);
    b.s2r(5, sim::SpecialReg::kNtidX);
    b.s2r(6, sim::SpecialReg::kWarpId);
    b.imad_u32(10, Operand::reg(4), Operand::reg(5), Operand::reg(6));
  });
  for (u32 lane = 0; lane < 32; ++lane) EXPECT_EQ(out[lane], 1u * 32u);
}

}  // namespace
}  // namespace gfi
