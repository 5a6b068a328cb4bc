// Differential tests of the threaded tier's row paths against the
// instrumented tier (the reference): every Handler the lowering pass
// assigns, under guard masks from no lane to all of them, with destinations
// that alias a source, RZ and register-pair destinations; masked memory
// rows (shared atomics included) with one bad lane, executing or not;
// shared atomics of every kind and dtype with lanes sharing one word; a
// guarded SSY; S2R on every block shape; LDC with an out-of-range index.
// Each case runs one kernel on both tiers and compares the whole launch:
// the trap (kind, address, pc, CTA, warp), instruction and cycle counts,
// ECC counters, device memory with its pending faults, and a dump of every
// register and predicate byte of every thread at kernel end. A case that
// the threaded tier should cover with a row path must also leave the count
// of generic slots unchanged.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sassim/decoded.h"
#include "sim_test_util.h"

namespace gfi {
namespace {

using sim::AtomKind;
using sim::CmpOp;
using sim::Device;
using sim::DType;
using sim::Handler;
using sim::Instr;
using sim::KernelBuilder;
using sim::Opcode;
using sim::Operand;
using sim::SpecialReg;
using sim::TrapKind;
using sim::kPredT;
using sim::kRegZ;
using sim::kWarpSize;

constexpr u8 kMaskPred = 5;   ///< P5 holds the case's exec mask per lane
constexpr u16 kDumpRegs = 24;  ///< R0..R23 are dumped, then P0..P6
constexpr u32 kDumpWords = kDumpRegs + 1;
constexpr u32 kBadThread = 49;  ///< warp 1, lane 17
constexpr u32 kBadLane = kBadThread % kWarpSize;
constexpr u32 kCtaThreads = 64;  ///< memory buffers: one word per thread
constexpr u32 kSharedBytes = kCtaThreads * 4;
constexpr u32 kParams = 4;  ///< in, out, dump, dump stride (threads/CTA)

/// Guard masks per lane (the same in every warp): none, lane 0 only, lane
/// 31 only, alternating (odd lanes, so lane 17 executes), all but lane 17,
/// and full.
constexpr u32 kMasks[] = {0u,          1u,           1u << 31,
                          0xAAAAAAAAu, ~(1u << 17), 0xFFFFFFFFu};

bool bad_lane_executes(u32 mask) { return ((mask >> kBadLane) & 1u) != 0; }

struct Shape {
  Dim3 grid = Dim3(1);
  Dim3 block = Dim3(kCtaThreads);
};

/// Threads per CTA rounded up to whole warps: the dump's per-CTA stride.
u32 padded_threads(const Shape& shape) {
  const u32 threads = static_cast<u32>(shape.block.count());
  return (threads + kWarpSize - 1) / kWarpSize * kWarpSize;
}

/// One instruction; the caller sets the guard.
Instr make(Opcode op, DType dtype, u8 sub, Operand dst,
           Operand a = Operand::none(), Operand b = Operand::none(),
           Operand c = Operand::none()) {
  Instr instr;
  instr.op = op;
  instr.dtype = dtype;
  instr.sub = sub;
  instr.dst = dst;
  instr.src[0] = a;
  instr.src[1] = b;
  instr.src[2] = c;
  return instr;
}

void guarded(KernelBuilder& b, Instr instr) {
  instr.guard_pred = kMaskPred;
  b.emit(std::move(instr));
}

/// Byte offset that moves the bad thread's address, and how it traps.
enum class Bad : u8 { kNone, kMisaligned, kOutOfBounds, kPendingDbe };

u32 bad_offset(Bad bad, bool shared) {
  switch (bad) {
    case Bad::kMisaligned: return 2;
    case Bad::kOutOfBounds: return shared ? kSharedBytes : 1u << 24;
    case Bad::kNone:
    case Bad::kPendingDbe: return 0;
  }
  return 0;
}

/// A case kernel and the pcs of the instructions under test.
struct CaseKernel {
  sim::Program program;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// Prologue: R0 = lane; R1 and R8..R23 lane-distinct bit patterns;
/// P0..P4, P6 lane-dependent; P5 = bit `lane` of `mask`. Addresses, with
/// the bad thread's moved by `offset` bytes: R2:R3 into `in`, R4:R5 into
/// `out` (one word per thread of the CTA), R6 into shared memory, and R7
/// the bad-free shared address. R24 and up are the harness's own. Then
/// `body`, then a dump of R0..R23 and the predicate bits of every thread
/// to `dump`.
CaseKernel build_case(u32 mask, u32 offset,
                      const std::function<void(KernelBuilder&)>& body) {
  KernelBuilder b("rows_case");
  b.set_shared_bytes(kSharedBytes);
  b.s2r(0, SpecialReg::kLaneId);
  for (u16 r = 1; r < kDumpRegs; ++r) {
    if (r == 2) r = 8;  // R2..R7 hold addresses
    b.imad_u32(r, Operand::reg(0), Operand::imm_u(0x9E3779B1u + 0x20002u * r),
               Operand::imm_u(0x89ABCDEFu + 0x01234567u * r));
  }
  // Thread index in the CTA, and the bad thread's offset in R25.
  b.s2r(24, SpecialReg::kWarpId);
  b.imad_u32(24, Operand::reg(24), Operand::imm_u(kWarpSize),
             Operand::reg(0));
  b.isetp(CmpOp::kEq, 4, Operand::reg(24), Operand::imm_u(kBadThread));
  b.sel(25, Operand::imm_u(offset), Operand::imm_u(0), 4);
  b.ldc_u64(28, 0);
  b.ldc_u64(30, 1);
  b.imad_wide(2, Operand::reg(24), Operand::imm_u(4), Operand::reg(28));
  b.imad_wide(2, Operand::reg(25), Operand::imm_u(1), Operand::reg(2));
  b.imad_wide(4, Operand::reg(24), Operand::imm_u(4), Operand::reg(30));
  b.imad_wide(4, Operand::reg(25), Operand::imm_u(1), Operand::reg(4));
  b.imad_u32(6, Operand::reg(24), Operand::imm_u(4), Operand::reg(25));
  b.shf(sim::ShiftKind::kLeft, 7, Operand::reg(24), Operand::imm_u(2));
  // Predicates.
  for (u8 p = 0; p < 4; ++p) {
    b.isetp(CmpOp::kLt, p, Operand::reg(static_cast<u16>(p + 8)),
            Operand::imm_u(0x80000000u));
  }
  b.isetp(CmpOp::kEq, 4, Operand::reg(0), Operand::imm_u(7));
  b.isetp(CmpOp::kGt, 6, Operand::reg(0), Operand::imm_u(15));
  b.shf(sim::ShiftKind::kRightLogical, 26, Operand::imm_u(mask),
        Operand::reg(0));
  b.lop(sim::LopKind::kAnd, 26, Operand::reg(26), Operand::imm_u(1));
  b.isetp(CmpOp::kNe, kMaskPred, Operand::reg(26), Operand::imm_u(0));

  CaseKernel out;
  out.body_begin = b.emit(make(Opcode::kNop, DType::kU32, 0, Operand::none()));
  ++out.body_begin;
  body(b);
  out.body_end = b.emit(make(Opcode::kNop, DType::kU32, 0, Operand::none()));

  // Dump slot: ctaid (linear) * stride + thread index in the CTA.
  b.s2r(40, SpecialReg::kCtaidZ);
  b.s2r(41, SpecialReg::kNctaidY);
  b.s2r(42, SpecialReg::kCtaidY);
  b.imad_u32(40, Operand::reg(40), Operand::reg(41), Operand::reg(42));
  b.s2r(41, SpecialReg::kNctaidX);
  b.s2r(42, SpecialReg::kCtaidX);
  b.imad_u32(40, Operand::reg(40), Operand::reg(41), Operand::reg(42));
  b.ldc_u32(41, 3);
  b.s2r(42, SpecialReg::kWarpId);
  b.s2r(43, SpecialReg::kLaneId);
  b.imad_u32(42, Operand::reg(42), Operand::imm_u(kWarpSize),
             Operand::reg(43));
  b.imad_u32(40, Operand::reg(40), Operand::reg(41), Operand::reg(42));
  b.ldc_u64(44, 2);
  b.imad_wide(44, Operand::reg(40), Operand::imm_u(kDumpWords * 4),
              Operand::reg(44));
  for (u16 r = 0; r < kDumpRegs; ++r) b.stg(44, r, r * 4u);
  b.mov_u32(46, Operand::imm_u(0));
  for (u8 p = 0; p < kPredT; ++p) {
    b.sel(47, Operand::imm_u(1u << p), Operand::imm_u(0), p);
    b.lop(sim::LopKind::kOr, 46, Operand::reg(46), Operand::reg(47));
  }
  b.stg(44, 46, kDumpRegs * 4u);
  b.exit_();
  out.program = sim_test::must(b);
  return out;
}

struct Launch {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
};

/// Plants a pending memory fault once the buffers exist.
using Arm = std::function<void(Device&, u64 in, u64 out)>;

Launch launch_on(sim::EngineTier tier, const sim::Program& program,
                 const Shape& shape, const Arm& arm) {
  Device device(arch::toy());
  device.memory().set_ecc_mode(ecc::EccMode::kSecded);
  std::vector<u32> in(kCtaThreads);
  for (u32 t = 0; t < kCtaThreads; ++t) in[t] = t * 1000 + 7;
  const u32 stride = padded_threads(shape);
  const u64 dump_words = shape.grid.count() * stride * kDumpWords;
  const u64 in_addr = device.malloc_n<u32>(kCtaThreads).value();
  const u64 out_addr = device.malloc_n<u32>(kCtaThreads).value();
  const u64 dump_addr = device.malloc_n<u32>(dump_words).value();
  EXPECT_TRUE(device.to_device<u32>(in_addr, in).is_ok());
  if (arm) arm(device, in_addr, out_addr);
  const u64 params[kParams] = {in_addr, out_addr, dump_addr, stride};
  sim::LaunchOptions options;
  options.engine = tier;
  auto launch =
      device.launch(program, shape.grid, shape.block, params, options);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
  return Launch{launch.value(), device.snapshot()};
}

/// Runs `kernel` on both tiers and expects identical launches. Returns the
/// threaded run.
Launch run_both(const CaseKernel& kernel, const Shape& shape = {},
                const Arm& arm = {}) {
  const Launch threaded =
      launch_on(sim::EngineTier::kThreaded, kernel.program, shape, arm);
  const Launch reference =
      launch_on(sim::EngineTier::kInstrumented, kernel.program, shape, arm);
  const sim::Trap& a = threaded.result.trap;
  const sim::Trap& b = reference.result.trap;
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.address, b.address);
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.cta, b.cta);
  EXPECT_EQ(a.warp, b.warp);
  EXPECT_EQ(threaded.result.dyn_warp_instrs, reference.result.dyn_warp_instrs);
  EXPECT_EQ(threaded.result.dyn_thread_instrs,
            reference.result.dyn_thread_instrs);
  EXPECT_EQ(threaded.result.cycles, reference.result.cycles);
  EXPECT_EQ(threaded.result.ecc.corrected_sbe,
            reference.result.ecc.corrected_sbe);
  EXPECT_EQ(threaded.result.ecc.detected_dbe,
            reference.result.ecc.detected_dbe);
  EXPECT_EQ(threaded.result.ecc.silent_corrupted,
            reference.result.ecc.silent_corrupted);
  EXPECT_EQ(threaded.memory.brk, reference.memory.brk);
  EXPECT_EQ(threaded.memory.faults, reference.memory.faults);
  EXPECT_TRUE(threaded.memory.data == reference.memory.data)
      << "device memory (register dump included) differs";
  EXPECT_EQ(reference.result.generic_warp_instrs, 0u);
  return threaded;
}

/// Generic slots of the harness alone (an empty body) on `shape`.
u64 harness_generic(const Shape& shape) {
  const CaseKernel empty = build_case(kMasks[5], 0, [](KernelBuilder&) {});
  return run_both(empty, shape).result.generic_warp_instrs;
}

// ---- ALU rows ---------------------------------------------------------------

/// Which destination a case writes.
enum class Dst : u8 {
  kFresh,  ///< R10 (pair R10:R11), P1
  kAlias,  ///< the first source register (pair: overlapping it), P5
  kRz,     ///< RZ, P6
};
constexpr Dst kDsts[] = {Dst::kFresh, Dst::kAlias, Dst::kRz};

Operand reg_dst(Dst dst, u16 alias) {
  switch (dst) {
    case Dst::kFresh: return Operand::reg(10);
    case Dst::kAlias: return Operand::reg(alias);
    case Dst::kRz: return Operand::reg(kRegZ);
  }
  return Operand::reg(10);
}

Operand pred_dst(Dst dst) {
  switch (dst) {
    case Dst::kFresh: return Operand::pred(1);
    case Dst::kAlias: return Operand::pred(kMaskPred);
    case Dst::kRz: return Operand::pred(6);  // programs cannot write PT
  }
  return Operand::pred(1);
}

struct AluCase {
  const char* name;
  Handler handler;
  std::function<Instr(Dst)> instr;
};

Operand r(u16 index) { return Operand::reg(index); }
Operand imm(u64 value) { return Operand::imm_u(value); }
template <typename Enum>
u8 sub(Enum value) {
  return static_cast<u8>(value);
}

std::vector<AluCase> alu_cases() {
  using sim::LopKind;
  using sim::MinMax;
  using sim::ShiftKind;
  return {
      {"mov", Handler::kMov,
       [](Dst d) { return make(Opcode::kMov, DType::kU32, 0, reg_dst(d, 8),
                               r(8)); }},
      {"mov_imm", Handler::kMov,
       [](Dst d) { return make(Opcode::kMov, DType::kU32, 0, reg_dst(d, 8),
                               imm(0x1234)); }},
      // Pair alias: R13:R14 <- R12:R13 overlaps the source's upper half.
      {"mov64", Handler::kMov64,
       [](Dst d) { return make(Opcode::kMov, DType::kU64, 0, reg_dst(d, 13),
                               r(12)); }},
      {"mov64_down", Handler::kMov64,
       [](Dst d) { return make(Opcode::kMov, DType::kU64, 0, reg_dst(d, 11),
                               r(12)); }},
      {"mov64_imm", Handler::kMov64,
       [](Dst d) { return make(Opcode::kMov, DType::kU64, 0, reg_dst(d, 12),
                               imm(0x0123456789ABCDEFull)); }},
      {"mov64_rz", Handler::kMov64,
       [](Dst d) { return make(Opcode::kMov, DType::kU64, 0, reg_dst(d, 12),
                               r(kRegZ)); }},
      {"s2r_tid", Handler::kS2r,
       [](Dst d) { return make(Opcode::kS2r, DType::kU32,
                                   sub(SpecialReg::kTidX), reg_dst(d, 8)); }},
      {"ldc32", Handler::kLdc,
       [](Dst d) { return make(Opcode::kLdc, DType::kU32, 0, reg_dst(d, 8),
                               imm(3)); }},
      {"ldc64", Handler::kLdc,
       [](Dst d) { return make(Opcode::kLdc, DType::kU64, 0, reg_dst(d, 12),
                               imm(1)); }},
      {"sel", Handler::kSel,
       [](Dst d) { return make(Opcode::kSel, DType::kU32, 0, reg_dst(d, 8),
                               r(8), r(9), r(14)); }},
      {"sel_imm", Handler::kSel,
       [](Dst d) { return make(Opcode::kSel, DType::kU32, 0, reg_dst(d, 8),
                               r(8), r(9), imm(0)); }},
      {"iadd", Handler::kIAdd,
       [](Dst d) { return make(Opcode::kIAdd, DType::kU32, 0, reg_dst(d, 8),
                               r(8), r(9)); }},
      {"imul", Handler::kIMul,
       [](Dst d) { return make(Opcode::kIMul, DType::kU32, 0, reg_dst(d, 8),
                               r(8), imm(0x1001)); }},
      {"imad", Handler::kIMad32,
       [](Dst d) { return make(Opcode::kIMad, DType::kU32, 0, reg_dst(d, 8),
                               r(8), r(9), r(14)); }},
      // Pair alias: R12:R13 = R12 * 4 + R12:R13.
      {"imad_wide", Handler::kIMadWide,
       [](Dst d) { return make(Opcode::kIMad, DType::kU64, 0, reg_dst(d, 12),
                               r(12), imm(4), r(12)); }},
      {"imnmx", Handler::kIMnmx,
       [](Dst d) { return make(Opcode::kIMnmx, DType::kS32,
                                   sub(MinMax::kMin), reg_dst(d, 8), r(8),
                                   r(9)); }},
      {"isetp", Handler::kISetp,
       [](Dst d) { return make(Opcode::kISetp, DType::kS32,
                                   sub(CmpOp::kLt), pred_dst(d), r(8),
                                   r(9)); }},
      {"lop_xor", Handler::kLop,
       [](Dst d) { return make(Opcode::kLop, DType::kU32,
                                   sub(LopKind::kXor), reg_dst(d, 8), r(8),
                                   r(9)); }},
      {"shf_sar", Handler::kShf,
       [](Dst d) { return make(Opcode::kShf, DType::kU32,
                                   sub(ShiftKind::kRightArith),
                                   reg_dst(d, 8), r(8), r(9)); }},
      {"popc", Handler::kPopc,
       [](Dst d) { return make(Opcode::kPopc, DType::kU32, 0, reg_dst(d, 8),
                               r(8)); }},
      {"fadd", Handler::kFArith,
       [](Dst d) { return make(Opcode::kFAdd, DType::kF32, 0, reg_dst(d, 8),
                               r(8), r(9)); }},
      {"fmnmx", Handler::kFArith,
       [](Dst d) { return make(Opcode::kFMnmx, DType::kF32,
                                   sub(MinMax::kMax), reg_dst(d, 8), r(8),
                                   r(9)); }},
      {"ffma", Handler::kFFma,
       [](Dst d) { return make(Opcode::kFFma, DType::kF32, 0, reg_dst(d, 8),
                               r(8), r(9), r(14)); }},
      {"fsetp", Handler::kFSetp,
       [](Dst d) { return make(Opcode::kFSetp, DType::kF32,
                                   sub(CmpOp::kLe), pred_dst(d), r(8),
                                   r(9)); }},
      {"i2f", Handler::kI2F,
       [](Dst d) { return make(Opcode::kI2F, DType::kF32, 0, reg_dst(d, 8),
                               r(8)); }},
      // No row kernel: the generic lane loop, on both tiers.
      {"iadd64", Handler::kGeneric,
       [](Dst d) { return make(Opcode::kIAdd, DType::kU64, 0, reg_dst(d, 12),
                               r(12), r(14)); }},
      {"mufu", Handler::kGeneric,
       [](Dst d) { return make(Opcode::kMufu, DType::kF32,
                                   sub(sim::MufuKind::kRcp), reg_dst(d, 8),
                                   r(8)); }},
  };
}

TEST(ExecRows, AluRowsUnderEveryMaskMatchTheReference) {
  const Shape shape;
  const u64 base = harness_generic(shape);
  const u64 warps = shape.grid.count() * padded_threads(shape) / kWarpSize;
  for (const AluCase& c : alu_cases()) {
    for (const Dst dst : kDsts) {
      for (const u32 mask : kMasks) {
        SCOPED_TRACE(std::string(c.name) + " dst " +
                     std::to_string(static_cast<int>(dst)) + " mask " +
                     std::to_string(mask));
        const CaseKernel kernel = build_case(
            mask, 0, [&](KernelBuilder& b) { guarded(b, c.instr(dst)); });
        ASSERT_EQ(kernel.program.decoded().at(kernel.body_begin).handler,
                  c.handler);
        const Launch run = run_both(kernel, shape);
        EXPECT_FALSE(run.result.trap.fired());
        const u64 generic = c.handler == Handler::kGeneric ? warps : 0;
        EXPECT_EQ(run.result.generic_warp_instrs, base + generic);
      }
    }
  }
}

// ---- memory rows -----------------------------------------------------------

struct MemCase {
  const char* name;
  Handler handler;
  bool shared;
  bool load;
  std::function<void(KernelBuilder&)> body;
};

std::vector<MemCase> mem_cases() {
  // Shared loads read what an unguarded, bad-free store put there first.
  auto fill_shared = [](KernelBuilder& b) { b.sts(7, 1); };
  return {
      {"ldg", Handler::kLdgRow, false, true,
       [](KernelBuilder& b) { b.ldg(10, 2); b.guard_last(kMaskPred); }},
      // The destination is the base pair's low half.
      {"ldg_alias", Handler::kLdgRow, false, true,
       [](KernelBuilder& b) { b.ldg(2, 2); b.guard_last(kMaskPred); }},
      {"ldg_rz", Handler::kLdgRow, false, true,
       [](KernelBuilder& b) { b.ldg(kRegZ, 2); b.guard_last(kMaskPred); }},
      {"stg", Handler::kStgRow, false, false,
       [](KernelBuilder& b) { b.stg(4, 1); b.guard_last(kMaskPred); }},
      {"stg_rz_data", Handler::kStgRow, false, false,
       [](KernelBuilder& b) { b.stg(4, kRegZ); b.guard_last(kMaskPred); }},
      {"lds", Handler::kLdsRow, true, true,
       [fill_shared](KernelBuilder& b) {
         fill_shared(b);
         b.lds(10, 6);
         b.guard_last(kMaskPred);
       }},
      {"lds_alias", Handler::kLdsRow, true, true,
       [fill_shared](KernelBuilder& b) {
         fill_shared(b);
         b.lds(6, 6);
         b.guard_last(kMaskPred);
       }},
      {"sts", Handler::kStsRow, true, false,
       [](KernelBuilder& b) { b.sts(6, 1); b.guard_last(kMaskPred); }},
      {"sts_rz_data", Handler::kStsRow, true, false,
       [](KernelBuilder& b) { b.sts(6, kRegZ); b.guard_last(kMaskPred); }},
      // Shared atomics read, so a bad lane traps like a load.
      {"atoms_add", Handler::kAtomsRow, true, true,
       [fill_shared](KernelBuilder& b) {
         fill_shared(b);
         b.atoms(AtomKind::kAdd, 10, 6, r(8));
         b.guard_last(kMaskPred);
       }},
      // The destination is the address register.
      {"atoms_cas_alias", Handler::kAtomsRow, true, true,
       [fill_shared](KernelBuilder& b) {
         fill_shared(b);
         b.atoms(AtomKind::kCas, 6, 6, r(1), imm(77));
         b.guard_last(kMaskPred);
       }},
      {"atoms_rz", Handler::kAtomsRow, true, true,
       [](KernelBuilder& b) {
         b.atoms(AtomKind::kExch, kRegZ, 6, imm(5));
         b.guard_last(kMaskPred);
       }},
  };
}

TEST(ExecRows, MaskedMemoryRowsWithOneBadLaneMatchTheReference) {
  const Shape shape;
  const u64 base = harness_generic(shape);
  for (const MemCase& c : mem_cases()) {
    for (const Bad bad : {Bad::kNone, Bad::kMisaligned, Bad::kOutOfBounds,
                          Bad::kPendingDbe}) {
      if (c.shared && bad == Bad::kPendingDbe) continue;  // no ECC there
      for (const u32 mask : kMasks) {
        SCOPED_TRACE(std::string(c.name) + " bad " +
                     std::to_string(static_cast<int>(bad)) + " mask " +
                     std::to_string(mask));
        const CaseKernel kernel =
            build_case(mask, bad_offset(bad, c.shared), c.body);
        ASSERT_EQ(kernel.program.decoded().at(kernel.body_end - 1).handler,
                  c.handler);
        Arm arm;
        if (bad == Bad::kPendingDbe) {
          const bool load = c.load;
          arm = [load](Device& device, u64 in, u64 out) {
            device.memory().inject_fault((load ? in : out) + kBadThread * 4,
                                         0b11u);
          };
        }
        const Launch run = run_both(kernel, shape, arm);
        // A store overwrites a faulted word whole, which clears the upset;
        // a load of it is a double-bit error.
        const bool traps =
            bad_lane_executes(mask) && bad != Bad::kNone &&
            (bad != Bad::kPendingDbe || c.load);
        EXPECT_EQ(run.result.trap.fired(), traps);
        if (traps) {
          EXPECT_EQ(run.result.trap.warp, kBadThread / kWarpSize);
        }
        // A bad lane that does not execute leaves the row to the row path,
        // except that a pending fault anywhere sends every executing global
        // row to the generic loop.
        if (bad != Bad::kPendingDbe && !traps) {
          EXPECT_EQ(run.result.generic_warp_instrs, base);
        }
      }
    }
  }
}

TEST(ExecRows, SwiftTrapStoreThroughRzTrapsOnlyWhenALaneExecutes) {
  // SWIFT's `@P6 STG [RZ], RZ` check: address 0 lies below the arena.
  for (const u32 mask : kMasks) {
    SCOPED_TRACE(mask);
    const CaseKernel kernel = build_case(mask, 0, [](KernelBuilder& b) {
      b.stg(kRegZ, kRegZ);
      b.guard_last(kMaskPred);
    });
    EXPECT_EQ(kernel.program.decoded().at(kernel.body_begin).handler,
              Handler::kStgRow);
    const Launch run = run_both(kernel);
    EXPECT_EQ(run.result.trap.fired(), mask != 0);
    if (mask != 0) {
      EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalGlobalAddress);
      EXPECT_EQ(run.result.trap.address, 0u);
    }
  }
}

/// Every atomic kind on every 32-bit dtype, with all lanes on one shared
/// word (RZ address) or each on its own: lanes apply in lane order, so on
/// one word each reads back its predecessors' updates.
TEST(ExecRows, SharedAtomicsUnderEveryMaskMatchTheReference) {
  const Shape shape;
  const u64 base = harness_generic(shape);
  for (const AtomKind kind : {AtomKind::kAdd, AtomKind::kMin, AtomKind::kMax,
                              AtomKind::kExch, AtomKind::kCas}) {
    for (const DType dtype : {DType::kU32, DType::kS32, DType::kF32}) {
      for (const u16 addr : {kRegZ, u16{7}}) {
        for (const u32 mask : kMasks) {
          SCOPED_TRACE("kind " + std::to_string(sub(kind)) + " dtype " +
                       std::to_string(static_cast<int>(dtype)) + " addr R" +
                       std::to_string(addr) + " mask " + std::to_string(mask));
          const CaseKernel kernel = build_case(mask, 0, [&](KernelBuilder& b) {
            b.sts(7, 9);
            b.atoms(kind, 10, addr, r(8), r(1), dtype);
            b.guard_last(kMaskPred);
            b.lds(11, 7);  // what the atomics left in the CTA's words
          });
          ASSERT_EQ(kernel.program.decoded().at(kernel.body_end - 2).handler,
                    Handler::kAtomsRow);
          const Launch run = run_both(kernel, shape);
          EXPECT_FALSE(run.result.trap.fired());
          EXPECT_EQ(run.result.generic_warp_instrs, base);
        }
      }
    }
  }
}

// ---- S2R and LDC ------------------------------------------------------------

/// Every special register, guarded, into R8..R21.
void s2r_body(KernelBuilder& b) {
  for (int sr = 0; sr <= static_cast<int>(SpecialReg::kWarpId); ++sr) {
    guarded(b, make(Opcode::kS2r, DType::kU32, static_cast<u8>(sr),
                    r(static_cast<u16>(8 + sr))));
  }
}

TEST(ExecRows, S2rRowsMatchTheReferenceOnEveryBlockShape) {
  // 1-D, not a multiple of 32, 2-D and 3-D, each with block.x below and at
  // a multiple of 32, so the kernel's stepped thread indices carry from x
  // into y at a warp boundary, inside a warp, or never; 3x5x4 also carries
  // from y into z inside a warp.
  const Shape shapes[] = {
      {Dim3(2, 2), Dim3(64)},         {Dim3(3), Dim3(40)},
      {Dim3(2, 2), Dim3(16, 4)},      {Dim3(2), Dim3(32, 3)},
      {Dim3(1, 2, 2), Dim3(8, 4, 2)}, {Dim3(2), Dim3(32, 2, 3)},
      {Dim3(2), Dim3(3, 5, 4)},
  };
  for (const Shape& shape : shapes) {
    const u64 base = harness_generic(shape);
    for (const u32 mask : {kMasks[0], kMasks[3], kMasks[4], kMasks[5]}) {
      SCOPED_TRACE("block " + std::to_string(shape.block.x) + "x" +
                   std::to_string(shape.block.y) + "x" +
                   std::to_string(shape.block.z) + " mask " +
                   std::to_string(mask));
      const Launch run = run_both(build_case(mask, 0, s2r_body), shape);
      EXPECT_FALSE(run.result.trap.fired());
      EXPECT_EQ(run.result.generic_warp_instrs, base);
    }
  }
}

/// An LDC past the four parameters the launch gets. The builder counts
/// only the parameters its ldc helpers load, so the launch accepts it.
void ldc_out_of_range_body(KernelBuilder& b) {
  guarded(b, make(Opcode::kLdc, DType::kU32, 0, r(10), imm(kParams + 3)));
}

TEST(ExecRows, LdcWithAnOutOfRangeIndexTrapsAlike) {
  // The index is checked before any lane runs, masked lanes or not.
  for (const u32 mask : {kMasks[0], kMasks[1], kMasks[5]}) {
    SCOPED_TRACE(mask);
    const CaseKernel kernel = build_case(mask, 0, ldc_out_of_range_body);
    const Launch run = run_both(kernel);
    EXPECT_EQ(run.result.trap.kind, TrapKind::kIllegalInstruction);
    EXPECT_EQ(run.result.trap.pc, kernel.body_begin);
    EXPECT_EQ(run.result.trap.warp, 0u);
  }
}

// ---- control flow and coverage ----------------------------------------------

/// if (!P5) R10 = R8 + R9; BAR; @P5 EXIT: guarded BRA, SSY/SYNC, BAR and a
/// partial EXIT.
void control_body(KernelBuilder& b) {
  b.if_then(kMaskPred, /*negated=*/true,
            [&] { b.iadd_u32(10, r(8), r(9)); });
  b.bar();
  b.exit_if(kMaskPred);
}

/// A guarded SSY pushes the active mask whatever its guard; the SYNC at
/// its label pops it.
void guarded_ssy_body(KernelBuilder& b) {
  const KernelBuilder::Label reconv = b.new_label();
  b.ssy(reconv);
  b.guard_last(kMaskPred);
  b.iadd_u32(10, r(8), r(9));
  b.bind(reconv);
  b.sync_();
}

TEST(ExecRows, ControlHandlersUnderEveryMaskMatchTheReference) {
  const Shape shape;
  const u64 base = harness_generic(shape);
  for (const u32 mask : kMasks) {
    SCOPED_TRACE(mask);
    (void)run_both(build_case(mask, 0, control_body), shape);
    const CaseKernel ssy = build_case(mask, 0, guarded_ssy_body);
    ASSERT_EQ(ssy.program.decoded().at(ssy.body_begin).handler,
              Handler::kSsy);
    EXPECT_EQ(run_both(ssy, shape).result.generic_warp_instrs, base);
  }
}

TEST(ExecRows, CasesCoverEveryHandler) {
  std::set<Handler> seen;
  auto note = [&seen](const std::function<void(KernelBuilder&)>& body) {
    const CaseKernel kernel = build_case(kMasks[5], 0, body);
    const sim::DecodedProgram& decoded = kernel.program.decoded();
    for (std::size_t pc = kernel.body_begin; pc < kernel.body_end; ++pc) {
      seen.insert(decoded.at(pc).handler);
    }
  };
  for (const AluCase& c : alu_cases()) {
    for (const Dst dst : kDsts) {
      note([&](KernelBuilder& b) { guarded(b, c.instr(dst)); });
    }
  }
  for (const MemCase& c : mem_cases()) note(c.body);
  note(s2r_body);
  note(ldc_out_of_range_body);
  note(control_body);
  note(guarded_ssy_body);
  constexpr int kHandlers = static_cast<int>(Handler::kAtomsRow) + 1;
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kHandlers));
}

}  // namespace
}  // namespace gfi
