// SASS-like instruction set of the gpufi GPU simulator.
//
// The opcode inventory mirrors the instruction *groups* that SASSIFI/NVBitFI
// target on real NVIDIA GPUs (integer ALU, FP32/FP64 arithmetic, fused
// multiply-add, predicate-setting compares, loads/stores, atomics, warp
// shuffles/votes, barriers, control flow, and tensor-core MMA), so the fault
// injector can select sites by the same categories the papers report.
#pragma once

#include <string>

#include "common/types.h"

namespace gfi::sim {

// ---------------------------------------------------------------------------
// Register-file conventions
// ---------------------------------------------------------------------------

/// General-purpose registers are 32-bit; 64-bit values occupy an aligned
/// pair (Rn, Rn+1) exactly as in real SASS. RZ reads as zero and discards
/// writes.
inline constexpr u16 kRegZ = 255;
/// PT is the always-true predicate; P0..P6 are writable.
inline constexpr u8 kPredT = 7;
inline constexpr u8 kNumPredicates = 8;  // P0..P6 + PT
inline constexpr u32 kWarpSize = 32;

// ---------------------------------------------------------------------------
// Opcodes and their variants
// ---------------------------------------------------------------------------

enum class Opcode : u8 {
  kNop,
  kExit,  ///< retire lanes (guardable: partial-warp exit supported)
  kBra,   ///< guarded branch; divergence handled via the SSY/SYNC stack
  kSsy,   ///< push reconvergence point
  kSync,  ///< pop reconvergence/divergence stack entry
  kBar,   ///< CTA-wide barrier

  kMov,   ///< dst = src0 (reg/imm), dtype-width
  kSel,   ///< dst = src2(pred) ? src0 : src1
  kS2r,   ///< dst = special register (sub = SpecialReg)
  kLdc,   ///< dst = kernel parameter word (src0 = imm index)

  kIAdd,  ///< dst = src0 + src1 (U32/S32/U64)
  kIMul,  ///< dst = src0 * src1 (low 32 bits for 32-bit dtypes)
  kIMad,  ///< dst = src0 * src1 + src2; dtype U64 = IMAD.WIDE (32x32+64)
  kIMnmx, ///< dst = min/max(src0, src1); sub = MinMax
  kISetp, ///< pred dst = cmp(src0, src1); sub = CmpOp
  kLop,   ///< bitwise; sub = LopKind
  kShf,   ///< shift; sub = ShiftKind; src1 = amount
  kPopc,  ///< dst = popcount(src0)

  kFAdd,  ///< FP add (F32/F64; F64 uses register pairs)
  kFMul,
  kFFma,  ///< dst = src0 * src1 + src2 (fused)
  kFMnmx,
  kFSetp,
  kMufu,  ///< multi-function unit; sub = MufuKind (rcp/sqrt/rsq/exp2/...)
  kF2I,   ///< float -> signed int (truncating)
  kI2F,   ///< signed int -> float
  kF2F,   ///< F32 <-> F64 convert (dtype = destination type)

  kLdg,   ///< global load;  addr = src0(pair) + imm offset (src1)
  kStg,   ///< global store; data = src2
  kLds,   ///< shared load;  addr = src0(32-bit) + imm offset
  kSts,   ///< shared store
  kAtomG, ///< global atomic; sub = AtomKind; dst = old value
  kAtomS, ///< shared atomic

  kShfl,  ///< warp shuffle; sub = ShflKind; src1 = lane/delta operand
  kVote,  ///< warp vote; sub = VoteKind; src0 = source predicate

  kHmma,  ///< tensor-core m16n8k8 TF32 MMA over warp-distributed fragments
};

inline constexpr int kOpcodeCount = static_cast<int>(Opcode::kHmma) + 1;

/// Scalar type an instruction operates on. 64-bit types read/write register
/// pairs.
enum class DType : u8 { kU32, kS32, kU64, kF32, kF64 };

enum class LopKind : u8 { kAnd, kOr, kXor, kNot };
enum class ShiftKind : u8 { kLeft, kRightLogical, kRightArith };
enum class MinMax : u8 { kMin, kMax };
enum class CmpOp : u8 { kLt, kLe, kGt, kGe, kEq, kNe };
enum class MufuKind : u8 { kRcp, kSqrt, kRsq, kExp2, kLog2, kSin, kCos };
enum class AtomKind : u8 { kAdd, kMin, kMax, kExch, kCas };
enum class ShflKind : u8 { kIdx, kUp, kDown, kBfly };
enum class VoteKind : u8 { kAll, kAny, kBallot };

/// Special (read-only) per-thread registers, read via S2R.
enum class SpecialReg : u8 {
  kTidX, kTidY, kTidZ,
  kCtaidX, kCtaidY, kCtaidZ,
  kNtidX, kNtidY, kNtidZ,
  kNctaidX, kNctaidY, kNctaidZ,
  kLaneId,
  kWarpId,
};

// ---------------------------------------------------------------------------
// Operands
// ---------------------------------------------------------------------------

enum class OperandKind : u8 { kNone, kReg, kImm, kPred };

/// One instruction operand. Immediates store raw bit patterns; float
/// immediates are bit-cast in (imm_f32 / imm_f64 factories).
struct Operand {
  OperandKind kind = OperandKind::kNone;
  u16 index = 0;        ///< register or predicate index
  u64 imm = 0;          ///< immediate payload (bit pattern)
  bool negated = false; ///< predicate negation (kPred only)

  static Operand none() { return {}; }
  static Operand reg(u16 r) { return {OperandKind::kReg, r, 0, false}; }
  static Operand imm_u(u64 v) { return {OperandKind::kImm, 0, v, false}; }
  static Operand imm_s(i64 v) {
    return {OperandKind::kImm, 0, static_cast<u64>(v), false};
  }
  static Operand imm_f32(f32 v);
  static Operand imm_f64(f64 v);
  static Operand pred(u16 p, bool neg = false) {
    return {OperandKind::kPred, p, 0, neg};
  }

  [[nodiscard]] bool is_reg() const { return kind == OperandKind::kReg; }
  [[nodiscard]] bool is_imm() const { return kind == OperandKind::kImm; }
  [[nodiscard]] bool is_pred() const { return kind == OperandKind::kPred; }
  [[nodiscard]] bool is_none() const { return kind == OperandKind::kNone; }
};

// ---------------------------------------------------------------------------
// Instruction
// ---------------------------------------------------------------------------

/// One static instruction. `target` holds a resolved instruction index for
/// control flow (kBra/kSsy); before linking, `label` names the destination.
struct Instr {
  Opcode op = Opcode::kNop;
  DType dtype = DType::kU32;
  u8 sub = 0;  ///< variant selector; meaning depends on op (see enums above)

  Operand dst;
  Operand src[3];

  u8 guard_pred = kPredT;     ///< @P guard; kPredT = unconditional
  bool guard_negated = false; ///< @!P

  i32 target = -1;       ///< resolved branch/SSY destination
  std::string label;     ///< unresolved destination (cleared by linking)
  u8 mem_width = 4;      ///< LD/ST access width in bytes (1, 2, 4, 8)

  [[nodiscard]] bool is_control() const {
    return op == Opcode::kBra || op == Opcode::kSsy || op == Opcode::kSync ||
           op == Opcode::kExit || op == Opcode::kBar;
  }
  [[nodiscard]] bool is_memory() const {
    return op == Opcode::kLdg || op == Opcode::kStg || op == Opcode::kLds ||
           op == Opcode::kSts || op == Opcode::kAtomG || op == Opcode::kAtomS;
  }
  [[nodiscard]] bool is_store() const {
    return op == Opcode::kStg || op == Opcode::kSts;
  }
  /// True when the destination is a general-purpose register write.
  [[nodiscard]] bool writes_reg() const;
  /// True when the destination is a predicate write.
  [[nodiscard]] bool writes_pred() const {
    return op == Opcode::kISetp || op == Opcode::kFSetp ||
           (op == Opcode::kVote && sub != static_cast<u8>(VoteKind::kBallot));
  }
  /// Number of 32-bit registers the destination spans (1 or 2).
  [[nodiscard]] u16 dst_reg_span() const;
};

// ---------------------------------------------------------------------------
// Instruction groups (SASSIFI/NVBitFI reporting categories)
// ---------------------------------------------------------------------------

/// Category an instruction is reported/injected under. These are the row
/// labels of the per-group vulnerability tables.
enum class InstrGroup : u8 {
  kInt,       ///< IADD/IMUL/IMNMX/LOP/SHF/POPC/MOV/SEL/S2R/LDC
  kIntMad,    ///< IMAD (integer multiply-add, incl. address math)
  kFp32,      ///< FADD/FMUL/FMNMX/MUFU/F2I/I2F/F2F on F32
  kFp32Fma,   ///< FFMA F32
  kFp64,      ///< F64 arithmetic
  kSetp,      ///< ISETP/FSETP (predicate writers)
  kLoad,      ///< LDG/LDS
  kStore,     ///< STG/STS
  kAtomic,    ///< ATOMG/ATOMS
  kWarpComm,  ///< SHFL/VOTE
  kMma,       ///< HMMA tensor-core
  kControl,   ///< BRA/SSY/SYNC/BAR/EXIT/NOP
};

inline constexpr int kInstrGroupCount =
    static_cast<int>(InstrGroup::kControl) + 1;

/// Group of a (static) instruction.
InstrGroup instr_group(const Instr& instr);

const char* opcode_name(Opcode op);
const char* dtype_name(DType dtype);
const char* group_name(InstrGroup group);

/// Disassembles one instruction to a readable SASS-like line.
std::string to_string(const Instr& instr);

}  // namespace gfi::sim
