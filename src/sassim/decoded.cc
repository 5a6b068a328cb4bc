#include "sassim/decoded.h"

namespace gfi::sim {
namespace {

/// The exec_vec ALU row kernel `d` is decode-proven eligible for, or
/// kGeneric: register/immediate sources (vec_srcs) plus the per-op dtype and
/// width each kernel covers. Everything else runs Engine::dispatch's lane
/// loop.
Handler lower_alu(const DecodedInstr& d) {
  if (!d.vec_srcs) return Handler::kGeneric;
  switch (d.op) {
    case Opcode::kMov:   return d.wide ? Handler::kMov64 : Handler::kMov;
    case Opcode::kS2r:   return d.wide ? Handler::kGeneric : Handler::kS2r;
    case Opcode::kLdc:   return Handler::kLdc;
    case Opcode::kSel:   return d.wide ? Handler::kGeneric : Handler::kSel;
    case Opcode::kIAdd:  return d.wide ? Handler::kGeneric : Handler::kIAdd;
    case Opcode::kIMul:  return d.wide ? Handler::kGeneric : Handler::kIMul;
    case Opcode::kIMad:
      if (d.dtype == DType::kU64) return Handler::kIMadWide;
      return d.wide ? Handler::kGeneric : Handler::kIMad32;
    case Opcode::kIMnmx: return d.wide ? Handler::kGeneric : Handler::kIMnmx;
    case Opcode::kISetp:
      return !d.wide && (d.dtype == DType::kS32 || d.dtype == DType::kU32)
                 ? Handler::kISetp
                 : Handler::kGeneric;
    case Opcode::kLop:   return d.wide ? Handler::kGeneric : Handler::kLop;
    case Opcode::kShf:   return d.wide ? Handler::kGeneric : Handler::kShf;
    case Opcode::kPopc:  return d.wide ? Handler::kGeneric : Handler::kPopc;
    case Opcode::kFAdd:
    case Opcode::kFMul:
    case Opcode::kFMnmx:
      return d.dtype == DType::kF32 ? Handler::kFArith : Handler::kGeneric;
    case Opcode::kFFma:
      return d.dtype == DType::kF32 ? Handler::kFFma : Handler::kGeneric;
    case Opcode::kFSetp:
      return d.dtype == DType::kF32 ? Handler::kFSetp : Handler::kGeneric;
    case Opcode::kI2F:   return d.wide ? Handler::kGeneric : Handler::kI2F;
    default:             return Handler::kGeneric;
  }
}

/// Static eligibility for the row-wise memory kernels: width-4 accesses
/// with a register base and a register destination/data operand (RZ
/// included, as in SWIFT's `@P6 STG [RZ], RZ` checks). The runtime
/// mask/bounds/fault checks remain in the handlers.
bool row_mem_eligible(const DecodedInstr& d) {
  if (d.mem_width != 4 || d.src[0].kind != OperandKind::kReg) return false;
  const bool store = d.op == Opcode::kStg || d.op == Opcode::kSts;
  return store ? d.src[2].kind == OperandKind::kReg
               : d.dst_kind == OperandKind::kReg;
}

Handler lower_one(const DecodedInstr& d) {
  switch (d.op) {
    case Opcode::kExit: return Handler::kExit;
    case Opcode::kBra:  return Handler::kBra;
    case Opcode::kSync: return Handler::kSync;
    case Opcode::kBar:  return Handler::kBar;
    case Opcode::kSsy:  return Handler::kSsy;
    case Opcode::kAtomS:
      return d.mem_width == 4 && !d.wide && d.vec_srcs &&
                     d.src[0].kind == OperandKind::kReg
                 ? Handler::kAtomsRow
                 : Handler::kGeneric;
    case Opcode::kLdg:
      return row_mem_eligible(d) ? Handler::kLdgRow : Handler::kGeneric;
    case Opcode::kStg:
      return row_mem_eligible(d) ? Handler::kStgRow : Handler::kGeneric;
    case Opcode::kLds:
      return row_mem_eligible(d) ? Handler::kLdsRow : Handler::kGeneric;
    case Opcode::kSts:
      return row_mem_eligible(d) ? Handler::kStsRow : Handler::kGeneric;
    default:            return lower_alu(d);
  }
}

}  // namespace

DecodedProgram::DecodedProgram(std::span<const Instr> code) {
  instrs_.reserve(code.size());
  defuse_.reserve(code.size());
  for (const Instr& instr : code) {
    DecodedInstr d;
    for (int i = 0; i < 3; ++i) {
      d.src[i].imm = instr.src[i].imm;
      d.src[i].kind = instr.src[i].kind;
      d.src[i].index = instr.src[i].index;
      d.src[i].negated = instr.src[i].negated;
    }
    // Unlinked targets (-1) only occur on non-control instructions, which
    // never read the field; clamp so the value is always a valid u32.
    d.target = instr.target >= 0 ? static_cast<u32>(instr.target) : 0;
    d.op = instr.op;
    d.dtype = instr.dtype;
    d.sub = instr.sub;
    d.mem_width = instr.mem_width;
    d.group = instr_group(instr);
    d.guard_pred = instr.guard_pred;
    d.guard_negated = instr.guard_negated;
    d.guarded = is_guarded(instr);
    d.wide = instr.dtype == DType::kU64 || instr.dtype == DType::kF64;
    d.vec_srcs = d.src[0].kind != OperandKind::kPred &&
                 d.src[1].kind != OperandKind::kPred &&
                 d.src[2].kind != OperandKind::kPred;
    d.dst_kind = instr.dst.kind;
    d.dst_index = instr.dst.index;
    d.handler = lower_one(d);
    instrs_.push_back(d);
    defuse_.push_back(sim::def_use(instr));
  }
}

}  // namespace gfi::sim
