#include "sassim/decoded.h"

namespace gfi::sim {
namespace {

/// The exec_vec full-warp row kernel `d` is decode-proven eligible for, or
/// kGeneric: register/immediate sources (vec_srcs) plus the per-op dtype and
/// width each kernel covers. The runtime half (full active mask) stays in
/// the threaded handlers; everything else runs Engine::dispatch's lane loop.
Handler lower_alu(const DecodedInstr& d) {
  if (!d.vec_srcs) return Handler::kGeneric;
  switch (d.op) {
    case Opcode::kMov:   return d.wide ? Handler::kGeneric : Handler::kMov;
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
    case Opcode::kI2F:
      return d.dtype != DType::kF64 ? Handler::kI2F : Handler::kGeneric;
    default:             return Handler::kGeneric;
  }
}

/// Static eligibility for the row-wise memory kernels: width-4 accesses
/// with a live register base and a live register destination/data operand.
/// The runtime mask/fault checks remain in the handlers.
bool row_mem_eligible(const DecodedInstr& d) {
  if (d.mem_width != 4) return false;
  if (d.src[0].kind != OperandKind::kReg || d.src[0].index == kRegZ)
    return false;
  const bool store = d.op == Opcode::kStg || d.op == Opcode::kSts;
  if (store)
    return d.src[2].kind == OperandKind::kReg && d.src[2].index != kRegZ;
  return d.dst_kind == OperandKind::kReg && d.dst_index != kRegZ;
}

Handler lower_one(const DecodedInstr& d) {
  switch (d.op) {
    case Opcode::kExit: return Handler::kExit;
    case Opcode::kBra:  return Handler::kBra;
    case Opcode::kSync: return Handler::kSync;
    case Opcode::kBar:  return Handler::kBar;
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

/// Fusion pairing over adjacent pcs. A head keeps its own scheduler slot —
/// fusion changes neither cycle accounting nor dynamic-instruction counts —
/// but precomputes the tail's work into the warp's stash, which the tail
/// consumes iff control flow actually fell through from the head. Every
/// tail handler degrades to its unfused behavior when the stash is invalid,
/// so branching into a tail (or resuming there after an instrumented-tier
/// downgrade) is always correct.
void fuse_pairs(std::vector<DecodedInstr>& instrs) {
  for (std::size_t pc = 0; pc + 1 < instrs.size(); ++pc) {
    DecodedInstr& head = instrs[pc];
    DecodedInstr& tail = instrs[pc + 1];

    // ISETP + @P BRA: the ISETP's full-warp lane mask doubles as the BRA's
    // guard, saving the tail's predicate-row scan. Requires an unguarded
    // vector ISETP writing a real predicate that is exactly the BRA guard.
    if (head.handler == Handler::kISetp && !head.guarded &&
        head.dst_index < kPredT && tail.handler == Handler::kBra &&
        tail.guarded && tail.guard_pred == head.dst_index) {
      head.handler = Handler::kCmpBraHead;
      tail.handler = Handler::kBraFusedTail;
      ++pc;  // a tail never doubles as the next pair's head
      continue;
    }

    // IMAD.WIDE + LDG/STG on the freshly computed address pair: the head's
    // per-lane product loop also proves 4-byte alignment and min/max global
    // bounds for the tail, which then runs a check-free row copy. Both must
    // be unguarded so the head's full mask carries over to the tail.
    if (head.handler == Handler::kIMadWide && !head.guarded &&
        head.dst_kind == OperandKind::kReg && head.dst_index != kRegZ &&
        (tail.handler == Handler::kLdgRow ||
         tail.handler == Handler::kStgRow) &&
        !tail.guarded && tail.src[0].index == head.dst_index) {
      head.handler = tail.handler == Handler::kLdgRow
                         ? Handler::kAddrLdgHead
                         : Handler::kAddrStgHead;
      tail.handler = tail.handler == Handler::kLdgRow
                         ? Handler::kLdgFusedTail
                         : Handler::kStgFusedTail;
      ++pc;
      continue;
    }

    // FFMA chains: two adjacent unguarded f32 vector FFMAs issue both row
    // kernels from the head's slot; the tail reduces to a stash check.
    if (head.handler == Handler::kFFma && !head.guarded &&
        tail.handler == Handler::kFFma && !tail.guarded) {
      head.handler = Handler::kFFmaChainHead;
      tail.handler = Handler::kFFmaChainTail;
      ++pc;
      continue;
    }
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
    instrs_.push_back(d);
    defuse_.push_back(sim::def_use(instr));
  }
  // Lowering for the threaded tier: direct handler ids first (purely local
  // per-instruction facts), then fusion, which looks one pc ahead and so
  // needs the whole stream decoded.
  for (DecodedInstr& d : instrs_) d.handler = lower_one(d);
  fuse_pairs(instrs_);
}

}  // namespace gfi::sim
