#include "sassim/isa.h"
#include <cstdio>

#include <sstream>

#include "common/bitutil.h"

namespace gfi::sim {

Operand Operand::imm_f32(f32 v) { return imm_u(f32_bits(v)); }
Operand Operand::imm_f64(f64 v) { return imm_u(f64_bits(v)); }

bool Instr::writes_reg() const {
  if (writes_pred()) return false;
  switch (op) {
    case Opcode::kNop:
    case Opcode::kExit:
    case Opcode::kBra:
    case Opcode::kSsy:
    case Opcode::kSync:
    case Opcode::kBar:
    case Opcode::kStg:
    case Opcode::kSts:
      return false;
    default:
      return dst.is_reg() && dst.index != kRegZ;
  }
}

u16 Instr::dst_reg_span() const {
  if (op == Opcode::kHmma) return 4;  // D fragment: 4 registers per lane
  if (op == Opcode::kLdg || op == Opcode::kLds) return mem_width == 8 ? 2 : 1;
  if (dtype == DType::kU64 || dtype == DType::kF64) return 2;
  return 1;
}

InstrGroup instr_group(const Instr& instr) {
  switch (instr.op) {
    case Opcode::kNop:
    case Opcode::kExit:
    case Opcode::kBra:
    case Opcode::kSsy:
    case Opcode::kSync:
    case Opcode::kBar:
      return InstrGroup::kControl;
    case Opcode::kMov:
    case Opcode::kSel:
    case Opcode::kS2r:
    case Opcode::kLdc:
    case Opcode::kIAdd:
    case Opcode::kIMul:
    case Opcode::kIMnmx:
    case Opcode::kLop:
    case Opcode::kShf:
    case Opcode::kPopc:
      return InstrGroup::kInt;
    case Opcode::kIMad:
      return InstrGroup::kIntMad;
    case Opcode::kFAdd:
    case Opcode::kFMul:
    case Opcode::kFMnmx:
    case Opcode::kMufu:
    case Opcode::kF2I:
    case Opcode::kI2F:
    case Opcode::kF2F:
      return instr.dtype == DType::kF64 ? InstrGroup::kFp64 : InstrGroup::kFp32;
    case Opcode::kFFma:
      return instr.dtype == DType::kF64 ? InstrGroup::kFp64
                                        : InstrGroup::kFp32Fma;
    case Opcode::kISetp:
    case Opcode::kFSetp:
      return InstrGroup::kSetp;
    case Opcode::kLdg:
    case Opcode::kLds:
      return InstrGroup::kLoad;
    case Opcode::kStg:
    case Opcode::kSts:
      return InstrGroup::kStore;
    case Opcode::kAtomG:
    case Opcode::kAtomS:
      return InstrGroup::kAtomic;
    case Opcode::kShfl:
    case Opcode::kVote:
      return InstrGroup::kWarpComm;
    case Opcode::kHmma:
      return InstrGroup::kMma;
  }
  return InstrGroup::kControl;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "NOP";
    case Opcode::kExit: return "EXIT";
    case Opcode::kBra: return "BRA";
    case Opcode::kSsy: return "SSY";
    case Opcode::kSync: return "SYNC";
    case Opcode::kBar: return "BAR";
    case Opcode::kMov: return "MOV";
    case Opcode::kSel: return "SEL";
    case Opcode::kS2r: return "S2R";
    case Opcode::kLdc: return "LDC";
    case Opcode::kIAdd: return "IADD";
    case Opcode::kIMul: return "IMUL";
    case Opcode::kIMad: return "IMAD";
    case Opcode::kIMnmx: return "IMNMX";
    case Opcode::kISetp: return "ISETP";
    case Opcode::kLop: return "LOP";
    case Opcode::kShf: return "SHF";
    case Opcode::kPopc: return "POPC";
    case Opcode::kFAdd: return "FADD";
    case Opcode::kFMul: return "FMUL";
    case Opcode::kFFma: return "FFMA";
    case Opcode::kFMnmx: return "FMNMX";
    case Opcode::kFSetp: return "FSETP";
    case Opcode::kMufu: return "MUFU";
    case Opcode::kF2I: return "F2I";
    case Opcode::kI2F: return "I2F";
    case Opcode::kF2F: return "F2F";
    case Opcode::kLdg: return "LDG";
    case Opcode::kStg: return "STG";
    case Opcode::kLds: return "LDS";
    case Opcode::kSts: return "STS";
    case Opcode::kAtomG: return "ATOMG";
    case Opcode::kAtomS: return "ATOMS";
    case Opcode::kShfl: return "SHFL";
    case Opcode::kVote: return "VOTE";
    case Opcode::kHmma: return "HMMA";
  }
  return "???";
}

const char* dtype_name(DType dtype) {
  switch (dtype) {
    case DType::kU32: return "U32";
    case DType::kS32: return "S32";
    case DType::kU64: return "U64";
    case DType::kF32: return "F32";
    case DType::kF64: return "F64";
  }
  return "???";
}

const char* group_name(InstrGroup group) {
  switch (group) {
    case InstrGroup::kInt: return "INT";
    case InstrGroup::kIntMad: return "IMAD";
    case InstrGroup::kFp32: return "FP32";
    case InstrGroup::kFp32Fma: return "FP32-FMA";
    case InstrGroup::kFp64: return "FP64";
    case InstrGroup::kSetp: return "SETP";
    case InstrGroup::kLoad: return "LOAD";
    case InstrGroup::kStore: return "STORE";
    case InstrGroup::kAtomic: return "ATOMIC";
    case InstrGroup::kWarpComm: return "WARP-COMM";
    case InstrGroup::kMma: return "MMA";
    case InstrGroup::kControl: return "CTRL";
  }
  return "???";
}

namespace {

std::string operand_to_string(const Operand& operand) {
  switch (operand.kind) {
    case OperandKind::kNone:
      return "";
    case OperandKind::kReg:
      if (operand.index == kRegZ) return "RZ";
      return std::string("R").append(std::to_string(operand.index));
    case OperandKind::kImm: {
      char buffer[24];
      std::snprintf(buffer, sizeof(buffer), "0x%llx",
                    static_cast<unsigned long long>(operand.imm));
      return buffer;
    }
    case OperandKind::kPred:
      return std::string(operand.negated ? "!P" : "P") +
             (operand.index == kPredT ? "T" : std::to_string(operand.index));
  }
  return "?";
}

}  // namespace

std::string to_string(const Instr& instr) {
  std::ostringstream out;
  if (instr.guard_pred != kPredT || instr.guard_negated) {
    out << "@" << (instr.guard_negated ? "!" : "") << "P"
        << static_cast<int>(instr.guard_pred) << " ";
  }
  out << opcode_name(instr.op) << "." << dtype_name(instr.dtype);
  bool first = true;
  auto append = [&](const std::string& text) {
    if (text.empty()) return;
    out << (first ? " " : ", ") << text;
    first = false;
  };
  append(operand_to_string(instr.dst));
  for (const auto& src : instr.src) append(operand_to_string(src));
  if (instr.target >= 0) append("-> " + std::to_string(instr.target));
  else if (!instr.label.empty()) append("-> " + instr.label);
  return out.str();
}

}  // namespace gfi::sim
