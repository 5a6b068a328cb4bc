#include "sassim/kernel_builder.h"

#include <algorithm>

namespace gfi::sim {

KernelBuilder::Label KernelBuilder::new_label() {
  label_pos_.push_back(-1);
  return static_cast<Label>(label_pos_.size() - 1);
}

void KernelBuilder::bind(Label label) {
  label_pos_[label] = static_cast<i64>(code_.size());
}

void KernelBuilder::note_reg(const Operand& operand, u16 span) {
  if (!operand.is_reg() || operand.index == kRegZ) return;
  num_regs_ = std::max<u16>(num_regs_, static_cast<u16>(operand.index + span));
}

void KernelBuilder::note_dst(const Instr& instr) {
  if (instr.writes_reg() || instr.op == Opcode::kHmma) {
    note_reg(instr.dst, instr.dst_reg_span());
  }
}

std::size_t KernelBuilder::emit(Instr instr) {
  const u16 wide =
      (instr.dtype == DType::kU64 || instr.dtype == DType::kF64) ? 2 : 1;
  note_dst(instr);
  // HMMA fragments span several registers per lane.
  if (instr.op == Opcode::kHmma) {
    note_reg(instr.src[0], 4);
    note_reg(instr.src[1], 2);
    note_reg(instr.src[2], 4);
  } else {
    for (const auto& src : instr.src) note_reg(src, wide);
  }
  code_.push_back(std::move(instr));
  return code_.size() - 1;
}

void KernelBuilder::guard_last(u8 pred, bool negated) {
  code_.back().guard_pred = pred;
  code_.back().guard_negated = negated;
}

std::size_t KernelBuilder::emit_op(Opcode op, DType dtype, u8 sub, Operand dst,
                                   Operand a, Operand b, Operand c) {
  Instr instr;
  instr.op = op;
  instr.dtype = dtype;
  instr.sub = sub;
  instr.dst = dst;
  instr.src[0] = a;
  instr.src[1] = b;
  instr.src[2] = c;
  return emit(std::move(instr));
}

// --- control flow ------------------------------------------------------------

void KernelBuilder::nop() { emit_op(Opcode::kNop, DType::kU32, 0, {}, {}); }

void KernelBuilder::exit_() {
  emit_op(Opcode::kExit, DType::kU32, 0, {}, {});
}

void KernelBuilder::exit_if(u8 pred, bool negated) {
  exit_();
  guard_last(pred, negated);
}

void KernelBuilder::bar() { emit_op(Opcode::kBar, DType::kU32, 0, {}, {}); }

void KernelBuilder::bra(Label target, u8 guard, bool negated) {
  const std::size_t idx = emit_op(Opcode::kBra, DType::kU32, 0, {}, {});
  code_[idx].guard_pred = guard;
  code_[idx].guard_negated = negated;
  fixups_.emplace_back(idx, target);
}

void KernelBuilder::ssy(Label reconv) {
  const std::size_t idx = emit_op(Opcode::kSsy, DType::kU32, 0, {}, {});
  fixups_.emplace_back(idx, reconv);
}

void KernelBuilder::sync_() { emit_op(Opcode::kSync, DType::kU32, 0, {}, {}); }

void KernelBuilder::if_then(u8 pred, bool negated,
                            const std::function<void()>& then_body) {
  const Label l_sync = new_label();
  ssy(l_sync);
  bra(l_sync, pred, !negated);  // lanes failing the condition skip the body
  then_body();
  bind(l_sync);
  sync_();
}

void KernelBuilder::if_then_else(u8 pred, bool negated,
                                 const std::function<void()>& then_body,
                                 const std::function<void()>& else_body) {
  const Label l_else = new_label();
  const Label l_sync = new_label();
  ssy(l_sync);
  bra(l_else, pred, !negated);  // false lanes take the else path
  then_body();
  bra(l_sync);
  bind(l_else);
  else_body();
  bind(l_sync);
  sync_();
}

void KernelBuilder::uniform_loop(u16 counter, Operand bound, u8 scratch_pred,
                                 const std::function<void()>& body) {
  const Label l_top = new_label();
  bind(l_top);
  body();
  iadd_u32(counter, Operand::reg(counter), Operand::imm_u(1));
  isetp(CmpOp::kLt, scratch_pred, Operand::reg(counter), bound, DType::kU32);
  bra(l_top, scratch_pred);
}

// --- moves -------------------------------------------------------------------

void KernelBuilder::mov_u32(u16 dst, Operand a) {
  emit_op(Opcode::kMov, DType::kU32, 0, Operand::reg(dst), a);
}

void KernelBuilder::mov_f32(u16 dst, f32 value) {
  emit_op(Opcode::kMov, DType::kF32, 0, Operand::reg(dst),
          Operand::imm_f32(value));
}

void KernelBuilder::mov_u64(u16 dst, u64 value) {
  emit_op(Opcode::kMov, DType::kU64, 0, Operand::reg(dst),
          Operand::imm_u(value));
}

void KernelBuilder::sel(u16 dst, Operand a, Operand b, u8 pred, bool negated) {
  emit_op(Opcode::kSel, DType::kU32, 0, Operand::reg(dst), a, b,
          Operand::pred(pred, negated));
}

void KernelBuilder::s2r(u16 dst, SpecialReg sr) {
  emit_op(Opcode::kS2r, DType::kU32, static_cast<u8>(sr), Operand::reg(dst),
          {});
}

void KernelBuilder::ldc_u32(u16 dst, u32 param_index) {
  num_params_ = std::max(num_params_, param_index + 1);
  emit_op(Opcode::kLdc, DType::kU32, 0, Operand::reg(dst),
          Operand::imm_u(param_index));
}

void KernelBuilder::ldc_u64(u16 dst, u32 param_index) {
  num_params_ = std::max(num_params_, param_index + 1);
  emit_op(Opcode::kLdc, DType::kU64, 0, Operand::reg(dst),
          Operand::imm_u(param_index));
}

// --- integer -----------------------------------------------------------------

void KernelBuilder::iadd_u32(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kIAdd, DType::kU32, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::iadd_u64(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kIAdd, DType::kU64, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::imul_u32(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kIMul, DType::kU32, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::imad_u32(u16 dst, Operand a, Operand b, Operand c) {
  emit_op(Opcode::kIMad, DType::kU32, 0, Operand::reg(dst), a, b, c);
}

void KernelBuilder::imad_wide(u16 dst, Operand a, Operand b, Operand c) {
  emit_op(Opcode::kIMad, DType::kU64, 0, Operand::reg(dst), a, b, c);
}

void KernelBuilder::imnmx_s32(u16 dst, Operand a, Operand b, MinMax mm) {
  emit_op(Opcode::kIMnmx, DType::kS32, static_cast<u8>(mm), Operand::reg(dst),
          a, b);
}

void KernelBuilder::imnmx_u32(u16 dst, Operand a, Operand b, MinMax mm) {
  emit_op(Opcode::kIMnmx, DType::kU32, static_cast<u8>(mm), Operand::reg(dst),
          a, b);
}

void KernelBuilder::isetp(CmpOp cmp, u8 dst_pred, Operand a, Operand b,
                          DType dtype) {
  emit_op(Opcode::kISetp, dtype, static_cast<u8>(cmp), Operand::pred(dst_pred),
          a, b);
}

void KernelBuilder::lop(LopKind kind, u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kLop, DType::kU32, static_cast<u8>(kind), Operand::reg(dst),
          a, b);
}

void KernelBuilder::shf(ShiftKind kind, u16 dst, Operand a, Operand amount,
                        DType dtype) {
  emit_op(Opcode::kShf, dtype, static_cast<u8>(kind), Operand::reg(dst), a,
          amount);
}

void KernelBuilder::popc(u16 dst, Operand a) {
  emit_op(Opcode::kPopc, DType::kU32, 0, Operand::reg(dst), a);
}

// --- floating point ----------------------------------------------------------

void KernelBuilder::fadd_f32(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kFAdd, DType::kF32, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::fmul_f32(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kFMul, DType::kF32, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::ffma_f32(u16 dst, Operand a, Operand b, Operand c) {
  emit_op(Opcode::kFFma, DType::kF32, 0, Operand::reg(dst), a, b, c);
}

void KernelBuilder::fmnmx_f32(u16 dst, Operand a, Operand b, MinMax mm) {
  emit_op(Opcode::kFMnmx, DType::kF32, static_cast<u8>(mm), Operand::reg(dst),
          a, b);
}

void KernelBuilder::fadd_f64(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kFAdd, DType::kF64, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::fmul_f64(u16 dst, Operand a, Operand b) {
  emit_op(Opcode::kFMul, DType::kF64, 0, Operand::reg(dst), a, b);
}

void KernelBuilder::ffma_f64(u16 dst, Operand a, Operand b, Operand c) {
  emit_op(Opcode::kFFma, DType::kF64, 0, Operand::reg(dst), a, b, c);
}

void KernelBuilder::fsetp(CmpOp cmp, u8 dst_pred, Operand a, Operand b,
                          DType dtype) {
  emit_op(Opcode::kFSetp, dtype, static_cast<u8>(cmp), Operand::pred(dst_pred),
          a, b);
}

void KernelBuilder::mufu(MufuKind kind, u16 dst, Operand a) {
  emit_op(Opcode::kMufu, DType::kF32, static_cast<u8>(kind), Operand::reg(dst),
          a);
}

void KernelBuilder::f2i(u16 dst, Operand a, DType src_type) {
  emit_op(Opcode::kF2I, src_type, 0, Operand::reg(dst), a);
}

void KernelBuilder::i2f(u16 dst, Operand a, DType dst_type) {
  emit_op(Opcode::kI2F, dst_type, 0, Operand::reg(dst), a);
}

void KernelBuilder::f2f_widen(u16 dst, Operand a) {
  emit_op(Opcode::kF2F, DType::kF64, 0, Operand::reg(dst), a);
}

void KernelBuilder::f2f_narrow(u16 dst, Operand a) {
  emit_op(Opcode::kF2F, DType::kF32, 0, Operand::reg(dst), a);
}

// --- memory ----------------------------------------------------------------

void KernelBuilder::ldg(u16 dst, u16 addr_reg, u64 offset, u8 width) {
  Instr instr;
  instr.op = Opcode::kLdg;
  instr.dtype = width == 8 ? DType::kU64 : DType::kU32;
  instr.dst = Operand::reg(dst);
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = Operand::imm_u(offset);
  instr.mem_width = width;
  note_reg(Operand::reg(addr_reg), 2);  // address registers are 64-bit pairs
  emit(std::move(instr));
}

void KernelBuilder::stg(u16 addr_reg, u16 src, u64 offset, u8 width) {
  Instr instr;
  instr.op = Opcode::kStg;
  instr.dtype = width == 8 ? DType::kU64 : DType::kU32;
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = Operand::imm_u(offset);
  instr.src[2] = Operand::reg(src);
  instr.mem_width = width;
  note_reg(Operand::reg(addr_reg), 2);
  note_reg(Operand::reg(src), width == 8 ? 2 : 1);
  emit(std::move(instr));
}

void KernelBuilder::lds(u16 dst, u16 addr_reg, u64 offset, u8 width) {
  Instr instr;
  instr.op = Opcode::kLds;
  instr.dtype = width == 8 ? DType::kU64 : DType::kU32;
  instr.dst = Operand::reg(dst);
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = Operand::imm_u(offset);
  instr.mem_width = width;
  emit(std::move(instr));
}

void KernelBuilder::sts(u16 addr_reg, u16 src, u64 offset, u8 width) {
  Instr instr;
  instr.op = Opcode::kSts;
  instr.dtype = width == 8 ? DType::kU64 : DType::kU32;
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = Operand::imm_u(offset);
  instr.src[2] = Operand::reg(src);
  instr.mem_width = width;
  note_reg(Operand::reg(src), width == 8 ? 2 : 1);
  emit(std::move(instr));
}

void KernelBuilder::atomg(AtomKind kind, u16 dst, u16 addr_reg, Operand a,
                          Operand b, DType dtype) {
  Instr instr;
  instr.op = Opcode::kAtomG;
  instr.dtype = dtype;
  instr.sub = static_cast<u8>(kind);
  instr.dst = dst == kRegZ ? Operand::reg(kRegZ) : Operand::reg(dst);
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = a;
  instr.src[2] = b;
  instr.mem_width = 4;
  note_reg(Operand::reg(addr_reg), 2);
  emit(std::move(instr));
}

void KernelBuilder::atoms(AtomKind kind, u16 dst, u16 addr_reg, Operand a,
                          Operand b, DType dtype) {
  Instr instr;
  instr.op = Opcode::kAtomS;
  instr.dtype = dtype;
  instr.sub = static_cast<u8>(kind);
  instr.dst = dst == kRegZ ? Operand::reg(kRegZ) : Operand::reg(dst);
  instr.src[0] = Operand::reg(addr_reg);
  instr.src[1] = a;
  instr.src[2] = b;
  instr.mem_width = 4;
  emit(std::move(instr));
}

// --- warp level -----------------------------------------------------------

void KernelBuilder::shfl(ShflKind kind, u16 dst, u16 src, Operand lane) {
  emit_op(Opcode::kShfl, DType::kU32, static_cast<u8>(kind), Operand::reg(dst),
          Operand::reg(src), lane);
}

void KernelBuilder::vote(VoteKind kind, Operand dst, u8 src_pred,
                         bool negated) {
  emit_op(Opcode::kVote, DType::kU32, static_cast<u8>(kind), dst,
          Operand::pred(src_pred, negated));
}

void KernelBuilder::hmma(u16 d_base, u16 a_base, u16 b_base, u16 c_base) {
  emit_op(Opcode::kHmma, DType::kF32, 0, Operand::reg(d_base),
          Operand::reg(a_base), Operand::reg(b_base), Operand::reg(c_base));
}

// --- finalize ----------------------------------------------------------------

Result<Program> KernelBuilder::build() {
  for (const auto& [instr_index, label] : fixups_) {
    const i64 pos = label_pos_[label];
    if (pos < 0) {
      return Status::invalid_argument("kernel '" + name_ + "': label " +
                                      std::to_string(label) + " never bound");
    }
    code_[instr_index].target = static_cast<i32>(pos);
  }
  Program program(name_, std::move(code_), num_regs_, shared_bytes_,
                  num_params_);
  if (Status status = program.validate(); !status.is_ok()) return status;
  return program;
}

}  // namespace gfi::sim
