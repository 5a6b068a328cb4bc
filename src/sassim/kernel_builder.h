// Typed assembler for authoring kernels against the gpufi ISA.
//
// Workloads build their SASS-like kernels through this builder. It resolves
// labels, tracks the register/parameter footprint automatically, and offers
// structured-control-flow helpers (if_then, if_then_else, uniform_loop) that
// emit correct SSY/BRA/SYNC sequences so every divergence reconverges.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sassim/program.h"

namespace gfi::sim {

class KernelBuilder {
 public:
  using Label = u32;

  explicit KernelBuilder(std::string name) : name_(std::move(name)) {}

  // --- labels -------------------------------------------------------------
  [[nodiscard]] Label new_label();
  /// Binds `label` to the next emitted instruction.
  void bind(Label label);

  // --- raw emission ---------------------------------------------------------
  /// Emits an arbitrary instruction; returns its index. Register usage is
  /// tracked automatically.
  std::size_t emit(Instr instr);
  /// Applies an @P / @!P guard to the most recently emitted instruction.
  void guard_last(u8 pred, bool negated = false);

  // --- control flow ----------------------------------------------------------
  void nop();
  void exit_();
  /// Guarded exit: lanes satisfying the guard retire.
  void exit_if(u8 pred, bool negated = false);
  void bar();
  void bra(Label target, u8 guard = kPredT, bool negated = false);
  void ssy(Label reconv);
  void sync_();

  /// if (pred) { then_body() } with SIMT-safe reconvergence.
  void if_then(u8 pred, bool negated, const std::function<void()>& then_body);
  /// if (pred) { then_body() } else { else_body() }.
  void if_then_else(u8 pred, bool negated,
                    const std::function<void()>& then_body,
                    const std::function<void()>& else_body);
  /// do { body(); } while (++counter < bound) — counter pre-initialized by
  /// the caller; bound may be a register or immediate; `scratch_pred` is
  /// clobbered. Trip count must be >= 1 and warp-uniform.
  void uniform_loop(u16 counter, Operand bound, u8 scratch_pred,
                    const std::function<void()>& body);

  // --- moves, special registers, parameters ---------------------------------
  void mov_u32(u16 dst, Operand a);
  void mov_f32(u16 dst, f32 value);
  void mov_u64(u16 dst, u64 value);
  void sel(u16 dst, Operand a, Operand b, u8 pred, bool negated = false);
  void s2r(u16 dst, SpecialReg sr);
  void ldc_u32(u16 dst, u32 param_index);
  void ldc_u64(u16 dst, u32 param_index);

  // --- integer -----------------------------------------------------------
  void iadd_u32(u16 dst, Operand a, Operand b);
  void iadd_u64(u16 dst, Operand a, Operand b);
  void imul_u32(u16 dst, Operand a, Operand b);
  void imad_u32(u16 dst, Operand a, Operand b, Operand c);
  /// IMAD.WIDE: dst(pair) = u32(a) * u32(b) + c(pair).
  void imad_wide(u16 dst, Operand a, Operand b, Operand c);
  void imnmx_s32(u16 dst, Operand a, Operand b, MinMax mm);
  void imnmx_u32(u16 dst, Operand a, Operand b, MinMax mm);
  void isetp(CmpOp cmp, u8 dst_pred, Operand a, Operand b,
             DType dtype = DType::kU32);
  void lop(LopKind kind, u16 dst, Operand a, Operand b);
  void shf(ShiftKind kind, u16 dst, Operand a, Operand amount,
           DType dtype = DType::kU32);
  void popc(u16 dst, Operand a);

  // --- floating point ------------------------------------------------------
  void fadd_f32(u16 dst, Operand a, Operand b);
  void fmul_f32(u16 dst, Operand a, Operand b);
  void ffma_f32(u16 dst, Operand a, Operand b, Operand c);
  void fmnmx_f32(u16 dst, Operand a, Operand b, MinMax mm);
  void fadd_f64(u16 dst, Operand a, Operand b);
  void fmul_f64(u16 dst, Operand a, Operand b);
  void ffma_f64(u16 dst, Operand a, Operand b, Operand c);
  void fsetp(CmpOp cmp, u8 dst_pred, Operand a, Operand b,
             DType dtype = DType::kF32);
  void mufu(MufuKind kind, u16 dst, Operand a);
  void f2i(u16 dst, Operand a, DType src_type = DType::kF32);
  void i2f(u16 dst, Operand a, DType dst_type = DType::kF32);
  void f2f_widen(u16 dst, Operand a);   // F32 -> F64
  void f2f_narrow(u16 dst, Operand a);  // F64 -> F32

  // --- memory ----------------------------------------------------------------
  void ldg(u16 dst, u16 addr_reg, u64 offset = 0, u8 width = 4);
  void stg(u16 addr_reg, u16 src, u64 offset = 0, u8 width = 4);
  void lds(u16 dst, u16 addr_reg, u64 offset = 0, u8 width = 4);
  void sts(u16 addr_reg, u16 src, u64 offset = 0, u8 width = 4);
  void atomg(AtomKind kind, u16 dst, u16 addr_reg, Operand a,
             Operand b = Operand::none(), DType dtype = DType::kU32);
  void atoms(AtomKind kind, u16 dst, u16 addr_reg, Operand a,
             Operand b = Operand::none(), DType dtype = DType::kU32);

  // --- warp level ------------------------------------------------------------
  void shfl(ShflKind kind, u16 dst, u16 src, Operand lane);
  void vote(VoteKind kind, Operand dst, u8 src_pred, bool negated = false);
  /// m16n8k8 MMA: d_frag(4 regs) = a_frag(4) * b_frag(2) + c_frag(4).
  void hmma(u16 d_base, u16 a_base, u16 b_base, u16 c_base);

  // --- resources -------------------------------------------------------------
  /// Declares static shared memory for the kernel (bytes per CTA).
  void set_shared_bytes(u32 bytes) { shared_bytes_ = bytes; }

  /// Resolves labels, validates, and produces the immutable Program.
  [[nodiscard]] Result<Program> build();

 private:
  void note_reg(const Operand& operand, u16 span);
  void note_dst(const Instr& instr);
  std::size_t emit_op(Opcode op, DType dtype, u8 sub, Operand dst, Operand a,
                      Operand b = Operand::none(),
                      Operand c = Operand::none());

  std::string name_;
  std::vector<Instr> code_;
  std::vector<i64> label_pos_;                    ///< label -> instr index
  std::vector<std::pair<std::size_t, Label>> fixups_;  ///< branch -> label
  u16 num_regs_ = 0;
  u32 shared_bytes_ = 0;
  u32 num_params_ = 0;
};

}  // namespace gfi::sim
