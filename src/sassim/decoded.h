// Predecoded program representation: the simulator's per-kernel "decode
// pass", run once per Program and cached (Program::decoded()).
//
// The executor's inner loop used to re-derive everything per dynamic warp
// instruction: instr_group() lookups, guard-mask eligibility, operand-kind
// switches over `Operand`s sitting in an `Instr` array whose std::string
// label member wrecks cache density. DecodedInstr is the dense, label-free
// answer: every field the execution core, the profiler, the tracer, the
// static-analysis passes (src/sa), and the linter need, resolved once.
//
// A DecodedProgram is immutable after construction and shared read-only
// across any number of concurrent launches — exactly like the Program it
// mirrors (injection campaigns launch the same kernel from many host
// threads at once).
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "sassim/defuse.h"
#include "sassim/isa.h"

namespace gfi::sim {

/// Direct handler id for the threaded dispatch tier (exec_threaded.h).
/// Assigned once per pc by DecodedProgram's lowering pass, so the hook-free
/// interpreter jumps straight to a specialized handler instead of switching
/// on the opcode and then re-validating row-path eligibility per dynamic
/// instruction. kGeneric delegates to the generic dispatcher and is
/// always a correct (if slower) assignment; every other id encodes a
/// decode-time proof (operand kinds, dtype, width) that the corresponding
/// row path applies whenever its runtime preconditions hold.
enum class Handler : u8 {
  kGeneric,       ///< no specialization: generic dispatch switch

  // Control flow (bodies mirror the generic dispatcher's cases exactly).
  kExit,
  kBra,
  kSync,
  kBar,
  kSsy,

  // ALU row kernels (exec_vec.h), decode-proven eligible (vec_srcs,
  // dtype/width restrictions). They run under any exec mask: thr::alu
  // puts back the lanes outside it.
  kMov,
  kMov64,         ///< 64-bit MOV: register pair or 64-bit immediate
  kS2r,           ///< special registers from the launch and CTA shape
  kLdc,           ///< parameter broadcast; runtime check: index in range
  kSel,
  kIAdd,
  kIMul,
  kIMad32,        ///< 32-bit multiply-add
  kIMadWide,      ///< IMAD.WIDE (u32*u32+u64 -> pair); address idiom
  kIMnmx,
  kISetp,
  kLop,
  kShf,
  kPopc,
  kFArith,        ///< f32 FADD/FMUL/FMNMX
  kFFma,
  kFSetp,
  kI2F,

  // Row-wise memory ops (width-4, register base/data), decode-proven for
  // the exec_vec row kernels. Runtime check: every executing lane aligned
  // and in bounds (+ fault-free arena for global memory).
  kLdgRow,
  kStgRow,
  kLdsRow,
  kStsRow,
  /// Shared atomic (width 4, register address, register/immediate
  /// operands), applied lane by lane in lane order. Runtime check: every
  /// executing lane aligned and in bounds.
  kAtomsRow,
};

/// One resolved operand: the payload of `Operand` without any need to
/// consult the opcode again. kNone reads as 0, matching the executor.
struct DecodedOperand {
  u64 imm = 0;            ///< immediate payload (bit pattern)
  OperandKind kind = OperandKind::kNone;
  u16 index = 0;          ///< register or predicate index
  bool negated = false;   ///< predicate negation (kPred only)

  [[nodiscard]] bool is_imm() const { return kind == OperandKind::kImm; }
};

/// One predecoded instruction: the hot subset of `Instr` plus everything
/// that used to be recomputed per dynamic instance. Plain data, no strings.
struct DecodedInstr {
  DecodedOperand src[3];
  u32 target = 0;          ///< resolved branch/SSY destination
  Opcode op = Opcode::kNop;
  DType dtype = DType::kU32;
  u8 sub = 0;
  u8 mem_width = 4;
  InstrGroup group = InstrGroup::kControl;  ///< instr_group(), precomputed
  u8 guard_pred = kPredT;
  bool guard_negated = false;
  /// True when the guard can mask lanes off (anything but plain @PT). An
  /// unguarded instruction's exec mask is exactly the warp's active mask,
  /// so the threaded tier skips the per-lane guard scan entirely.
  bool guarded = false;
  bool wide = false;       ///< dtype spans a register pair (U64/F64)
  /// No source is a predicate: every consulted operand is a register,
  /// an immediate, or absent. Precondition of the threaded tier's
  /// ALU row kernels (operand fetch becomes a row load/broadcast).
  bool vec_srcs = false;
  OperandKind dst_kind = OperandKind::kNone;
  u16 dst_index = 0;
  /// Threaded-tier direct dispatch target; see Handler. The instrumented
  /// tier never reads this field.
  Handler handler = Handler::kGeneric;
};

/// The decode pass over a linked program: a dense DecodedInstr per pc plus
/// the def/use footprint table (sim::def_use) the dataflow passes, the
/// linter, and dead-site pruning all consume. Built once per kernel via
/// Program::decoded(); ~O(code size), trivially cheap next to any launch.
class DecodedProgram {
 public:
  explicit DecodedProgram(std::span<const Instr> code);

  [[nodiscard]] std::size_t size() const { return instrs_.size(); }
  [[nodiscard]] const DecodedInstr& at(std::size_t pc) const {
    return instrs_[pc];
  }
  /// Cached sim::def_use(code[pc]) — the executor-mirroring footprint.
  [[nodiscard]] const DefUse& def_use(std::size_t pc) const {
    return defuse_[pc];
  }
  [[nodiscard]] InstrGroup group(std::size_t pc) const {
    return instrs_[pc].group;
  }
  /// is_guarded(code[pc]): writes must not count as liveness kills.
  [[nodiscard]] bool guarded(std::size_t pc) const {
    return instrs_[pc].guarded;
  }

 private:
  std::vector<DecodedInstr> instrs_;
  std::vector<DefUse> defuse_;
};

}  // namespace gfi::sim
