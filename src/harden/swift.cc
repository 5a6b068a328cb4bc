#include "harden/swift.h"

#include <utility>
#include <vector>

namespace gfi::harden {
namespace {

using sim::CmpOp;
using sim::DType;
using sim::Instr;
using sim::Opcode;
using sim::Operand;
using sim::Program;

/// Predicate reserved for the check results.
constexpr u8 kCheckPred = 6;

/// Shifts register operands into the shadow bank; immediates, predicates
/// and RZ pass through.
Operand shadow(Operand operand, u16 offset) {
  if (operand.is_reg() && operand.index != sim::kRegZ) {
    operand.index = static_cast<u16>(operand.index + offset);
  }
  return operand;
}

/// ISETP.NE P6, R(reg), R(reg+offset) under the protected instruction's
/// guard: sets the check predicate when master and shadow diverge.
Instr make_check(u16 reg, u16 offset, const Instr& guarded_like) {
  Instr check;
  check.op = Opcode::kISetp;
  check.dtype = DType::kU32;
  check.sub = static_cast<u8>(CmpOp::kNe);
  check.dst = Operand::pred(kCheckPred);
  check.src[0] = Operand::reg(reg);
  check.src[1] = Operand::reg(static_cast<u16>(reg + offset));
  check.guard_pred = guarded_like.guard_pred;
  check.guard_negated = guarded_like.guard_negated;
  return check;
}

/// @P6 STG [0] — the deliberate trap: a detected mismatch becomes an
/// illegal-address DUE instead of escaping as an SDC.
Instr make_trap() {
  Instr trap;
  trap.op = Opcode::kStg;
  trap.dtype = DType::kU32;
  trap.mem_width = 4;
  trap.src[0] = Operand::reg(sim::kRegZ);  // address 0: below the arena
  trap.src[1] = Operand::imm_u(0);
  trap.src[2] = Operand::reg(sim::kRegZ);
  trap.guard_pred = kCheckPred;
  return trap;
}

/// MOV shadow(dst) <- dst for values entering the sphere of replication
/// (loads, parameters, special registers, atomic return values).
Instr make_copy(u16 dst, u16 span, u16 offset, const Instr& guarded_like) {
  Instr copy;
  copy.op = Opcode::kMov;
  copy.dtype = span == 2 ? DType::kU64 : DType::kU32;
  copy.dst = Operand::reg(static_cast<u16>(dst + offset));
  copy.src[0] = Operand::reg(dst);
  copy.guard_pred = guarded_like.guard_pred;
  copy.guard_negated = guarded_like.guard_negated;
  return copy;
}

}  // namespace

Result<Program> swift_harden(const Program& program, SwiftStats* stats) {
  const u16 regs = program.num_regs();
  if (regs == 0) {
    return Status::invalid_argument("cannot harden a register-free program");
  }
  const u16 offset = regs;
  if (2 * static_cast<u32>(regs) > 250) {
    return Status::failed_precondition(
        "register budget " + std::to_string(regs) +
        " leaves no room for a shadow bank");
  }
  for (const Instr& instr : program.code()) {
    if (instr.op == Opcode::kHmma) {
      return Status::failed_precondition(
          "HMMA kernels are out of SWIFT's scope (fragment duplication)");
    }
    if (instr.writes_pred() && instr.dst.index == kCheckPred) {
      return Status::failed_precondition("program already writes P6");
    }
    if (instr.guard_pred == kCheckPred) {
      return Status::failed_precondition("program already guards on P6");
    }
  }

  SwiftStats local;
  local.original_instrs = program.size();

  std::vector<Instr> out;
  out.reserve(program.size() * 2 + 2);
  std::vector<i32> new_index(program.size(), 0);

  // P6 := false for every lane before anything else.
  {
    Instr init;
    init.op = Opcode::kISetp;
    init.dtype = DType::kU32;
    init.sub = static_cast<u8>(CmpOp::kNe);
    init.dst = Operand::pred(kCheckPred);
    init.src[0] = Operand::reg(sim::kRegZ);
    init.src[1] = Operand::reg(sim::kRegZ);
    out.push_back(init);
  }

  auto emit_check = [&](u16 reg, u16 span, const Instr& like) {
    for (u16 s = 0; s < span; ++s) {
      out.push_back(make_check(static_cast<u16>(reg + s), offset, like));
      out.push_back(make_trap());
      ++local.checks;
    }
  };

  for (std::size_t idx = 0; idx < program.size(); ++idx) {
    const Instr& instr = program.at(idx);
    new_index[idx] = static_cast<i32>(out.size());

    switch (instr.op) {
      case Opcode::kStg:
      case Opcode::kSts: {
        // Verify the address and the stored value against their shadows.
        const u16 addr_span = instr.op == Opcode::kStg ? 2 : 1;
        if (instr.src[0].is_reg() && instr.src[0].index != sim::kRegZ) {
          emit_check(instr.src[0].index, addr_span, instr);
        }
        const u16 value_span = instr.mem_width == 8 ? 2 : 1;
        if (instr.src[2].is_reg() && instr.src[2].index != sim::kRegZ) {
          emit_check(instr.src[2].index, value_span, instr);
        }
        out.push_back(instr);
        break;
      }

      case Opcode::kAtomG:
      case Opcode::kAtomS: {
        const u16 addr_span = instr.op == Opcode::kAtomG ? 2 : 1;
        if (instr.src[0].is_reg() && instr.src[0].index != sim::kRegZ) {
          emit_check(instr.src[0].index, addr_span, instr);
        }
        for (int s : {1, 2}) {
          if (instr.src[s].is_reg() && instr.src[s].index != sim::kRegZ) {
            emit_check(instr.src[s].index, 1, instr);
          }
        }
        out.push_back(instr);
        if (instr.dst.is_reg() && instr.dst.index != sim::kRegZ) {
          out.push_back(make_copy(instr.dst.index, 1, offset, instr));
          ++local.duplicated;
        }
        break;
      }

      case Opcode::kLdg:
      case Opcode::kLds: {
        // A wrong address loads wrong data: verify it, then copy the loaded
        // value into the sphere.
        const u16 addr_span = instr.op == Opcode::kLdg ? 2 : 1;
        if (instr.src[0].is_reg() && instr.src[0].index != sim::kRegZ) {
          emit_check(instr.src[0].index, addr_span, instr);
        }
        out.push_back(instr);
        out.push_back(make_copy(instr.dst.index, instr.dst_reg_span(), offset,
                                instr));
        ++local.duplicated;
        break;
      }

      case Opcode::kLdc:
      case Opcode::kS2r: {
        out.push_back(instr);
        out.push_back(make_copy(instr.dst.index, instr.dst_reg_span(), offset,
                                instr));
        ++local.duplicated;
        break;
      }

      default: {
        out.push_back(instr);
        if (instr.writes_reg()) {
          Instr dup = instr;
          dup.dst = shadow(dup.dst, offset);
          for (Operand& src : dup.src) src = shadow(src, offset);
          out.push_back(std::move(dup));
          ++local.duplicated;
        }
        break;
      }
    }
  }

  // Retarget control flow onto the new instruction positions.
  for (Instr& instr : out) {
    if ((instr.op == Opcode::kBra || instr.op == Opcode::kSsy) &&
        instr.target >= 0) {
      instr.target = new_index[static_cast<std::size_t>(instr.target)];
    }
  }

  local.hardened_instrs = out.size();
  if (stats != nullptr) *stats = local;

  Program hardened(program.name() + "_swift", std::move(out),
                   static_cast<u16>(2 * regs), program.shared_bytes(),
                   program.num_params());
  if (Status status = hardened.validate(); !status.is_ok()) return status;
  return hardened;
}

namespace {

/// Delegates everything to the inner workload but launches the hardened
/// kernel.
class HardenedWorkload final : public wl::Workload {
 public:
  HardenedWorkload(std::unique_ptr<wl::Workload> inner, Program program)
      : inner_(std::move(inner)),
        name_(inner_->name() + "_swift"),
        program_(std::move(program)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return inner_->tolerance(); }
  Result<wl::LaunchSpec> setup(sim::Device& device) override {
    return inner_->setup(device);
  }
  Result<Checked> check(sim::Device& device) const override {
    return inner_->check(device);
  }

 private:
  std::unique_ptr<wl::Workload> inner_;
  std::string name_;
  Program program_;
};

}  // namespace

std::unique_ptr<wl::Workload> make_hardened(const std::string& inner_name) {
  auto inner = wl::make_workload(inner_name);
  if (!inner) return nullptr;
  auto hardened = swift_harden(inner->program());
  if (!hardened.is_ok()) return nullptr;
  return std::make_unique<HardenedWorkload>(std::move(inner),
                                            std::move(hardened).take());
}

void register_hardened_workloads() {
  static const bool done = [] {
    for (const std::string& name : wl::workload_names()) {
      if (auto probe = make_hardened(name); probe != nullptr) {
        wl::register_workload(name + "_swift",
                              [name] { return make_hardened(name); });
      }
    }
    return true;
  }();
  (void)done;
}

}  // namespace gfi::harden
