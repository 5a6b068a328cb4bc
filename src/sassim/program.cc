#include "sassim/program.h"

#include <span>
#include <sstream>

#include "sassim/decoded.h"

namespace gfi::sim {

Program::~Program() = default;

Program::Program(const Program& other)
    : name_(other.name_),
      code_(other.code_),
      num_regs_(other.num_regs_),
      shared_bytes_(other.shared_bytes_),
      num_params_(other.num_params_) {}

Program& Program::operator=(const Program& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  code_ = other.code_;
  num_regs_ = other.num_regs_;
  shared_bytes_ = other.shared_bytes_;
  num_params_ = other.num_params_;
  decoded_ptr_.store(nullptr, std::memory_order_relaxed);
  decoded_.reset();
  return *this;
}

Program::Program(Program&& other) noexcept
    : name_(std::move(other.name_)),
      code_(std::move(other.code_)),
      num_regs_(other.num_regs_),
      shared_bytes_(other.shared_bytes_),
      num_params_(other.num_params_) {}

Program& Program::operator=(Program&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  code_ = std::move(other.code_);
  num_regs_ = other.num_regs_;
  shared_bytes_ = other.shared_bytes_;
  num_params_ = other.num_params_;
  decoded_ptr_.store(nullptr, std::memory_order_relaxed);
  decoded_.reset();
  return *this;
}

const DecodedProgram& Program::decoded() const {
  if (const DecodedProgram* cached =
          decoded_ptr_.load(std::memory_order_acquire)) {
    return *cached;
  }
  std::lock_guard<std::mutex> lock(decode_mu_);
  if (!decoded_) {
    decoded_ = std::make_unique<const DecodedProgram>(
        std::span<const Instr>(code_));
    decoded_ptr_.store(decoded_.get(), std::memory_order_release);
  }
  return *decoded_;
}

std::string Program::disassemble() const {
  std::ostringstream out;
  out << ".kernel " << name_ << "  regs=" << num_regs_
      << " shared=" << shared_bytes_ << "B params=" << num_params_ << "\n";
  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    out << "  /*" << pc << "*/ " << to_string(code_[pc]) << "\n";
  }
  return out.str();
}

Status Program::validate() const {
  if (code_.empty()) {
    return Status::invalid_argument("program '" + name_ + "' is empty");
  }
  auto err = [this](std::size_t pc, const std::string& what) {
    return Status::invalid_argument("program '" + name_ + "' pc=" +
                                    std::to_string(pc) + ": " + what);
  };

  for (std::size_t pc = 0; pc < code_.size(); ++pc) {
    const Instr& instr = code_[pc];

    // Control-flow targets must be resolved and in range.
    if (instr.op == Opcode::kBra || instr.op == Opcode::kSsy) {
      if (!instr.label.empty()) {
        return err(pc, "unresolved label " + instr.label);
      }
      if (instr.target < 0 ||
          static_cast<std::size_t>(instr.target) >= code_.size()) {
        return err(pc, "branch target out of range");
      }
      if (instr.op == Opcode::kSsy &&
          code_[static_cast<std::size_t>(instr.target)].op != Opcode::kSync) {
        return err(pc, "SSY target is not a SYNC");
      }
    }

    // Register indices must fit the declared register budget.
    auto check_reg = [&](const Operand& operand, u16 span) -> Status {
      if (!operand.is_reg() || operand.index == kRegZ) return Status::ok();
      if (operand.index + span > num_regs_) {
        return err(pc, "register R" + std::to_string(operand.index) +
                           " exceeds declared budget of " +
                           std::to_string(num_regs_));
      }
      return Status::ok();
    };
    const u16 wide = (instr.dtype == DType::kU64 || instr.dtype == DType::kF64)
                         ? 2
                         : 1;
    if (instr.writes_reg()) {
      if (Status s = check_reg(instr.dst, instr.dst_reg_span()); !s.is_ok())
        return s;
    }
    for (const auto& src : instr.src) {
      if (Status s = check_reg(src, wide); !s.is_ok()) return s;
    }

    // Predicate indices.
    if (instr.guard_pred >= kNumPredicates) {
      return err(pc, "bad guard predicate");
    }
    if (instr.writes_pred()) {
      if (!instr.dst.is_pred() || instr.dst.index >= kNumPredicates) {
        return err(pc, "predicate-writing op needs a predicate destination");
      }
      if (instr.dst.index == kPredT) return err(pc, "cannot write PT");
    }

    // Memory width sanity.
    if (instr.is_memory()) {
      const u8 w = instr.mem_width;
      if (w != 1 && w != 2 && w != 4 && w != 8) {
        return err(pc, "unsupported memory width " + std::to_string(w));
      }
    }
  }

  // Last reachable instruction should be able to end the kernel; we require
  // at least one EXIT somewhere.
  bool has_exit = false;
  for (const auto& instr : code_) {
    if (instr.op == Opcode::kExit) has_exit = true;
  }
  if (!has_exit) {
    return Status::invalid_argument("program '" + name_ + "' has no EXIT");
  }
  return Status::ok();
}

}  // namespace gfi::sim
