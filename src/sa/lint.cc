#include "sa/lint.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "sa/ace.h"
#include "sa/bitlive.h"
#include "sa/cfg.h"
#include "sa/dataflow.h"
#include "sassim/defuse.h"

namespace gfi::sa {

using sim::DefUse;
using sim::Instr;
using sim::Opcode;

namespace {

constexpr u32 kAllBits = 0xffffffffu;

void add(LintReport& report, LintCheck check, Severity severity, u32 pc,
         std::string message) {
  report.findings.push_back(
      LintFinding{check, severity, pc, std::move(message)});
}

bool is_atomic(Opcode op) {
  return op == Opcode::kAtomG || op == Opcode::kAtomS;
}

/// Constant value of `reg` at entry of `pc`, when every reaching definition
/// is an unguarded 32-bit `MOV reg, imm` and the zero-init pseudo-def does
/// not reach. Appends each possible value to `values`; returns false when
/// the register is not provably constant.
bool const_values(const sim::Program& program, const ReachingDefs& reaching,
                  u32 pc, u16 reg, std::vector<u32>& values) {
  if (reaching.reg_may_be_uninit(pc, reg)) return false;
  const std::vector<u32> defs = reaching.reaching_defs(pc, reg);
  if (defs.empty()) return false;
  for (u32 def_pc : defs) {
    const Instr& def = program.at(def_pc);
    if (def.op != Opcode::kMov || !def.src[0].is_imm() ||
        def.dtype == sim::DType::kU64 || def.dtype == sim::DType::kF64 ||
        !def.dst.is_reg() || def.dst.index != reg) {
      return false;
    }
    values.push_back(static_cast<u32>(def.src[0].imm));
  }
  return true;
}

void check_shared_bounds(const sim::Program& program, const Cfg& cfg,
                         const ReachingDefs& reaching, LintReport& report) {
  for (u32 pc = 0; pc < program.size(); ++pc) {
    if (!cfg.pc_reachable(pc)) continue;
    const Instr& instr = program.at(pc);
    if (instr.op != Opcode::kLds && instr.op != Opcode::kSts &&
        instr.op != Opcode::kAtomS) {
      continue;
    }
    const u32 width =
        instr.op == Opcode::kAtomS ? 4u : static_cast<u32>(instr.mem_width);
    u64 offset = 0;
    if (instr.op != Opcode::kAtomS && instr.src[1].is_imm()) {
      offset = instr.src[1].imm;
    }
    std::vector<u32> bases;
    if (instr.src[0].is_imm()) {
      bases.push_back(static_cast<u32>(instr.src[0].imm));
    } else if (instr.src[0].is_reg()) {
      if (instr.src[0].index == sim::kRegZ) {
        bases.push_back(0);
      } else if (!const_values(program, reaching, pc, instr.src[0].index,
                               bases)) {
        continue;  // address not provably constant
      }
    } else {
      continue;
    }
    for (u32 base : bases) {
      const u64 end = static_cast<u64>(base) + offset + width;
      if (end > program.shared_bytes()) {
        std::ostringstream msg;
        msg << sim::opcode_name(instr.op) << " accesses shared ["
            << (base + offset) << ", " << end << ") beyond declared "
            << program.shared_bytes() << " bytes";
        add(report, LintCheck::kSharedOutOfBounds, Severity::kError, pc,
            msg.str());
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Partially-uninitialised reads: forward bit-taint. A register bit is
// tainted when its value can still be the launch state no instruction ever
// wrote; defs clear taint, but a def *derived from* a tainted source keeps
// the taint alive at bit granularity (the forward face of bitlive.h's
// backward transfers). A read whose demanded bits intersect the taint — on a
// register ReachingDefs considers fully defined, so kUninitRegRead stays
// silent — publishes partially-uninitialised data.
// ---------------------------------------------------------------------------

/// Forward per-instruction taint transfer, keyed by sim::bit_semantics.
class TaintTransfer {
 public:
  TaintTransfer(const sim::DecodedProgram& dec, u32 num_regs)
      : dec_(&dec), num_regs_(num_regs) {}

  void apply(u32 pc, std::vector<u32>& taint) const {
    const sim::DecodedInstr& d = dec_->at(pc);
    const DefUse& du = dec_->def_use(pc);
    if (du.dst_regs.empty()) return;

    const bool wide = d.wide;
    auto src_taint = [&](const sim::DecodedOperand& o, u16 s) -> u32 {
      if (o.kind != sim::OperandKind::kReg || o.index == sim::kRegZ) return 0;
      const u32 r = static_cast<u32>(o.index) + s;
      return r < num_regs_ ? taint[r] : 0;
    };
    auto any_src_taint = [&]() -> u32 {
      u32 acc = 0;
      for (u16 r : du.src_regs) {
        if (r < num_regs_) acc |= taint[r];
      }
      return acc;
    };

    u32 nt[4] = {0, 0, 0, 0};  // new taint per dst register offset
    switch (sim::bit_semantics(d.op)) {
      case sim::BitSemantics::kNone:
      case sim::BitSemantics::kMemory:
        break;  // S2R/LDC/load/atomic results are system- or memory-defined
      case sim::BitSemantics::kCompare:
        break;  // predicate destinations are not taint-tracked

      case sim::BitSemantics::kPassThrough:
        for (u16 s = 0; s < (wide ? 2 : 1); ++s) {
          nt[s] = src_taint(d.src[0], s);
          if (d.op == Opcode::kSel) nt[s] |= src_taint(d.src[1], s);
        }
        break;

      case sim::BitSemantics::kBitwise: {
        const auto kind = static_cast<sim::LopKind>(d.sub);
        for (u16 s = 0; s < (wide ? 2 : 1); ++s) {
          const sim::DecodedOperand& a = d.src[0];
          const sim::DecodedOperand& b = d.src[1];
          auto imm_half = [&](const sim::DecodedOperand& o) {
            return static_cast<u32>(o.imm >> (32 * s));
          };
          u32 t = src_taint(a, s) | src_taint(b, s);
          if (kind == sim::LopKind::kAnd) {
            // AND with 0 pins the bit to a defined value.
            if (b.is_imm()) t &= imm_half(b);
            if (a.is_imm()) t &= imm_half(a);
          } else if (kind == sim::LopKind::kOr) {
            // OR with 1 pins likewise.
            if (b.is_imm()) t &= ~imm_half(b);
            if (a.is_imm()) t &= ~imm_half(a);
          }
          nt[s] = t;
        }
        break;
      }

      case sim::BitSemantics::kShift: {
        const u32 width = wide ? 64 : 32;
        const u64 st =
            static_cast<u64>(src_taint(d.src[0], 0)) |
            (wide ? static_cast<u64>(src_taint(d.src[0], 1)) << 32 : 0);
        const sim::DecodedOperand& amount = d.src[1];
        u64 out = 0;
        if (amount.is_imm()) {
          const u32 k = static_cast<u32>(amount.imm) & (width - 1);
          switch (static_cast<sim::ShiftKind>(d.sub)) {
            case sim::ShiftKind::kLeft:
              out = st << k;  // shifted-in zeros are defined
              break;
            case sim::ShiftKind::kRightLogical:
              out = st >> k;
              break;
            case sim::ShiftKind::kRightArith:
              out = st >> k;
              if (k > 0 && ((st >> (width - 1)) & 1)) {
                out |= ((1ull << k) - 1) << (width - k);  // replicated sign
              }
              break;
          }
        } else {
          out = (st | src_taint(amount, 0)) ? ~0ull : 0;
        }
        if (width == 32) out &= 0xffffffffull;
        nt[0] = static_cast<u32>(out);
        nt[1] = static_cast<u32>(out >> 32);
        break;
      }

      case sim::BitSemantics::kCarry: {
        if (wide || d.dtype == sim::DType::kU64) {
          const u32 any = any_src_taint() ? kAllBits : 0;
          nt[0] = nt[1] = any;
        } else {
          // Carries move taint upward only: source bit i reaches dst [i, 31].
          nt[0] = smear_up(any_src_taint());
        }
        break;
      }

      case sim::BitSemantics::kAllOrNothing:
      case sim::BitSemantics::kCrossLane: {
        const u32 any = any_src_taint() ? kAllBits : 0;
        nt[0] = nt[1] = nt[2] = nt[3] = any;
        break;
      }
    }

    for (u16 r : du.dst_regs) {
      if (r >= num_regs_) continue;
      const u32 s = static_cast<u32>(r) - d.dst_index;
      const u32 v = s < 4 ? nt[s] : 0;
      taint[r] = d.guarded ? (taint[r] | v) : v;  // a guard cannot kill
    }
  }

 private:
  const sim::DecodedProgram* dec_;
  u32 num_regs_;
};

void check_partial_uninit(const sim::Program& program, const Cfg& cfg,
                          const Liveness& live, const ReachingDefs& reaching,
                          LintReport& report) {
  const u32 num_regs = program.num_regs();
  if (num_regs == 0 || cfg.empty()) return;
  const sim::DecodedProgram& dec = program.decoded();
  const BitLiveness bits = BitLiveness::compute(program, cfg, live);
  const TaintTransfer transfer(dec, num_regs);
  const auto& blocks = cfg.blocks();
  const u32 nblocks = static_cast<u32>(blocks.size());

  // Forward fixpoint, join = OR. The entry starts fully tainted (launch
  // state: no instruction has written anything yet); unreachable blocks are
  // never propagated into and report nothing.
  std::vector<std::vector<u32>> block_in(nblocks,
                                         std::vector<u32>(num_regs, 0));
  block_in[0].assign(num_regs, kAllBits);
  bool changed = true;
  while (changed) {
    changed = false;
    for (u32 b = 0; b < nblocks; ++b) {
      if (!blocks[b].reachable) continue;
      std::vector<u32> state = block_in[b];
      for (u32 pc = blocks[b].first; pc <= blocks[b].last; ++pc) {
        transfer.apply(pc, state);
      }
      for (u32 succ : blocks[b].succs) {
        for (u32 i = 0; i < num_regs; ++i) {
          const u32 next = block_in[succ][i] | state[i];
          if (next != block_in[succ][i]) {
            block_in[succ][i] = next;
            changed = true;
          }
        }
      }
    }
  }

  for (u32 b = 0; b < nblocks; ++b) {
    if (!blocks[b].reachable) continue;
    std::vector<u32> state = block_in[b];
    for (u32 pc = blocks[b].first; pc <= blocks[b].last; ++pc) {
      const DefUse& du = dec.def_use(pc);
      for (u16 r : du.src_regs) {
        if (r >= num_regs) continue;
        // Whole-register uninit reads are kUninitRegRead's finding; this
        // check owns the reads ReachingDefs considers fully defined.
        if (reaching.reg_may_be_uninit(pc, r)) continue;
        const u32 flagged = state[r] & bits.src_demand_mask(pc, r);
        if (flagged != 0) {
          std::ostringstream msg;
          msg << "R" << r << " bits 0x" << std::hex << flagged << std::dec
              << " consumed here trace back to launch state no instruction"
                 " wrote (partially-uninitialised value)";
          add(report, LintCheck::kPartialUninitRead, Severity::kWarning, pc,
              msg.str());
        }
      }
      transfer.apply(pc, state);
    }
  }
}

}  // namespace

LintReport lint(const sim::Program& program) {
  LintReport report;
  report.program = program.name();
  const u32 n = static_cast<u32>(program.size());
  if (n == 0) return report;

  const sim::DecodedProgram& dec = program.decoded();
  const Cfg cfg = Cfg::build(program);
  const Liveness live = Liveness::compute(program, cfg);
  const ReachingDefs reaching = ReachingDefs::compute(program, cfg);
  const SsyDepth depth = SsyDepth::compute(program);

  // Unreachable blocks.
  for (const BasicBlock& block : cfg.blocks()) {
    if (!block.reachable) {
      add(report, LintCheck::kUnreachableCode, Severity::kWarning, block.first,
          "block unreachable from kernel entry");
    }
  }

  // SSY/SYNC structure.
  for (u32 pc : depth.underflow_pcs) {
    add(report, LintCheck::kSyncUnderflow, Severity::kError, pc,
        "SYNC reachable with an empty SSY stack");
  }
  for (u32 pc : depth.mismatch_pcs) {
    add(report, LintCheck::kSsySyncImbalance, Severity::kWarning, pc,
        "paths join here with different SSY stack depths");
  }
  for (u32 pc : depth.exit_unbalanced_pcs) {
    add(report, LintCheck::kSsySyncImbalance, Severity::kWarning, pc,
        "unconditional EXIT inside an open SSY region");
  }

  for (u32 pc = 0; pc < n; ++pc) {
    if (!cfg.pc_reachable(pc)) continue;
    const Instr& instr = program.at(pc);
    const DefUse& du = dec.def_use(pc);

    // Reads of possibly never-defined registers / predicates. Registers are
    // zero-initialised at launch, so this is a warning, not an error.
    for (u16 r : du.src_regs) {
      if (reaching.reg_may_be_uninit(pc, r)) {
        std::ostringstream msg;
        msg << "R" << r << " may be read before any definition";
        add(report, LintCheck::kUninitRegRead, Severity::kWarning, pc,
            msg.str());
      }
    }
    for (u8 p = 0; p < sim::kPredT; ++p) {
      if (((du.src_preds >> p) & 1u) && reaching.pred_may_be_uninit(pc, p)) {
        std::ostringstream msg;
        msg << "P" << static_cast<int>(p)
            << " may be read before any definition";
        add(report, LintCheck::kUninitPredRead, Severity::kWarning, pc,
            msg.str());
      }
    }

    // Discarded writes. Atomics with an RZ destination are the idiomatic
    // "don't need the old value" form and are exempt.
    if (instr.dst.is_reg() && instr.dst.index == sim::kRegZ &&
        !instr.writes_pred() && !instr.is_control() && !instr.is_store() &&
        !is_atomic(instr.op) && instr.op != Opcode::kNop) {
      std::ostringstream msg;
      msg << sim::opcode_name(instr.op) << " writes RZ; result is discarded";
      add(report, LintCheck::kWriteToRZ, Severity::kWarning, pc, msg.str());
    }
    if (instr.writes_pred() && instr.dst.is_pred() &&
        instr.dst.index >= sim::kPredT) {
      add(report, LintCheck::kWriteToPT, Severity::kError, pc,
          "PT is not writable; the predicate write is dropped");
    }

    // Barrier under divergence: a guard can mask lanes off the barrier, and
    // inside an SSY region only the taken-path lanes arrive — both hang the
    // CTA on real hardware.
    if (instr.op == Opcode::kBar) {
      if (dec.guarded(pc)) {
        add(report, LintCheck::kDivergentBarrier, Severity::kWarning, pc,
            "BAR under a guard predicate: masked lanes never arrive");
      } else if (depth.at[pc] > 0) {
        std::ostringstream msg;
        msg << "BAR inside an open SSY region (depth " << depth.at[pc]
            << "): divergent lanes may never arrive";
        add(report, LintCheck::kDivergentBarrier, Severity::kWarning, pc,
            msg.str());
      }
    }

    // Dead values: side-effect-free result never read on any path. These
    // are exactly the sites the ACE pruning pass skips.
    if (instr.writes_reg() && !instr.is_memory()) {
      bool all_dead = !du.dst_regs.empty();
      for (u16 r : du.dst_regs) {
        if (live.reg_live_out(pc, r)) {
          all_dead = false;
          break;
        }
      }
      if (all_dead) {
        std::ostringstream msg;
        msg << "result of " << sim::opcode_name(instr.op)
            << " is never read (statically dead)";
        add(report, LintCheck::kDeadValue, Severity::kInfo, pc, msg.str());
      }
    }
    if (instr.writes_pred() && instr.dst.is_pred() &&
        instr.dst.index < sim::kPredT &&
        !live.pred_live_out(pc, static_cast<u8>(instr.dst.index))) {
      std::ostringstream msg;
      msg << "P" << static_cast<int>(instr.dst.index)
          << " set by " << sim::opcode_name(instr.op)
          << " is never read (statically dead)";
      add(report, LintCheck::kDeadValue, Severity::kInfo, pc, msg.str());
    }
  }

  check_shared_bounds(program, cfg, reaching, report);
  check_partial_uninit(program, cfg, live, reaching, report);

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const LintFinding& a, const LintFinding& b) {
                     if (a.pc != b.pc) return a.pc < b.pc;
                     return static_cast<int>(a.check) <
                            static_cast<int>(b.check);
                   });
  return report;
}

int LintReport::count(Severity severity) const {
  int total = 0;
  for (const LintFinding& finding : findings) {
    if (finding.severity == severity) ++total;
  }
  return total;
}

int LintReport::count(LintCheck check) const {
  int total = 0;
  for (const LintFinding& finding : findings) {
    if (finding.check == check) ++total;
  }
  return total;
}

const char* check_name(LintCheck check) {
  switch (check) {
    case LintCheck::kUninitRegRead:     return "uninit-reg-read";
    case LintCheck::kUninitPredRead:    return "uninit-pred-read";
    case LintCheck::kWriteToRZ:         return "write-to-rz";
    case LintCheck::kWriteToPT:         return "write-to-pt";
    case LintCheck::kSyncUnderflow:     return "sync-underflow";
    case LintCheck::kSsySyncImbalance:  return "ssy-sync-imbalance";
    case LintCheck::kDivergentBarrier:  return "divergent-barrier";
    case LintCheck::kSharedOutOfBounds: return "shared-out-of-bounds";
    case LintCheck::kUnreachableCode:   return "unreachable-code";
    case LintCheck::kDeadValue:         return "dead-value";
    case LintCheck::kPartialUninitRead: return "partial-uninit-read";
  }
  return "unknown";
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo:    return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError:   return "error";
  }
  return "unknown";
}

namespace {

void json_escape(std::ostream& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (c == '\n') {
      out << "\\n";
    } else {
      out << c;
    }
  }
}

}  // namespace

std::string to_json(const LintReport& report) {
  std::ostringstream out;
  out << "{\"program\": \"";
  json_escape(out, report.program);
  out << "\", \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const LintFinding& f = report.findings[i];
    if (i > 0) out << ", ";
    out << "{\"pc\": " << f.pc << ", \"check\": \"" << check_name(f.check)
        << "\", \"severity\": \"" << severity_name(f.severity)
        << "\", \"message\": \"";
    json_escape(out, f.message);
    out << "\"}";
  }
  out << "], \"errors\": " << report.count(Severity::kError)
      << ", \"warnings\": " << report.count(Severity::kWarning)
      << ", \"infos\": " << report.count(Severity::kInfo) << "}";
  return out.str();
}

namespace {

constexpr LintCheck kAllChecks[] = {
    LintCheck::kUninitRegRead,     LintCheck::kUninitPredRead,
    LintCheck::kWriteToRZ,         LintCheck::kWriteToPT,
    LintCheck::kSyncUnderflow,     LintCheck::kSsySyncImbalance,
    LintCheck::kDivergentBarrier,  LintCheck::kSharedOutOfBounds,
    LintCheck::kUnreachableCode,   LintCheck::kDeadValue,
    LintCheck::kPartialUninitRead,
};

const char* sarif_level(Severity severity) {
  switch (severity) {
    case Severity::kInfo:    return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError:   return "error";
  }
  return "none";
}

}  // namespace

std::string to_sarif(const std::vector<LintReport>& reports) {
  std::ostringstream out;
  out << "{\"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\", "
         "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
         "{\"name\": \"gpufi-lint\", \"rules\": [";
  for (std::size_t i = 0; i < std::size(kAllChecks); ++i) {
    if (i > 0) out << ", ";
    out << "{\"id\": \"" << check_name(kAllChecks[i])
        << "\", \"shortDescription\": {\"text\": \""
        << check_name(kAllChecks[i]) << "\"}}";
  }
  out << "]}}, \"results\": [";
  bool first = true;
  for (const LintReport& report : reports) {
    for (const LintFinding& f : report.findings) {
      if (!first) out << ", ";
      first = false;
      std::size_t rule_index = 0;
      for (std::size_t i = 0; i < std::size(kAllChecks); ++i) {
        if (kAllChecks[i] == f.check) rule_index = i;
      }
      out << "{\"ruleId\": \"" << check_name(f.check)
          << "\", \"ruleIndex\": " << rule_index << ", \"level\": \""
          << sarif_level(f.severity) << "\", \"message\": {\"text\": \"";
      json_escape(out, f.message);
      // The "file" is the kernel; pc maps to a 1-based virtual line so code
      // scanning UIs have a stable anchor per instruction.
      out << "\"}, \"locations\": [{\"physicalLocation\": "
             "{\"artifactLocation\": {\"uri\": \"";
      json_escape(out, report.program);
      out << ".sass\"}, \"region\": {\"startLine\": " << (f.pc + 1)
          << "}}}]}";
    }
  }
  out << "]}]}";
  return out.str();
}

}  // namespace gfi::sa
