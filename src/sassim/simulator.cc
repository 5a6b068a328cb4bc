#include "sassim/simulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>

#include "common/bitutil.h"
#include "sassim/decoded.h"
#include "sassim/exec_threaded.h"
#include "sassim/exec_vec.h"
#include "sassim/profiler.h"

namespace gfi::sim {
namespace {

constexpr u64 kDefaultWatchdog = 256ULL << 20;  // 256M warp instructions
constexpr u32 kFullMask = 0xffffffffu;

/// Integer compare dispatch for ISETP (and address compares).
bool int_compare(CmpOp cmp, u64 a, u64 b, DType dtype) {
  if (dtype == DType::kS32) {
    const i32 sa = static_cast<i32>(static_cast<u32>(a));
    const i32 sb = static_cast<i32>(static_cast<u32>(b));
    switch (cmp) {
      case CmpOp::kLt: return sa < sb;
      case CmpOp::kLe: return sa <= sb;
      case CmpOp::kGt: return sa > sb;
      case CmpOp::kGe: return sa >= sb;
      case CmpOp::kEq: return sa == sb;
      case CmpOp::kNe: return sa != sb;
    }
  }
  if (dtype == DType::kU32) {
    a = static_cast<u32>(a);
    b = static_cast<u32>(b);
  }
  switch (cmp) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

template <typename F>
bool fp_compare(CmpOp cmp, F a, F b) {
  switch (cmp) {
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
  }
  return false;
}

f32 mufu_eval(MufuKind kind, f32 x) {
  switch (kind) {
    case MufuKind::kRcp: return 1.0f / x;
    case MufuKind::kSqrt: return std::sqrt(x);
    case MufuKind::kRsq: return 1.0f / std::sqrt(x);
    case MufuKind::kExp2: return std::exp2(x);
    case MufuKind::kLog2: return std::log2(x);
    case MufuKind::kSin: return std::sin(x);
    case MufuKind::kCos: return std::cos(x);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Instrumentation policies
// ---------------------------------------------------------------------------
//
// The execution core is templated over one of these tags. The Instrumented
// instantiation reproduces the historical inner loop bit-for-bit:
// InstrContext built per dynamic instruction, guard mask computed before
// *and* after the on_before hooks (predicate injection must take effect),
// store addresses routed through transform_store_address. The Clean
// instantiation strips every one of those: no context, no hook dispatch, a
// single guard-mask computation with a fast path for unguarded (@PT)
// instructions. The Threaded instantiation replaces Clean's opcode switch
// with direct dispatch on the predecoded handler ids (exec_threaded.h) —
// same scheduler, same accounting, bit-identical observables. The Armed
// instantiation is the threaded tier with a strike pending: it counts the
// issues a StrikeRequest names and runs the requested one through the
// Instrumented exec_instr (see Engine::exec_armed).

struct CleanPolicy {
  static constexpr bool kInstrumented = false;
  static constexpr bool kThreaded = false;
  static constexpr bool kArmed = false;
};
struct InstrumentedPolicy {
  static constexpr bool kInstrumented = true;
  static constexpr bool kThreaded = false;
  static constexpr bool kArmed = false;
};
struct ThreadedPolicy {
  static constexpr bool kInstrumented = false;
  static constexpr bool kThreaded = true;
  static constexpr bool kArmed = false;
};
struct ArmedThreadedPolicy {
  static constexpr bool kInstrumented = false;
  static constexpr bool kThreaded = true;
  static constexpr bool kArmed = true;
};

/// How one engine run over the launch state ended.
enum class RunExit : u8 {
  kCompleted,   ///< every CTA retired
  kTrapped,     ///< Engine::trap fired
  kDowngraded,  ///< hooks done (instrumented) or strike made (armed):
                ///< continue on the hook-free tier
};

}  // namespace

// ---------------------------------------------------------------------------
// CTA state
// ---------------------------------------------------------------------------

struct Simulator::Cta {
  u32 linear_id = 0;
  Dim3 ctaid;
  std::vector<WarpState> warps;
  std::vector<u8> shared;

  [[nodiscard]] bool finished() const {
    for (const auto& warp : warps) {
      if (!warp.done()) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Launch engine
// ---------------------------------------------------------------------------

// All mutable launch progress lives here — resident CTA pools, grid cursor,
// cycle and instruction counters — so a run can stop mid-launch (RunExit::
// kDowngraded), and a second run under a different policy resumes from the
// identical architectural state.
struct Simulator::Engine {
  const MachineConfig& cfg;
  GlobalMemory& mem;
  const Program& prog;
  const DecodedProgram& dec;
  Dim3 grid;
  Dim3 block;
  std::span<const u64> params;
  const LaunchOptions& opts;

  u32 threads_per_cta = 0;
  u32 warps_per_cta = 0;
  u32 occupancy = 0;
  u64 watchdog = kDefaultWatchdog;

  std::vector<std::vector<std::unique_ptr<Cta>>> resident;
  u64 resident_count = 0;
  u64 total_ctas = 0;
  u64 next_cta = 0;

  u64 dyn_warp = 0;
  u64 dyn_thread = 0;
  u64 cycle = 0;
  Trap trap;

  // Armed runs only: the pending strike, eligible issues counted so far,
  // and whether the struck slot has run.
  StrikeRequest strike;
  u64 strike_seen = 0;
  bool struck = false;

  Engine(const MachineConfig& cfg_in, GlobalMemory& mem_in,
         const Program& prog_in, Dim3 grid_in, Dim3 block_in,
         std::span<const u64> params_in, const LaunchOptions& opts_in)
      : cfg(cfg_in),
        mem(mem_in),
        prog(prog_in),
        dec(prog_in.decoded()),
        grid(grid_in),
        block(block_in),
        params(params_in),
        opts(opts_in) {}

  // ---- CTA lifecycle ------------------------------------------------------

  std::unique_ptr<Cta> make_cta(u64 linear) const {
    auto cta = std::make_unique<Cta>();
    cta->linear_id = static_cast<u32>(linear);
    cta->ctaid =
        Dim3(static_cast<u32>(linear % grid.x),
             static_cast<u32>((linear / grid.x) % grid.y),
             static_cast<u32>(linear / (static_cast<u64>(grid.x) * grid.y)));
    cta->shared.assign(prog.shared_bytes(), 0);
    cta->warps.reserve(warps_per_cta);
    u32 remaining = threads_per_cta;
    for (u32 w = 0; w < warps_per_cta; ++w) {
      const u32 lanes = std::min(remaining, kWarpSize);
      const u32 mask = lanes == kWarpSize ? kFullMask : ((1u << lanes) - 1u);
      cta->warps.emplace_back(w, prog.num_regs(), mask);
      remaining -= lanes;
    }
    return cta;
  }

  void admit(u32 sm) {
    while (resident[sm].size() < occupancy && next_cta < total_ctas) {
      resident[sm].push_back(make_cta(next_cta++));
      ++resident_count;
    }
  }

  // ---- operand access -----------------------------------------------------

  // Hot enough that the out-of-line call overhead is measurable on the
  // clean path; force both into their (many) call sites.
  [[gnu::always_inline]] u64 read_operand(const WarpState& warp, u32 lane,
                                          const DecodedOperand& operand,
                                          DType dtype) const {
    switch (operand.kind) {
      case OperandKind::kImm:
        return operand.imm;
      case OperandKind::kReg:
        return (dtype == DType::kU64 || dtype == DType::kF64)
                   ? warp.reg64(lane, operand.index)
                   : warp.reg(lane, operand.index);
      case OperandKind::kPred:
        return warp.pred(lane, static_cast<u8>(operand.index)) !=
               operand.negated;
      case OperandKind::kNone:
        return 0;
    }
    return 0;
  }

  [[gnu::always_inline]] static void write_dst(WarpState& warp, u32 lane,
                                               const DecodedInstr& instr,
                                               u64 value) {
    if (instr.wide) {
      warp.set_reg64(lane, instr.dst_index, value);
    } else {
      warp.set_reg(lane, instr.dst_index, lo32(value));
    }
  }

  // ---- special registers --------------------------------------------------

  u32 special_value(const Cta& cta, const WarpState& warp, u32 lane,
                    SpecialReg sr) const {
    const u32 lin = warp.warp_in_cta() * kWarpSize + lane;
    switch (sr) {
      case SpecialReg::kTidX: return lin % block.x;
      case SpecialReg::kTidY: return (lin / block.x) % block.y;
      case SpecialReg::kTidZ: return lin / (block.x * block.y);
      case SpecialReg::kCtaidX: return cta.ctaid.x;
      case SpecialReg::kCtaidY: return cta.ctaid.y;
      case SpecialReg::kCtaidZ: return cta.ctaid.z;
      case SpecialReg::kNtidX: return block.x;
      case SpecialReg::kNtidY: return block.y;
      case SpecialReg::kNtidZ: return block.z;
      case SpecialReg::kNctaidX: return grid.x;
      case SpecialReg::kNctaidY: return grid.y;
      case SpecialReg::kNctaidZ: return grid.z;
      case SpecialReg::kLaneId: return lane;
      case SpecialReg::kWarpId: return warp.warp_in_cta();
    }
    return 0;
  }

  // ---- trap helper --------------------------------------------------------

  TrapKind fire(TrapKind kind, const Cta& cta, const WarpState& warp,
                u64 address = 0) {
    trap.kind = kind;
    trap.address = address;
    trap.pc = warp.pc;
    trap.cta = cta.linear_id;
    trap.warp = warp.warp_in_cta();
    return kind;
  }

  // ---- native profile collection ------------------------------------------

  /// Counts one dynamic warp instruction into opts.profile, reproducing
  /// ProfilerHook's accumulation (which sees the first guard mask).
  void count_profile(const DecodedInstr& instr, u32 exec) const {
    Profile& p = *opts.profile;
    ++p.warp_instrs_by_opcode[static_cast<int>(instr.op)];
    ++p.warp_instrs_by_group[static_cast<int>(instr.group)];
    const u64 lanes = static_cast<u64>(std::popcount(exec));
    p.thread_instrs_by_group[static_cast<int>(instr.group)] += lanes;
    ++p.total_warp_instrs;
    p.total_thread_instrs += lanes;
  }

  // ---- one dynamic warp instruction ---------------------------------------

  template <typename Policy>
  TrapKind exec_instr(Cta& cta, WarpState& warp, const DecodedInstr& instr) {
    if constexpr (Policy::kInstrumented) {
      InstrContext ctx;
      ctx.instr = &prog.at(warp.pc);
      ctx.group = instr.group;
      ctx.dyn_index = dyn_warp;
      ctx.cta = cta.linear_id;
      ctx.warp = warp.warp_in_cta();
      ctx.warp_state = &warp;

      ctx.exec_mask = warp.guard_mask(instr.guard_pred, instr.guard_negated);
      ++dyn_warp;
      dyn_thread += static_cast<u64>(std::popcount(ctx.exec_mask));
      if (opts.profile) count_profile(instr, ctx.exec_mask);

      for (InstrumentHook* hook : opts.hooks) {
        hook->on_before_instr(ctx);
        if (ctx.requested_trap != TrapKind::kNone) {
          return fire(ctx.requested_trap, cta, warp);
        }
      }
      // Hooks may have mutated predicates (predicate-register injection);
      // recompute the executed lane set so the corruption takes effect.
      const u32 exec = warp.guard_mask(instr.guard_pred, instr.guard_negated);
      ctx.exec_mask = exec;

      TrapKind result = dispatch<Policy>(cta, warp, instr, exec, &ctx);
      if (result != TrapKind::kNone) return result;

      for (InstrumentHook* hook : opts.hooks) {
        hook->on_after_instr(ctx);
        if (ctx.requested_trap != TrapKind::kNone) {
          return fire(ctx.requested_trap, cta, warp);
        }
      }
      return TrapKind::kNone;
    } else if constexpr (Policy::kArmed) {
      return exec_armed(cta, warp, instr);
    } else if constexpr (Policy::kThreaded) {
      // Threaded tier: handlers do their own exec-mask computation and
      // accounting (fusion heads and tails must each count exactly once),
      // so the whole slot is one direct-dispatched call.
      return exec::threaded_dispatch(*this, cta, warp, instr);
    } else {
      // Clean path: nothing can mutate predicates between issue and
      // execute, so one guard-mask computation suffices — and an unguarded
      // (@PT) instruction executes exactly the active set.
      const u32 exec =
          instr.guarded
              ? warp.guard_mask_fast(instr.guard_pred, instr.guard_negated)
              : warp.active();
      ++dyn_warp;
      dyn_thread += static_cast<u64>(std::popcount(exec));
      if (opts.profile) count_profile(instr, exec);
      return dispatch<Policy>(cta, warp, instr, exec, nullptr);
    }
  }

  /// One slot of an armed run. Every issue whose group the strike names is
  /// counted; the requested one runs instrumented, everything else threaded.
  /// The struck slot first drops its warp's fusion stash: a head's proof
  /// (in-bounds address row, branch mask) does not survive a strike on its
  /// tail's sources, and the instrumented dispatch never consumes a stash,
  /// so one left behind could later meet a branch into the tail.
  TrapKind exec_armed(Cta& cta, WarpState& warp, const DecodedInstr& instr) {
    if (((strike.groups >> static_cast<int>(instr.group)) & 1u) != 0 &&
        strike_seen++ == strike.occurrence) {
      warp.fuse_pc = WarpState::kFuseInvalid;
      struck = true;
      opts.hooks.front()->on_strike_slot();
      return exec_instr<InstrumentedPolicy>(cta, warp, instr);
    }
    return exec::armed_dispatch(*this, cta, warp, instr);
  }

  /// Non-template entry into the generic clean dispatcher for the threaded
  /// tier's fallbacks (exec_threaded.h is duck-typed over Engine and cannot
  /// name the policy tags in this anonymous namespace). `exec` is already
  /// accounted by the caller.
  TrapKind dispatch_clean(Cta& cta, WarpState& warp, const DecodedInstr& instr,
                          u32 exec) {
    return dispatch<CleanPolicy>(cta, warp, instr, exec, nullptr);
  }

  // Executes `instr` for lanes in `exec`; manages the PC. `ctx` is non-null
  // only on the instrumented path (store-address transforms).
  template <typename Policy>
  TrapKind dispatch(Cta& cta, WarpState& warp, const DecodedInstr& instr,
                    u32 exec, [[maybe_unused]] InstrContext* ctx) {
    // Full-warp vector fast path: pure register/immediate ALU ops with all
    // 32 lanes executing skip the per-lane operand machinery entirely and
    // run on simd rows (exec_vec.h). Clean policy only: the instrumented
    // path keeps the generic per-lane loop below, whose cost is part of the
    // preserved pre-refactor inner loop it stands in for.
    if (!Policy::kInstrumented && exec == kFullMask && instr.vec_srcs &&
        exec::vec_alu(warp, instr)) {
      ++warp.pc;
      return TrapKind::kNone;
    }

    auto for_each_lane = [&](auto&& body) {
      // Bit-scan over the executed set: lane order preserved, no per-lane
      // test for the (common) sparse and full masks alike.
      for (u32 rest = exec; rest != 0; rest &= rest - 1) {
        body(static_cast<u32>(std::countr_zero(rest)));
      }
    };
    auto src = [&](u32 lane, int i, DType dtype) {
      return read_operand(warp, lane, instr.src[i], dtype);
    };

    switch (instr.op) {
      // ---- control ------------------------------------------------------
      case Opcode::kNop:
        break;

      case Opcode::kExit: {
        const u32 rest = warp.active() & ~exec;
        warp.retire_lanes(exec);
        if (rest != 0) ++warp.pc;
        return TrapKind::kNone;
      }

      case Opcode::kSsy:
        warp.stack().push_back(
            {warp.active(), instr.target, StackEntry::Kind::kSsy});
        break;

      case Opcode::kBra: {
        const u32 taken = exec;
        const u32 not_taken = warp.active() & ~exec;
        if (taken == 0) {
          ++warp.pc;
        } else if (not_taken == 0) {
          warp.pc = instr.target;
        } else {
          warp.stack().push_back({taken, instr.target, StackEntry::Kind::kDiv});
          warp.set_active(not_taken);
          ++warp.pc;
        }
        return TrapKind::kNone;
      }

      case Opcode::kSync: {
        if (warp.stack().empty()) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        const StackEntry entry = warp.stack().back();
        warp.stack().pop_back();
        if (entry.kind == StackEntry::Kind::kDiv && entry.mask != 0) {
          warp.set_active(entry.mask);
          warp.pc = entry.pc;
        } else if (entry.kind == StackEntry::Kind::kSsy) {
          warp.set_active(entry.mask);
          ++warp.pc;
        } else {
          ++warp.pc;  // emptied divergence entry: fall through
        }
        return TrapKind::kNone;
      }

      case Opcode::kBar: {
        warp.at_barrier = true;
        ++warp.pc;
        // Release when every warp that can still arrive has arrived.
        bool all_arrived = true;
        for (const auto& other : cta.warps) {
          if (!other.done() && !other.at_barrier) {
            all_arrived = false;
            break;
          }
        }
        if (all_arrived) {
          for (auto& other : cta.warps) other.at_barrier = false;
        }
        return TrapKind::kNone;
      }

      // ---- moves / selects ------------------------------------------------
      case Opcode::kMov:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr, src(lane, 0, instr.dtype));
        });
        break;

      case Opcode::kSel:
        for_each_lane([&](u32 lane) {
          const bool take =
              read_operand(warp, lane, instr.src[2], DType::kU32) != 0;
          write_dst(warp, lane, instr,
                    take ? src(lane, 0, instr.dtype)
                         : src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kS2r:
        for_each_lane([&](u32 lane) {
          warp.set_reg(lane, instr.dst_index,
                       special_value(cta, warp, lane,
                                     static_cast<SpecialReg>(instr.sub)));
        });
        break;

      case Opcode::kLdc: {
        const u64 idx = instr.src[0].imm;
        if (idx >= params.size()) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        const u64 value = params[idx];
        // Uniform broadcast: with every lane executing the destination
        // row(s) take the same value, no per-lane machinery needed.
        if (exec == kFullMask && instr.dst_index != kRegZ) {
          u32* dlo = warp.row(instr.dst_index);
          if (instr.wide) {
            u32* dhi = warp.row(static_cast<u16>(instr.dst_index + 1));
            for (u32 l = 0; l < kWarpSize; ++l) {
              dlo[l] = lo32(value);
              dhi[l] = hi32(value);
            }
          } else {
            for (u32 l = 0; l < kWarpSize; ++l) dlo[l] = lo32(value);
          }
          break;
        }
        for_each_lane([&](u32 lane) { write_dst(warp, lane, instr, value); });
        break;
      }

      // ---- integer ALU ----------------------------------------------------
      case Opcode::kIAdd:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr,
                    src(lane, 0, instr.dtype) + src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kIMul:
        for_each_lane([&](u32 lane) {
          write_dst(warp, lane, instr,
                    src(lane, 0, instr.dtype) * src(lane, 1, instr.dtype));
        });
        break;

      case Opcode::kIMad:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kU64) {
            // IMAD.WIDE: 32x32-bit product added to a 64-bit accumulator —
            // the canonical SASS address-computation idiom.
            const u64 a = static_cast<u32>(src(lane, 0, DType::kU32));
            const u64 b = static_cast<u32>(src(lane, 1, DType::kU32));
            write_dst(warp, lane, instr, a * b + src(lane, 2, DType::kU64));
          } else {
            write_dst(warp, lane, instr,
                      src(lane, 0, instr.dtype) * src(lane, 1, instr.dtype) +
                          src(lane, 2, instr.dtype));
          }
        });
        break;

      case Opcode::kIMnmx:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u64 b = src(lane, 1, instr.dtype);
          const bool a_less = int_compare(CmpOp::kLt, a, b, instr.dtype);
          const bool want_min = instr.sub == static_cast<u8>(MinMax::kMin);
          write_dst(warp, lane, instr, (a_less == want_min) ? a : b);
        });
        break;

      case Opcode::kISetp:
        for_each_lane([&](u32 lane) {
          const bool value =
              int_compare(static_cast<CmpOp>(instr.sub),
                          src(lane, 0, instr.dtype), src(lane, 1, instr.dtype),
                          instr.dtype);
          warp.set_pred(lane, static_cast<u8>(instr.dst_index), value);
        });
        break;

      case Opcode::kLop:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u64 b = src(lane, 1, instr.dtype);
          u64 value = 0;
          switch (static_cast<LopKind>(instr.sub)) {
            case LopKind::kAnd: value = a & b; break;
            case LopKind::kOr: value = a | b; break;
            case LopKind::kXor: value = a ^ b; break;
            case LopKind::kNot: value = ~a; break;
          }
          write_dst(warp, lane, instr, value);
        });
        break;

      case Opcode::kShf:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          const u32 amount = static_cast<u32>(src(lane, 1, DType::kU32)) &
                             (instr.wide ? 63u : 31u);
          u64 value = 0;
          switch (static_cast<ShiftKind>(instr.sub)) {
            case ShiftKind::kLeft:
              value = a << amount;
              break;
            case ShiftKind::kRightLogical:
              value = (instr.wide ? a : static_cast<u64>(static_cast<u32>(a)))
                      >> amount;
              break;
            case ShiftKind::kRightArith:
              if (instr.wide) {
                value = static_cast<u64>(static_cast<i64>(a) >> amount);
              } else {
                value = static_cast<u32>(
                    static_cast<i32>(static_cast<u32>(a)) >> amount);
              }
              break;
          }
          write_dst(warp, lane, instr, value);
        });
        break;

      case Opcode::kPopc:
        for_each_lane([&](u32 lane) {
          const u64 a = src(lane, 0, instr.dtype);
          write_dst(warp, lane, instr,
                    static_cast<u64>(std::popcount(
                        instr.wide ? a : static_cast<u64>(static_cast<u32>(a)))));
        });
        break;

      // ---- floating point ---------------------------------------------------
      case Opcode::kFAdd:
      case Opcode::kFMul:
      case Opcode::kFMnmx:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {
            const f64 a = bits_f64(src(lane, 0, DType::kF64));
            const f64 b = bits_f64(src(lane, 1, DType::kF64));
            f64 value = 0;
            // canon_nan: NaN-payload results of +/* are not stable across
            // compilations (bitutil.h); FMNMX passes operand bits through.
            if (instr.op == Opcode::kFAdd) value = canon_nan(a + b);
            else if (instr.op == Opcode::kFMul) value = canon_nan(a * b);
            else value = instr.sub == static_cast<u8>(MinMax::kMin)
                             ? fmin_det(a, b) : fmax_det(a, b);
            write_dst(warp, lane, instr, f64_bits(value));
          } else {
            const f32 a = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            const f32 b = bits_f32(static_cast<u32>(src(lane, 1, DType::kF32)));
            f32 value = 0;
            if (instr.op == Opcode::kFAdd) value = canon_nan(a + b);
            else if (instr.op == Opcode::kFMul) value = canon_nan(a * b);
            else value = instr.sub == static_cast<u8>(MinMax::kMin)
                             ? fmin_det(a, b) : fmax_det(a, b);
            write_dst(warp, lane, instr, f32_bits(value));
          }
        });
        break;

      case Opcode::kFFma:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {
            const f64 a = bits_f64(src(lane, 0, DType::kF64));
            const f64 b = bits_f64(src(lane, 1, DType::kF64));
            const f64 c = bits_f64(src(lane, 2, DType::kF64));
            write_dst(warp, lane, instr, f64_bits(canon_nan(std::fma(a, b, c))));
          } else {
            const f32 a = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            const f32 b = bits_f32(static_cast<u32>(src(lane, 1, DType::kF32)));
            const f32 c = bits_f32(static_cast<u32>(src(lane, 2, DType::kF32)));
            write_dst(warp, lane, instr, f32_bits(canon_nan(std::fmaf(a, b, c))));
          }
        });
        break;

      case Opcode::kFSetp:
        for_each_lane([&](u32 lane) {
          bool value = false;
          if (instr.dtype == DType::kF64) {
            value = fp_compare(static_cast<CmpOp>(instr.sub),
                               bits_f64(src(lane, 0, DType::kF64)),
                               bits_f64(src(lane, 1, DType::kF64)));
          } else {
            value = fp_compare(
                static_cast<CmpOp>(instr.sub),
                bits_f32(static_cast<u32>(src(lane, 0, DType::kF32))),
                bits_f32(static_cast<u32>(src(lane, 1, DType::kF32))));
          }
          warp.set_pred(lane, static_cast<u8>(instr.dst_index), value);
        });
        break;

      case Opcode::kMufu:
        for_each_lane([&](u32 lane) {
          const f32 x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
          write_dst(warp, lane, instr,
                    f32_bits(mufu_eval(static_cast<MufuKind>(instr.sub), x)));
        });
        break;

      case Opcode::kF2I:
        for_each_lane([&](u32 lane) {
          f64 x = 0;
          if (instr.dtype == DType::kF64) {
            x = bits_f64(src(lane, 0, DType::kF64));
          } else {
            x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
          }
          i32 value = 0;
          if (std::isnan(x)) value = 0;
          else if (x >= 2147483647.0) value = std::numeric_limits<i32>::max();
          else if (x <= -2147483648.0) value = std::numeric_limits<i32>::min();
          else value = static_cast<i32>(x);
          warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
        });
        break;

      case Opcode::kI2F:
        for_each_lane([&](u32 lane) {
          const i32 x = static_cast<i32>(
              static_cast<u32>(src(lane, 0, DType::kS32)));
          if (instr.dtype == DType::kF64) {
            write_dst(warp, lane, instr, f64_bits(static_cast<f64>(x)));
          } else {
            write_dst(warp, lane, instr, f32_bits(static_cast<f32>(x)));
          }
        });
        break;

      case Opcode::kF2F:
        for_each_lane([&](u32 lane) {
          if (instr.dtype == DType::kF64) {  // widen F32 -> F64
            const f32 x = bits_f32(static_cast<u32>(src(lane, 0, DType::kF32)));
            write_dst(warp, lane, instr, f64_bits(static_cast<f64>(x)));
          } else {  // narrow F64 -> F32
            const f64 x = bits_f64(src(lane, 0, DType::kF64));
            write_dst(warp, lane, instr, f32_bits(static_cast<f32>(x)));
          }
        });
        break;

      // ---- memory --------------------------------------------------------
      case Opcode::kLdg:
      case Opcode::kStg: {
        const u32 width = instr.mem_width;
        // Hoisted full-warp 32-bit load: register-pair base plus immediate
        // offset, destination written row-wise. Lane order, trap checks and
        // partial progress on a trap match the generic loop exactly; any
        // pending upset bails to the generic loop so ECC classification is
        // never skipped.
        if (!Policy::kInstrumented && instr.op == Opcode::kLdg &&
            exec == kFullMask && width == 4 &&
            instr.src[0].kind == OperandKind::kReg &&
            instr.src[0].index != kRegZ && instr.dst_index != kRegZ &&
            mem.fault_free()) {
          const exec::RowMemResult row = exec::ldg_row(warp, instr, mem);
          if (row.state == exec::RowMem::kTrap) {
            return fire(row.trap, cta, warp, row.addr);
          }
          if (row.state == exec::RowMem::kDone) break;
          // kNotApplicable: a lane would trap on alignment; the generic
          // loop below reproduces the exact lane-order trap.
        }
        // Matching full-warp 32-bit store. Clean policy only (which implies
        // no hooks): store-address transforms must see every lane
        // individually, and the instrumented baseline keeps the lane loop.
        if (!Policy::kInstrumented && instr.op == Opcode::kStg &&
            exec == kFullMask && width == 4 && mem.fault_free() &&
            instr.src[0].kind == OperandKind::kReg &&
            instr.src[0].index != kRegZ &&
            instr.src[2].kind == OperandKind::kReg &&
            instr.src[2].index != kRegZ) {
          const exec::RowMemResult row = exec::stg_row(warp, instr, mem);
          if (row.state == exec::RowMem::kTrap) {
            return fire(row.trap, cta, warp, row.addr);
          }
          if (row.state == exec::RowMem::kDone) break;
        }
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = read_operand(warp, lane, instr.src[0], DType::kU64);
          if (instr.src[1].is_imm()) addr += instr.src[1].imm;
          if constexpr (Policy::kInstrumented) {
            if (instr.op == Opcode::kStg) {
              for (InstrumentHook* hook : opts.hooks) {
                addr = hook->transform_store_address(addr, *ctx, lane);
              }
            }
          }
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          u8 buffer[8] = {};
          if (instr.op == Opcode::kLdg) {
            if (TrapKind t = mem.read(addr, buffer, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
            u64 value = 0;
            std::memcpy(&value, buffer, width);
            if (width == 8) {
              warp.set_reg64(lane, instr.dst_index, value);
            } else {
              warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
            }
          } else {
            u64 value = width == 8
                            ? warp.reg64(lane, instr.src[2].index)
                            : warp.reg(lane, instr.src[2].index);
            std::memcpy(buffer, &value, width);
            if (TrapKind t = mem.write(addr, buffer, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
          }
        }
        break;
      }

      case Opcode::kLds:
      case Opcode::kSts: {
        const u32 width = instr.mem_width;
        // Hoisted full-warp 32-bit shared accesses, mirroring the LDG fast
        // path: address rows read once, identical trap checks in lane order.
        if (!Policy::kInstrumented && exec == kFullMask && width == 4 &&
            instr.src[0].kind == OperandKind::kReg &&
            instr.src[0].index != kRegZ) {
          if (instr.op == Opcode::kLds && instr.dst_index != kRegZ) {
            if (exec::lds_row(warp, instr, cta.shared.data(),
                              cta.shared.size())
                    .state == exec::RowMem::kDone) {
              break;
            }
          }
          if (instr.op == Opcode::kSts &&
              instr.src[2].kind == OperandKind::kReg &&
              instr.src[2].index != kRegZ) {
            if (exec::sts_row(warp, instr, cta.shared.data(),
                              cta.shared.size())
                    .state == exec::RowMem::kDone) {
              break;
            }
          }
          // Row path declined (a lane would trap): the generic loop below
          // reproduces the exact lane-order trap and partial progress.
        }
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = static_cast<u32>(read_operand(warp, lane, instr.src[0],
                                                   DType::kU32));
          if (instr.src[1].is_imm()) addr += instr.src[1].imm;
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          if (addr + width > cta.shared.size()) {
            return fire(TrapKind::kIllegalSharedAddress, cta, warp, addr);
          }
          if (instr.op == Opcode::kLds) {
            u64 value = 0;
            std::memcpy(&value, cta.shared.data() + addr, width);
            if (width == 8) {
              warp.set_reg64(lane, instr.dst_index, value);
            } else {
              warp.set_reg(lane, instr.dst_index, static_cast<u32>(value));
            }
          } else {
            const u64 value = width == 8
                                  ? warp.reg64(lane, instr.src[2].index)
                                  : warp.reg(lane, instr.src[2].index);
            std::memcpy(cta.shared.data() + addr, &value, width);
          }
        }
        break;
      }

      case Opcode::kAtomG:
      case Opcode::kAtomS: {
        const bool global = instr.op == Opcode::kAtomG;
        const u32 width = instr.mem_width;  // 4 only (u32/s32/f32)
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (!((exec >> lane) & 1u)) continue;
          u64 addr = 0;
          if (global) {
            addr = read_operand(warp, lane, instr.src[0], DType::kU64);
          } else {
            addr = static_cast<u32>(
                read_operand(warp, lane, instr.src[0], DType::kU32));
          }
          if (addr % width != 0) {
            return fire(TrapKind::kMisalignedAddress, cta, warp, addr);
          }
          u32 old = 0;
          if (global) {
            if (TrapKind t = mem.read(addr, &old, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
          } else {
            if (addr + width > cta.shared.size()) {
              return fire(TrapKind::kIllegalSharedAddress, cta, warp, addr);
            }
            std::memcpy(&old, cta.shared.data() + addr, width);
          }
          const u32 a = static_cast<u32>(
              read_operand(warp, lane, instr.src[1], instr.dtype));
          u32 updated = old;
          switch (static_cast<AtomKind>(instr.sub)) {
            case AtomKind::kAdd:
              if (instr.dtype == DType::kF32) {
                updated = f32_bits(canon_nan(bits_f32(old) + bits_f32(a)));
              } else {
                updated = old + a;
              }
              break;
            case AtomKind::kMin:
              if (instr.dtype == DType::kF32) {
                updated = f32_bits(fmin_det(bits_f32(old), bits_f32(a)));
              } else if (instr.dtype == DType::kS32) {
                updated = static_cast<u32>(std::min(static_cast<i32>(old),
                                                    static_cast<i32>(a)));
              } else {
                updated = std::min(old, a);
              }
              break;
            case AtomKind::kMax:
              if (instr.dtype == DType::kF32) {
                updated = f32_bits(fmax_det(bits_f32(old), bits_f32(a)));
              } else if (instr.dtype == DType::kS32) {
                updated = static_cast<u32>(std::max(static_cast<i32>(old),
                                                    static_cast<i32>(a)));
              } else {
                updated = std::max(old, a);
              }
              break;
            case AtomKind::kExch:
              updated = a;
              break;
            case AtomKind::kCas: {
              const u32 b = static_cast<u32>(
                  read_operand(warp, lane, instr.src[2], instr.dtype));
              updated = (old == a) ? b : old;
              break;
            }
          }
          if (global) {
            if (TrapKind t = mem.write(addr, &updated, width);
                t != TrapKind::kNone) {
              return fire(t, cta, warp, addr);
            }
          } else {
            std::memcpy(cta.shared.data() + addr, &updated, width);
          }
          if (instr.dst_kind == OperandKind::kReg &&
              instr.dst_index != kRegZ) {
            warp.set_reg(lane, instr.dst_index, old);
          }
        }
        break;
      }

      // ---- warp communication -------------------------------------------
      case Opcode::kShfl: {
        u32 gathered[kWarpSize] = {};
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          gathered[lane] = warp.reg(lane, instr.src[0].index);
        }
        for_each_lane([&](u32 lane) {
          const u32 operand = static_cast<u32>(
              read_operand(warp, lane, instr.src[1], DType::kU32));
          i64 source = lane;
          switch (static_cast<ShflKind>(instr.sub)) {
            case ShflKind::kIdx: source = operand & 31u; break;
            case ShflKind::kUp: source = static_cast<i64>(lane) - operand; break;
            case ShflKind::kDown: source = static_cast<i64>(lane) + operand; break;
            case ShflKind::kBfly: source = lane ^ operand; break;
          }
          u32 value = gathered[lane];
          if (source >= 0 && source < kWarpSize &&
              ((exec >> source) & 1u) != 0) {
            value = gathered[source];
          }
          warp.set_reg(lane, instr.dst_index, value);
        });
        break;
      }

      case Opcode::kVote: {
        u32 votes = 0;
        for (u32 lane = 0; lane < kWarpSize; ++lane) {
          if (((exec >> lane) & 1u) &&
              read_operand(warp, lane, instr.src[0], DType::kU32) != 0) {
            votes |= 1u << lane;
          }
        }
        const auto kind = static_cast<VoteKind>(instr.sub);
        for_each_lane([&](u32 lane) {
          switch (kind) {
            case VoteKind::kAll:
              warp.set_pred(lane, static_cast<u8>(instr.dst_index),
                            (votes & exec) == exec);
              break;
            case VoteKind::kAny:
              warp.set_pred(lane, static_cast<u8>(instr.dst_index),
                            votes != 0);
              break;
            case VoteKind::kBallot:
              warp.set_reg(lane, instr.dst_index, votes);
              break;
          }
        });
        break;
      }

      // ---- tensor core ------------------------------------------------------
      case Opcode::kHmma: {
        if (exec != kFullMask) {
          return fire(TrapKind::kIllegalInstruction, cta, warp);
        }
        // m16n8k8: A(16x8) in 4 regs/lane, B(8x8) in 2, C/D(16x8) in 4.
        // Element e lives in lane (e % 32), slot (e / 32), row-major.
        f32 a_frag[128];
        f32 b_frag[64];
        f32 c_frag[128];
        for (u32 e = 0; e < 128; ++e) {
          a_frag[e] = bits_f32(warp.reg(e % kWarpSize,
                                        static_cast<u16>(instr.src[0].index + e / kWarpSize)));
          c_frag[e] = bits_f32(warp.reg(e % kWarpSize,
                                        static_cast<u16>(instr.src[2].index + e / kWarpSize)));
        }
        for (u32 e = 0; e < 64; ++e) {
          b_frag[e] = bits_f32(warp.reg(e % kWarpSize,
                                        static_cast<u16>(instr.src[1].index + e / kWarpSize)));
        }
        const bool tf32 = cfg.tensor_core_tf32;
        for (u32 i = 0; i < 16; ++i) {
          for (u32 j = 0; j < 8; ++j) {
            f32 acc = c_frag[i * 8 + j];
            for (u32 k = 0; k < 8; ++k) {
              const f32 a = tf32 ? to_tf32(a_frag[i * 8 + k]) : a_frag[i * 8 + k];
              const f32 b = tf32 ? to_tf32(b_frag[k * 8 + j]) : b_frag[k * 8 + j];
              acc = std::fmaf(a, b, acc);
            }
            const u32 e = i * 8 + j;
            warp.set_reg(e % kWarpSize,
                         static_cast<u16>(instr.dst_index + e / kWarpSize),
                         f32_bits(acc));
          }
        }
        break;
      }
    }

    ++warp.pc;
    return TrapKind::kNone;
  }

  // ---- the scheduler loop -------------------------------------------------

  // Runs the launch state forward under one instrumentation policy until it
  // completes, traps, (instrumented) every hook is done observing, or
  // (armed) the cycle of the strike has finished.
  template <typename Policy>
  RunExit run() {
    // Per-opcode issue latencies with the memory/shared overrides baked in,
    // so the issue loop is one table load instead of a branch chain.
    u8 latency_of[kOpcodeCount];
    for (int op = 0; op < kOpcodeCount; ++op) {
      latency_of[op] = cfg.latencies.of(static_cast<Opcode>(op));
    }
    latency_of[static_cast<int>(Opcode::kLdg)] =
        static_cast<u8>(std::min<u32>(255, cfg.mem_latency_cycles));
    latency_of[static_cast<int>(Opcode::kAtomG)] =
        static_cast<u8>(std::min<u32>(255, cfg.mem_latency_cycles));
    latency_of[static_cast<int>(Opcode::kLds)] =
        static_cast<u8>(std::min<u32>(255, cfg.shared_latency_cycles));
    latency_of[static_cast<int>(Opcode::kAtomS)] =
        static_cast<u8>(std::min<u32>(255, cfg.shared_latency_cycles));

    // Per-SM earliest next-issue cycle (0 = must scan). See the skip check
    // in the SM loop for why this cannot change scheduling decisions.
    std::vector<u64> sm_next(cfg.num_sms, 0);

    // SMs that still hold work, ascending. Small grids occupy a handful of
    // the model's SMs (a 16-CTA scan on the 108-SM A100 leaves 92 forever
    // idle), and the cycle loop used to scan all of them every cycle.
    // Iterating only busy SMs is behavior-identical: an idle SM's iteration
    // issues nothing and contributes the min-identity u64-max to the
    // fast-forward, and an SM whose pool drains can never wake again —
    // admit() backfills only from the SM's own retirement scan, so once
    // `resident[sm]` is empty (grid exhausted) it stays empty. Holds on
    // re-entry after a mid-launch downgrade for the same reason.
    std::vector<u32> busy;
    busy.reserve(cfg.num_sms);
    for (u32 sm = 0; sm < cfg.num_sms; ++sm) {
      if (!resident[sm].empty()) busy.push_back(sm);
    }

    while (resident_count > 0) {
      if constexpr (Policy::kInstrumented) {
        // Mid-launch downgrade: once every attached hook has finished
        // observing (e.g. a one-shot injector whose fault has fired), the
        // remaining instructions cannot be affected by instrumentation, so
        // the caller re-enters on a hook-free tier. Checked at a cycle
        // boundary; an explicitly pinned instrumented engine never
        // downgrades (benchmark/equivalence baseline).
        if (!opts.hooks.empty() && opts.engine != EngineTier::kInstrumented) {
          bool all_done = true;
          for (InstrumentHook* hook : opts.hooks) {
            if (!hook->done_observing()) {
              all_done = false;
              break;
            }
          }
          if (all_done) return RunExit::kDowngraded;
        }
      }
      if constexpr (Policy::kArmed) {
        if (struck) return RunExit::kDowngraded;
      }

      bool issued_any = false;

      for (std::size_t bi = 0; bi < busy.size();) {
        const u32 sm = busy[bi];
        // An SM whose warps are all provably stalled until a known future
        // cycle needs no scan: nothing outside this SM can wake its warps
        // (barrier releases and CTA admission are triggered by issues
        // within the same SM). Skipping the scan cannot change which warp
        // issues when, so cycle counts stay bit-identical.
        if (sm_next[sm] > cycle) {
          ++bi;
          continue;
        }

        u32 budget = cfg.issue_width;
        bool warp_retired = false;
        // Earliest cycle any warp of this SM can issue next; invalidated
        // (forced to re-scan every cycle) by barrier traffic and CTA
        // turnover below.
        u64 next_ready = std::numeric_limits<u64>::max();
        bool next_valid = true;
        for (auto& cta : resident[sm]) {
          if (budget == 0) break;
          for (auto& warp : cta->warps) {
            if (budget == 0) break;
            if (warp.done() || warp.at_barrier) continue;
            if (warp.ready_cycle > cycle) {
              next_ready = std::min(next_ready, warp.ready_cycle);
              continue;
            }
            const DecodedInstr& di = dec.at(warp.pc);
            const Opcode op = di.op;
            const TrapKind trapped = exec_instr<Policy>(*cta, warp, di);
            issued_any = true;
            --budget;
            if (trapped != TrapKind::kNone) return RunExit::kTrapped;
            if (op == Opcode::kBar) next_valid = false;  // may park/release
            if (warp.done()) {
              warp_retired = true;
              // A warp that just retired can release siblings parked at a
              // barrier (they no longer need to wait for it).
              bool all_arrived = true;
              for (const auto& other : cta->warps) {
                if (!other.done() && !other.at_barrier) {
                  all_arrived = false;
                  break;
                }
              }
              if (all_arrived) {
                for (auto& other : cta->warps) other.at_barrier = false;
              }
            }
            warp.ready_cycle = cycle + latency_of[static_cast<int>(op)];
            next_ready = std::min(next_ready, warp.ready_cycle);
            if (dyn_warp >= watchdog) {
              trap = Trap{TrapKind::kWatchdogTimeout, 0, warp.pc,
                          cta->linear_id, warp.warp_in_cta()};
              return RunExit::kTrapped;
            }
          }
        }
        if (budget == 0) next_valid = false;  // unscanned warps may be ready

        // Retire finished CTAs and backfill from the grid. A CTA can only
        // finish on a cycle where one of its warps retired, so the scan is
        // skipped on all other cycles.
        if (warp_retired) {
          auto& pool = resident[sm];
          for (auto it = pool.begin(); it != pool.end();) {
            if ((*it)->finished()) {
              it = pool.erase(it);
              --resident_count;
            } else {
              ++it;
            }
          }
          admit(sm);
          next_valid = false;  // fresh warps are ready immediately
          if (pool.empty()) {
            // Drained for good (see the busy-list invariant above).
            busy.erase(busy.begin() + static_cast<std::ptrdiff_t>(bi));
            continue;
          }
        }
        sm_next[sm] = next_valid ? next_ready : 0;
        ++bi;
      }

      if (issued_any) {
        ++cycle;
      } else {
        // Fast-forward to the earliest moment any warp becomes ready. Every
        // SM was either scanned this cycle or carries a valid future
        // sm_next from its last scan, so the per-SM minima are current.
        u64 earliest = std::numeric_limits<u64>::max();
        for (const u32 sm : busy) {
          earliest = std::min(earliest, sm_next[sm]);
        }
        if (earliest == std::numeric_limits<u64>::max()) {
          // Every live warp is parked at a barrier with no one left to
          // arrive: a barrier deadlock (possible under control-flow
          // corruption).
          trap = Trap{};
          trap.kind = TrapKind::kBarrierDivergence;
          return RunExit::kTrapped;
        }
        cycle = std::max(earliest, cycle + 1);
      }
    }
    return RunExit::kCompleted;
  }
};

// ---------------------------------------------------------------------------
// Launch: path selection over the engine
// ---------------------------------------------------------------------------

Result<LaunchResult> Simulator::launch(const Program& program, Dim3 grid,
                                       Dim3 block, std::span<const u64> params,
                                       const LaunchOptions& options) {
  if (Status status = program.validate(); !status.is_ok()) return status;
  if (grid.count() == 0 || block.count() == 0) {
    return Status::invalid_argument("empty grid or block");
  }
  if (block.count() > 1024) {
    return Status::invalid_argument("block exceeds 1024 threads");
  }
  if (params.size() < program.num_params()) {
    return Status::invalid_argument(
        "kernel '" + program.name() + "' expects " +
        std::to_string(program.num_params()) + " params, got " +
        std::to_string(params.size()));
  }
  const u32 threads_per_cta = static_cast<u32>(block.count());
  const u32 occupancy = config_.ctas_per_sm(threads_per_cta, program.num_regs(),
                                            program.shared_bytes());
  if (occupancy == 0) {
    return Status::invalid_argument("CTA footprint exceeds one SM (" +
                                    program.name() + ")");
  }

  Engine engine(config_, memory_, program, grid, block, params, options);
  engine.threads_per_cta = threads_per_cta;
  engine.warps_per_cta = (threads_per_cta + kWarpSize - 1) / kWarpSize;
  engine.occupancy = occupancy;
  engine.watchdog =
      options.watchdog_instrs ? options.watchdog_instrs : kDefaultWatchdog;
  engine.total_ctas = grid.count();
  engine.resident.resize(config_.num_sms);

  LaunchScope scope(options.hooks, program);

  for (u32 sm = 0; sm < config_.num_sms; ++sm) engine.admit(sm);

  // Tier selection: a lone hook with a strike request runs armed on the
  // threaded tier (unless pinned to instrumented or clean) and continues
  // plain threaded once the struck slot's cycle is over. Other hooks (or an
  // explicit kInstrumented pin) take the instrumented engine; hook-free
  // execution — golden runs included — runs the threaded tier unless pinned
  // to clean. An instrumented run whose hooks all finish observing resumes
  // hook-free from the identical launch state, landing on the same tier a
  // hook-free launch would have used. All tiers are bit-identical in every
  // architecturally observable way.
  RunExit exit;
  EngineTier tier_used;
  bool downgraded = false;
  const bool pin_clean = options.engine == EngineTier::kClean;
  const bool pin_instrumented = options.engine == EngineTier::kInstrumented;
  std::optional<StrikeRequest> strike;
  if (options.hooks.size() == 1 && !pin_clean && !pin_instrumented) {
    strike = options.hooks.front()->strike_request();
  }
  if (strike) {
    engine.strike = *strike;
    exit = engine.run<ArmedThreadedPolicy>();
    if (exit == RunExit::kDowngraded) exit = engine.run<ThreadedPolicy>();
    tier_used = EngineTier::kThreaded;
    downgraded = engine.struck;
  } else if (!options.hooks.empty() || pin_instrumented) {
    exit = engine.run<InstrumentedPolicy>();
    tier_used = EngineTier::kInstrumented;
    if (exit == RunExit::kDowngraded) {
      downgraded = true;
      exit = pin_clean ? engine.run<CleanPolicy>()
                       : engine.run<ThreadedPolicy>();
      tier_used = pin_clean ? EngineTier::kClean : EngineTier::kThreaded;
    }
  } else if (pin_clean) {
    exit = engine.run<CleanPolicy>();
    tier_used = EngineTier::kClean;
  } else {
    exit = engine.run<ThreadedPolicy>();
    tier_used = EngineTier::kThreaded;
  }
  (void)exit;

  LaunchResult result;
  result.trap = engine.trap;
  result.dyn_warp_instrs = engine.dyn_warp;
  result.dyn_thread_instrs = engine.dyn_thread;
  result.cycles = engine.cycle;
  result.ecc = memory_.counters();
  result.tier_used = tier_used;
  result.downgraded = downgraded;
  return result;
}

}  // namespace gfi::sim
