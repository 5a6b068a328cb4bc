// CFG construction, SSY-depth tracking, and the dataflow passes (liveness,
// reaching definitions, def-use chains) on hand-built kernels that exercise
// the edge cases the linter and the pruning pass lean on.
#include <gtest/gtest.h>

#include <algorithm>

#include "sa/ace.h"
#include "sa/cfg.h"
#include "sa/dataflow.h"
#include "sassim/defuse.h"
#include "sassim/kernel_builder.h"

namespace gfi {
namespace {

using sim::CmpOp;
using sim::Instr;
using sim::KernelBuilder;
using sim::Opcode;
using sim::Operand;
using sim::Program;

Program must_build(KernelBuilder& b) {
  auto program = b.build();
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).take();
}

// ----------------------------------------------------------------- empty --

TEST(SaCfg, EmptyProgramYieldsEmptyEverything) {
  const Program empty;
  const auto cfg = sa::Cfg::build(empty);
  EXPECT_TRUE(cfg.empty());
  EXPECT_EQ(cfg.num_instrs(), 0u);

  const auto depth = sa::SsyDepth::compute(empty);
  EXPECT_TRUE(depth.at.empty());
  EXPECT_TRUE(depth.underflow_pcs.empty());

  const auto live = sa::Liveness::compute(empty, cfg);
  const auto reaching = sa::ReachingDefs::compute(empty, cfg);
  const auto chains = sa::DefUseChains::compute(empty, cfg, reaching);
  EXPECT_TRUE(chains.uses.empty());

  const auto sites = sa::StaticSiteAnalysis::analyze(empty);
  EXPECT_EQ(sites.size(), 0u);
  EXPECT_EQ(sites.num_dead_pcs(), 0u);
}

// ---------------------------------------------------------- single block --

TEST(SaCfg, SingleBlockKernel) {
  KernelBuilder b("straight");
  b.ldc_u64(2, 0);
  b.mov_u32(4, Operand::imm_u(7));
  b.stg(2, 4);
  b.exit_();
  const Program program = must_build(b);

  const auto cfg = sa::Cfg::build(program);
  ASSERT_EQ(cfg.blocks().size(), 1u);
  const auto& block = cfg.blocks()[0];
  EXPECT_EQ(block.first, 0u);
  EXPECT_EQ(block.last, program.size() - 1);
  EXPECT_TRUE(block.succs.empty());
  EXPECT_TRUE(block.preds.empty());
  EXPECT_TRUE(block.reachable);
  for (u32 pc = 0; pc < program.size(); ++pc) {
    EXPECT_EQ(cfg.block_of(pc), 0u);
    EXPECT_TRUE(cfg.pc_reachable(pc));
  }
}

// ----------------------------------------------------------- successors --

TEST(SaCfg, InstrSuccsFollowGuardSemantics) {
  KernelBuilder b("succs");
  const auto target = b.new_label();
  b.isetp(CmpOp::kLt, 0, Operand::reg(2), Operand::imm_u(1));  // pc 0
  b.bra(target, 0);                                            // pc 1 guarded
  b.bra(target);                                               // pc 2 @PT
  b.bind(target);
  b.exit_if(0);                                                // pc 3 guarded
  b.exit_();                                                   // pc 4
  const Program program = must_build(b);
  const u32 size = static_cast<u32>(program.size());

  EXPECT_EQ(sa::instr_succs(program.at(0), 0, size), (std::vector<u32>{1}));
  EXPECT_EQ(sa::instr_succs(program.at(1), 1, size), (std::vector<u32>{2, 3}));
  EXPECT_EQ(sa::instr_succs(program.at(2), 2, size), (std::vector<u32>{3}));
  EXPECT_EQ(sa::instr_succs(program.at(3), 3, size), (std::vector<u32>{4}));
  EXPECT_TRUE(sa::instr_succs(program.at(4), 4, size).empty());
}

// ------------------------------------------------------------- back edge --

TEST(SaCfg, LoopBackEdgeAndLoopCarriedLiveness) {
  KernelBuilder b("loop");
  b.mov_u32(1, Operand::imm_u(0));  // pc 0: counter
  const auto top = b.new_label();
  b.bind(top);
  b.iadd_u32(1, Operand::reg(1), Operand::imm_u(1));       // pc 1
  b.isetp(CmpOp::kLt, 0, Operand::reg(1), Operand::imm_u(4));  // pc 2
  b.bra(top, 0);                                           // pc 3: back edge
  b.ldc_u64(2, 0);                                         // pc 4
  b.stg(2, 1);                                             // pc 5
  b.exit_();                                               // pc 6
  const Program program = must_build(b);

  const auto cfg = sa::Cfg::build(program);
  ASSERT_EQ(cfg.blocks().size(), 3u);
  const u32 body = cfg.block_of(1);
  const u32 tail = cfg.block_of(4);
  // The loop body both falls through and branches back to itself.
  EXPECT_EQ(cfg.blocks()[body].succs, (std::vector<u32>{tail, body}));
  EXPECT_TRUE(std::count(cfg.blocks()[body].preds.begin(),
                         cfg.blocks()[body].preds.end(), body) == 1);
  for (const auto& block : cfg.blocks()) EXPECT_TRUE(block.reachable);

  // R1 is loop-carried: live out of the increment (read by the compare, the
  // next iteration, and the store) and live around the back edge.
  const auto live = sa::Liveness::compute(program, cfg);
  EXPECT_TRUE(live.reg_live_out(1, 1));
  EXPECT_TRUE(live.reg_live_out(3, 1));
  // After the store nothing reads R1.
  EXPECT_FALSE(live.reg_live_out(5, 1));

  // The increment's value may be read by the compare and the store — and by
  // itself on the next trip around the loop.
  const auto reaching = sa::ReachingDefs::compute(program, cfg);
  const auto chains = sa::DefUseChains::compute(program, cfg, reaching);
  EXPECT_EQ(chains.uses[1], (std::vector<u32>{1, 2, 5}));
  // The initial mov reaches the loop header alongside the back-edge def.
  const auto defs = reaching.reaching_defs(1, 1);
  EXPECT_EQ(defs, (std::vector<u32>{0, 1}));
}

// --------------------------------------------------- divergent SSY nesting --

TEST(SaCfg, NestedDivergenceTracksSsyDepth) {
  KernelBuilder b("nested");
  b.s2r(0, sim::SpecialReg::kLaneId);
  b.isetp(CmpOp::kLt, 0, Operand::reg(0), Operand::imm_u(16));
  b.if_then(0, false, [&] {
    b.isetp(CmpOp::kLt, 1, Operand::reg(0), Operand::imm_u(8));
    b.if_then(1, false,
              [&] { b.iadd_u32(4, Operand::reg(0), Operand::imm_u(1)); });
  });
  b.ldc_u64(2, 0);
  b.stg(2, 4);
  b.exit_();
  const Program program = must_build(b);

  const auto depth = sa::SsyDepth::compute(program);
  EXPECT_TRUE(depth.underflow_pcs.empty());
  EXPECT_TRUE(depth.mismatch_pcs.empty());
  EXPECT_TRUE(depth.exit_unbalanced_pcs.empty());
  EXPECT_EQ(depth.at[0], 0);
  EXPECT_EQ(depth.at[program.size() - 1], 0);  // exit at depth 0
  // The innermost body sits under two open SSY regions.
  int max_depth = 0;
  for (u32 pc = 0; pc < program.size(); ++pc) {
    ASSERT_GE(depth.at[pc], 0) << "pc " << pc << " unreachable";
    if (program.at(pc).op == Opcode::kIAdd) {
      EXPECT_EQ(depth.at[pc], 2);
    }
    max_depth = std::max(max_depth, depth.at[pc]);
  }
  EXPECT_EQ(max_depth, 2);
}

TEST(SaCfg, BareSyncIsAnUnderflow) {
  // KernelBuilder's structured helpers cannot emit this, so link it by hand.
  Instr sync;
  sync.op = Opcode::kSync;
  Instr exit;
  exit.op = Opcode::kExit;
  const Program program("bad_sync", {sync, exit}, 0, 0, 0);

  const auto depth = sa::SsyDepth::compute(program);
  EXPECT_EQ(depth.underflow_pcs, (std::vector<u32>{0}));
}

// --------------------------------------------------- 64-bit register pairs --

TEST(SaCfg, WideOpsDefineAndUseRegisterPairs) {
  KernelBuilder b("wide");
  b.mov_u64(2, 0x1122334455667788ull);                       // pc 0: R2,R3
  b.fadd_f64(4, Operand::reg(2), Operand::reg(2));           // pc 1: R4,R5
  b.ldc_u64(6, 0);                                           // pc 2: R6,R7
  b.stg(6, 4, 0, 8);                                         // pc 3: 8-byte
  b.exit_();
  const Program program = must_build(b);

  const auto mov = sim::def_use(program.at(0));
  EXPECT_TRUE(mov.dst_regs.contains(2));
  EXPECT_TRUE(mov.dst_regs.contains(3));
  const auto fadd = sim::def_use(program.at(1));
  EXPECT_TRUE(fadd.src_regs.contains(2));
  EXPECT_TRUE(fadd.src_regs.contains(3));
  EXPECT_TRUE(fadd.dst_regs.contains(4));
  EXPECT_TRUE(fadd.dst_regs.contains(5));
  const auto stg = sim::def_use(program.at(3));
  EXPECT_TRUE(stg.src_regs.contains(6));
  EXPECT_TRUE(stg.src_regs.contains(7));  // 64-bit address pair
  EXPECT_TRUE(stg.src_regs.contains(4));
  EXPECT_TRUE(stg.src_regs.contains(5));  // 8-byte store data pair

  // Both halves of the pair stay live until the consumer reads them.
  const auto cfg = sa::Cfg::build(program);
  const auto live = sa::Liveness::compute(program, cfg);
  EXPECT_TRUE(live.reg_live_out(0, 2));
  EXPECT_TRUE(live.reg_live_out(0, 3));
  EXPECT_FALSE(live.reg_live_out(1, 2));
  EXPECT_FALSE(live.reg_live_out(1, 3));
  EXPECT_TRUE(live.reg_live_out(1, 4));
  EXPECT_TRUE(live.reg_live_out(1, 5));
}

// --------------------------------------------------- predicate liveness --

TEST(SaCfg, PredicateLivenessThroughSetpAndSel) {
  KernelBuilder b("preds");
  b.mov_u32(2, Operand::imm_u(3));                             // pc 0
  b.isetp(CmpOp::kLt, 0, Operand::reg(2), Operand::imm_u(5));  // pc 1: P0
  b.sel(4, Operand::imm_u(1), Operand::imm_u(0), 0);           // pc 2: reads P0
  b.isetp(CmpOp::kGe, 1, Operand::reg(4), Operand::imm_u(1));  // pc 3: P1
  b.ldc_u64(6, 0);                                             // pc 4
  b.stg(6, 4);                                                 // pc 5 @P1
  b.guard_last(1);
  b.exit_();                                                   // pc 6
  const Program program = must_build(b);

  const auto sel = sim::def_use(program.at(2));
  EXPECT_EQ(sel.src_preds, 1u << 0);
  const auto guarded_stg = sim::def_use(program.at(5));
  EXPECT_EQ(guarded_stg.src_preds, 1u << 1);  // the @P1 guard is a use

  const auto cfg = sa::Cfg::build(program);
  const auto live = sa::Liveness::compute(program, cfg);
  // P0 is live from the compare to the select, then dead.
  EXPECT_TRUE(live.pred_live_out(1, 0));
  EXPECT_FALSE(live.pred_live_out(2, 0));
  // P1 stays live until the guarded store consumes it.
  EXPECT_TRUE(live.pred_live_out(3, 0 + 1));
  EXPECT_TRUE(live.pred_live_out(4, 1));
  EXPECT_FALSE(live.pred_live_out(5, 1));
  // PT is never tracked as live.
  EXPECT_FALSE(live.pred_live_out(1, sim::kPredT));
}

// A guarded write must not end a live range: lanes whose guard is false keep
// the old value, so a strike on the original definition can still be read.
TEST(SaCfg, GuardedWriteDoesNotKill) {
  KernelBuilder b("guarded_kill");
  b.mov_u32(2, Operand::imm_u(7));                               // pc 0
  b.isetp(CmpOp::kLt, 0, Operand::reg(2), Operand::imm_u(5));    // pc 1
  b.mov_u32(2, Operand::imm_u(9));                               // pc 2 @P0
  b.guard_last(0);
  b.ldc_u64(4, 0);                                               // pc 3
  b.stg(4, 2);                                                   // pc 4
  b.exit_();
  const Program program = must_build(b);

  const auto cfg = sa::Cfg::build(program);
  const auto live = sa::Liveness::compute(program, cfg);
  // The pc-0 value survives the guarded redefinition at pc 2.
  EXPECT_TRUE(live.reg_live_out(0, 2));
  EXPECT_TRUE(live.reg_live_out(2, 2));

  // Both definitions may reach the store.
  const auto reaching = sa::ReachingDefs::compute(program, cfg);
  EXPECT_EQ(reaching.reaching_defs(4, 2), (std::vector<u32>{0, 2}));

  // An unguarded redefinition kills: rebuild without the guard.
  KernelBuilder b2("unguarded_kill");
  b2.mov_u32(2, Operand::imm_u(7));
  b2.mov_u32(2, Operand::imm_u(9));
  b2.ldc_u64(4, 0);
  b2.stg(4, 2);
  b2.exit_();
  const Program program2 = must_build(b2);
  const auto cfg2 = sa::Cfg::build(program2);
  const auto live2 = sa::Liveness::compute(program2, cfg2);
  EXPECT_FALSE(live2.reg_live_out(0, 2));
  const auto reaching2 = sa::ReachingDefs::compute(program2, cfg2);
  EXPECT_EQ(reaching2.reaching_defs(3, 2), (std::vector<u32>{1}));
}

// ---------------------------------------------------------- unreachable --

TEST(SaCfg, CodeAfterUnconditionalBranchIsUnreachable) {
  KernelBuilder b("unreachable");
  const auto end = b.new_label();
  b.bra(end);                         // pc 0
  b.mov_u32(2, Operand::imm_u(1));    // pc 1: skipped forever
  b.bind(end);
  b.exit_();                          // pc 2
  const Program program = must_build(b);

  const auto cfg = sa::Cfg::build(program);
  EXPECT_TRUE(cfg.pc_reachable(0));
  EXPECT_FALSE(cfg.pc_reachable(1));
  EXPECT_TRUE(cfg.pc_reachable(2));

  const auto depth = sa::SsyDepth::compute(program);
  EXPECT_EQ(depth.at[1], -1);
}

}  // namespace
}  // namespace gfi
