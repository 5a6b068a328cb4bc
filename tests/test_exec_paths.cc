// Execution-path equivalence tests for the two-tier engine: the threaded
// tier must be bit-identical to the instrumented tier, concurrent launches
// must safely share one Program's decode cache (lowering included), a hooked
// launch must run instrumented without perturbing results, pending faults
// must route the threaded tier onto the checked paths, and the hook
// contract (invocation order, launch_end on every exit path) is pinned here.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "sassim/defuse.h"
#include "sassim/profiler.h"
#include "sassim/tracer.h"
#include "sim_test_util.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using sim::Device;
using gfi::Dim3;
using sim::KernelBuilder;
using sim::LaunchOptions;
using sim::LaunchResult;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;

/// Everything a launch can externally produce, for bit-exact comparison.
struct RunOutput {
  LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
};

bool same_regs(const sim::RegList& a, const sim::RegList& b) {
  if (a.count != b.count) return false;
  for (int i = 0; i < a.count; ++i) {
    if (a.regs[i] != b.regs[i]) return false;
  }
  return true;
}

bool identical(const RunOutput& a, const RunOutput& b) {
  return a.result.trap.kind == b.result.trap.kind &&
         a.result.trap.pc == b.result.trap.pc &&
         a.result.dyn_warp_instrs == b.result.dyn_warp_instrs &&
         a.result.dyn_thread_instrs == b.result.dyn_thread_instrs &&
         a.result.cycles == b.result.cycles &&
         a.result.ecc.corrected_sbe == b.result.ecc.corrected_sbe &&
         a.result.ecc.detected_dbe == b.result.ecc.detected_dbe &&
         a.result.ecc.silent_corrupted == b.result.ecc.silent_corrupted &&
         a.memory.brk == b.memory.brk && a.memory.data == b.memory.data;
}

/// Runs `workload_name` on a fresh device and returns the full output.
RunOutput run_workload(const std::string& workload_name,
                       const sim::Program* shared_program,
                       const LaunchOptions& options) {
  auto workload = wl::make_workload(workload_name);
  EXPECT_NE(workload, nullptr) << workload_name;
  Device device(arch::toy());
  auto spec = workload->setup(device);
  EXPECT_TRUE(spec.is_ok()) << spec.status().to_string();
  const sim::Program& program =
      shared_program ? *shared_program : workload->program();
  auto launch = device.launch(program, spec.value().grid, spec.value().block,
                              spec.value().params, options);
  EXPECT_TRUE(launch.is_ok()) << launch.status().to_string();
  return RunOutput{launch.value(), device.snapshot()};
}

// Workloads with guards, divergence, loops, atomics, and FP — the shapes
// where the threaded tier's single guard-mask computation could diverge
// from the instrumented tier's if either were wrong.
const char* const kPathWorkloads[] = {"vecadd", "scan", "reduce_u32", "spmv"};

TEST(ExecPaths, AllTiersBitIdenticalOnEveryWorkload) {
  // The acceptance bar for the threaded tier: every built-in workload
  // produces byte-identical memory and identical counters on threaded and
  // instrumented execution.
  for (const std::string& name : wl::workload_names()) {
    LaunchOptions instrumented;
    instrumented.engine = sim::EngineTier::kInstrumented;
    const RunOutput reference = run_workload(name, nullptr, instrumented);
    EXPECT_EQ(reference.result.tier_used, sim::EngineTier::kInstrumented)
        << name;
    LaunchOptions threaded;
    threaded.engine = sim::EngineTier::kThreaded;
    const RunOutput out = run_workload(name, nullptr, threaded);
    EXPECT_TRUE(identical(reference, out)) << name;
    EXPECT_EQ(out.result.tier_used, sim::EngineTier::kThreaded) << name;
    EXPECT_FALSE(out.result.downgraded) << name;
  }
}

TEST(ExecPaths, PendingFaultRoutesThreadedTierOntoCheckedPaths) {
  // An injected (not yet consumed) fault disables the unchecked row copies:
  // the threaded tier must take the fault-aware generic path and classify
  // the fault exactly like the other tiers, ECC counters included.
  auto workload = wl::make_workload("vecadd");
  ASSERT_NE(workload, nullptr);
  std::vector<RunOutput> outputs;
  for (const sim::EngineTier tier :
       {sim::EngineTier::kInstrumented, sim::EngineTier::kThreaded}) {
    Device device(arch::toy());
    auto spec = workload->setup(device);
    ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
    device.memory().inject_fault(sim::GlobalMemory::kBaseAddress,
                                 /*flip_mask=*/1u << 3);
    LaunchOptions options;
    options.engine = tier;
    auto launch = device.launch(workload->program(), spec.value().grid,
                                spec.value().block, spec.value().params,
                                options);
    ASSERT_TRUE(launch.is_ok()) << launch.status().to_string();
    outputs.push_back(RunOutput{launch.value(), device.snapshot()});
  }
  EXPECT_TRUE(identical(outputs[0], outputs[1]));
}

TEST(ExecPaths, EmptyHookVectorTakesSameResultsAsInstrumented) {
  // A hooked launch that is not armed (a plain tracer observing every
  // instruction) runs instrumented to the end and must agree with the
  // hook-free launch on every counter the paper's experiments read.
  for (const char* name : kPathWorkloads) {
    const RunOutput a = run_workload(name, nullptr, LaunchOptions{});

    sim::TracerHook tracer(/*max_entries=*/4);
    LaunchOptions hooked;
    hooked.hook = &tracer;
    const RunOutput c = run_workload(name, nullptr, hooked);
    EXPECT_TRUE(identical(a, c)) << name;
    EXPECT_EQ(c.result.tier_used, sim::EngineTier::kInstrumented) << name;
    EXPECT_FALSE(c.result.downgraded) << name;
    EXPECT_EQ(tracer.seen(), c.result.dyn_warp_instrs) << name;
  }
}

TEST(ExecPaths, ConcurrentLaunchesShareOneDecodeCache) {
  // One *undecoded* Program shared by many threads: the first decode races,
  // exactly as concurrent campaign workers race on a workload's kernel.
  auto workload = wl::make_workload("scan");
  ASSERT_NE(workload, nullptr);
  const sim::Program shared = workload->program();  // copy: fresh cache

  const RunOutput reference = run_workload("scan", &shared, LaunchOptions{});

  constexpr int kThreads = 8;
  std::vector<RunOutput> outputs(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        LaunchOptions options;
        // Mix both tiers so the racing first decode (handler lowering
        // included) serves every consumer.
        options.engine = t % 2 == 0 ? sim::EngineTier::kThreaded
                                    : sim::EngineTier::kInstrumented;
        outputs[t] = run_workload("scan", &shared, options);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(identical(reference, outputs[t])) << "thread " << t;
  }
}

TEST(ExecPaths, NativeProfileMatchesProfilerHook) {
  // Profile-only launches must stay on the fastest tier — and the threaded
  // tier's per-opcode counts must match ProfilerHook exactly.
  for (const std::string& name : wl::workload_names()) {
    sim::Profile native;
    LaunchOptions threaded;
    threaded.profile = &native;
    const RunOutput threaded_run = run_workload(name, nullptr, threaded);
    EXPECT_EQ(threaded_run.result.tier_used, sim::EngineTier::kThreaded)
        << name;

    sim::ProfilerHook hook;
    LaunchOptions instrumented;
    instrumented.hook = &hook;
    (void)run_workload(name, nullptr, instrumented);

    const sim::Profile& via_hook = hook.profile();
    EXPECT_EQ(native.total_warp_instrs, via_hook.total_warp_instrs) << name;
    EXPECT_EQ(native.total_thread_instrs, via_hook.total_thread_instrs)
        << name;
    EXPECT_EQ(native.warp_instrs_by_opcode, via_hook.warp_instrs_by_opcode)
        << name;
    EXPECT_EQ(native.warp_instrs_by_group, via_hook.warp_instrs_by_group)
        << name;
    EXPECT_EQ(native.thread_instrs_by_group, via_hook.thread_instrs_by_group)
        << name;
  }
}

/// Records the exact callback sequence into `log`; with `trap_first`, it
/// also requests a trap on the first instruction it sees.
class OrderRecordingHook final : public sim::InstrumentHook {
 public:
  OrderRecordingHook(std::vector<std::string>* log, bool trap_first = false)
      : log_(log), trap_first_(trap_first) {}

  void on_launch_begin(const sim::Program&) override {
    log_->push_back("begin");
  }
  void on_launch_end() override { log_->push_back("end"); }
  void on_before_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index < 2) log_->push_back("before");
    if (trap_first_) ctx.requested_trap = sim::TrapKind::kEccDoubleBit;
  }
  void on_after_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index < 2) log_->push_back("after");
  }

 private:
  std::vector<std::string>* log_;
  bool trap_first_;
};

TEST(ExecPaths, HookInvocationOrderIsPinned) {
  // First two dynamic instructions: begin, then per instruction on_before
  // followed by on_after, and finally end.
  std::vector<std::string> log;
  OrderRecordingHook recorder(&log);
  LaunchOptions options;
  options.hook = &recorder;
  (void)sim_test::run_lane_kernel(
      [](KernelBuilder& b) { b.mov_u32(10, Operand::imm_u(7)); }, options);
  const std::vector<std::string> expected = {
      "begin",            // launch start
      "before", "after",  // dyn 0
      "before", "after",  // dyn 1
      "end",              // launch end
  };
  EXPECT_EQ(log, expected);
}

TEST(ExecPaths, LaunchEndFiresOnTrapExit) {
  // The RAII launch scope must pair begin/end even when the launch aborts:
  // the hook's own trap request ends it before on_after_instr.
  std::vector<std::string> log;
  OrderRecordingHook trapper(&log, /*trap_first=*/true);
  LaunchOptions options;
  options.hook = &trapper;

  KernelBuilder b("trap_path");
  b.mov_u32(10, Operand::imm_u(1));
  b.exit_();
  auto program = must(b);
  Device device(arch::toy());
  auto launch = device.launch(program, Dim3(1), Dim3(32), {{0}}, options);
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(launch.value().trap.kind, TrapKind::kEccDoubleBit);
  const std::vector<std::string> expected = {"begin", "before", "end"};
  EXPECT_EQ(log, expected);
}

TEST(ExecPaths, DecodedProgramAgreesWithInstructionStream) {
  auto workload = wl::make_workload("reduce_u32");
  ASSERT_NE(workload, nullptr);
  const sim::Program& program = workload->program();
  const sim::DecodedProgram& dec = program.decoded();
  ASSERT_EQ(dec.size(), program.size());
  // The cache is built once: repeated calls return the same object.
  EXPECT_EQ(&program.decoded(), &dec);
  for (u32 pc = 0; pc < program.size(); ++pc) {
    const sim::Instr& instr = program.at(pc);
    const sim::DecodedInstr& decoded = dec.at(pc);
    EXPECT_EQ(decoded.op, instr.op) << "pc " << pc;
    EXPECT_EQ(decoded.group, sim::instr_group(instr)) << "pc " << pc;
    EXPECT_EQ(dec.guarded(pc), sim::is_guarded(instr)) << "pc " << pc;
    const sim::DefUse expected = sim::def_use(instr);
    EXPECT_TRUE(same_regs(dec.def_use(pc).src_regs, expected.src_regs))
        << "pc " << pc;
    EXPECT_TRUE(same_regs(dec.def_use(pc).dst_regs, expected.dst_regs))
        << "pc " << pc;
  }
  // Copying a Program resets the cache on the copy, not the original.
  sim::Program copy = program;
  EXPECT_NE(&copy.decoded(), &dec);
  EXPECT_EQ(&program.decoded(), &dec);
}

}  // namespace
}  // namespace gfi
