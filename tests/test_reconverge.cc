// Stopping at reconvergence: an armed launch given its golden run's tail
// copies the struck warp into a golden twin just before the strike and
// ends once the warp has rejoined it, with the golden run's final memory
// (plus the warp's differing write-once words) and counts. Each case is a
// small KernelBuilder kernel whose only FFMA is the struck instruction,
// checked at the launch (it stops early or not, as it must, and leaves the
// memory, counts and cycles of the same strike run to the end on the
// instrumented tier) and as a campaign with 1 and 3 workers against the
// instrumented pin:
//  - a flip into a value that dies stops at the strike;
//  - a flip into a predicate that guards a dying value stops once the
//    predicate is written again, with the lane count of the full run;
//  - a flip that reaches a write-once output stops after the store, and
//    its SDC records and error magnitudes are the pin's;
//  - a differing word that another warp reads later does not stop;
//  - a differing shared store does not stop;
//  - a flip that changes a branch does not stop.
// Past the strike only a copy of the struck warp and its twin, running
// ahead of every other warp, find a stop; the last tests pin where they
// must not go on, and the launch then runs to its end:
//  - at a load of a word another warp writes after the strike;
//  - there too when the copy has stored a word another warp reads before
//    the struck warp stores it: the copy's stores are undone;
//  - at a barrier, before a flip that rejoins only after it and a shared
//    load;
//  - a memory campaign's golden run, which has no tail, does not keep a
//    later IOV campaign from stopping early.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/golden_cache.h"
#include "fi/injector.h"
#include "fi/journal.h"
#include "obs/registry.h"
#include "sa/dataflow.h"
#include "sassim/device.h"
#include "sassim/kernel_builder.h"
#include "workloads/kernels_common.h"
#include "workloads/util.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using sim::CmpOp;
using sim::KernelBuilder;
using sim::Operand;

constexpr u32 kThreads = 256;
constexpr u32 kBlock = 64;  // two warps a CTA

/// A100 with register-file ECC off.
const sim::MachineConfig& machine() {
  static const sim::MachineConfig config = [] {
    sim::MachineConfig a100 = arch::a100();
    a100.rf_ecc = ecc::EccMode::kDisabled;
    return a100;
  }();
  return config;
}

/// Every kernel's start: R0 = gid, R16 = in[gid], R12:R13 = &out[gid],
/// R14:R15 = &aux[gid], R6:R7 = out.
void prologue(KernelBuilder& b) {
  wl::emit_global_tid_x(b, 0);
  b.ldc_u64(4, 0);
  b.ldc_u64(6, 1);
  b.ldc_u64(8, 2);
  b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
  b.imad_wide(12, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
  b.imad_wide(14, Operand::reg(0), Operand::imm_u(4), Operand::reg(8));
  b.ldg(16, 10);
}

/// The struck FFMA's result dies: it is overwritten before it is read.
sim::Program dies() {
  KernelBuilder b("reconverge_dies");
  prologue(b);
  b.ffma_f32(18, Operand::reg(16), Operand::reg(16), Operand::reg(16));
  b.fadd_f32(18, Operand::reg(16), Operand::reg(16));
  b.stg(12, 18);
  b.exit_();
  return wl::must_build(b);
}

/// The struck FFMA's result decides a predicate that guards an addition
/// whose result dies; the predicate is then written again. A flip that
/// changes it runs the addition on one lane fewer before the stop.
sim::Program guarded() {
  KernelBuilder b("reconverge_guarded");
  prologue(b);
  b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(1.0f),
             Operand::imm_f32(0.0f));
  b.fsetp(CmpOp::kLt, 1, Operand::reg(18), Operand::imm_f32(0.5f));
  b.fadd_f32(19, Operand::reg(16), Operand::reg(16));
  b.guard_last(1);
  b.fsetp(CmpOp::kLt, 1, Operand::reg(16), Operand::imm_f32(2.0f));
  b.fmul_f32(19, Operand::reg(16), Operand::imm_f32(3.0f));
  b.stg(12, 19);
  b.exit_();
  return wl::must_build(b);
}

/// The struck FFMA's result is stored to a word nothing reads again.
sim::Program output() {
  KernelBuilder b("reconverge_output");
  prologue(b);
  b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
             Operand::imm_f32(1.0f));
  b.stg(12, 18);
  b.exit_();
  return wl::must_build(b);
}

/// The struck FFMA's result is stored, and after a barrier the other warp
/// of the CTA copies it to aux.
sim::Program read_later() {
  KernelBuilder b("reconverge_read_later");
  prologue(b);
  b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
             Operand::imm_f32(1.0f));
  b.stg(12, 18);
  b.bar();
  b.lop(sim::LopKind::kXor, 20, Operand::reg(0), Operand::imm_u(32));
  b.imad_wide(22, Operand::reg(20), Operand::imm_u(4), Operand::reg(6));
  b.ldg(24, 22);
  b.stg(14, 24);
  b.exit_();
  return wl::must_build(b);
}

/// The struck FFMA's result goes through shared memory.
sim::Program shared() {
  KernelBuilder b("reconverge_shared");
  b.set_shared_bytes(kBlock * 4);
  prologue(b);
  b.s2r(20, sim::SpecialReg::kTidX);
  b.shf(sim::ShiftKind::kLeft, 21, Operand::reg(20), Operand::imm_u(2));
  b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
             Operand::imm_f32(1.0f));
  b.sts(21, 18);
  b.bar();
  b.lds(24, 21);
  b.stg(12, 24);
  b.exit_();
  return wl::must_build(b);
}

/// The struck FFMA's result decides a branch: inputs lie below 0.5, and a
/// flip of bit 30 takes any of them above it.
sim::Program branch() {
  KernelBuilder b("reconverge_branch");
  prologue(b);
  b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(1.0f),
             Operand::imm_f32(0.0f));
  b.fsetp(CmpOp::kLt, 0, Operand::reg(18), Operand::imm_f32(0.5f));
  b.if_then_else(
      0, false,
      [&] { b.fmul_f32(19, Operand::reg(18), Operand::imm_f32(2.0f)); },
      [&] { b.fmul_f32(19, Operand::reg(18), Operand::imm_f32(3.0f)); });
  b.stg(12, 19);
  b.exit_();
  return wl::must_build(b);
}

/// Warp 0 of each CTA (the struck one) runs `then_body` and warp 1
/// `else_body`, with R20 = tid.x, R22:R23 = &aux[gid ^ 32] (the same
/// lane's word of the other warp) and R28:R29 = &out[gid ^ 32].
sim::Program split(const char* name, u32 shared_bytes,
                   const std::function<void(KernelBuilder&)>& then_body,
                   const std::function<void(KernelBuilder&)>& else_body) {
  KernelBuilder b(name);
  b.set_shared_bytes(shared_bytes);
  prologue(b);
  b.s2r(20, sim::SpecialReg::kTidX);
  b.lop(sim::LopKind::kXor, 21, Operand::reg(0), Operand::imm_u(32));
  b.imad_wide(22, Operand::reg(21), Operand::imm_u(4), Operand::reg(8));
  b.imad_wide(28, Operand::reg(21), Operand::imm_u(4), Operand::reg(6));
  b.isetp(CmpOp::kLt, 0, Operand::reg(20), Operand::imm_u(32));
  b.if_then_else(0, false, [&] { then_body(b); }, [&] { else_body(b); });
  b.exit_();
  return wl::must_build(b);
}

/// `count` dependent additions: time for the other warp to move on.
void delay(KernelBuilder& b, int count) {
  for (int i = 0; i < count; ++i) {
    b.iadd_u32(26, Operand::reg(26), Operand::imm_u(1));
  }
}

/// The struck warp stores its FFMA result to out, then multiplies it by
/// the aux word of the other warp's lane, which that warp sets to 1.0 just
/// after the strike, and stores the product to aux. The other warp copies
/// the struck warp's out word to its own before the struck warp stores it.
/// Run ahead, the copy's load reads a word another warp writes; had it
/// gone on, it would read the 0 the word held at the strike; had its
/// stores not been undone, the other warp would copy the flipped value.
sim::Program foreign() {
  return split(
      "reconverge_foreign", 0,
      [](KernelBuilder& b) {
        b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
                   Operand::imm_f32(1.0f));
        delay(b, 16);
        b.stg(12, 18);
        delay(b, 16);
        b.ldg(24, 22);
        b.fmul_f32(19, Operand::reg(18), Operand::reg(24));
        b.stg(14, 19);
      },
      [](KernelBuilder& b) {
        b.mov_f32(24, 1.0f);
        b.stg(14, 24);
        b.ldg(25, 28);
        b.stg(12, 25);
      });
}

/// As foreign(), except that after its load the struck warp branches on
/// its FFMA result, where a flip of bit 30 would make the twin give up.
sim::Program undo() {
  return split(
      "reconverge_undo", 0,
      [](KernelBuilder& b) {
        b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
                   Operand::imm_f32(1.0f));
        delay(b, 16);
        b.stg(12, 18);
        delay(b, 16);
        b.ldg(24, 22);
        b.fsetp(CmpOp::kLt, 1, Operand::reg(18), Operand::imm_f32(100.0f));
        b.if_then(1, false, [&] {
          b.fmul_f32(19, Operand::reg(18), Operand::reg(24));
          b.stg(14, 19);
        });
      },
      [](KernelBuilder& b) {
        b.mov_f32(24, 1.0f);
        b.stg(14, 24);
        b.ldg(25, 28);
        b.stg(12, 25);
      });
}

/// The struck warp waits at a barrier for the other warp to set its lane's
/// shared word to 1.0, then stores the product of that word and its FFMA
/// result to out, which would rejoin the twin (out is write-once). Run
/// ahead, the copy meets the barrier before it rejoins: had it gone on,
/// its shared load would read the 0 the word held at the strike.
sim::Program barrier() {
  return split(
      "reconverge_barrier", kBlock * 4,
      [](KernelBuilder& b) {
        b.ffma_f32(18, Operand::reg(16), Operand::imm_f32(2.0f),
                   Operand::imm_f32(1.0f));
        b.bar();
        b.lop(sim::LopKind::kXor, 21, Operand::reg(20), Operand::imm_u(32));
        b.shf(sim::ShiftKind::kLeft, 21, Operand::reg(21), Operand::imm_u(2));
        b.lds(24, 21);
        b.fmul_f32(19, Operand::reg(18), Operand::reg(24));
        b.stg(12, 19);
      },
      [](KernelBuilder& b) {
        b.shf(sim::ShiftKind::kLeft, 21, Operand::reg(20), Operand::imm_u(2));
        b.mov_f32(24, 1.0f);
        b.sts(21, 24);
        b.bar();
      });
}

/// One of the kernels above over kThreads threads: in (inputs in
/// [0.1, 0.4)), out and aux. Its reference is its own output on a fresh
/// device; a mismatch beyond 1e-6 is an SDC.
class KernelWorkload final : public wl::Workload {
 public:
  explicit KernelWorkload(sim::Program program)
      : name_(program.name()),
        program_(std::move(program)),
        in_(wl::random_f32(kThreads, 0x7EC0, 0.1f, 0.4f)) {
    sim::Device device(machine());
    const wl::LaunchSpec spec = setup(device).value();
    auto ran = device.launch(program_, spec.grid, spec.block, spec.params);
    if (!ran.is_ok() || !ran.value().ok()) std::abort();
    want_ = outputs(device).value();
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const sim::Program& program() const override {
    return program_;
  }
  [[nodiscard]] f64 tolerance() const override { return 1e-6; }

  Result<wl::LaunchSpec> setup(sim::Device& device) override {
    in_dev_ = device.malloc_n<f32>(kThreads).value();
    out_dev_ = device.malloc_n<f32>(kThreads).value();
    aux_dev_ = device.malloc_n<f32>(kThreads).value();
    if (auto s = device.to_device<f32>(in_dev_, in_); !s.is_ok()) return s;
    wl::LaunchSpec spec;
    spec.grid = Dim3(kThreads / kBlock);
    spec.block = Dim3(kBlock);
    spec.params = {in_dev_, out_dev_, aux_dev_};
    return spec;
  }

  Result<Checked> check(sim::Device& device) const override {
    Checked checked;
    auto got = outputs(device);
    if (!got.is_ok()) {
      checked.trap = sim::TrapKind::kEccDoubleBit;
      return checked;
    }
    checked.result = wl::compare_f32(got.value(), want_, tolerance());
    return checked;
  }

 private:
  /// out then aux.
  Result<std::vector<f32>> outputs(sim::Device& device) const {
    std::vector<f32> host(2 * kThreads);
    const std::span<f32> all(host);
    if (device.to_host(all.first(kThreads), out_dev_) != sim::TrapKind::kNone ||
        device.to_host(all.last(kThreads), aux_dev_) != sim::TrapKind::kNone) {
      return Status::internal("output copy trapped");
    }
    return host;
  }

  std::string name_;
  sim::Program program_;
  std::vector<f32> in_;
  std::vector<f32> want_;
  u64 in_dev_ = 0, out_dev_ = 0, aux_dev_ = 0;
};

struct Case {
  const char* name;
  std::function<sim::Program()> build;
  bool stops;  ///< whether a bit-30 flip of the FFMA stops early
};

const std::vector<Case>& cases() {
  static const std::vector<Case> all = {
      {"reconverge_dies", dies, true},
      {"reconverge_guarded", guarded, true},
      {"reconverge_output", output, true},
      {"reconverge_read_later", read_later, false},
      {"reconverge_shared", shared, false},
      {"reconverge_branch", branch, false},
  };
  return all;
}

/// Registers the kernels as workloads, once.
void register_kernels() {
  static const bool registered = [] {
    for (const Case& c : cases()) {
      const auto build = c.build;
      wl::register_workload(c.name, [build] {
        return std::make_unique<KernelWorkload>(build());
      });
    }
    wl::register_workload("reconverge_foreign", [] {
      return std::make_unique<KernelWorkload>(foreign());
    });
    wl::register_workload("reconverge_undo", [] {
      return std::make_unique<KernelWorkload>(undo());
    });
    wl::register_workload("reconverge_barrier", [] {
      return std::make_unique<KernelWorkload>(barrier());
    });
    return true;
  }();
  (void)registered;
}

/// An IOV flip of bit `bit` of the FFMA's result, on warp `warp` (in issue
/// order) and lane 5.
fi::FaultSite ffma_site(u64 warp, u32 bit) {
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32Fma;
  site.target_occurrence = warp;
  site.lane_sel = 5;
  site.bit_sel = bit;
  return site;
}

struct Ran {
  sim::LaunchResult result;
  sim::GlobalMemory::Snapshot memory;
  fi::InjectionEffect effect;
};

/// The strike at `site` on a fresh device, pinned to the instrumented tier
/// and run to the end, or armed with the golden tail (`stop`).
Ran strike(const std::string& name, const fi::FaultSite& site, bool stop) {
  auto workload = wl::make_workload(name);
  sim::Device device(machine());
  const wl::LaunchSpec spec = workload->setup(device).value();
  const sim::GlobalMemory::Snapshot start = device.snapshot();
  sim::GoldenTail tail;
  const sim::LiveRows live = sa::live_in_rows(workload->program());
  if (stop) {
    sim::LaunchOptions golden;
    golden.record_tail = &tail;
    auto ran = device.launch(workload->program(), spec.grid, spec.block,
                             spec.params, golden);
    EXPECT_TRUE(ran.is_ok() && ran.value().ok());
    device.restore(start);
  }
  fi::InjectorHook hook(site, machine());
  sim::LaunchOptions options;
  options.hook = &hook;
  if (stop) {
    options.golden_tail = &tail;
    options.live_rows = &live;
    options.memory_base = &start;
  } else {
    options.engine = sim::EngineTier::kInstrumented;
  }
  auto ran = device.launch(workload->program(), spec.grid, spec.block,
                           spec.params, options);
  EXPECT_TRUE(ran.is_ok()) << ran.status().to_string();
  return {ran.value(), device.snapshot(), hook.effect()};
}

TEST(Reconverge, LaunchStopsOnlyWhereTheRestIsGolden) {
  register_kernels();
  for (const Case& c : cases()) {
    for (const u64 warp : {u64{0}, u64{5}}) {
      const fi::FaultSite site = ffma_site(warp, 30);
      const std::string what =
          std::string(c.name) + ", warp " + std::to_string(warp);
      const Ran pinned = strike(c.name, site, false);
      const Ran stopped = strike(c.name, site, true);
      EXPECT_FALSE(pinned.result.reconverged) << what;
      EXPECT_EQ(stopped.result.reconverged, c.stops) << what;
      EXPECT_TRUE(stopped.effect.activated) << what;
      EXPECT_EQ(stopped.effect.struck_dyn_index,
                pinned.effect.struck_dyn_index)
          << what;
      if (c.stops) {
        EXPECT_GT(stopped.result.reconverged_at,
                  stopped.effect.struck_dyn_index)
            << what;
        EXPECT_LT(stopped.result.reconverged_at,
                  stopped.result.dyn_warp_instrs)
            << what;
      }
      EXPECT_EQ(stopped.result.trap.kind, pinned.result.trap.kind) << what;
      EXPECT_EQ(stopped.result.dyn_warp_instrs, pinned.result.dyn_warp_instrs)
          << what;
      EXPECT_EQ(stopped.result.dyn_thread_instrs,
                pinned.result.dyn_thread_instrs)
          << what;
      EXPECT_EQ(stopped.result.cycles, pinned.result.cycles) << what;
      EXPECT_EQ(stopped.result.ecc.corrected_sbe,
                pinned.result.ecc.corrected_sbe)
          << what;
      EXPECT_TRUE(stopped.memory.data == pinned.memory.data)
          << what << ": final memory differs";
    }
  }
}

TEST(Reconverge, DeadValueStopsAtTheStrike) {
  register_kernels();
  const Ran stopped = strike("reconverge_dies", ffma_site(3, 7), true);
  ASSERT_TRUE(stopped.result.reconverged);
  // The stop comes right after the struck slot: its count includes it.
  EXPECT_EQ(stopped.result.reconverged_at,
            stopped.effect.struck_dyn_index + 1);
}

/// `name`'s IOV campaign on the FFMA (bit `bit`, or random), 24 injections,
/// with 1 and 3 workers against the instrumented pin; returns the pin's
/// records and the injections that stopped early with 1 and 3 workers.
struct Swept {
  std::vector<fi::InjectionRecord> records;
  u64 reconverged[2] = {0, 0};
};

Swept campaign(const std::string& name, std::optional<u32> bit,
               fi::InjectionMode mode = fi::InjectionMode::kIov) {
  fi::CampaignConfig config;
  config.workload = name;
  config.machine = machine();
  config.model = {mode, fi::BitFlipModel::kSingle};
  config.group = sim::InstrGroup::kFp32Fma;
  config.fixed_bit = bit;
  config.num_injections = 24;
  config.seed = 9;
  config.engine = sim::EngineTier::kInstrumented;
  config.threads = 1;
  auto pinned = fi::Campaign::run(config);
  EXPECT_TRUE(pinned.is_ok()) << pinned.status().to_string();
  Swept swept;
  swept.records = pinned.value().records;
  config.engine = sim::EngineTier::kThreaded;
  int k = 0;
  for (const std::size_t threads : {1, 3}) {
    obs::Registry metrics;
    config.threads = threads;
    config.metrics = &metrics;
    auto fast = fi::Campaign::run(config);
    EXPECT_TRUE(fast.is_ok()) << fast.status().to_string();
    EXPECT_EQ(fast.value().records.size(), swept.records.size());
    for (std::size_t i = 0; i < swept.records.size(); ++i) {
      EXPECT_EQ(fi::Journal::record_line(i, fast.value().records[i]),
                fi::Journal::record_line(i, swept.records[i]))
          << name << ", " << threads << " threads";
    }
    swept.reconverged[k++] =
        metrics.counter("campaign.reconverge.injections").value();
  }
  return swept;
}

TEST(Reconverge, CampaignsMatchTheInstrumentedPin) {
  register_kernels();
  for (const Case& c : cases()) {
    // Random bits: the dying and output flips stop early whatever the bit.
    const Swept random = campaign(c.name, std::nullopt);
    const Swept high = campaign(c.name, 30);
    for (int k = 0; k < 2; ++k) {
      if (c.stops) {
        EXPECT_EQ(random.reconverged[k], random.records.size()) << c.name;
        EXPECT_EQ(high.reconverged[k], high.records.size()) << c.name;
      } else {
        EXPECT_EQ(high.reconverged[k], 0u) << c.name;
      }
    }
  }
}

TEST(Reconverge, WriteOnceOutputKeepsSdcRecords) {
  register_kernels();
  const Swept high = campaign("reconverge_output", 30);
  ASSERT_EQ(high.reconverged[0], high.records.size());
  for (const fi::InjectionRecord& record : high.records) {
    EXPECT_EQ(record.outcome, fi::Outcome::kSdc);
    EXPECT_GT(record.error_magnitude, 1.0);
  }
}

/// The launch of the strike on `name`'s first warp (bit 20, lane 5) does
/// not stop, its run ahead given up for `reason`, and leaves the pin's
/// memory and counts; its campaign matches the pin with 1 and 3 workers,
/// no injection stopped.
void expect_runs_to_end(const std::string& name, sim::TwinGiveUp reason) {
  const fi::FaultSite site = ffma_site(0, 20);
  const Ran pinned = strike(name, site, false);
  const Ran stopped = strike(name, site, true);
  EXPECT_FALSE(stopped.result.reconverged) << name;
  EXPECT_EQ(stopped.result.twin_gave_up, reason) << name;
  EXPECT_EQ(stopped.result.trap.kind, pinned.result.trap.kind) << name;
  EXPECT_EQ(stopped.result.dyn_warp_instrs, pinned.result.dyn_warp_instrs)
      << name;
  EXPECT_EQ(stopped.result.dyn_thread_instrs,
            pinned.result.dyn_thread_instrs)
      << name;
  EXPECT_EQ(stopped.result.cycles, pinned.result.cycles) << name;
  EXPECT_TRUE(stopped.memory.data == pinned.memory.data)
      << name << ": final memory differs";
  // Occurrences past the four struck warps do not strike.
  const Swept swept = campaign(name, 20);
  for (const fi::InjectionRecord& record : swept.records) {
    if (record.outcome == fi::Outcome::kNotActivated) continue;
    EXPECT_EQ(record.outcome, fi::Outcome::kSdc) << name;
  }
  EXPECT_EQ(swept.reconverged[0], 0u) << name;
  EXPECT_EQ(swept.reconverged[1], 0u) << name;
}

TEST(Reconverge, RunAheadRefusesForeignWrites) {
  register_kernels();
  expect_runs_to_end("reconverge_foreign", sim::TwinGiveUp::kForeignLoad);
}

TEST(Reconverge, RunAheadUndoesItsStoresOnFallingBack) {
  register_kernels();
  const fi::FaultSite site = ffma_site(0, 30);
  const Ran pinned = strike("reconverge_undo", site, false);
  const Ran stopped = strike("reconverge_undo", site, true);
  EXPECT_FALSE(stopped.result.reconverged);
  EXPECT_EQ(stopped.result.twin_gave_up, sim::TwinGiveUp::kForeignLoad);
  EXPECT_EQ(stopped.result.dyn_warp_instrs, pinned.result.dyn_warp_instrs);
  EXPECT_EQ(stopped.result.cycles, pinned.result.cycles);
  EXPECT_TRUE(stopped.memory.data == pinned.memory.data)
      << "final memory differs";
  (void)campaign("reconverge_undo", 30);
}

TEST(Reconverge, RunAheadFallsBackAtBarrier) {
  register_kernels();
  expect_runs_to_end("reconverge_barrier", sim::TwinGiveUp::kBarrier);
}

TEST(Reconverge, RunAheadStopsWithNoOtherWarpRun) {
  // The output flip stops ahead, right after the warp's store: the count
  // where it stopped is the strike's plus the store's, whatever the other
  // warps were to run in between.
  register_kernels();
  const Ran stopped = strike("reconverge_output", ffma_site(3, 30), true);
  ASSERT_TRUE(stopped.result.reconverged);
  EXPECT_EQ(stopped.result.reconverged_at,
            stopped.effect.struck_dyn_index + 2);
}

TEST(Reconverge, MemoryCampaignGoldenLeavesIovCampaignsATail) {
  // A memory campaign's golden run records no tail; an IOV campaign of the
  // same workload in the same process must not take it from the cache.
  register_kernels();
  auto& cache = fi::GoldenCache::instance();
  cache.clear();
  (void)campaign("reconverge_output", 30, fi::InjectionMode::kMemory);
  fi::CampaignConfig config;
  config.workload = "reconverge_output";
  config.machine = machine();
  config.model = {fi::InjectionMode::kMemory, fi::BitFlipModel::kSingle};
  auto memory_golden = cache.get_or_run(config);
  ASSERT_TRUE(memory_golden.is_ok());
  EXPECT_EQ(memory_golden.value().tail, nullptr);

  const Swept high = campaign("reconverge_output", 30);
  EXPECT_EQ(high.reconverged[0], high.records.size());
  EXPECT_EQ(high.reconverged[1], high.records.size());
  config.model.mode = fi::InjectionMode::kIov;
  auto iov_golden = cache.get_or_run(config);
  ASSERT_TRUE(iov_golden.is_ok());
  EXPECT_NE(iov_golden.value().tail, nullptr);
}

}  // namespace
}  // namespace gfi
