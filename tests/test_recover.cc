// Recovery subsystem tests: device checkpoint/restore bit-identity, the
// trap-and-retry executor, campaign-level recovery classification under
// transient vs stuck-at faults and the cost of a transient retry, ABFT
// goldens and detection, the journal round-trip of the recovery fields, and
// the trap taxonomy (every TrapKind raisable from a minimal kernel and
// classified as a detected error).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "fi/journal.h"
#include "recover/abft.h"
#include "recover/retry.h"
#include "sim_test_util.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using fi::BitFlipModel;
using fi::Campaign;
using fi::CampaignConfig;
using fi::FaultPersistence;
using fi::InjectionMode;
using fi::Journal;
using fi::Outcome;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::TrapKind;
using sim_test::must;

CampaignConfig base_config(const std::string& workload) {
  CampaignConfig config;
  config.workload = workload;
  config.machine = arch::toy();
  config.model = {InjectionMode::kIov, BitFlipModel::kSingle};
  config.num_injections = 60;
  config.seed = 7;
  config.threads = 4;
  return config;
}

/// IOA strikes on vecadd's store displace addresses out of the arena, so a
/// healthy fraction of injections land as DUEs — the retry executor's food.
CampaignConfig due_heavy_config() {
  auto config = base_config("vecadd");
  config.model.mode = InjectionMode::kIoa;
  config.group = sim::InstrGroup::kStore;
  return config;
}

// ------------------------------------------------ checkpoint / restore ----

TEST(Snapshot, RestoreIsBitIdentical) {
  Device device(arch::toy());
  auto buf = device.malloc_n<u32>(256);
  ASSERT_TRUE(buf.is_ok());
  std::vector<u32> original(256);
  for (u32 i = 0; i < 256; ++i) original[i] = i * 0x9E3779B9u;
  ASSERT_TRUE(device.to_device(buf.value(),
                               std::span<const u32>(original)).is_ok());

  const auto snap = device.snapshot();

  // Scribble over the buffer, grow the heap, and plant a latent fault.
  std::vector<u32> garbage(256, 0xFFFFFFFFu);
  ASSERT_TRUE(device.to_device(buf.value(),
                               std::span<const u32>(garbage)).is_ok());
  auto extra = device.malloc_n<u32>(1024);
  ASSERT_TRUE(extra.is_ok());
  device.memory().inject_fault(buf.value(), 0b11);

  device.restore(snap);
  std::vector<u32> host(256);
  ASSERT_EQ(device.to_host(std::span<u32>(host), buf.value()), TrapKind::kNone);
  EXPECT_EQ(host, original);  // data back, fault gone (no DBE on the read)

  // The allocator is part of the checkpoint: the next allocation lands at
  // the same address it would have immediately after the snapshot.
  auto after_restore = device.malloc_n<u32>(1024);
  ASSERT_TRUE(after_restore.is_ok());
  EXPECT_EQ(after_restore.value(), extra.value());
}

TEST(Snapshot, RelaunchAfterRestoreReplaysBitIdentically) {
  auto workload = wl::make_workload("saxpy");
  ASSERT_NE(workload, nullptr);
  Device device(arch::toy());
  auto spec = workload->setup(device);
  ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();

  const auto snap = device.snapshot();
  auto first = device.launch(workload->program(), spec.value().grid,
                             spec.value().block, spec.value().params);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(first.value().ok());
  auto checked = workload->check(device);
  ASSERT_TRUE(checked.is_ok());
  EXPECT_TRUE(checked.value().result.bitwise_equal);

  device.restore(snap);
  auto second = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params);
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(second.value().ok());
  EXPECT_EQ(first.value().dyn_warp_instrs, second.value().dyn_warp_instrs);
  auto rechecked = workload->check(device);
  ASSERT_TRUE(rechecked.is_ok());
  EXPECT_TRUE(rechecked.value().result.bitwise_equal);
}

// ------------------------------------------------------ retry executor ----

sim::Trap fake_trap(TrapKind kind) {
  sim::Trap trap;
  trap.kind = kind;
  return trap;
}

TEST(Retry, CleanFirstAttemptRunsOnce) {
  u32 calls = 0;
  auto result = recover::run_with_retry(
      {.max_retries = 3}, [&](u32) -> Result<recover::Attempt> {
        ++calls;
        return recover::Attempt{.trap = {}, .dyn_instrs = 100};
      });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(result.value().attempts, 1u);
  EXPECT_EQ(result.value().total_dyn_instrs, 100u);
  EXPECT_FALSE(result.value().recovered());
  EXPECT_FALSE(result.value().gave_up());
}

TEST(Retry, TransientTrapRecoversOnSecondAttempt) {
  auto result = recover::run_with_retry(
      {.max_retries = 3}, [&](u32 attempt) -> Result<recover::Attempt> {
        return recover::Attempt{
            .trap = attempt == 0 ? fake_trap(TrapKind::kEccDoubleBit)
                                 : sim::Trap{},
            .dyn_instrs = 50};
      });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().attempts, 2u);
  EXPECT_EQ(result.value().total_dyn_instrs, 100u);
  EXPECT_TRUE(result.value().recovered());
  EXPECT_EQ(result.value().first_trap.kind, TrapKind::kEccDoubleBit);
  EXPECT_EQ(result.value().last_trap.kind, TrapKind::kNone);
}

TEST(Retry, PersistentTrapExhaustsBudget) {
  auto result = recover::run_with_retry(
      {.max_retries = 3}, [&](u32) -> Result<recover::Attempt> {
        return recover::Attempt{.trap = fake_trap(TrapKind::kWatchdogTimeout),
                                .dyn_instrs = 10};
      });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().attempts, 4u);  // original + 3 retries
  EXPECT_EQ(result.value().total_dyn_instrs, 40u);
  EXPECT_TRUE(result.value().gave_up());
  EXPECT_FALSE(result.value().recovered());
}

TEST(Retry, ZeroBudgetDisablesRecovery) {
  u32 calls = 0;
  auto result = recover::run_with_retry(
      {.max_retries = 0}, [&](u32) -> Result<recover::Attempt> {
        ++calls;
        return recover::Attempt{.trap = fake_trap(TrapKind::kEccDoubleBit)};
      });
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(result.value().attempts, 1u);
  EXPECT_TRUE(result.value().gave_up());
}

TEST(Retry, TrapRuleClassifiesWatchdogAsHang) {
  EXPECT_EQ(fi::outcome_for_trap(TrapKind::kWatchdogTimeout), Outcome::kHang);
  EXPECT_EQ(fi::outcome_for_trap(TrapKind::kEccDoubleBit), Outcome::kDue);
  EXPECT_EQ(fi::outcome_for_trap(TrapKind::kIllegalGlobalAddress),
            Outcome::kDue);
}

// -------------------------------------------------- campaign semantics ----

TEST(CampaignRecovery, TransientFaultsConvertEveryDetectedError) {
  auto config = due_heavy_config();
  auto baseline = Campaign::run(config);
  ASSERT_TRUE(baseline.is_ok()) << baseline.status().to_string();
  const u64 detected = baseline.value().count(Outcome::kDue) +
                       baseline.value().count(Outcome::kHang);
  ASSERT_GT(detected, 0u);  // the config must actually produce DUEs

  config.max_retries = 3;
  auto retried = Campaign::run(config);
  ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
  EXPECT_EQ(retried.value().count(Outcome::kDue), 0u);
  EXPECT_EQ(retried.value().count(Outcome::kHang), 0u);
  EXPECT_EQ(retried.value().count(Outcome::kUnrecoverableDue), 0u);
  EXPECT_EQ(retried.value().count(Outcome::kRecoveredRetry), detected);

  // Per record: detected errors become RecoveredRetry on the second
  // attempt; everything else is untouched by the executor (same sites,
  // same classification, one attempt).
  ASSERT_EQ(retried.value().records.size(), baseline.value().records.size());
  for (std::size_t i = 0; i < baseline.value().records.size(); ++i) {
    const auto& before = baseline.value().records[i];
    const auto& after = retried.value().records[i];
    EXPECT_EQ(after.pre_recovery, before.outcome) << i;
    if (before.outcome == Outcome::kDue || before.outcome == Outcome::kHang) {
      EXPECT_EQ(after.outcome, Outcome::kRecoveredRetry) << i;
      EXPECT_EQ(after.attempts, 2u) << i;
      EXPECT_EQ(after.trap, before.trap) << i;  // the original detector
    } else {
      EXPECT_EQ(after.outcome, before.outcome) << i;
      EXPECT_EQ(after.attempts, 1u) << i;
    }
  }
}

/// A transient retry restores the post-setup state and relaunches without
/// the fault, so it is one golden run: memory-mode DBEs on spmv, replayed
/// standalone with and without a retry, cost the trapped attempt plus the
/// golden run of a fresh device.
TEST(CampaignRecovery, TransientRetryCostsOneGoldenRun) {
  CampaignConfig config;
  config.workload = "spmv";
  config.machine = arch::a100();
  config.model = {InjectionMode::kMemory, BitFlipModel::kDouble};
  config.num_injections = 40;
  config.seed = 7;
  auto golden = Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok()) << golden.status().to_string();
  const auto& profile = golden.value().profile;
  const u64 golden_instrs = golden.value().dyn_instrs;

  u32 dues = 0;
  for (std::size_t i = 0; i < config.num_injections; ++i) {
    config.max_retries = 0;
    auto trapped = Campaign::run_single(config, profile, golden_instrs, i);
    ASSERT_TRUE(trapped.is_ok()) << trapped.status().to_string();
    if (trapped.value().outcome != Outcome::kDue) continue;
    ++dues;
    config.max_retries = 1;
    auto retried = Campaign::run_single(config, profile, golden_instrs, i);
    ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
    EXPECT_EQ(retried.value().outcome, Outcome::kRecoveredRetry) << i;
    EXPECT_EQ(retried.value().dyn_instrs,
              trapped.value().dyn_instrs + golden_instrs)
        << i;
  }
  EXPECT_GT(dues, 0u) << "no DBE trapped, the test is vacuous";
}

TEST(CampaignRecovery, StuckAtFaultsNeverRecover) {
  auto config = due_heavy_config();
  config.max_retries = 3;
  config.model.persistence = FaultPersistence::kStuckAt;
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().count(Outcome::kRecoveredRetry), 0u);
  EXPECT_GT(result.value().count(Outcome::kUnrecoverableDue), 0u);
  for (const auto& record : result.value().records) {
    if (record.outcome == Outcome::kUnrecoverableDue) {
      // The fault re-arms on every relaunch: the full budget is burned.
      EXPECT_EQ(record.attempts, 1u + config.max_retries);
    } else {
      EXPECT_EQ(record.attempts, 1u);
    }
  }
}

TEST(CampaignRecovery, ZeroRetriesKeepsLegacyLabels) {
  auto config = due_heavy_config();
  config.model.persistence = FaultPersistence::kStuckAt;
  auto result = Campaign::run(config);
  ASSERT_TRUE(result.is_ok());
  // Without a retry budget the persistence axis is inert and outcomes keep
  // their plain DUE/Hang labels.
  EXPECT_EQ(result.value().count(Outcome::kRecoveredRetry), 0u);
  EXPECT_EQ(result.value().count(Outcome::kUnrecoverableDue), 0u);
}

// ----------------------------------------------------------------- ABFT ----

TEST(Abft, GoldenRunsPassOnFaultFreeHardware) {
  recover::register_abft_workloads();
  for (const std::string name : {"gemm_abft", "reduce_abft", "spmv_abft"}) {
    auto golden = Campaign::golden_run(base_config(name));
    ASSERT_TRUE(golden.is_ok()) << name << ": " << golden.status().to_string();
    EXPECT_GT(golden.value().dyn_instrs, 0u) << name;
  }
}

TEST(Abft, ChecksumsConvertSdcsIntoRecoverableTraps) {
  recover::register_abft_workloads();
  auto plain = Campaign::run(base_config("gemm"));
  ASSERT_TRUE(plain.is_ok()) << plain.status().to_string();

  auto abft_config = base_config("gemm_abft");
  abft_config.max_retries = 3;
  auto abft = Campaign::run(abft_config);
  ASSERT_TRUE(abft.is_ok()) << abft.status().to_string();

  // The checksum trap fires where the plain kernel would go silently wrong,
  // and the retry executor then recovers those runs.
  EXPECT_GT(abft.value().count(Outcome::kRecoveredRetry), 0u);
  EXPECT_LT(abft.value().rate(Outcome::kSdc),
            plain.value().rate(Outcome::kSdc));
}

// -------------------------------------------------- journal round-trip ----

TEST(JournalRecovery, RecordLinePreservesRecoveryFields) {
  fi::InjectionRecord record;
  record.outcome = Outcome::kRecoveredRetry;
  record.pre_recovery = Outcome::kHang;
  record.attempts = 3;
  record.trap = sim::TrapKind::kWatchdogTimeout;
  const std::string line = Journal::record_line(5, record);
  auto parsed = Journal::parse_record(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().second.outcome, Outcome::kRecoveredRetry);
  EXPECT_EQ(parsed.value().second.pre_recovery, Outcome::kHang);
  EXPECT_EQ(parsed.value().second.attempts, 3u);
}

TEST(JournalRecovery, PreRecoveryFieldLineParsesWithDefaults) {
  // A journal written before the recovery fields existed has no "pre"/"att"
  // keys; parsing must fall back to outcome itself and a single attempt.
  fi::InjectionRecord record;
  record.outcome = Outcome::kDue;
  record.pre_recovery = Outcome::kHang;  // deliberately different
  record.attempts = 4;
  std::string line = Journal::record_line(0, record);
  const auto pre = line.find(",\"pre\"");
  const auto trap = line.find(",\"trap\"");
  ASSERT_NE(pre, std::string::npos);
  ASSERT_NE(trap, std::string::npos);
  line.erase(pre, trap - pre);  // back to the legacy wire format

  auto parsed = Journal::parse_record(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().second.outcome, Outcome::kDue);
  EXPECT_EQ(parsed.value().second.pre_recovery, Outcome::kDue);
  EXPECT_EQ(parsed.value().second.attempts, 1u);
}

TEST(JournalRecovery, HeaderCarriesPersistenceAndBudget) {
  auto config = due_heavy_config();
  config.model.persistence = FaultPersistence::kStuckAt;
  config.max_retries = 2;
  auto golden = Campaign::golden_run(config);
  ASSERT_TRUE(golden.is_ok());
  const auto header = fi::make_journal_header(config, golden.value());
  EXPECT_EQ(header.persist, "stuck-at");
  EXPECT_EQ(header.max_retries, 2u);

  std::string line = Journal::header_line(header);
  auto parsed = Journal::parse_header(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().persist, "stuck-at");
  EXPECT_EQ(parsed.value().max_retries, 2u);

  // Legacy headers (no persist/max_retries keys) default to the old
  // behaviour: transient faults, no recovery.
  const auto persist = line.find(",\"persist\"");
  const auto seed = line.find(",\"seed\"");
  ASSERT_NE(persist, std::string::npos);
  ASSERT_NE(seed, std::string::npos);
  line.erase(persist, seed - persist);
  auto legacy = Journal::parse_header(line);
  ASSERT_TRUE(legacy.is_ok()) << legacy.status().to_string();
  EXPECT_EQ(legacy.value().persist, "transient");
  EXPECT_EQ(legacy.value().max_retries, 0u);
}

// -------------------------------------------------------- trap taxonomy ----
//
// Satellite: every TrapKind the simulator can raise must be reachable from
// a minimal kernel and must classify as a detected error (DUE or Hang) —
// i.e. as fodder for the retry executor, never as silent corruption.

void expect_trap(const sim::Program& program, TrapKind want,
                 const sim::LaunchOptions& options = {},
                 Device* device_in = nullptr, Dim3 block = Dim3(32)) {
  Device local(arch::toy());
  Device& device = device_in ? *device_in : local;
  auto launch = device.launch(program, Dim3(1), block, {}, options);
  ASSERT_TRUE(launch.is_ok()) << launch.status().to_string();
  EXPECT_EQ(launch.value().trap.kind, want);
  const Outcome outcome = fi::outcome_for_trap(want);
  EXPECT_TRUE(outcome == Outcome::kDue || outcome == Outcome::kHang);
  EXPECT_EQ(outcome, want == TrapKind::kWatchdogTimeout ? Outcome::kHang
                                                        : Outcome::kDue);
}

TEST(TrapTaxonomy, IllegalGlobalAddress) {
  KernelBuilder b("oob_global");
  b.mov_u64(2, 0x10ULL);  // below the arena base
  b.ldg(4, 2);
  b.exit_();
  expect_trap(must(b), TrapKind::kIllegalGlobalAddress);
}

TEST(TrapTaxonomy, MisalignedAddress) {
  Device device(arch::toy());
  auto buf = device.malloc_n<u32>(16);
  ASSERT_TRUE(buf.is_ok());
  KernelBuilder b("misaligned");
  b.mov_u64(2, buf.value() + 2);  // 4-byte load at 2-byte alignment
  b.ldg(4, 2);
  b.exit_();
  expect_trap(must(b), TrapKind::kMisalignedAddress, {}, &device);
}

TEST(TrapTaxonomy, IllegalSharedAddress) {
  KernelBuilder b("oob_shared");
  b.set_shared_bytes(64);
  b.mov_u32(2, Operand::imm_u(128));  // past the CTA's 64 bytes
  b.mov_u32(3, Operand::imm_u(1));
  b.sts(2, 3);
  b.exit_();
  expect_trap(must(b), TrapKind::kIllegalSharedAddress);
}

TEST(TrapTaxonomy, EccDoubleBit) {
  Device device(arch::toy());  // toy DRAM runs SECDED
  auto buf = device.malloc_n<u32>(16);
  ASSERT_TRUE(buf.is_ok());
  device.memory().inject_fault(buf.value(), 0b11);  // uncorrectable
  KernelBuilder b("consume_dbe");
  b.mov_u64(2, buf.value());
  b.ldg(4, 2);
  b.exit_();
  expect_trap(must(b), TrapKind::kEccDoubleBit, {}, &device);
}

TEST(TrapTaxonomy, WatchdogTimeout) {
  KernelBuilder b("spin");
  auto top = b.new_label();
  b.bind(top);
  b.bra(top);
  b.exit_();
  sim::LaunchOptions options;
  options.watchdog_instrs = 500;
  expect_trap(must(b), TrapKind::kWatchdogTimeout, options);
}

TEST(TrapTaxonomy, IllegalInstruction) {
  KernelBuilder b("orphan_sync");
  b.sync_();  // SYNC with an empty divergence stack
  b.exit_();
  expect_trap(must(b), TrapKind::kIllegalInstruction);
}

/// Requests `kind` on the Nth dynamic instruction — the same mechanism the
/// injector uses when a strike corrupts state into a trapping condition.
class RaiseTrapHook final : public sim::InstrumentHook {
 public:
  explicit RaiseTrapHook(TrapKind kind) : kind_(kind) {}
  void on_before_instr(sim::InstrContext& ctx) override {
    if (ctx.dyn_index == 2) ctx.requested_trap = kind_;
  }

 private:
  TrapKind kind_;
};

TEST(TrapTaxonomy, BarrierDivergence) {
  // A warp that skips or outlives its barrier cannot deadlock a healthy
  // CTA: the scheduler releases parked siblings both when the last live
  // warp arrives and when a warp retires (exited threads do not block a
  // barrier, matching CUDA). First pin down that behaviour...
  KernelBuilder mismatch("half_barrier");
  const auto l_busy = mismatch.new_label();
  mismatch.s2r(0, sim::SpecialReg::kTidX);
  mismatch.isetp(sim::CmpOp::kGe, 0, Operand::reg(0), Operand::imm_u(32));
  mismatch.bra(l_busy, 0);  // warp 1: warp-uniform branch, no divergence
  mismatch.bar();           // warp 0 arrives first and parks
  mismatch.exit_();
  mismatch.bind(l_busy);
  mismatch.uniform_loop(2, Operand::imm_u(64), 1, [&] {});
  mismatch.exit_();
  Device device(arch::toy());
  auto launch = device.launch(must(mismatch), Dim3(1), Dim3(64), {});
  ASSERT_TRUE(launch.is_ok());
  EXPECT_EQ(launch.value().trap.kind, TrapKind::kNone);

  // ...so the deadlock detector only fires under corrupted control flow.
  // Drive it through the instrumentation layer (the injector's trap path)
  // and check the classifier treats it as a DUE like any other trap.
  KernelBuilder b("plain");
  b.mov_u32(2, Operand::imm_u(1));
  b.iadd_u32(2, Operand::reg(2), Operand::imm_u(1));
  b.exit_();
  RaiseTrapHook hook(TrapKind::kBarrierDivergence);
  sim::LaunchOptions options;
  options.hook = &hook;
  auto trapped = device.launch(must(b), Dim3(1), Dim3(32), {}, options);
  ASSERT_TRUE(trapped.is_ok());
  EXPECT_EQ(trapped.value().trap.kind, TrapKind::kBarrierDivergence);
  EXPECT_EQ(fi::outcome_for_trap(TrapKind::kBarrierDivergence), Outcome::kDue);
}

}  // namespace
}  // namespace gfi
