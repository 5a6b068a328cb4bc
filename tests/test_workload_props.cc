// Workload property tests, parameterized across the whole suite:
// determinism of inputs/programs, profile stability, launch-spec sanity,
// and per-workload structural invariants.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "fi/campaign.h"
#include "harden/swift.h"
#include "recover/abft.h"
#include "sassim/profiler.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

class WorkloadProps : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadProps, ProgramIsIdenticalAcrossInstances) {
  auto a = wl::make_workload(GetParam());
  auto b = wl::make_workload(GetParam());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->program().size(), b->program().size());
  EXPECT_EQ(a->program().disassemble(), b->program().disassemble());
  EXPECT_EQ(a->program().num_regs(), b->program().num_regs());
  EXPECT_EQ(a->program().shared_bytes(), b->program().shared_bytes());
}

TEST_P(WorkloadProps, ProgramValidates) {
  auto workload = wl::make_workload(GetParam());
  EXPECT_TRUE(workload->program().validate().is_ok());
  EXPECT_GT(workload->program().num_regs(), 0);
  EXPECT_LE(workload->program().num_regs(), 64);  // occupancy-friendly
}

TEST_P(WorkloadProps, LaunchSpecSane) {
  auto workload = wl::make_workload(GetParam());
  sim::Device device(arch::a100());
  auto spec = workload->setup(device);
  ASSERT_TRUE(spec.is_ok());
  EXPECT_GT(spec.value().grid.count(), 0u);
  EXPECT_GT(spec.value().block.count(), 0u);
  EXPECT_LE(spec.value().block.count(), 1024u);
  EXPECT_GE(spec.value().params.size(), workload->program().num_params());
  // Device memory was actually allocated.
  EXPECT_GT(device.memory().bytes_allocated(), 0u);
}

TEST_P(WorkloadProps, GoldenProfileIsDeterministic) {
  auto run = [&] {
    fi::CampaignConfig config;
    config.workload = GetParam();
    config.machine = arch::toy();
    auto golden = fi::Campaign::golden_run(config);
    EXPECT_TRUE(golden.is_ok()) << golden.status().to_string();
    return golden.value();
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.dyn_instrs, b.dyn_instrs);
  EXPECT_EQ(a.cycles, b.cycles);
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    EXPECT_EQ(a.profile.warp_instrs_by_group[g],
              b.profile.warp_instrs_by_group[g]);
  }
}

TEST_P(WorkloadProps, CheckIsRepeatableAfterOneLaunch) {
  auto workload = wl::make_workload(GetParam());
  sim::Device device(arch::toy());
  auto spec = workload->setup(device);
  ASSERT_TRUE(spec.is_ok());
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_TRUE(launch.value().ok());
  auto first = workload->check(device);
  auto second = workload->check(device);  // check() is const: repeatable
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().result.passed(), second.value().result.passed());
  EXPECT_EQ(first.value().result.bitwise_equal,
            second.value().result.bitwise_equal);
}

/// The reuse contract campaign workers rely on: set up once, then launch
/// and check, restore the post-setup snapshot, launch and check again. Run
/// for the workload, its SWIFT variant and its ABFT variant (where those
/// exist); both rounds must agree in every field.
TEST_P(WorkloadProps, CheckIsRepeatableAfterRestore) {
  const std::map<std::string, std::function<std::unique_ptr<wl::Workload>()>>
      abft = {{"gemm", recover::make_gemm_abft},
              {"reduce_u32", recover::make_reduce_abft},
              {"spmv", recover::make_spmv_abft}};
  std::vector<std::unique_ptr<wl::Workload>> variants;
  variants.push_back(wl::make_workload(GetParam()));
  variants.push_back(harden::make_hardened(GetParam()));
  if (abft.count(GetParam()) != 0) variants.push_back(abft.at(GetParam())());
  for (const auto& workload : variants) {
    if (!workload) continue;  // no SWIFT variant
    sim::Device device(arch::a100());
    auto spec = workload->setup(device);
    ASSERT_TRUE(spec.is_ok()) << spec.status().to_string();
    const sim::GlobalMemory::Snapshot start = device.snapshot();
    std::vector<sim::LaunchResult> launches;
    std::vector<wl::Workload::Checked> checks;
    for (int round = 0; round < 2; ++round) {
      if (round > 0) device.restore(start);
      auto launch = device.launch(workload->program(), spec.value().grid,
                                  spec.value().block, spec.value().params);
      ASSERT_TRUE(launch.is_ok()) << launch.status().to_string();
      auto checked = workload->check(device);
      ASSERT_TRUE(checked.is_ok()) << checked.status().to_string();
      launches.push_back(launch.value());
      checks.push_back(checked.value());
    }
    const std::string what = workload->name();
    EXPECT_TRUE(launches[0].ok()) << what;
    EXPECT_EQ(launches[0].dyn_warp_instrs, launches[1].dyn_warp_instrs)
        << what;
    EXPECT_EQ(launches[0].cycles, launches[1].cycles) << what;
    EXPECT_EQ(checks[0].trap, checks[1].trap) << what;
    EXPECT_EQ(checks[0].result.bitwise_equal, checks[1].result.bitwise_equal)
        << what;
    EXPECT_EQ(checks[0].result.within_tolerance,
              checks[1].result.within_tolerance)
        << what;
    EXPECT_EQ(checks[0].result.max_rel_err, checks[1].result.max_rel_err)
        << what;
    EXPECT_TRUE(checks[1].result.passed()) << what;
  }
}

TEST_P(WorkloadProps, DetectsDeliberateOutputCorruption) {
  // Flip one bit in the last parameter-addressed output region after the
  // launch: check() must notice (no workload may ignore its own output).
  auto workload = wl::make_workload(GetParam());
  sim::Device device(arch::toy());
  auto spec = workload->setup(device);
  ASSERT_TRUE(spec.is_ok());
  auto launch = device.launch(workload->program(), spec.value().grid,
                              spec.value().block, spec.value().params);
  ASSERT_TRUE(launch.value().ok());

  auto clean = workload->check(device);
  ASSERT_TRUE(clean.is_ok());
  ASSERT_TRUE(clean.value().result.bitwise_equal || workload->tolerance() > 0);

  // Corrupt high bits of every allocated word... too blunt; instead flip a
  // high bit in a sweep until the check notices. ECC is bypassed by writing
  // through the raw path (write clears the fault map).
  bool detected = false;
  const u64 base = sim::GlobalMemory::kBaseAddress;
  const u64 allocated = device.memory().bytes_allocated();
  for (u64 offset = 0; offset < allocated && !detected; offset += 64) {
    u32 word = 0;
    if (device.memory().read(base + offset, &word, 4) != sim::TrapKind::kNone)
      continue;
    const u32 corrupted = word ^ 0x40000000u;
    ASSERT_EQ(device.memory().write(base + offset, &corrupted, 4),
              sim::TrapKind::kNone);
    auto checked = workload->check(device);
    ASSERT_TRUE(checked.is_ok());
    if (!checked.value().result.passed()) detected = true;
    // Restore and continue scanning.
    ASSERT_EQ(device.memory().write(base + offset, &word, 4),
              sim::TrapKind::kNone);
  }
  EXPECT_TRUE(detected)
      << GetParam() << ": no corrupted word changed the check verdict";
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadProps,
                         ::testing::ValuesIn(wl::workload_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(WorkloadRegistry, MakeUnknownReturnsNull) {
  EXPECT_EQ(wl::make_workload("definitely_not_registered"), nullptr);
}

TEST(WorkloadRegistry, NamesSortedAndUnique) {
  auto names = wl::workload_names();
  EXPECT_GE(names.size(), 15u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(WorkloadRegistry, CustomRegistration) {
  wl::register_workload("custom_alias_vecadd",
                        [] { return wl::make_workload("vecadd"); });
  auto workload = wl::make_workload("custom_alias_vecadd");
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->name(), "vecadd");
}

}  // namespace
}  // namespace gfi
