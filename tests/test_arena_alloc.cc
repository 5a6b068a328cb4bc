// Launches on a reused Device allocate nothing: the resident CTAs live in
// the device's LaunchArena, and a checkpoint a launch resumes from and
// captures into keeps its buffers, as do the golden twin of an armed
// launch that stops at reconvergence and the copies of the struck warp and
// its twin that find the stop running ahead. A counting global operator
// new, armed only around Device::launch, checks it once a warm-up has
// sized everything. This is its own binary: the replaced operator new
// would see every other test's allocations too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "arch/arch.h"
#include "fi/injector.h"
#include "sa/dataflow.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace {

std::atomic<bool> counting{false};
std::atomic<long> allocations{0};

}  // namespace

// GCC pairs its knowledge of malloc/free with the replaced operators and
// warns about the free below; the two are this file's own pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace gfi {
namespace {

/// Allocations made by one Device::launch; `stopped_at` set to
/// LaunchResult::reconverged_at.
long counted_launch(sim::Device& device, const wl::Workload& workload,
                    const wl::LaunchSpec& spec,
                    const sim::LaunchOptions& options,
                    u64* stopped_at = nullptr) {
  allocations = 0;
  counting = true;
  auto result = device.launch(workload.program(), spec.grid, spec.block,
                              spec.params, options);
  counting = false;
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().ok()) << result.value().trap.to_string();
  EXPECT_EQ(result.value().captured, options.capture != nullptr);
  EXPECT_EQ(result.value().resume_ns > 0, options.resume_from != nullptr);
  EXPECT_EQ(result.value().reconverged, options.golden_tail != nullptr);
  if (stopped_at) *stopped_at = result.value().reconverged_at;
  return allocations;
}

TEST(LaunchArenaAllocCounter, CountsAllocations) {
  allocations = 0;
  counting = true;
  auto made = std::make_unique<std::string>(64, 'x');
  counting = false;
  EXPECT_EQ(allocations, 2) << "the string and its characters";
}

class LaunchArenaAlloc : public ::testing::TestWithParam<const char*> {};

TEST_P(LaunchArenaAlloc, ReusedDeviceLaunchesAllocateNothing) {
  const sim::MachineConfig machine = arch::a100();
  auto workload = wl::make_workload(GetParam());
  sim::Device device(machine);
  const wl::LaunchSpec spec = workload->setup(device).value();
  const sim::GlobalMemory::Snapshot start = device.snapshot();
  const sim::LiveRows live = sa::live_in_rows(workload->program());

  // Hook-free launches from the start, after one that sizes the arena.
  const sim::LaunchOptions fresh;
  (void)counted_launch(device, *workload, spec, fresh);
  for (int round = 0; round < 2; ++round) {
    device.restore(start);
    EXPECT_EQ(counted_launch(device, *workload, spec, fresh), 0)
        << "hook-free launch, round " << round;
  }

  // Armed launches that resume from a checkpoint and capture into it, as
  // a campaign's kept checkpoint does. The first capture sizes its image.
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.lane_sel = 5;
  site.bit_sel = 3;
  const u32 groups = fi::InjectorHook(site, machine).strike_request()->groups;
  sim::LaunchCheckpoint kept;
  auto armed = [&](u64 capture_at, u64 strike_after, bool resume) {
    site.target_occurrence = (resume ? kept.issues(groups) : 0) + strike_after;
    fi::InjectorHook hook(site, machine);
    sim::LaunchOptions options;
    options.hook = &hook;
    options.resume_from = resume ? &kept : nullptr;
    options.capture = &kept;
    options.capture_at = capture_at;
    options.live_rows = &live;
    options.memory_base = &start;
    if (!resume) device.restore(start);
    return counted_launch(device, *workload, spec, options);
  };
  (void)armed(1000, 5000, false);
  (void)armed(1200, 2000, true);
  for (int round = 0; round < 2; ++round) {
    (void)armed(1000, 5000, false);
    EXPECT_EQ(armed(1200, 2000, true), 0)
        << "resume plus capture, round " << round;
  }
}

TEST_P(LaunchArenaAlloc, ReconvergingLaunchesAllocateNothing) {
  const sim::MachineConfig machine = arch::a100();
  auto workload = wl::make_workload(GetParam());
  sim::Device device(machine);
  const wl::LaunchSpec spec = workload->setup(device).value();
  const sim::GlobalMemory::Snapshot start = device.snapshot();
  const sim::LiveRows live = sa::live_in_rows(workload->program());
  sim::GoldenTail tail;
  sim::LaunchOptions golden;
  golden.record_tail = &tail;
  (void)counted_launch(device, *workload, spec, golden);

  // Flips of an FFMA result, which both workloads carry to an output word
  // they store once: each launch stops once its warp has stored it, found
  // by the warp's copy running ahead of the others.
  fi::FaultSite site;
  site.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  site.group = sim::InstrGroup::kFp32Fma;
  site.lane_sel = 5;
  site.bit_sel = 3;
  auto armed = [&](u64 occurrence) {
    site.target_occurrence = occurrence;
    fi::InjectorHook hook(site, machine);
    sim::LaunchOptions options;
    options.hook = &hook;
    options.golden_tail = &tail;
    options.live_rows = &live;
    options.memory_base = &start;
    device.restore(start);
    u64 stopped_at = 0;
    const long allocated =
        counted_launch(device, *workload, spec, options, &stopped_at);
    EXPECT_GT(stopped_at, hook.effect().struck_dyn_index + 1)
        << "occurrence " << occurrence;
    return allocated;
  };
  (void)armed(40);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(armed(40 + round), 0) << "reconverging launch, round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, LaunchArenaAlloc,
                         ::testing::Values("saxpy", "gemm"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gfi
