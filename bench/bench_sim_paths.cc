// Hook-free vs instrumented-path simulator throughput.
//
// The two-tier engine promises that a hook-free launch on the threaded tier
// (predecoded handler ids, switch dispatch, full-warp row kernels) is
// substantially faster than the instrumented inner loop it replaced. This
// bench measures both tiers on the same workloads — the instrumented side
// via EngineTier::kInstrumented, which preserves the pre-refactor
// per-instruction semantics with an empty hook vector — writes
// BENCH_sim.json at the source-tree root, and exits 1 when the geomean
// hook-free speedup drops below the 1.5x CI gate. It takes no arguments
// (anything else exits 2).
//
// Per workload it also records campaign_injection_over_clean: the time
// per injection of Campaign::run (24-injection IOV single-bit campaigns,
// one worker, golden cache warm: the worker reuses its device, resumes
// injections from golden-prefix checkpoints and stops them at
// reconvergence) over the median hook-free launch, the premium one
// injection pays over a fault-free launch; below 1 means an injection
// costs less than a clean launch.
//
// Measurement is noise-hardened: each workload runs several alternating
// hook-free/instrumented trials and each side keeps its best trial rate, so
// frequency drift or a transient neighbor hits both sides alike instead
// of deciding the gate.
//
// GFI_BENCH_MIN_MS=<n> sets the per-workload time floor (default 300).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/parse.h"
#include "common/simd.h"
#include "fi/campaign.h"
#include "obs/registry.h"
#include "sassim/device.h"
#include "workloads/workload.h"

namespace {

using namespace gfi;

constexpr double kGateSpeedup = 1.5;
constexpr int kTrials = 3;
constexpr int kCampaignSamples = 9;    ///< timed Campaign::run calls
constexpr std::size_t kCampaignInjections = 24;
constexpr sim::EngineTier kTier = sim::EngineTier::kThreaded;
constexpr const char* kJsonPath = GFI_SOURCE_DIR "/BENCH_sim.json";

// The empty-hook inner-loop throughput of the engine before the decode/
// execute split (the former bench_perf_sim, gemm on the A100 model, this
// machine class): the acceptance reference the hook-free path must beat by
// >= 2x.
constexpr double kPreRefactorGemmRate = 2.168e6;

/// The per-workload time floor in ms: GFI_BENCH_MIN_MS, a positive
/// decimal integer, else the bench exits 2 before running anything.
double min_ms() {
  const char* env = std::getenv("GFI_BENCH_MIN_MS");
  if (env == nullptr) return 300.0;
  const std::optional<u64> parsed = parse_u64(env);
  if (!parsed || *parsed == 0) {
    std::fprintf(stderr,
                 "bad GFI_BENCH_MIN_MS '%s' (want a positive decimal "
                 "integer)\n",
                 env);
    std::exit(2);
  }
  return static_cast<double>(*parsed);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Bench {
  sim::Device device;
  std::unique_ptr<wl::Workload> workload;
  wl::LaunchSpec spec;

  explicit Bench(const std::string& name, const sim::MachineConfig& machine)
      : device(machine), workload(wl::make_workload(name)) {
    if (!workload) {
      std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
      std::exit(1);
    }
    auto setup = workload->setup(device);
    if (!setup.is_ok()) {
      std::fprintf(stderr, "setup failed for '%s': %s\n", name.c_str(),
                   setup.status().to_string().c_str());
      std::exit(1);
    }
    spec = setup.value();
  }

  /// One launch on `tier` with no hooks; returns its warp instructions.
  u64 launch(sim::EngineTier tier) {
    sim::LaunchOptions options;
    options.engine = tier;
    auto launch = device.launch(workload->program(), spec.grid, spec.block,
                                spec.params, options);
    if (!launch.is_ok() || !launch.value().ok()) {
      std::fprintf(stderr, "launch failed\n");
      std::exit(1);
    }
    return launch.value().dyn_warp_instrs;
  }

  /// One timed window of launches on `tier` with no hooks; returns
  /// warp-instrs/sec.
  double timed_window(sim::EngineTier tier, double window_s) {
    u64 instrs = 0;
    u64 launches = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
      instrs += launch(tier);
      ++launches;
      elapsed = seconds_since(start);
    } while (elapsed < window_s || launches < 2);
    return static_cast<double>(instrs) / elapsed;
  }
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Campaign::run time per injection of seeded kCampaignInjections-injection
/// IOV campaigns over the median hook-free launch of `bench`'s workload.
double campaign_injection_over_clean(Bench& bench, const std::string& name,
                                     const sim::MachineConfig& machine) {
  obs::Registry metrics;  // keeps the campaigns' counters out of the global one
  fi::CampaignConfig config;
  config.workload = name;
  config.machine = machine;
  config.num_injections = kCampaignInjections;
  config.threads = 1;
  config.metrics = &metrics;
  std::vector<double> injection_s;
  std::vector<double> launch_s;
  for (int i = -1; i < kCampaignSamples; ++i) {  // -1: golden-cache warm-up
    config.seed = 2025 + static_cast<u64>(i + 1);
    auto start = std::chrono::steady_clock::now();
    auto result = fi::Campaign::run(config);
    const double elapsed = seconds_since(start);
    if (!result.is_ok()) {
      std::fprintf(stderr, "campaign failed for '%s': %s\n", name.c_str(),
                   result.status().to_string().c_str());
      std::exit(1);
    }
    if (i < 0) continue;
    injection_s.push_back(elapsed / static_cast<double>(kCampaignInjections));
    start = std::chrono::steady_clock::now();
    (void)bench.launch(kTier);
    launch_s.push_back(seconds_since(start));
  }
  return median(injection_s) / median(launch_s);
}

struct PathRates {
  double threaded = 0.0;  ///< the hook-free side
  double instrumented = 0.0;
  double campaign_injection_over_clean = 0.0;

  [[nodiscard]] double speedup() const {
    return instrumented > 0.0 ? threaded / instrumented : 0.0;
  }
};

PathRates measure(const std::string& name, const sim::MachineConfig& machine,
                  double floor_ms) {
  Bench bench(name, machine);
  (void)bench.timed_window(kTier, 0.0);  // warm-up: decode cache + allocator
  const double window_s = floor_ms / 1e3 / (2 * kTrials);
  PathRates best;
  for (int trial = 0; trial < kTrials; ++trial) {
    best.threaded =
        std::max(best.threaded, bench.timed_window(kTier, window_s));
    best.instrumented = std::max(
        best.instrumented,
        bench.timed_window(sim::EngineTier::kInstrumented, window_s));
  }
  best.campaign_injection_over_clean =
      campaign_injection_over_clean(bench, name, machine);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument '%s'\n", argv[1]);
    return 2;
  }
  const double floor_ms = min_ms();

  // gemm dominates (deep FP inner loop); the others add divergence-, guard-,
  // and memory-heavy instruction mixes so neither path gets a shape it
  // happens to like.
  const std::vector<std::string> workloads = {"gemm", "scan", "reduce_u32",
                                              "saxpy"};
  const sim::MachineConfig machine = arch::a100();
  const char* tier_name = sim::engine_tier_name(kTier);

  std::printf("Simulator path throughput (A100 model, hook-free launches)\n");
  std::printf("simd backend: %s, engine: %s\n", simd::backend(), tier_name);
  std::printf("%-12s %15s %15s %9s %10s\n", "workload", "hook-free (wi/s)",
              "instrumented", "speedup", "camp/clean");

  std::string rows;
  double log_speedup_sum = 0.0;
  double gemm_threaded = 0.0;
  for (const std::string& name : workloads) {
    const PathRates rates = measure(name, machine, floor_ms);
    std::printf("%-12s %15.0f %15.0f %8.2fx %9.2fx\n", name.c_str(),
                rates.threaded, rates.instrumented, rates.speedup(),
                rates.campaign_injection_over_clean);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"workload\": \"%s\", "
                  "\"threaded_warp_instrs_per_sec\": "
                  "%.0f, \"instrumented_warp_instrs_per_sec\": %.0f, "
                  "\"speedup\": %.3f, "
                  "\"campaign_injection_over_clean\": %.3f},\n",
                  name.c_str(), rates.threaded, rates.instrumented,
                  rates.speedup(), rates.campaign_injection_over_clean);
    rows += row;
    log_speedup_sum += std::log(rates.speedup());
    if (name == "gemm") gemm_threaded = rates.threaded;
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // trailing comma

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(workloads.size()));
  const double vs_pre_refactor = gemm_threaded / kPreRefactorGemmRate;
  std::printf("%-12s %31s %8.2fx  (gate: >= %.1fx)\n", "geomean", "",
              geomean, kGateSpeedup);
  std::printf("gemm hook-free path vs pre-refactor empty-hook loop: %.2fx\n",
              vs_pre_refactor);

  FILE* out = std::fopen(kJsonPath, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", kJsonPath);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"sim_paths\",\n  \"arch\": \"%s\",\n"
               "  \"simd\": \"%s\",\n"
               "  \"engine\": \"%s\",\n"
               "  \"workloads\": [\n%s  ],\n"
               "  \"geomean_speedup\": %.3f,\n"
               "  \"gate_speedup\": %.1f,\n"
               "  \"gemm_threaded_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_pre_refactor_empty_hook_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_threaded_speedup_vs_pre_refactor\": %.3f\n}\n",
               machine.name.c_str(), simd::backend(), tier_name, rows.c_str(),
               geomean, kGateSpeedup, gemm_threaded, kPreRefactorGemmRate,
               vs_pre_refactor);
  std::fclose(out);

  if (geomean < kGateSpeedup) {
    std::fprintf(stderr,
                 "FAIL: hook-free speedup %.2fx below the %.1fx gate\n",
                 geomean, kGateSpeedup);
    return 1;
  }
  std::printf("OK: hook-free path is %.2fx the instrumented inner loop\n",
              geomean);
  return 0;
}
