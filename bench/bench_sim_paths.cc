// Hook-free vs instrumented-path simulator throughput.
//
// The tiered dispatch architecture promises that a hook-free launch — by
// default the threaded tier: predecoded handler ids, computed-goto/switch
// dispatch, superinstruction fusion — is substantially faster than the
// instrumented inner loop it replaced. This bench measures both sides on
// the same workloads — the instrumented side via EngineTier::kInstrumented,
// which preserves the pre-refactor per-instruction semantics with an empty
// hook vector — writes BENCH_sim.json, and exits 1 when the geomean
// hook-free speedup drops below the 1.5x CI gate.
//
// --engine=instrumented|clean|threaded pins the hook-free side to one tier
// for A/B comparisons (strict parse: anything else exits 2).
//
// Per workload it also records injection_over_clean: the median
// Campaign::run_single of an IOV single-bit campaign (device set-up, the
// hooked launch and the output check) over the median hook-free launch on
// the same tier: the premium one injection pays over a fault-free launch.
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
#include <cstring>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/simd.h"
#include "fi/campaign.h"
#include "sassim/device.h"
#include "sassim/exec_threaded.h"
#include "workloads/workload.h"

namespace {

using namespace gfi;

constexpr double kGateSpeedup = 1.5;
constexpr int kTrials = 3;
constexpr int kInjectionSamples = 41;  ///< run_single calls (and launches)

// The empty-hook inner-loop throughput of the engine before the decode/
// execute split (bench_perf_sim, gemm on the A100 model, this machine
// class): the acceptance reference the hook-free path must beat by >= 2x.
constexpr double kPreRefactorGemmRate = 2.168e6;

double min_ms() {
  if (const char* env = std::getenv("GFI_BENCH_MIN_MS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<double>(parsed);
  }
  return 300.0;
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

  /// One hook-free launch on `tier`; returns its warp instructions.
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

  /// One timed window of hook-free launches on `tier`; returns
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

/// Median run_single of a seeded IOV campaign over the median hook-free
/// launch of `bench`'s workload, both on `tier`.
double injection_over_clean(Bench& bench, const std::string& name,
                            const sim::MachineConfig& machine,
                            sim::EngineTier tier) {
  fi::CampaignConfig config;
  config.workload = name;
  config.machine = machine;
  config.engine = tier;
  config.seed = 2025;
  auto golden = fi::Campaign::golden_run(config);
  if (!golden.is_ok()) {
    std::fprintf(stderr, "golden run failed for '%s': %s\n", name.c_str(),
                 golden.status().to_string().c_str());
    std::exit(1);
  }
  std::vector<double> injection_s;
  std::vector<double> launch_s;
  for (int i = 0; i < kInjectionSamples; ++i) {
    auto start = std::chrono::steady_clock::now();
    auto record = fi::Campaign::run_single(config, golden.value().profile,
                                           golden.value().dyn_instrs,
                                           static_cast<std::size_t>(i));
    injection_s.push_back(seconds_since(start));
    if (!record.is_ok()) {
      std::fprintf(stderr, "injection failed for '%s': %s\n", name.c_str(),
                   record.status().to_string().c_str());
      std::exit(1);
    }
    start = std::chrono::steady_clock::now();
    (void)bench.launch(tier);
    launch_s.push_back(seconds_since(start));
  }
  return median(injection_s) / median(launch_s);
}

struct PathRates {
  double clean = 0.0;  ///< the hook-free side (selected tier)
  double instrumented = 0.0;
  double injection_over_clean = 0.0;

  [[nodiscard]] double speedup() const {
    return instrumented > 0.0 ? clean / instrumented : 0.0;
  }
};

PathRates measure(const std::string& name, const sim::MachineConfig& machine,
                  sim::EngineTier tier) {
  Bench bench(name, machine);
  (void)bench.timed_window(tier, 0.0);  // warm-up: decode cache + allocator
  const double window_s = min_ms() / 1e3 / (2 * kTrials);
  PathRates best;
  for (int trial = 0; trial < kTrials; ++trial) {
    best.clean = std::max(best.clean, bench.timed_window(tier, window_s));
    best.instrumented = std::max(
        best.instrumented,
        bench.timed_window(sim::EngineTier::kInstrumented, window_s));
  }
  best.injection_over_clean = injection_over_clean(bench, name, machine, tier);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  sim::EngineTier tier = sim::EngineTier::kAuto;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--engine=", 9) == 0) {
      const char* value = arg + 9;
      if (std::strcmp(value, "instrumented") == 0) {
        tier = sim::EngineTier::kInstrumented;
      } else if (std::strcmp(value, "clean") == 0) {
        tier = sim::EngineTier::kClean;
      } else if (std::strcmp(value, "threaded") == 0) {
        tier = sim::EngineTier::kThreaded;
      } else {
        std::fprintf(stderr,
                     "invalid --engine '%s' (instrumented|clean|threaded)\n",
                     value);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return 2;
    }
  }

  // gemm dominates (deep FP inner loop); the others add divergence-, guard-,
  // and memory-heavy instruction mixes so neither path gets a shape it
  // happens to like.
  const std::vector<std::string> workloads = {"gemm", "scan", "reduce_u32",
                                              "saxpy"};
  const sim::MachineConfig machine = arch::a100();
  const char* tier_name = sim::engine_tier_name(
      tier == sim::EngineTier::kAuto ? sim::EngineTier::kThreaded : tier);

  std::printf("Simulator path throughput (A100 model, hook-free launches)\n");
  std::printf("simd backend: %s, dispatch backend: %s, engine: %s\n",
              simd::backend(), sim::exec::dispatch_backend(), tier_name);
  std::printf("%-12s %15s %15s %9s %10s\n", "workload", "hook-free (wi/s)",
              "instrumented", "speedup", "inj/clean");

  std::string rows;
  double log_speedup_sum = 0.0;
  double gemm_clean = 0.0;
  for (const std::string& name : workloads) {
    const PathRates rates = measure(name, machine, tier);
    std::printf("%-12s %15.0f %15.0f %8.2fx %9.2fx\n", name.c_str(),
                rates.clean, rates.instrumented, rates.speedup(),
                rates.injection_over_clean);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "    {\"workload\": \"%s\", \"clean_warp_instrs_per_sec\": "
                  "%.0f, \"instrumented_warp_instrs_per_sec\": %.0f, "
                  "\"speedup\": %.3f, \"injection_over_clean\": %.3f},\n",
                  name.c_str(), rates.clean, rates.instrumented,
                  rates.speedup(), rates.injection_over_clean);
    rows += row;
    log_speedup_sum += std::log(rates.speedup());
    if (name == "gemm") gemm_clean = rates.clean;
  }
  if (!rows.empty()) rows.erase(rows.size() - 2, 1);  // trailing comma

  const double geomean =
      std::exp(log_speedup_sum / static_cast<double>(workloads.size()));
  const double vs_pre_refactor = gemm_clean / kPreRefactorGemmRate;
  std::printf("%-12s %31s %8.2fx  (gate: >= %.1fx)\n", "geomean", "",
              geomean, kGateSpeedup);
  std::printf("gemm hook-free path vs pre-refactor empty-hook loop: %.2fx\n",
              vs_pre_refactor);

  FILE* out = std::fopen("BENCH_sim.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot write BENCH_sim.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"sim_paths\",\n  \"arch\": \"%s\",\n"
               "  \"simd\": \"%s\",\n"
               "  \"dispatch\": \"%s\",\n"
               "  \"engine\": \"%s\",\n"
               "  \"workloads\": [\n%s  ],\n"
               "  \"geomean_speedup\": %.3f,\n"
               "  \"gate_speedup\": %.1f,\n"
               "  \"gemm_clean_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_pre_refactor_empty_hook_warp_instrs_per_sec\": %.0f,\n"
               "  \"gemm_clean_speedup_vs_pre_refactor\": %.3f\n}\n",
               machine.name.c_str(), simd::backend(),
               sim::exec::dispatch_backend(), tier_name, rows.c_str(), geomean,
               kGateSpeedup,
               gemm_clean, kPreRefactorGemmRate, vs_pre_refactor);
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
