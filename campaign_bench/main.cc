// campaign_bench: end-to-end and per-layer campaign benchmark.
//
//   campaign_bench --workload iov-mix|mem-retry|journal-adaptive
//                  --seed N --seconds S --trace 0|1
//                  [--pins FILE] [--emit-pins]
//
// Prints a short table, then as its last line one JSON object:
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"inj_per_s":
//    {"value":..,"unit":"1/s"},...}}
// --trace 0 reports inj_per_s, setup_s and peak_rss_mb; --trace 1 the
// per-layer metrics, and writes its spans to
// .bench_build/traces/<workload>-seed<N>.jsonl. Scratch journals live in
// .bench_build/work/ and are removed when the run ends.
//
// Output checks (exit 1 with "correct":false on any mismatch): every
// repeat of a campaign reproduces its records, resumed journals are
// byte-identical to uninterrupted ones, traced run_single replays match the
// untraced records and dispatch counts, and on seed kPinnedSeed the check
// rows' fingerprints equal the lines pinned in --pins. --emit-pins prints
// those fingerprints instead, to regenerate the file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "bench.h"

namespace {

using gfi::cbench::Metric;
using gfi::cbench::Options;
using gfi::cbench::RunResult;

/// The seed whose check-row fingerprints are pinned in the --pins file.
constexpr unsigned long long kPinnedSeed = 1;

int usage(const char* message) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload "
               "iov-mix|mem-retry|journal-adaptive --seed N --seconds S "
               "--trace 0|1 [--pins FILE] [--emit-pins]\n",
               message);
  return 2;
}

bool parse_u64(const std::string& text, unsigned long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0';
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

/// Lines of the pins file that belong to `workload`, in file order.
std::vector<std::string> pinned_lines(const std::string& path,
                                      const std::string& workload) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(workload + " ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload;
  std::string pins;
  bool emit_pins = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-pins") {
      emit_pins = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed" && parse_u64(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--pins") {
      pins = value;
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  const auto kind = gfi::cbench::parse_workload(workload);
  if (!kind) return usage(("unknown workload '" + workload + "'").c_str());
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  options.workload = *kind;

  const std::string tag = workload + "-seed" + std::to_string(options.seed);
  options.work_dir = ".bench_build/work/" + tag + "-" +
                     std::to_string(static_cast<long>(getpid()));
  options.trace_path = ".bench_build/traces/" + tag + ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (options.trace) {
    std::filesystem::create_directories(
        std::filesystem::path(options.trace_path).parent_path(), ec);
  }

  auto run = gfi::cbench::run_benchmark(options);
  std::filesystem::remove_all(options.work_dir, ec);
  if (!run.is_ok()) {
    std::fprintf(stderr, "campaign_bench: %s\n",
                 run.status().to_string().c_str());
    return 1;
  }
  RunResult result = std::move(run).take();

  if (emit_pins) {
    for (const std::string& line : result.fingerprint) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  if (options.seed == kPinnedSeed) {
    if (pins.empty()) {
      result.mismatches.push_back("seed " + std::to_string(kPinnedSeed) +
                                  " needs --pins");
    } else if (pinned_lines(pins, workload) != result.fingerprint) {
      result.mismatches.push_back("check rows differ from the values pinned "
                                  "in " + pins);
      for (const std::string& line : result.fingerprint) {
        std::fprintf(stderr, "  got: %s\n", line.c_str());
      }
    }
  }
  for (const std::string& what : result.mismatches) {
    std::fprintf(stderr, "MISMATCH %s\n", what.c_str());
  }

  const bool correct = result.mismatches.empty();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    std::printf("%-36s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    if (i) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
