// Tests for the tooling layer: instruction tracer, XID mapping, the
// statistical comparison helpers, the strict CLI value parsers and the
// unsigned-integer grammar they share with failpoint specs and JSONL files,
// the gpufi name-table flags (--engine, --arch, --mode, --flip), and the
// flag table's forwarding of campaign flags to `gpufi run` workers.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/compare.h"
#include "arch/arch.h"
#include "common/failpoint.h"
#include "common/jsonl.h"
#include "common/parse.h"
#include "fi/journal.h"
#include "sassim/tracer.h"
#include "sassim/xid.h"
#include "sim_test_util.h"
#include "tools/cli_args.h"
#include "tools/cli_flags.h"
#include "workloads/workload.h"

namespace gfi {
namespace {

using gfi::Dim3;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::TracerHook;
using sim_test::must;

sim::Program tiny_kernel() {
  KernelBuilder b("tiny");
  b.mov_u32(2, Operand::imm_u(1));
  b.iadd_u32(2, Operand::reg(2), Operand::imm_u(2));
  b.exit_();
  return must(b);
}

TEST(Tracer, RecordsEveryInstructionInOrder) {
  Device device(arch::toy());
  TracerHook tracer;
  sim::LaunchOptions options;
  options.hook = &tracer;
  auto launch = device.launch(tiny_kernel(), Dim3(1), Dim3(32), {}, options);
  ASSERT_TRUE(launch.is_ok());
  ASSERT_EQ(tracer.entries().size(), 3u);
  EXPECT_EQ(tracer.entries()[0].op, sim::Opcode::kMov);
  EXPECT_EQ(tracer.entries()[1].op, sim::Opcode::kIAdd);
  EXPECT_EQ(tracer.entries()[2].op, sim::Opcode::kExit);
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(tracer.entries()[i].dyn_index, i);
  EXPECT_EQ(tracer.seen(), 3u);
  EXPECT_FALSE(tracer.truncated());
}

TEST(Tracer, FiltersByGroupAndWarp) {
  Device device(arch::toy());
  TracerHook tracer;
  tracer.set_filter(TracerHook::only_group(sim::InstrGroup::kControl));
  sim::LaunchOptions options;
  options.hook = &tracer;
  auto launch = device.launch(tiny_kernel(), Dim3(1), Dim3(64), {}, options);
  ASSERT_TRUE(launch.is_ok());
  // Only the two warps' EXITs survive the filter.
  EXPECT_EQ(tracer.entries().size(), 2u);
  EXPECT_EQ(tracer.seen(), 6u);

  tracer.clear();
  tracer.set_filter(TracerHook::only_warp(0, 1));
  (void)device.launch(tiny_kernel(), Dim3(1), Dim3(64), {}, options);
  EXPECT_EQ(tracer.entries().size(), 3u);
  for (const auto& entry : tracer.entries()) EXPECT_EQ(entry.warp, 1u);
}

TEST(Tracer, WindowFilterAndTruncation) {
  Device device(arch::toy());
  TracerHook tracer(/*max_entries=*/2);
  tracer.set_filter(TracerHook::window(0, 5));
  sim::LaunchOptions options;
  options.hook = &tracer;
  (void)device.launch(tiny_kernel(), Dim3(4), Dim3(32), {}, options);
  EXPECT_EQ(tracer.entries().size(), 2u);
  EXPECT_TRUE(tracer.truncated());
  EXPECT_NE(tracer.to_string().find("truncated"), std::string::npos);
}

TEST(Xid, TrapMapping) {
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kEccDoubleBit), 48);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kIllegalGlobalAddress), 31);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kIllegalSharedAddress), 31);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kWatchdogTimeout), 8);
  EXPECT_EQ(sim::xid_for_trap(sim::TrapKind::kNone), 0);
}

TEST(Xid, LogLineLooksLikeDmesg) {
  sim::Trap trap;
  trap.kind = sim::TrapKind::kEccDoubleBit;
  trap.address = 0x1234;
  const std::string line = sim::xid_log_line(trap);
  EXPECT_NE(line.find("NVRM: Xid"), std::string::npos);
  EXPECT_NE(line.find("48"), std::string::npos);
  EXPECT_NE(line.find("Double Bit ECC"), std::string::npos);
  EXPECT_TRUE(sim::xid_log_line(sim::Trap{}).empty());
}

// -------------------------------------------------------------- compare --

TEST(Compare, IdenticalProportionsNotSignificant) {
  const auto test = analysis::two_proportion_z(50, 100, 50, 100);
  EXPECT_DOUBLE_EQ(test.p1, 0.5);
  EXPECT_DOUBLE_EQ(test.p2, 0.5);
  EXPECT_NEAR(test.z, 0.0, 1e-12);
  EXPECT_FALSE(test.significant());
}

TEST(Compare, LargeDifferenceSignificant) {
  const auto test = analysis::two_proportion_z(80, 100, 20, 100);
  EXPECT_TRUE(test.significant(0.01));
  EXPECT_GT(test.z, 5.0);
  EXPECT_LT(test.p_value, 1e-6);
}

TEST(Compare, SmallSampleSameDifferenceNotSignificant) {
  const auto test = analysis::two_proportion_z(3, 10, 1, 10);
  EXPECT_FALSE(test.significant());
}

TEST(Compare, DegenerateInputs) {
  EXPECT_FALSE(analysis::two_proportion_z(0, 0, 5, 10).significant());
  EXPECT_FALSE(analysis::two_proportion_z(0, 10, 0, 10).significant());
  EXPECT_FALSE(analysis::two_proportion_z(10, 10, 10, 10).significant());
}

TEST(Compare, ComposedRateWeightsByMix) {
  sim::Profile profile;
  profile.total_warp_instrs = 100;
  profile.warp_instrs_by_group[static_cast<int>(sim::InstrGroup::kFp32)] = 75;
  profile.warp_instrs_by_group[static_cast<int>(sim::InstrGroup::kInt)] = 25;

  analysis::GroupRates rates;
  rates.set(sim::InstrGroup::kFp32, 0.4);
  rates.set(sim::InstrGroup::kInt, 0.8);
  EXPECT_NEAR(analysis::composed_rate(profile, rates), 0.5, 1e-12);

  // Unknown groups are excluded from the covered population.
  analysis::GroupRates partial;
  partial.set(sim::InstrGroup::kFp32, 0.4);
  EXPECT_NEAR(analysis::composed_rate(profile, partial), 0.4, 1e-12);
}

TEST(Compare, ComposedRateEmptyProfile) {
  sim::Profile profile;
  analysis::GroupRates rates;
  EXPECT_EQ(analysis::composed_rate(profile, rates), 0.0);
}

// ------------------------------------------------------------ cli_args --
//
// Campaign flag lines must be replayable verbatim, so a value either parses
// completely or the flag is rejected — no strtoull "10k means 10" leniency.

TEST(CliArgs, ParseU64AcceptsWholeStringsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ULL);
  EXPECT_EQ(parse_u64("0x1f", /*allow_hex=*/true), 0x1fu);  // hex seeds

  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("10k"));
  EXPECT_FALSE(parse_u64("abc"));
  EXPECT_FALSE(parse_u64("-1"));
  EXPECT_FALSE(parse_u64("+5"));
  EXPECT_FALSE(parse_u64(" 7"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // 2^64: out of range
  EXPECT_FALSE(parse_u64("0x1f"));  // hex needs allow_hex
}

TEST(CliArgs, ParseU32EnforcesRange) {
  EXPECT_EQ(cli::parse_u32("4294967295"), 0xffffffffu);
  EXPECT_FALSE(cli::parse_u32("4294967296"));
  EXPECT_FALSE(cli::parse_u32("99999999999999"));
  EXPECT_FALSE(cli::parse_u32("12x"));
}

TEST(CliArgs, ParseShardValidatesIndexAgainstCount) {
  auto shard = cli::parse_shard("2/8");
  ASSERT_TRUE(shard.has_value());
  EXPECT_EQ(shard->index, 2u);
  EXPECT_EQ(shard->count, 8u);
  EXPECT_TRUE(cli::parse_shard("0/1").has_value());

  EXPECT_FALSE(cli::parse_shard("3/2"));   // index >= count
  EXPECT_FALSE(cli::parse_shard("2/2"));   // index == count
  EXPECT_FALSE(cli::parse_shard("0/0"));   // zero shards
  EXPECT_FALSE(cli::parse_shard("abc/2"));
  EXPECT_FALSE(cli::parse_shard("1/x"));
  EXPECT_FALSE(cli::parse_shard("12"));    // no slash
  EXPECT_FALSE(cli::parse_shard("/4"));
  EXPECT_FALSE(cli::parse_shard("1/"));
  EXPECT_FALSE(cli::parse_shard("-1/4"));
  EXPECT_FALSE(cli::parse_shard("1/4/2"));  // trailing garbage
}

/// Runs the gpufi binary with `args` (shell-quoted by the caller); returns
/// its exit status and, when `err` is given, what it wrote to stderr.
int run_gpufi(const std::string& args, std::string* err = nullptr) {
  // One file per test process: ctest runs tests in parallel processes.
  const std::string err_path =
      ::testing::TempDir() + "gpufi_stderr_" + std::to_string(getpid());
  const std::string command =
      std::string(GFI_GPUFI_BIN) + " " + args + " >/dev/null 2>" + err_path;
  const int status = std::system(command.c_str());
  if (err) {
    std::ifstream in(err_path);
    err->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  std::remove(err_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// One grammar for every unsigned integer a user or a file supplies:
// decimal, plus 0x hex where the reader allows it (CLI seeds, failpoint
// specs); no octal spelling, sign, whitespace, trailing garbage or
// overflow. Each row runs through the CLI (--heartbeat-ms is decimal,
// --seed takes hex), the failpoint spec grammar (a key= trigger, which
// fires only on the parsed value) and the JSONL scalar and array readers
// (decimal).
TEST(StrictUnsigned, CliFailpointsAndJsonlShareOneGrammar) {
  struct Row {
    const char* text;
    std::optional<u64> decimal;  ///< what decimal readers must return
    std::optional<u64> hex;      ///< what hex-allowing readers must return
  };
  const Row rows[] = {
      {"0", 0, 0},
      {"7", 7, 7},
      {"18446744073709551615", ~0ULL, ~0ULL},
      {"0x10", std::nullopt, 16},
      {"0XfF", std::nullopt, 255},
      {"0xffffffffffffffff", std::nullopt, ~0ULL},
      {"010", std::nullopt, std::nullopt},  // octal 8 to strtoull base 0
      {"09", std::nullopt, std::nullopt},
      {"00", std::nullopt, std::nullopt},
      {"-1", std::nullopt, std::nullopt},
      {"+5", std::nullopt, std::nullopt},
      {" 5", std::nullopt, std::nullopt},
      {"1 2", std::nullopt, std::nullopt},
      {"12abc", std::nullopt, std::nullopt},
      {"0x", std::nullopt, std::nullopt},
      {"0x-1", std::nullopt, std::nullopt},
      {"99999999999999999999", std::nullopt, std::nullopt},
      {"0x10000000000000000", std::nullopt, std::nullopt},
      {"", std::nullopt, std::nullopt},
  };
  for (const Row& row : rows) {
    const std::string text = row.text;
    SCOPED_TRACE("'" + text + "'");

    EXPECT_EQ(run_gpufi("version '--heartbeat-ms=" + text + "'"),
              row.decimal ? 0 : 2);
    EXPECT_EQ(run_gpufi("version '--seed=" + text + "'"), row.hex ? 0 : 2);

    const Status spec = fp::set_spec("strict.site=err@key=" + text);
    EXPECT_EQ(spec.is_ok(), row.hex.has_value()) << spec.to_string();
    if (row.hex && *row.hex != fp::kAnyKey) {  // kAnyKey never matches
      EXPECT_TRUE(fp::hit("strict.site", *row.hex));
      EXPECT_FALSE(fp::hit("strict.site", *row.hex ^ 1));
    }
    EXPECT_TRUE(fp::set_spec("").is_ok());

    // JSON allows whitespace around a value, so a leading space is the
    // scanner's business there, not the number grammar's.
    if (text.starts_with(' ')) continue;
    jsonl::Fields scalar;
    ASSERT_TRUE(jsonl::parse_fields("{\"v\":" + text + "}", &scalar));
    EXPECT_EQ(jsonl::get_u64(scalar, "v"), row.decimal);
    jsonl::Fields array;
    const bool parsed = jsonl::parse_fields("{\"a\":[3," + text + "]}", &array);
    EXPECT_EQ(parsed, row.decimal.has_value());
    if (parsed && row.decimal) {
      EXPECT_EQ(array.arrays["a"], (std::vector<u64>{3, *row.decimal}));
    }
  }
}

TEST(StrictUnsigned, JsonlWritersStillRoundTripAndFloatsNeedTheWholeToken) {
  std::string line = "{";
  jsonl::append_u64(line, "zero", 0);
  jsonl::append_u64(line, "max", ~0ULL);
  jsonl::append_u64_array(line, "a", {0, 42, ~0ULL});
  jsonl::append_f64(line, "f", 0.1);
  line += "}";
  jsonl::Fields fields;
  ASSERT_TRUE(jsonl::parse_fields(line, &fields));
  EXPECT_EQ(jsonl::get_u64(fields, "zero"), 0u);
  EXPECT_EQ(jsonl::get_u64(fields, "max"), ~0ULL);
  EXPECT_EQ(fields.arrays["a"], (std::vector<u64>{0, 42, ~0ULL}));
  EXPECT_EQ(jsonl::get_f64(fields, "f"), 0.1);

  for (const char* bad : {"1.5x", "2e", "1.5 2", "0.1.2"}) {
    const std::string garbage_line = "{\"f\":" + std::string(bad) + "}";
    jsonl::Fields garbage;
    ASSERT_TRUE(jsonl::parse_fields(garbage_line, &garbage));
    EXPECT_FALSE(jsonl::get_f64(garbage, "f")) << bad;
  }
  jsonl::Fields dangling;
  EXPECT_FALSE(jsonl::parse_fields("{\"a\":[1,]}", &dangling));
}

// --engine names the two tiers from the one table the metrics use; a
// removed or unknown tier is a usage error naming both.
TEST(CliEngine, AcceptsTheTwoTiersAndRejectsEverythingElse) {
  EXPECT_EQ(run_gpufi("version --engine=threaded"), 0);
  EXPECT_EQ(run_gpufi("version --engine=instrumented"), 0);
  for (const char* bad : {"clean", "auto", "Threaded", ""}) {
    const std::string flag = "'--engine=" + std::string(bad) + "'";
    const std::string want =
        "bad --engine '" + std::string(bad) + "' (want threaded|instrumented)";
    std::string err;
    EXPECT_EQ(run_gpufi("version " + flag, &err), 2) << bad;
    EXPECT_EQ(err.substr(0, err.find('\n')), want);
  }
}

// --arch, --mode, --flip, --persist, --recover, --prune and --stratify read
// one name table each; a bad spelling is a usage error that lists every
// accepted one.
TEST(CliEnums, BadSpellingsNameTheAcceptedOnes) {
  const struct {
    const char* flag;
    const char* want;
  } rows[] = {
      {"arch", "a100|h100|toy"},
      {"mode", "iov|ioa|pred|rf|mem"},
      {"flip", "single|double|random|zero"},
      {"persist", "transient|stuck"},
      {"recover", "retry|abft"},
      {"prune", "dead|dead-bits|none"},
      {"stratify", "group|none"},
  };
  for (const auto& row : rows) {
    const std::string flag = std::string("--") + row.flag;
    std::string err;
    EXPECT_EQ(run_gpufi("golden vecadd " + flag + "=x", &err), 2) << row.flag;
    EXPECT_EQ(err.substr(0, err.find('\n')),
              "bad " + flag + " 'x' (want " + row.want + ")");
  }
}

// ------------------------------------------------------------ flag table --

// The flags the supervisor sets per worker (or that `run` has no use for)
// are refused before anything runs, each with one line naming the flag.
TEST(CliRun, RefusesSupervisorOwnedFlags) {
  const std::string dir = ::testing::TempDir() + "gpufi_run_refuses_" +
                          std::to_string(getpid());
  const std::map<std::string, std::string> rows = {
      {"threads", "1"},          {"shard", "0/2"},
      {"journal", "j.jsonl"},    {"quarantine", "3"},
      {"metrics-out", "m.json"}, {"plan", "p.jsonl"},
  };
  cli::Options defaults;
  for (const cli::Flag& flag : cli::flags(defaults)) {
    EXPECT_EQ(flag.run == cli::RunRole::kReject, rows.contains(flag.name))
        << flag.name;
  }
  for (const auto& [name, value] : rows) {
    std::string err;
    EXPECT_EQ(run_gpufi("run vecadd --arch=toy --injections=8 --dir=" + dir +
                            " --" + name + "=" + value,
                        &err),
              2)
        << name;
    EXPECT_EQ(err.rfind("gpufi run: --" + name + " is campaign-only", 0), 0u)
        << err;
    EXPECT_EQ(err.find('\n'), err.size() - 1) << err;
    EXPECT_FALSE(std::filesystem::exists(dir)) << name;
  }
}

// Both arches would share one journal (the second one refuses it after the
// first campaign ran) and compare writes no metrics snapshot.
TEST(CliCompare, RefusesJournalAndMetricsOutBeforeRunning) {
  const std::string path = ::testing::TempDir() + "gpufi_compare_refuses_" +
                           std::to_string(getpid());
  for (const char* name : {"journal", "metrics-out"}) {
    std::string err;
    EXPECT_EQ(run_gpufi("compare vecadd --arch=toy --injections=8 --" +
                            std::string(name) + "=" + path,
                        &err),
              2)
        << name;
    EXPECT_EQ(err, "gpufi compare: --" + std::string(name) +
                       " is campaign-only (compare runs one campaign per "
                       "arch)\n");
    EXPECT_FALSE(std::filesystem::exists(path)) << name;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// `--recover=abft` names the _abft kernel. The supervisor's planner mirror
// and its workers must run that same kernel.
TEST(CliRun, AbftPlannerRunMatchesTheUnshardedCampaign) {
  const std::string base = ::testing::TempDir() + "gpufi_run_abft_" +
                           std::to_string(getpid()) + "/";
  std::filesystem::create_directories(base);
  const std::string flags =
      " --arch=toy --injections=60 --seed=3 --recover=abft"
      " --stop-half-width=0.1 --stop-min=20 --checkpoint-every=20";
  ASSERT_EQ(run_gpufi("campaign gemm" + flags + " --threads=1 --journal=" +
                      base + "ref.jsonl"),
            0);
  ASSERT_EQ(run_gpufi("run gemm" + flags + " --dir=" + base +
                      "run --shards=2 --poll-ms=20 --out=" + base +
                      "merged.jsonl"),
            0);
  const std::string ref = read_file(base + "ref.jsonl");
  EXPECT_NE(ref.find("\"workload\":\"gemm_abft\""), std::string::npos);
  EXPECT_EQ(read_file(base + "merged.jsonl"), ref);
  std::filesystem::remove_all(base);
}

cli::Options must_parse(const std::vector<std::string>& args) {
  auto options = cli::parse(args);
  EXPECT_TRUE(options.has_value());
  return options.value_or(cli::Options{});
}

/// What `gpufi campaign` makes of `options`: the campaign fields a worker
/// depends on, then the journal header.
std::string campaign_identity(const cli::Options& options) {
  const fi::CampaignConfig c = cli::campaign_config(options);
  const fi::PlannerConfig& planner = c.planner;
  std::string out;
  auto field = [&out](const char* name, const std::string& value) {
    out += std::string(name) + "=" + value + " ";
  };
  field("workload", c.workload);
  field("machine", c.machine.name);
  field("rf_ecc", std::to_string(static_cast<int>(c.machine.rf_ecc)));
  field("dram_ecc", std::to_string(static_cast<int>(c.machine.dram_ecc)));
  field("engine", sim::engine_tier_name(c.engine));
  field("threads", std::to_string(c.threads));
  field("journal", c.journal_path.value_or("-"));
  field("watchdog", std::to_string(c.watchdog_instrs.value_or(~0ULL)));
  field("heartbeat", std::to_string(c.heartbeat_interval_ms));
  field("prune_sites", std::to_string(c.prune_dead_sites));
  field("prune_bits", std::to_string(c.prune_dead_bits));
  field("stop", std::to_string(planner.stop.target_half_width));
  field("confidence", std::to_string(planner.stop.confidence));
  field("stop_min", std::to_string(planner.stop.min_samples));
  field("checkpoint", std::to_string(planner.checkpoint_every));
  field("stratify", std::to_string(planner.stratify));
  field("plan", planner.plan_path.value_or("-"));
  field("quarantine", std::to_string(c.quarantine.size()));
  fi::Campaign::Golden golden;
  golden.dyn_instrs = 1234;
  golden.cycles = 567;
  return out + fi::Journal::header_line(fi::make_journal_header(c, golden));
}

// A finished `gpufi run` directory resumed under another campaign's flags
// is refused with exit 2, naming the differing field; never does it report
// the old campaign as the new one.
TEST(CliRun, ResumeUnderADifferentCampaignExitsTwoNamingTheField) {
  const std::string dir =
      ::testing::TempDir() + "gfi_run_resume_" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::string run = "run vecadd --arch=toy --injections=60 --shards=2";
  run += " --poll-ms=20 --dir=" + dir;
  ASSERT_EQ(run_gpufi(run), 0);
  std::string err;
  EXPECT_EQ(run_gpufi(run + " --mode=ioa --flip=zero --resume", &err), 2);
  EXPECT_NE(err.find("mode is 'IOV', campaign has 'IOA'"), std::string::npos)
      << err;
  EXPECT_EQ(run_gpufi(run + " --resume"), 0);
  std::filesystem::remove_all(dir);
}

// `gpufi campaign` refuses another campaign's journal with exit 2, as
// `run` and `merge` do, naming the differing field.
TEST(CliCampaign, RefusedJournalExitsTwoNamingTheField) {
  const std::string dir =
      ::testing::TempDir() + "gfi_campaign_refused_" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string campaign = "campaign gemm --arch=toy --mode=rf "
                               "--injections=8 --seed=3 --journal=" +
                               dir + "/c.jsonl";
  ASSERT_EQ(run_gpufi(campaign), 0);
  std::string err;
  EXPECT_EQ(run_gpufi(campaign + " --ecc=off", &err), 2);
  EXPECT_NE(err.find("FAILED_PRECONDITION"), std::string::npos) << err;
  EXPECT_NE(err.find("ecc is 'rf=secded,dram=secded', campaign has "
                     "'rf=off,dram=off'"),
            std::string::npos)
      << err;
  std::filesystem::remove_all(dir);
}

// A `gpufi run` line, turned into the worker command line the supervisor
// launches, is the campaign `gpufi campaign` runs for the same flags. One
// row per forwarded flag, each set off its default, then all at once.
TEST(CliFlags, RunWorkersRebuildTheCampaign) {
  const std::map<std::string, std::string> values = {
      {"arch", "toy"},
      {"mode", "ioa"},
      {"flip", "double"},
      {"group", "STORE"},
      {"injections", "77"},
      {"seed", "0x2a"},
      {"bit", "5"},
      {"ecc", "off"},
      {"watchdog", "12345"},
      {"engine", "instrumented"},
      {"recover", "abft"},
      {"max-retries", "2"},
      {"persist", "stuck"},
      {"prune", "dead-bits"},
      {"stop-half-width", "0.03"},
      {"stop-confidence", "0.9"},
      {"stop-min", "50"},
      {"checkpoint-every", "40"},
      {"stratify", "group"},
  };
  cli::Options defaults;
  std::vector<std::string> rows;
  for (const cli::Flag& flag : cli::flags(defaults)) {
    const bool forwarded = flag.run == cli::RunRole::kForward ||
                           flag.run == cli::RunRole::kForwardSet;
    ASSERT_EQ(forwarded, values.contains(flag.name)) << flag.name;
    if (!forwarded) continue;
    rows.push_back(std::string("--") + flag.name + "=" + values.at(flag.name));
  }
  // A `gpufi campaign` line with the flags the supervisor appends to every
  // worker's line.
  const std::vector<std::string> owned = {"--threads=1", "--shard=1/4",
                                          "--journal=d/shard-1.jsonl",
                                          "--heartbeat-ms=2000"};
  auto campaign_line = [&owned](const std::vector<std::string>& flags) {
    std::vector<std::string> line = {"campaign", "vecadd"};
    line.insert(line.end(), flags.begin(), flags.end());
    line.insert(line.end(), owned.begin(), owned.end());
    return line;
  };
  const std::string untouched =
      campaign_identity(must_parse(campaign_line({})));
  std::vector<std::vector<std::string>> lines;
  for (const std::string& row : rows) lines.push_back({row});
  lines.push_back(rows);
  for (const std::vector<std::string>& line : lines) {
    SCOPED_TRACE(::testing::PrintToString(line));
    std::vector<std::string> run = {"run", "vecadd", "--dir=d"};
    run.insert(run.end(), line.begin(), line.end());
    const std::vector<std::string> forwarded =
        cli::worker_flags(must_parse(run));
    const std::string want = campaign_identity(must_parse(campaign_line(line)));
    EXPECT_EQ(campaign_identity(must_parse(campaign_line(forwarded))), want);
    EXPECT_NE(want, untouched);  // the line moved the campaign
  }
}

// Defaults are spelled out on every worker command line, so a shard
// journal is replayable from its flags alone.
TEST(CliFlags, WorkersAlwaysGetTheFaultModelSizeAndSeed) {
  EXPECT_EQ(cli::worker_flags(must_parse({"run", "vecadd", "--dir=d",
                                          "--seed=0x10", "--csv=x.csv"})),
            (std::vector<std::string>{"--arch=a100", "--mode=iov",
                                      "--flip=single", "--injections=1000",
                                      "--seed=16", "--persist=transient"}));
}

}  // namespace
}  // namespace gfi
