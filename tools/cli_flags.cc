#include "cli_flags.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <type_traits>

#include "cli_args.h"

namespace gfi::cli {
namespace {

/// One spelling per value of a CLI enum.
template <typename T>
struct Named {
  T value;
  const char* name;
};

constexpr Named<sim::MachineConfig (*)()> kArchNames[] = {
    {arch::a100, "a100"}, {arch::h100, "h100"}, {arch::toy, "toy"}};
constexpr Named<fi::InjectionMode> kModeNames[] = {
    {fi::InjectionMode::kIov, "iov"},
    {fi::InjectionMode::kIoa, "ioa"},
    {fi::InjectionMode::kPred, "pred"},
    {fi::InjectionMode::kRf, "rf"},
    {fi::InjectionMode::kMemory, "mem"}};
constexpr Named<fi::BitFlipModel> kFlipNames[] = {
    {fi::BitFlipModel::kSingle, "single"},
    {fi::BitFlipModel::kDouble, "double"},
    {fi::BitFlipModel::kRandomValue, "random"},
    {fi::BitFlipModel::kZeroValue, "zero"}};
constexpr Named<fi::FaultPersistence> kPersistNames[] = {
    {fi::FaultPersistence::kTransient, "transient"},
    {fi::FaultPersistence::kStuckAt, "stuck"}};
constexpr Named<Recover> kRecoverNames[] = {{Recover::kRetry, "retry"},
                                            {Recover::kAbft, "abft"}};
constexpr Named<Prune> kPruneNames[] = {{Prune::kDead, "dead"},
                                        {Prune::kDeadBits, "dead-bits"},
                                        {Prune::kNone, "none"}};
constexpr Named<bool> kStratifyNames[] = {{true, "group"}, {false, "none"}};
constexpr Named<bool> kEccNames[] = {{true, "on"}, {false, "off"}};

/// The profile spellings of the instruction groups (FP32, STORE, ...).
const std::array<Named<sim::InstrGroup>, sim::kInstrGroupCount>& group_names() {
  static const auto table = [] {
    std::array<Named<sim::InstrGroup>, sim::kInstrGroupCount> names{};
    for (int g = 0; g < sim::kInstrGroupCount; ++g) {
      const auto group = static_cast<sim::InstrGroup>(g);
      names[g] = {group, sim::group_name(group)};
    }
    return names;
  }();
  return table;
}

// A flag's field is a T or an optional<T>; an empty optional is unset.
template <typename T>
struct Unwrap {
  using type = T;
};
template <typename T>
struct Unwrap<std::optional<T>> {
  using type = T;
};
template <typename T>
bool has(const T&) {
  return true;
}
template <typename T>
bool has(const std::optional<T>& field) {
  return field.has_value();
}
template <typename T>
const T& value_of(const T& field) {
  return field;
}
template <typename T>
const T& value_of(const std::optional<T>& field) {
  return *field;
}

/// Binds `field` to a grammar: `parse` maps text to a value or nullopt,
/// `spell` maps a value back to text that parses to it.
template <typename Field, typename Parse, typename Spell>
Value typed(std::string want, Field* field, Parse parse, Spell spell) {
  return {std::move(want),
          [field, parse](const std::string& text) {
            auto parsed = parse(text);
            if (parsed) *field = std::move(*parsed);
            return parsed.has_value();
          },
          [field, spell] {
            return has(*field) ? spell(value_of(*field)) : std::string();
          }};
}

enum class Int : u8 { kAny, kPositive, kHex };

/// An unsigned integer in the range of the field's type (strict
/// gfi::parse_u64; u32 fields get the range of cli::parse_u32).
template <typename Field>
Value number(Field* field, Int kind = Int::kAny) {
  using T = typename Unwrap<Field>::type;
  const char* want = "a non-negative integer";
  if (kind == Int::kPositive) want = "a positive integer";
  if (kind == Int::kHex) want = "an integer, 0x hex ok";
  return typed(
      want, field,
      [kind](const std::string& text) -> std::optional<T> {
        const auto parsed = parse_u64(text, kind == Int::kHex);
        if (!parsed || static_cast<T>(*parsed) != *parsed ||
            (kind == Int::kPositive && *parsed == 0)) {
          return std::nullopt;
        }
        return static_cast<T>(*parsed);
      },
      [](T value) { return std::to_string(value); });
}

/// A finite real strictly between `lo` and `hi`, spelled in the shortest
/// text that parses back to it. A value outside the interval (an off
/// default) has no spelling.
Value real(f64* field, f64 lo, f64 hi) {
  char want[48];
  std::snprintf(want, sizeof(want), "a number in (%g, %g)", lo, hi);
  return typed(
      want, field,
      [lo, hi](const std::string& text) -> std::optional<f64> {
        const auto parsed = parse_f64(text);
        if (!parsed || *parsed <= lo || *parsed >= hi) return std::nullopt;
        return parsed;
      },
      [lo, hi](f64 value) {
        if (value <= lo || value >= hi) return std::string();
        char text[32];
        return std::string(text, std::to_chars(text, text + 32, value).ptr);
      });
}

template <typename Field>
Value text(Field* field, const char* want) {
  return typed(
      want, field,
      [](const std::string& value) {
        return std::optional<std::string>(value);
      },
      [](const std::string& value) { return value; });
}

/// A bare `--name`.
Value toggle(bool* field) {
  return {"",
          [field](const std::string&) { return *field = true; },
          [] { return std::string(); }};
}

/// One entry of `table` by its name; `member` is the entry's value.
template <typename Table, typename Member, typename Field>
Value choice(const Table& table, Member member, Field* field) {
  using T = typename Unwrap<Field>::type;
  std::string want;
  for (const auto& entry : table) {
    if (!want.empty()) want += '|';
    want += entry.name;
  }
  return typed(
      want, field,
      [&table, member](const std::string& text) -> std::optional<T> {
        for (const auto& entry : table) {
          if (text == entry.name) return entry.*member;
        }
        return std::nullopt;
      },
      [&table, member](const T& value) {
        for (const auto& entry : table) {
          if (entry.*member == value) return std::string(entry.name);
        }
        return std::string();
      });
}
template <typename Table, typename Field>
Value choice(const Table& table, Field* field) {
  using Entry = std::remove_cvref_t<decltype(*std::begin(table))>;
  return choice(table, &Entry::value, field);
}

Value shard(fi::CampaignConfig* config) {
  return {"i/N with 0 <= i < N",
          [config](const std::string& text) {
            const auto parsed = parse_shard(text);
            if (!parsed) return false;
            config->shard_index = parsed->index;
            config->shard_count = parsed->count;
            return true;
          },
          [config] {
            return std::to_string(config->shard_index) + "/" +
                   std::to_string(config->shard_count);
          }};
}

Value index_list(std::vector<u64>* field) {
  return typed("comma-separated indices", field, parse_u64_list,
              [](const std::vector<u64>& indices) {
                std::string list;
                for (u64 index : indices) {
                  if (!list.empty()) list += ',';
                  list += std::to_string(index);
                }
                return list;
              });
}

}  // namespace

std::vector<Flag> flags(Options& o) {
  fi::CampaignConfig& c = o.campaign;
  fi::SupervisorConfig& s = o.supervisor;
  using enum RunRole;
  return {
      // The campaign: what is injected where, how often.
      {"arch", choice(kArchNames, &o.arch), kForward, "machine model"},
      {"mode", choice(kModeNames, &c.model.mode), kForward, "injection mode"},
      {"flip", choice(kFlipNames, &c.model.flip), kForward, "bit-flip model"},
      {"group", choice(group_names(), &c.group), kForwardSet,
       "instruction-group filter (default: every group the mode targets)"},
      {"injections", number(&c.num_injections, Int::kPositive), kForward,
       "campaign size"},
      {"seed", number(&c.seed, Int::kHex), kForward, "campaign seed"},
      {"bit", number(&c.fixed_bit), kForwardSet, "fix the flipped bit index"},
      {"ecc", choice(kEccNames, &o.ecc), kForwardSet, "force RF+DRAM ECC"},
      {"watchdog", number(&c.watchdog_instrs), kForwardSet,
       "per-injection budget in warp instrs (default 3x golden + 10000)"},
      {"engine",
       choice(sim::kEngineTierNames, &sim::EngineTierName::tier, &c.engine),
       kForwardSet, "dispatch tier; instrumented is the equivalence reference"},
      // Recovery and static pruning.
      {"recover", choice(kRecoverNames, &o.recover), kForwardSet,
       "trap-and-retry relaunch; abft also swaps in <workload>_abft"},
      {"max-retries", number(&o.max_retries), kForwardSet,
       "relaunch budget (default 3 with --recover, else 0)"},
      {"persist", choice(kPersistNames, &c.model.persistence), kForward,
       "whether retries see the fault again"},
      {"prune", choice(kPruneNames, &o.prune), kForwardSet,
       "credit statically dead IOV/PRED sites (dead-bits: and bits) "
       "without simulating them; tables stay bit-identical"},
      // Adaptive planner.
      {"stop-half-width", real(&c.planner.stop.target_half_width, 0.0, 0.5),
       kForwardSet,
       "stop at the first checkpoint where every Masked/SDC/DUE Wilson CI "
       "half-width is <= this (0.02 = +/-2 points)"},
      {"stop-confidence", real(&c.planner.stop.confidence, 0.0, 1.0),
       kForwardSet, "CI level of the stopping rule"},
      {"stop-min", number(&c.planner.stop.min_samples), kForwardSet,
       "injections before a stop can fire"},
      {"checkpoint-every", number(&c.planner.checkpoint_every, Int::kPositive),
       kForwardSet, "planner decision period"},
      {"stratify", choice(kStratifyNames, &c.planner.stratify), kForwardSet,
       "Neyman-allocate each checkpoint block across instruction groups"},
      {"plan", text(&c.planner.plan_path, "a path"), kReject,
       "(campaign) follow the planner decisions published to this file"},
      // One campaign process.
      {"shard", shard(&c), kReject,
       "(campaign) run global injections i, i+N, i+2N, ..."},
      {"journal", text(&c.journal_path, "a path"), kReject,
       "(campaign) JSONL journal; rerunning with it resumes"},
      {"threads", number(&c.threads), kReject,
       "(campaign) injection threads, 0 = hardware concurrency"},
      {"quarantine", index_list(&c.quarantine), kReject,
       "(campaign) journal these global indices as Quarantined"},
      {"heartbeat-ms", number(&c.heartbeat_interval_ms), kLocal,
       "heartbeat sidecar period, 0 = after every injection"},
      {"metrics-out", text(&o.metrics_out, "a path"), kReject,
       "(campaign) write the metrics snapshot as JSON"},
      {"csv", text(&o.csv, "a path"), kLocal, "also write the outcome table"},
      {"records", text(&o.records, "a path"), kLocal,
       "write one CSV row per injection"},
      // The supervisor.
      {"dir", text(&s.dir, "a directory"), kLocal,
       "(run, required) shard journals, leases, state and logs"},
      {"shards", number(&s.shards, Int::kPositive), kLocal, "(run) shards"},
      {"workers", number(&s.max_workers), kLocal,
       "(run) concurrent workers, 0 = one per shard"},
      {"lease-ttl-ms", number(&s.lease_ttl_ms, Int::kPositive), kLocal,
       "(run) shard lease TTL"},
      {"stall-timeout-ms", number(&s.stall_timeout_ms), kLocal,
       "(run) kill a worker whose heartbeat is this stale, 0 = never"},
      {"poll-ms", number(&s.poll_ms, Int::kPositive), kLocal,
       "(run) supervision loop period"},
      {"max-shard-attempts", number(&s.max_shard_attempts, Int::kPositive),
       kLocal, "(run) abandon a shard after this many no-progress crashes"},
      {"poison-threshold", number(&s.poison_threshold, Int::kPositive), kLocal,
       "(run) quarantine an injection after this many crashes on it"},
      {"backoff-base-ms", number(&s.backoff_base_ms), kLocal,
       "(run) relaunch backoff base"},
      {"backoff-cap-ms", number(&s.backoff_cap_ms), kLocal,
       "(run) relaunch backoff cap"},
      {"worker-failpoints", text(&s.worker_failpoints, "a failpoint spec"),
       kLocal, "(run) GFI_FAILPOINTS for workers"},
      {"resume", toggle(&s.resume), kLocal,
       "(run) continue an existing supervisor state"},
      {"out", text(&o.out, "a path"), kLocal,
       "(run/merge) write the merged journal"},
      {"allow-partial", toggle(&o.allow_partial), kLocal,
       "(merge) merge despite missing or incomplete shards"},
      // Static analysis and status.
      {"json", toggle(&o.json), kLocal, "(lint/avf) machine-readable output"},
      {"sarif", text(&o.sarif, "a path"), kLocal,
       "(lint) also write the findings as SARIF 2.1.0"},
      {"watch", toggle(&o.watch), kLocal,
       "(status) re-render until every shard is done"},
      {"interval", number(&o.interval_s, Int::kPositive), kLocal,
       "(status) --watch period in seconds"},
  };
}

std::optional<Options> parse(const std::vector<std::string>& args) {
  if (args.empty()) return std::nullopt;
  Options options;
  options.command = args[0];
  std::size_t at = 1;
  for (; at < args.size() && !args[at].starts_with('-'); ++at) {
    if (options.workload.empty()) {
      options.workload = args[at];
    } else {
      options.positionals.push_back(args[at]);
    }
  }
  const std::vector<Flag> table = flags(options);
  for (; at < args.size(); ++at) {
    const std::string& arg = args[at];
    const Flag* flag = nullptr;
    std::string value;
    for (const Flag& candidate : table) {
      const std::string dashed = std::string("--") + candidate.name;
      const bool bare = candidate.value.want.empty();
      if (bare ? arg == dashed : arg.starts_with(dashed + "=")) {
        flag = &candidate;
        if (!bare) value = arg.substr(dashed.size() + 1);
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    }
    if (!flag->value.set(value)) {
      std::fprintf(stderr, "bad --%s '%s' (want %s)\n", flag->name,
                   value.c_str(), flag->value.want.c_str());
      return std::nullopt;
    }
    options.given.insert(flag->name);
  }
  return options;
}

std::vector<std::string> worker_flags(Options options) {
  // Defaults are spelled out too, so the worker command line alone
  // determines the campaign: a shard journal is replayable from its flags.
  std::vector<std::string> out;
  for (const Flag& flag : flags(options)) {
    const bool given = options.given.contains(flag.name);
    if (flag.run == RunRole::kForward ||
        (flag.run == RunRole::kForwardSet && given)) {
      out.push_back(std::string("--") + flag.name + "=" + flag.value.get());
    }
  }
  return out;
}

fi::CampaignConfig campaign_config(const Options& options) {
  fi::CampaignConfig config = options.campaign;
  config.workload = options.workload;
  config.machine = options.arch();
  if (options.ecc) {
    const auto mode =
        *options.ecc ? ecc::EccMode::kSecded : ecc::EccMode::kDisabled;
    config.machine.rf_ecc = mode;
    config.machine.dram_ecc = mode;
  }
  // Both strategies relaunch from checkpoint; `abft` additionally swaps in
  // the checksum-carrying kernel so SDCs surface as retryable traps.
  config.max_retries = options.max_retries.value_or(options.recover ? 3 : 0);
  if (options.recover == Recover::kAbft &&
      config.workload.find("_abft") == std::string::npos) {
    config.workload += "_abft";
  }
  config.prune_dead_sites = options.prune != Prune::kNone;
  config.prune_dead_bits = options.prune == Prune::kDeadBits;
  return config;
}

std::string flag_reference() {
  std::string out =
      "flags are --name=value; under `gpufi run`, > marks the flags passed "
      "on to\nevery worker and x the ones run refuses:\n";
  Options defaults;
  for (const Flag& flag : flags(defaults)) {
    char mark = '>';
    if (flag.run == RunRole::kLocal) mark = ' ';
    if (flag.run == RunRole::kReject) mark = 'x';
    out += std::string(1, mark) + " --" + flag.name;
    if (!flag.value.want.empty()) out += "=<" + flag.value.want + ">";
    out += "\n      ";
    out += flag.help;
    const std::string fallback = flag.value.get();
    if (!fallback.empty()) out += " [default " + fallback + "]";
    out += '\n';
  }
  return out;
}

}  // namespace gfi::cli
