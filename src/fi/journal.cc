#include "fi/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <tuple>

#include "common/failpoint.h"
#include "common/jsonl.h"
#include "common/parse.h"
#include "ecc/protection.h"
#include "fi/planner.h"

namespace gfi::fi {
namespace {

// Serialization runs on the shared flat-JSONL helpers (common/jsonl.h), the
// same ones the observability heartbeat stream uses, so escaping, non-finite
// handling (null <-> NaN), and torn-line behaviour stay uniform.
using jsonl::append_array;
using jsonl::append_f64;
using jsonl::append_str;
using jsonl::append_u64;
using jsonl::copy_array;
using jsonl::Fields;
using jsonl::get_f64;
using jsonl::get_str;
using jsonl::get_u64;
using jsonl::parse_fields;

// ------------------------------------------------------ name -> enum -----

std::optional<Outcome> outcome_from_name(const std::string& name) {
  for (int o = 0; o < kOutcomeCount; ++o) {
    const auto outcome = static_cast<Outcome>(o);
    if (name == to_string(outcome)) return outcome;
  }
  return std::nullopt;
}

std::optional<sim::TrapKind> trap_from_name(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(sim::TrapKind::kBarrierDivergence);
       ++k) {
    const auto kind = static_cast<sim::TrapKind>(k);
    if (name == sim::trap_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<sim::Opcode> opcode_from_name(const std::string& name) {
  for (int op = 0; op < sim::kOpcodeCount; ++op) {
    const auto opcode = static_cast<sim::Opcode>(op);
    if (name == sim::opcode_name(opcode)) return opcode;
  }
  return std::nullopt;
}

std::optional<sim::InstrGroup> group_from_name(const std::string& name) {
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    if (name == sim::group_name(group)) return group;
  }
  return std::nullopt;
}

std::optional<InjectionMode> mode_from_name(const std::string& name) {
  for (int m = static_cast<int>(InjectionMode::kIov);
       m <= static_cast<int>(InjectionMode::kMemory); ++m) {
    const auto mode = static_cast<InjectionMode>(m);
    if (name == to_string(mode)) return mode;
  }
  return std::nullopt;
}

std::optional<BitFlipModel> flip_from_name(const std::string& name) {
  for (int f = static_cast<int>(BitFlipModel::kSingle);
       f <= static_cast<int>(BitFlipModel::kZeroValue); ++f) {
    const auto flip = static_cast<BitFlipModel>(f);
    if (name == to_string(flip)) return flip;
  }
  return std::nullopt;
}

std::optional<FaultPersistence> persist_from_name(const std::string& name) {
  for (int p = static_cast<int>(FaultPersistence::kTransient);
       p <= static_cast<int>(FaultPersistence::kStuckAt); ++p) {
    const auto persist = static_cast<FaultPersistence>(p);
    if (name == to_string(persist)) return persist;
  }
  return std::nullopt;
}

/// Canonical planner identity for headers: all-zero when inactive, and the
/// follow-mode plumbing (plan_path, plan_wait_ms) stripped — where the plan
/// came from never changes what the plan is.
PlannerConfig normalized_planner(const PlannerConfig& pc) {
  PlannerConfig out;
  out.stop.target_half_width = 0.0;
  out.stop.confidence = 0.0;
  out.stop.min_samples = 0;
  out.checkpoint_every = 0;
  out.stratify = false;
  out.plan_wait_ms = 0;
  if (!pc.active()) return out;
  if (pc.stopping()) out.stop = pc.stop;
  out.checkpoint_every = pc.checkpoint_every;
  out.stratify = pc.stratify;
  return out;
}

std::string planner_text(const PlannerConfig& pc) {
  if (!pc.active()) return "off";
  char text[128];
  std::snprintf(text, sizeof(text),
                "stop_hw=%g stop_conf=%g stop_min=%llu ckpt=%llu stratify=%d",
                pc.stop.target_half_width, pc.stop.confidence,
                static_cast<unsigned long long>(pc.stop.min_samples),
                static_cast<unsigned long long>(pc.checkpoint_every),
                pc.stratify ? 1 : 0);
  return text;
}

/// The first campaign field where `got` differs from `want`, spelled
/// "<field> is '<got's>', campaign has '<want's>'"; nullopt when equal.
std::optional<std::string> header_difference(const JournalHeader& got,
                                             const JournalHeader& want) {
  auto differ = [](const char* what, const std::string& a,
                   const std::string& b) {
    return std::string(what) + " is '" + a + "', campaign has '" + b + "'";
  };
  auto bit = [](const std::optional<u32>& b) {
    return b ? std::to_string(*b) : std::string("<random>");
  };
  auto shard = [](const JournalHeader& h) {
    return std::to_string(h.shard_index) + "/" + std::to_string(h.shard_count);
  };
  auto golden = [](const JournalHeader& h) {
    return std::to_string(h.golden_dyn_instrs) + " instrs, " +
           std::to_string(h.golden_cycles) + " cycles";
  };
  if (got.workload != want.workload) {
    return differ("workload", got.workload, want.workload);
  }
  if (got.arch != want.arch) return differ("arch", got.arch, want.arch);
  if (got.ecc != want.ecc) return differ("ecc", got.ecc, want.ecc);
  if (got.mode != want.mode) return differ("mode", got.mode, want.mode);
  if (got.flip != want.flip) return differ("flip", got.flip, want.flip);
  if (got.persist != want.persist) {
    return differ("persistence", got.persist, want.persist);
  }
  if (got.max_retries != want.max_retries) {
    return differ("max_retries", std::to_string(got.max_retries),
                  std::to_string(want.max_retries));
  }
  if (got.group != want.group) {
    return differ("group", got.group.value_or("<all>"),
                  want.group.value_or("<all>"));
  }
  if (got.fixed_bit != want.fixed_bit) {
    return differ("fixed bit", bit(got.fixed_bit), bit(want.fixed_bit));
  }
  if (got.seed != want.seed) {
    return differ("seed", std::to_string(got.seed), std::to_string(want.seed));
  }
  if (got.num_injections != want.num_injections) {
    return differ("num_injections", std::to_string(got.num_injections),
                  std::to_string(want.num_injections));
  }
  if (got.shard_index != want.shard_index ||
      got.shard_count != want.shard_count) {
    return differ("shard", shard(got), shard(want));
  }
  if (got.planner != want.planner) {
    return differ("planner", planner_text(got.planner),
                  planner_text(want.planner));
  }
  if (got.golden_dyn_instrs != want.golden_dyn_instrs ||
      got.golden_cycles != want.golden_cycles || got.profile != want.profile) {
    return differ("golden run", golden(got), golden(want)) +
           " (the simulator or workload changed since it was written)";
  }
  return std::nullopt;
}

/// `config` as the whole campaign: shard 0 of `shard_count`.
CampaignConfig whole_campaign(CampaignConfig config, u32 shard_count) {
  config.shard_index = 0;
  config.shard_count = shard_count;
  return config;
}

}  // namespace

JournalHeader make_journal_header(const CampaignConfig& config,
                                  const Campaign::Golden& golden) {
  JournalHeader header;
  header.workload = config.workload;
  header.arch = config.machine.name;
  header.ecc = std::string("rf=") + ecc::to_string(config.machine.rf_ecc) +
               ",dram=" + ecc::to_string(config.machine.dram_ecc);
  header.mode = to_string(config.model.mode);
  header.flip = to_string(config.model.flip);
  header.persist = to_string(config.model.persistence);
  header.max_retries = config.max_retries;
  if (config.group) header.group = sim::group_name(*config.group);
  header.fixed_bit = config.fixed_bit;
  header.seed = config.seed;
  header.num_injections = config.num_injections;
  header.shard_index = config.shard_index;
  header.shard_count = config.shard_count;
  header.golden_dyn_instrs = golden.dyn_instrs;
  header.golden_cycles = golden.cycles;
  header.planner = normalized_planner(config.planner);
  header.profile = golden.profile;
  return header;
}

Status check_journal_compatible(const JournalHeader& header,
                                const CampaignConfig& config,
                                const Campaign::Golden& golden,
                                std::string_view file) {
  const auto difference =
      header_difference(header, make_journal_header(config, golden));
  if (!difference) return Status::ok();
  return Status::failed_precondition(
      std::string(file) + " was written by a different campaign: " +
      *difference);
}

std::string campaign_header_line(HeaderMagic magic, CampaignConfig config,
                                 const Campaign::Golden& golden,
                                 u32 shard_count) {
  const CampaignConfig whole = whole_campaign(std::move(config), shard_count);
  return Journal::header_line(make_journal_header(whole, golden), magic);
}

Status check_campaign_header_line(const std::string& path,
                                  const std::string& line, HeaderMagic magic,
                                  CampaignConfig config,
                                  const Campaign::Golden& golden,
                                  u32 shard_count) {
  auto header = Journal::parse_header(line, magic);
  if (!header.is_ok()) {
    return Status::failed_precondition(path + ": " + header.status().message());
  }
  const CampaignConfig whole = whole_campaign(std::move(config), shard_count);
  return check_journal_compatible(header.value(), whole, golden, path);
}

std::string Journal::header_line(const JournalHeader& header,
                                 HeaderMagic magic) {
  std::string out = "{";
  append_str(out, magic.key, magic.value);
  append_str(out, "workload", header.workload);
  append_str(out, "arch", header.arch);
  if (header.ecc != JournalHeader{}.ecc) append_str(out, "ecc", header.ecc);
  append_str(out, "mode", header.mode);
  append_str(out, "flip", header.flip);
  append_str(out, "persist", header.persist);
  append_u64(out, "max_retries", header.max_retries);
  if (header.group) append_str(out, "group", *header.group);
  if (header.fixed_bit) append_u64(out, "fixed_bit", *header.fixed_bit);
  append_u64(out, "seed", header.seed);
  append_u64(out, "num_injections", header.num_injections);
  append_u64(out, "shard_index", header.shard_index);
  append_u64(out, "shard_count", header.shard_count);
  // Planner identity fields only appear when the planner is active, so
  // planner-off journals stay byte-identical to pre-planner builds.
  if (header.planner.active()) {
    append_f64(out, "stop_hw", header.planner.stop.target_half_width);
    append_f64(out, "stop_conf", header.planner.stop.confidence);
    append_u64(out, "stop_min", header.planner.stop.min_samples);
    append_u64(out, "ckpt", header.planner.checkpoint_every);
    append_u64(out, "stratify", header.planner.stratify ? 1 : 0);
  }
  append_u64(out, "golden_dyn", header.golden_dyn_instrs);
  append_u64(out, "golden_cycles", header.golden_cycles);
  append_u64(out, "profile_warp_total", header.profile.total_warp_instrs);
  append_u64(out, "profile_thread_total", header.profile.total_thread_instrs);
  append_array(out, "profile_op", header.profile.warp_instrs_by_opcode);
  append_array(out, "profile_warp", header.profile.warp_instrs_by_group);
  append_array(out, "profile_thread", header.profile.thread_instrs_by_group);
  out += '}';
  return out;
}

Result<JournalHeader> Journal::parse_header(const std::string& line,
                                            HeaderMagic magic) {
  auto bad = [magic](const std::string& why) {
    return Status::invalid_argument(std::string(magic.key) + " header: " + why);
  };
  Fields fields;
  if (!parse_fields(line, &fields)) return bad("not a JSON object");
  if (get_str(fields, magic.key).value_or("") != magic.value) {
    return bad(std::string("missing or wrong magic, want ") + magic.value);
  }
  JournalHeader header;
  auto workload = get_str(fields, "workload");
  auto arch = get_str(fields, "arch");
  auto mode = get_str(fields, "mode");
  auto flip = get_str(fields, "flip");
  auto seed = get_u64(fields, "seed");
  auto num = get_u64(fields, "num_injections");
  auto shard_index = get_u64(fields, "shard_index");
  auto shard_count = get_u64(fields, "shard_count");
  auto golden_dyn = get_u64(fields, "golden_dyn");
  auto golden_cycles = get_u64(fields, "golden_cycles");
  auto warp_total = get_u64(fields, "profile_warp_total");
  auto thread_total = get_u64(fields, "profile_thread_total");
  if (!workload || !arch || !mode || !flip || !seed || !num || !shard_index ||
      !shard_count || !golden_dyn || !golden_cycles || !warp_total ||
      !thread_total) {
    return bad("missing required field");
  }
  if (!mode_from_name(*mode)) return bad("unknown mode '" + *mode + "'");
  if (!flip_from_name(*flip)) return bad("unknown flip '" + *flip + "'");
  header.workload = *workload;
  header.arch = *arch;
  header.ecc = get_str(fields, "ecc").value_or(header.ecc);
  header.mode = *mode;
  header.flip = *flip;
  // Recovery fields are absent in journals written before recovery existed;
  // those campaigns were all transient with no retry budget.
  header.persist = get_str(fields, "persist").value_or("transient");
  if (!persist_from_name(header.persist)) {
    return bad("unknown persistence '" + header.persist + "'");
  }
  header.max_retries =
      static_cast<u32>(get_u64(fields, "max_retries").value_or(0));
  header.group = get_str(fields, "group");
  if (header.group && !group_from_name(*header.group)) {
    return bad("unknown group '" + *header.group + "'");
  }
  if (auto bit = get_u64(fields, "fixed_bit")) {
    header.fixed_bit = static_cast<u32>(*bit);
  }
  header.seed = *seed;
  header.num_injections = *num;
  header.shard_index = static_cast<u32>(*shard_index);
  header.shard_count = static_cast<u32>(*shard_count);
  // Planner fields are absent in pre-planner journals and planner-off
  // campaigns; every field is set explicitly so the normalized all-zero
  // form round-trips (PlannerConfig's defaults are the ACTIVE defaults).
  header.planner.stop.target_half_width =
      get_f64(fields, "stop_hw").value_or(0.0);
  header.planner.stop.confidence = get_f64(fields, "stop_conf").value_or(0.0);
  header.planner.stop.min_samples = get_u64(fields, "stop_min").value_or(0);
  header.planner.checkpoint_every = get_u64(fields, "ckpt").value_or(0);
  header.planner.stratify = get_u64(fields, "stratify").value_or(0) != 0;
  header.planner.plan_wait_ms = 0;
  header.golden_dyn_instrs = *golden_dyn;
  header.golden_cycles = *golden_cycles;
  header.profile.total_warp_instrs = *warp_total;
  header.profile.total_thread_instrs = *thread_total;
  if (!copy_array(fields, "profile_op",
                  &header.profile.warp_instrs_by_opcode) ||
      !copy_array(fields, "profile_warp",
                  &header.profile.warp_instrs_by_group) ||
      !copy_array(fields, "profile_thread",
                  &header.profile.thread_instrs_by_group)) {
    return bad("bad or missing profile arrays");
  }
  return header;
}

std::string Journal::record_line(u64 index, const InjectionRecord& record) {
  std::string out = "{";
  append_u64(out, "i", index);
  append_str(out, "outcome", to_string(record.outcome));
  append_str(out, "pre", to_string(record.pre_recovery));
  append_u64(out, "att", record.attempts);
  append_str(out, "trap", sim::trap_kind_name(record.trap));
  append_f64(out, "err", record.error_magnitude);
  append_u64(out, "dyn", record.dyn_instrs);
  if (record.site.group) {
    append_str(out, "group", sim::group_name(*record.site.group));
  }
  append_u64(out, "occ", record.site.target_occurrence);
  append_u64(out, "lane", record.site.lane_sel);
  append_u64(out, "bit", record.site.bit_sel);
  append_u64(out, "bit2", record.site.bit_sel2);
  append_u64(out, "reg", record.site.reg_sel);
  append_u64(out, "rand", record.site.random_value);
  append_u64(out, "act", record.effect.activated ? 1 : 0);
  append_u64(out, "ecc", record.effect.corrected_by_ecc ? 1 : 0);
  append_u64(out, "sdyn", record.effect.struck_dyn_index);
  append_str(out, "sop", sim::opcode_name(record.effect.struck_opcode));
  append_str(out, "sgrp", sim::group_name(record.effect.struck_group));
  append_u64(out, "slane", record.effect.struck_lane);
  out += '}';
  return out;
}

Result<std::pair<u64, InjectionRecord>> Journal::parse_record(
    const std::string& line) {
  Fields fields;
  if (!parse_fields(line, &fields)) {
    return Status::invalid_argument("journal record: not a JSON object");
  }
  auto index = get_u64(fields, "i");
  auto outcome = get_str(fields, "outcome");
  auto trap = get_str(fields, "trap");
  auto err = get_f64(fields, "err");
  auto dyn = get_u64(fields, "dyn");
  auto occ = get_u64(fields, "occ");
  auto lane = get_u64(fields, "lane");
  auto bit = get_u64(fields, "bit");
  auto bit2 = get_u64(fields, "bit2");
  auto reg = get_u64(fields, "reg");
  auto rand = get_u64(fields, "rand");
  auto act = get_u64(fields, "act");
  auto ecc = get_u64(fields, "ecc");
  auto sdyn = get_u64(fields, "sdyn");
  auto sop = get_str(fields, "sop");
  auto sgrp = get_str(fields, "sgrp");
  auto slane = get_u64(fields, "slane");
  if (!index || !outcome || !trap || !err || !dyn || !occ || !lane || !bit ||
      !bit2 || !reg || !rand || !act || !ecc || !sdyn || !sop || !sgrp ||
      !slane) {
    return Status::invalid_argument("journal record: missing required field");
  }
  InjectionRecord record;
  auto outcome_value = outcome_from_name(*outcome);
  auto trap_value = trap_from_name(*trap);
  auto sop_value = opcode_from_name(*sop);
  auto sgrp_value = group_from_name(*sgrp);
  if (!outcome_value || !trap_value || !sop_value || !sgrp_value) {
    return Status::invalid_argument("journal record: unknown enum name");
  }
  record.outcome = *outcome_value;
  record.trap = *trap_value;
  // Recovery fields: absent in pre-recovery journals, where no retries ran
  // and the pre-recovery classification IS the outcome.
  record.pre_recovery = record.outcome;
  if (auto pre = get_str(fields, "pre")) {
    auto pre_value = outcome_from_name(*pre);
    if (!pre_value) {
      return Status::invalid_argument(
          "journal record: unknown pre-recovery outcome '" + *pre + "'");
    }
    record.pre_recovery = *pre_value;
  }
  record.attempts = static_cast<u32>(get_u64(fields, "att").value_or(1));
  record.error_magnitude = *err;
  record.dyn_instrs = *dyn;
  if (auto group = get_str(fields, "group")) {
    auto group_value = group_from_name(*group);
    if (!group_value) {
      return Status::invalid_argument("journal record: unknown group '" +
                                      *group + "'");
    }
    record.site.group = *group_value;
  }
  record.site.target_occurrence = *occ;
  record.site.lane_sel = static_cast<u32>(*lane);
  record.site.bit_sel = static_cast<u32>(*bit);
  record.site.bit_sel2 = static_cast<u32>(*bit2);
  record.site.reg_sel = static_cast<u16>(*reg);
  record.site.random_value = *rand;
  record.effect.activated = *act != 0;
  record.effect.corrected_by_ecc = *ecc != 0;
  record.effect.struck_dyn_index = *sdyn;
  record.effect.struck_opcode = *sop_value;
  record.effect.struck_group = *sgrp_value;
  record.effect.struck_lane = static_cast<u32>(*slane);
  return std::make_pair(*index, record);
}

Result<JournalContents> Journal::load(const std::string& path) {
  JournalContents contents;
  auto header = [&](const std::string& line) -> Status {
    auto parsed = parse_header(line);
    if (!parsed.is_ok()) return parsed.status();
    contents.header = std::move(parsed).take();
    return Status::ok();
  };
  auto record = [&](const std::string& line) -> Status {
    if (is_plan_line(line)) {
      auto event = parse_plan_event(line);
      if (!event.is_ok()) return event.status();
      contents.plan.push_back(event.value());
      return Status::ok();
    }
    auto parsed = parse_record(line);
    if (!parsed.is_ok()) return parsed.status();
    const FaultModel model{*mode_from_name(contents.header.mode),
                           *flip_from_name(contents.header.flip),
                           *persist_from_name(contents.header.persist)};
    auto [index, value] = std::move(parsed).take();
    value.site.model = model;
    contents.records.emplace_back(index, value);
    return Status::ok();
  };
  auto valid_bytes = jsonl::read_log(path, header, record);
  if (!valid_bytes.is_ok()) return valid_bytes.status();
  contents.valid_bytes = valid_bytes.value();
  return contents;
}

JournalWriter::~JournalWriter() {
  if (file_) std::fclose(file_);
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::create(
    const std::string& path, const JournalHeader& header) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) {
    return Status::internal("cannot create journal " + path + ": " +
                            std::strerror(errno));
  }
  const std::string line = Journal::header_line(header) + "\n";
  if (std::fwrite(line.data(), 1, line.size(), file) != line.size() ||
      std::fflush(file) != 0) {
    std::fclose(file);
    return Status::internal("cannot write journal header to " + path);
  }
  return std::unique_ptr<JournalWriter>(new JournalWriter(file));
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::open_append(
    const std::string& path, u64 valid_bytes) {
  auto file = jsonl::open_append(path, valid_bytes);
  if (!file.is_ok()) return file.status();
  return std::unique_ptr<JournalWriter>(new JournalWriter(file.value()));
}

Status JournalWriter::append(u64 index, const InjectionRecord& record) {
  return append_line(Journal::record_line(index, record));
}

Status JournalWriter::append_plan(const PlanEvent& event) {
  return append_line(plan_event_line(event));
}

Status JournalWriter::append_line(const std::string& payload) {
  const std::string line = payload + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  if (fp::enabled()) {
    const fp::Hit f = fp::hit("journal.append");
    if (f.action == fp::Action::kErr) {
      return Status::internal(
          "journal append failed: No space left on device [failpoint]");
    }
    if (f.action == fp::Action::kTorn) {
      // Model a crash mid-write: half the line reaches the disk, then the
      // process dies without running destructors. Resume must drop this
      // torn tail and re-run the injection.
      std::fwrite(line.data(), 1, line.size() / 2, file_);
      std::fflush(file_);
      std::_Exit(fp::kKillExitCode);
    }
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fflush(file_) != 0) {
    return Status::internal("journal append failed: " +
                            std::string(std::strerror(errno)));
  }
  if (fp::enabled() &&
      fp::hit("journal.flush").action == fp::Action::kErr) {
    return Status::internal("journal flush failed: Input/output error "
                            "[failpoint]");
  }
  return Status::ok();
}

namespace {

/// Renders "[a, b, c]" for shard-set error messages.
std::string list_u32(const std::vector<u32>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

Result<MergedCampaign> merge_journals(const std::vector<std::string>& paths,
                                      const MergeOptions& options) {
  if (paths.empty()) {
    return Status::invalid_argument("merge_journals: no journals given");
  }
  // Pass 1: load every journal, validate campaign identity, and settle the
  // planner decisions. The stop boundary must be known before coverage is
  // judged — an early stop shrinks the index space every slice is measured
  // against.
  std::vector<JournalContents> journals;
  journals.reserve(paths.size());
  std::map<u64, PlanEvent> allocs;  // checkpoint -> allocation
  std::optional<u64> stop_at;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    auto loaded = Journal::load(paths[p]);
    if (!loaded.is_ok()) return loaded.status();
    JournalContents contents = std::move(loaded).take();
    if (contents.header.shard_count == 0) {
      return Status::internal("journal " + paths[p] +
                              " has shard_count 0");
    }
    if (p > 0) {
      const JournalHeader& h = contents.header;
      const JournalHeader& m = journals[0].header;
      // Shard fields differ by design; every other field must match.
      JournalHeader other = h;
      other.shard_index = m.shard_index;
      other.shard_count = m.shard_count;
      if (auto difference = header_difference(other, m)) {
        return Status::failed_precondition(
            "journal " + paths[p] + " belongs to a different campaign than " +
            paths[0] + ": " + *difference);
      }
      if (h.shard_count != m.shard_count) {
        return Status::failed_precondition(
            "journal " + paths[p] + " is shard " +
            std::to_string(h.shard_index) + "/" +
            std::to_string(h.shard_count) + " but " + paths[0] +
            " was written with shard_count " +
            std::to_string(m.shard_count) +
            " — these journals do not partition the same campaign");
      }
    }
    for (const PlanEvent& event : contents.plan) {
      if (event.kind == PlanEvent::Kind::kAlloc) {
        auto [it, inserted] = allocs.emplace(event.checkpoint, event);
        if (!inserted && !(it->second == event)) {
          return Status::failed_precondition(
              "journals disagree on the planner allocation at checkpoint " +
              std::to_string(event.checkpoint) +
              " — they did not follow the same plan");
        }
      } else {
        if (stop_at && *stop_at != event.stop_at) {
          return Status::failed_precondition(
              "journals disagree on the planner stop boundary (" +
              std::to_string(*stop_at) + " vs " +
              std::to_string(event.stop_at) +
              ") — they did not follow the same plan");
        }
        stop_at = event.stop_at;
      }
    }
    journals.push_back(std::move(contents));
  }

  MergedCampaign merged;
  merged.header = journals[0].header;
  merged.header.shard_index = 0;
  merged.header.shard_count = 1;
  const u64 num = merged.header.num_injections;
  merged.effective_injections = std::min<u64>(num, stop_at.value_or(num));
  const u64 effective = merged.effective_injections;
  merged.records.resize(effective);
  std::vector<bool> covered(effective, false);
  // shard index -> path of the journal claiming it (duplicate detection).
  std::vector<std::string> shard_owner(journals[0].header.shard_count);
  std::vector<std::string> incomplete_shards;

  // Pass 2: place every record, judging coverage against the effective
  // (possibly stopped-short) index space.
  for (std::size_t p = 0; p < journals.size(); ++p) {
    const JournalContents& contents = journals[p];
    // Shard-set bookkeeping: each shard index may appear exactly once.
    const u32 shard = contents.header.shard_index;
    if (shard < shard_owner.size()) {
      if (!shard_owner[shard].empty()) {
        return Status::failed_precondition(
            "duplicate shard " + std::to_string(shard) + "/" +
            std::to_string(shard_owner.size()) + ": both " +
            shard_owner[shard] + " and " + paths[p]);
      }
      shard_owner[shard] = paths[p];
    }
    // This shard's expected slice size (strided partition of the effective
    // index space) — fewer journaled records means the shard is unfinished.
    u64 expected = 0;
    for (u64 i = shard; i < effective; i += shard_owner.size()) {
      ++expected;
    }
    u64 in_range = 0;
    for (const auto& [index, record] : contents.records) {
      if (index >= num) {
        return Status::internal("journal " + paths[p] + " has record index " +
                                std::to_string(index) + " out of range");
      }
      if (index >= effective) {
        // A worker raced ahead of the stop decision; its extra records are
        // dropped deterministically so the merge matches an uninterrupted
        // run that stopped at the boundary.
        ++merged.overshoot;
        continue;
      }
      ++in_range;
      if (covered[index]) {
        return Status::internal("journals overlap at record index " +
                                std::to_string(index));
      }
      covered[index] = true;
      merged.records[index] = record;
    }
    if (in_range < expected) {
      incomplete_shards.push_back(
          "shard " + std::to_string(shard) + " (" + paths[p] + "): " +
          std::to_string(in_range) + " of " + std::to_string(expected) +
          " records");
    }
  }
  if (!options.allow_partial) {
    std::vector<u32> missing_shards;
    for (u32 s = 0; s < shard_owner.size(); ++s) {
      if (shard_owner[s].empty()) missing_shards.push_back(s);
    }
    if (!missing_shards.empty()) {
      return Status::failed_precondition(
          "merge is missing shard(s) " + list_u32(missing_shards) + " of " +
          std::to_string(shard_owner.size()) +
          " (pass --allow-partial to merge what is present)");
    }
    if (!incomplete_shards.empty()) {
      std::string detail;
      for (const std::string& s : incomplete_shards) {
        detail += "\n  " + s;
      }
      return Status::failed_precondition(
          "merge has incomplete shard(s):" + detail +
          "\n(resume them, or pass --allow-partial to merge what is "
          "present)");
    }
  }
  for (u64 i = 0; i < covered.size(); ++i) {
    merged.missing += covered[i] ? 0 : 1;
  }
  if (merged.missing > 0) {
    // allow_partial: compact to the covered subsequence, in index order.
    std::vector<InjectionRecord> present;
    present.reserve(covered.size() - merged.missing);
    for (u64 i = 0; i < covered.size(); ++i) {
      if (!covered[i]) continue;
      merged.indices.push_back(i);
      present.push_back(merged.records[i]);
    }
    merged.records = std::move(present);
  } else {
    merged.indices.resize(merged.records.size());
    for (u64 i = 0; i < merged.indices.size(); ++i) merged.indices[i] = i;
  }
  for (const InjectionRecord& record : merged.records) {
    ++merged.outcome_counts[static_cast<int>(record.outcome)];
  }
  // Rebuilt plan: allocations in checkpoint order (dropping any whose whole
  // block lies beyond the stop — a live campaign never journals those), then
  // the stop event. This is exactly what an uninterrupted unsharded run
  // journals, which is what makes merged output byte-stable.
  const u64 ckpt = merged.header.planner.checkpoint_every;
  for (const auto& [c, event] : allocs) {
    if (ckpt > 0 && c * ckpt >= effective) continue;
    merged.plan.push_back(event);
  }
  if (stop_at) {
    PlanEvent stop;
    stop.kind = PlanEvent::Kind::kStop;
    stop.stop_at = *stop_at;
    merged.plan.push_back(stop);
  }
  return merged;
}

Status write_merged_journal(const std::string& path,
                            const MergedCampaign& merged) {
  std::string out = Journal::header_line(merged.header) + '\n';
  // Interleave plan lines exactly the way a live campaign journals them —
  // an allocation line precedes its block's records, the stop line comes
  // last — so a complete merge of an adaptive campaign is byte-identical
  // to the unsharded journal.
  std::map<u64, const PlanEvent*> pending_allocs;
  const PlanEvent* stop = nullptr;
  for (const PlanEvent& event : merged.plan) {
    if (event.kind == PlanEvent::Kind::kAlloc) {
      pending_allocs[event.checkpoint] = &event;
    } else {
      stop = &event;
    }
  }
  const u64 ckpt = merged.header.planner.checkpoint_every;
  for (std::size_t k = 0; k < merged.records.size(); ++k) {
    if (ckpt > 0) {
      while (!pending_allocs.empty() &&
             pending_allocs.begin()->first * ckpt <= merged.indices[k]) {
        out += plan_event_line(*pending_allocs.begin()->second) + '\n';
        pending_allocs.erase(pending_allocs.begin());
      }
    }
    out += Journal::record_line(merged.indices[k], merged.records[k]) + '\n';
  }
  // A partial merge can leave allocations whose records are all missing;
  // they still belong in the file, before the stop line.
  for (const auto& [c, event] : pending_allocs) {
    out += plan_event_line(*event) + '\n';
  }
  if (stop != nullptr) out += plan_event_line(*stop) + '\n';
  return jsonl::write_atomically(path, out);
}

Status Journal::sort_records(const std::string& path) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::internal("cannot read journal " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = std::move(buffer).str();
  }
  // Every line but the header, keyed by its record index; a plan line
  // closes the run of records before it.
  struct Line {
    u64 run = 0;
    u64 index = 0;
    std::string_view text;
    bool operator<(const Line& other) const {
      return std::tie(run, index) < std::tie(other.run, other.index);
    }
  };
  std::vector<Line> lines;
  const std::size_t body = data.find('\n') + 1;
  u64 run = 0;
  for (std::size_t at = body; at < data.size();) {
    const std::size_t end = data.find('\n', at) + 1;
    if (end == 0) return Status::internal("journal " + path + " is torn");
    Line line{run, 0, std::string_view(data).substr(at, end - at)};
    if (is_plan_line(data.substr(at, end - at - 1))) {
      line.run = ++run;
      ++run;
    } else {
      // record_line opens with the index: {"i":<n>,
      constexpr std::string_view kKey = "{\"i\":";
      const std::string_view text = line.text;
      const std::size_t comma = text.find(',');
      const std::optional<u64> index =
          text.starts_with(kKey) && comma != std::string_view::npos
              ? parse_u64(text.substr(kKey.size(), comma - kKey.size()))
              : std::nullopt;
      if (!index) return Status::internal("journal " + path + " is corrupt");
      line.index = *index;
    }
    lines.push_back(line);
    at = end;
  }
  if (std::is_sorted(lines.begin(), lines.end())) return Status::ok();
  std::stable_sort(lines.begin(), lines.end());
  std::string out = data.substr(0, body);
  for (const Line& line : lines) out += line.text;
  return jsonl::write_atomically(path, out);
}

}  // namespace gfi::fi
