#include "fi/planner.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/jsonl.h"
#include "fi/journal.h"

namespace gfi::fi {
namespace {

constexpr HeaderMagic kPlanMagic{"plan", "gpufi-plan-v1"};

}  // namespace

const std::vector<Outcome>& planner_tracked_outcomes() {
  static const std::vector<Outcome> kTracked = {Outcome::kMasked,
                                                Outcome::kSdc, Outcome::kDue};
  return kTracked;
}

Result<Planner> Planner::create(const CampaignConfig& config,
                                const sim::Profile& profile) {
  const PlannerConfig& pc = config.planner;
  Planner planner;
  planner.rule_ = pc.stop;
  planner.stratify_ = pc.stratify;
  planner.k_ = pc.checkpoint_every;
  planner.num_injections_ = config.num_injections;
  if (pc.active() && planner.k_ == 0) {
    return Status::invalid_argument(
        "planner: checkpoint_every must be > 0 when the planner is active");
  }
  if (pc.stopping()) {
    if (std::isnan(stats::z_for_confidence(pc.stop.confidence))) {
      return Status::invalid_argument(
          "planner: stop confidence must be in (0, 1), got " +
          std::to_string(pc.stop.confidence));
    }
    if (pc.stop.target_half_width >= 0.5) {
      return Status::invalid_argument(
          "planner: stop half-width " +
          std::to_string(pc.stop.target_half_width) +
          " is not a meaningful CI target (must be < 0.5)");
    }
  }
  if (pc.stratify) {
    if (config.group) {
      return Status::invalid_argument(
          "planner: --stratify=group cannot be combined with a pinned "
          "--group (stratifying a single stratum is meaningless)");
    }
    for (int g = 0; g < sim::kInstrGroupCount; ++g) {
      const auto group = static_cast<sim::InstrGroup>(g);
      if (!mode_targets_group(config.model.mode, group)) continue;
      if (profile.group_warp_count(group) == 0) continue;
      planner.eligible_.push_back(group);
    }
    if (planner.eligible_.empty()) {
      return Status::invalid_argument(
          std::string("planner: mode ") + to_string(config.model.mode) +
          " has no instruction-group strata to stratify over");
    }
    u64 total = 0;
    for (const sim::InstrGroup group : planner.eligible_) {
      total += profile.group_warp_count(group);
    }
    for (const sim::InstrGroup group : planner.eligible_) {
      planner.weights_.push_back(
          static_cast<f64>(profile.group_warp_count(group)) /
          static_cast<f64>(total));
    }
    planner.group_trials_.assign(planner.eligible_.size(), 0);
    planner.group_sdc_.assign(planner.eligible_.size(), 0);
  }
  return planner;
}

u64 Planner::block_end(u64 c) const {
  return std::min((c + 1) * k_, num_injections_);
}

void Planner::observe(const InjectionRecord& record) {
  ++observed_;
  ++outcome_counts_[static_cast<int>(record.outcome)];
  if (!stratify_ || !record.site.group) return;
  for (std::size_t h = 0; h < eligible_.size(); ++h) {
    if (eligible_[h] != *record.site.group) continue;
    ++group_trials_[h];
    if (record.outcome == Outcome::kSdc) ++group_sdc_[h];
    break;
  }
}

bool Planner::stop_satisfied() const {
  if (!rule_.enabled()) return false;
  for (const Outcome outcome : planner_tracked_outcomes()) {
    if (!rule_.satisfied(outcome_counts_[static_cast<int>(outcome)],
                         observed_)) {
      return false;
    }
  }
  return true;
}

PlanEvent Planner::make_alloc(u64 c) const {
  PlanEvent event;
  event.kind = PlanEvent::Kind::kAlloc;
  event.checkpoint = c;
  const u64 block = block_end(c) - block_start(c);
  // Block 0 has nothing observed: allocate proportionally to the dynamic-
  // frequency strata. Later blocks reweight by the observed per-stratum
  // SDC spread (Neyman), so high-variance groups draw more of the budget.
  const std::vector<f64> weights =
      observed_ == 0 ? weights_
                     : stats::neyman_weights(weights_, group_sdc_,
                                             group_trials_);
  const std::vector<u64> shares = stats::apportion(weights, block);
  for (std::size_t h = 0; h < eligible_.size(); ++h) {
    event.alloc[static_cast<int>(eligible_[h])] = shares[h];
  }
  return event;
}

std::optional<sim::InstrGroup> Planner::group_for(const PlanEvent& alloc,
                                                  u64 offset) {
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    if (offset < alloc.alloc[g]) return static_cast<sim::InstrGroup>(g);
    offset -= alloc.alloc[g];
  }
  return std::nullopt;
}

// ------------------------------------------------- event serialization ---

std::string plan_event_line(const PlanEvent& event) {
  std::string out = "{";
  if (event.kind == PlanEvent::Kind::kAlloc) {
    jsonl::append_str(out, "plan", "alloc");
    jsonl::append_u64(out, "ckpt", event.checkpoint);
    jsonl::append_array(out, "alloc", event.alloc);
  } else {
    jsonl::append_str(out, "plan", "stop");
    jsonl::append_u64(out, "at", event.stop_at);
  }
  out += '}';
  return out;
}

Result<PlanEvent> parse_plan_event(const std::string& line) {
  jsonl::Fields fields;
  if (!jsonl::parse_fields(line, &fields)) {
    return Status::invalid_argument("plan event: not a JSON object");
  }
  const std::string kind = jsonl::get_str(fields, "plan").value_or("");
  PlanEvent event;
  if (kind == "alloc") {
    event.kind = PlanEvent::Kind::kAlloc;
    auto ckpt = jsonl::get_u64(fields, "ckpt");
    if (!ckpt || !jsonl::copy_array(fields, "alloc", &event.alloc)) {
      return Status::invalid_argument("plan event: bad alloc line");
    }
    event.checkpoint = *ckpt;
    return event;
  }
  if (kind == "stop") {
    event.kind = PlanEvent::Kind::kStop;
    auto at = jsonl::get_u64(fields, "at");
    if (!at) return Status::invalid_argument("plan event: bad stop line");
    event.stop_at = *at;
    return event;
  }
  return Status::invalid_argument("plan event: unknown kind '" + kind + "'");
}

bool is_plan_line(const std::string& line) {
  return line.rfind("{\"plan\":", 0) == 0;
}

// ------------------------------------------------------ the plan file ---

std::string plan_file_header(const CampaignConfig& config,
                             const Campaign::Golden& golden) {
  return campaign_header_line(kPlanMagic, config, golden);
}

Result<PlanFileContents> load_plan_file(const std::string& path,
                                        const CampaignConfig& config,
                                        const Campaign::Golden& golden) {
  PlanFileContents contents;
  auto header = [&](const std::string& line) {
    return check_campaign_header_line(path, line, kPlanMagic, config, golden);
  };
  auto event = [&](const std::string& line) -> Status {
    auto parsed = parse_plan_event(line);
    if (!parsed.is_ok()) return parsed.status();
    if (parsed.value().kind == PlanEvent::Kind::kAlloc) {
      contents.allocs[parsed.value().checkpoint] = parsed.value();
    } else {
      contents.stop_at = parsed.value().stop_at;
    }
    return Status::ok();
  };
  auto valid_bytes = jsonl::read_log(path, header, event);
  if (!valid_bytes.is_ok()) return valid_bytes.status();
  contents.valid_bytes = valid_bytes.value();
  return contents;
}

Status append_plan_event(const std::string& path, const PlanEvent& event) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (!file) {
    return Status::internal("cannot open plan file " + path + ": " +
                            std::strerror(errno));
  }
  const std::string line = plan_event_line(event) + "\n";
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file) == line.size() &&
      std::fflush(file) == 0;
  std::fclose(file);
  if (!ok) {
    return Status::internal("cannot append to plan file " + path + ": " +
                            std::strerror(errno));
  }
  return Status::ok();
}

}  // namespace gfi::fi
