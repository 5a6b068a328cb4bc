// Byte-offset truncation properties of the one append-log rule
// (common/jsonl.h read_log + open_append), checked through each log's own
// loader: a journal, a plan file and a supervisor state log are cut at every
// byte offset. At each cut the loader must return exactly the records of the
// complete lines, report the end of the last complete line as valid_bytes,
// and an append from there must land on a whole line — never glued onto the
// torn tail. The plan file and state log headers are the campaign's journal
// header: each is also checked to refuse every changed campaign field.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/arch.h"
#include "common/jsonl.h"
#include "fi/campaign.h"
#include "fi/journal.h"
#include "fi/planner.h"
#include "fi/supervisor.h"

namespace gfi {
namespace {

namespace fs = std::filesystem;

using fi::CampaignConfig;
using fi::Journal;
using fi::PlanEvent;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gfi_log_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// The log's lines, each with its terminating newline.
std::vector<std::string> split_lines(const std::string& log) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < log.size();) {
    const std::size_t end = log.find('\n', pos) + 1;
    lines.push_back(log.substr(pos, end - pos));
    pos = end;
  }
  return lines;
}

/// Number of complete lines in `prefix`, and the offset just past them.
struct Cut {
  std::size_t lines = 0;
  u64 valid_bytes = 0;
};

Cut complete_lines(const std::string& prefix) {
  Cut cut;
  for (std::size_t pos = 0;
       (pos = prefix.find('\n', pos)) != std::string::npos; ++pos) {
    ++cut.lines;
    cut.valid_bytes = pos + 1;
  }
  return cut;
}

/// Appends `line` through the shared append-open, as every resumed writer
/// does, from the valid_bytes a loader reported.
void append_at(const std::string& path, u64 valid_bytes,
               const std::string& line) {
  auto file = jsonl::open_append(path, valid_bytes);
  ASSERT_TRUE(file.is_ok()) << file.status().to_string();
  ASSERT_EQ(std::fwrite(line.data(), 1, line.size(), file.value()),
            line.size());
  std::fclose(file.value());
}

CampaignConfig campaign_config() {
  CampaignConfig config;
  config.workload = "vecadd";
  config.machine = arch::toy();
  config.model = {fi::InjectionMode::kIov, fi::BitFlipModel::kSingle};
  config.num_injections = 12;
  config.seed = 7;
  config.threads = 1;
  return config;
}

TEST(JsonlLog, JournalCutAtEveryByteKeepsExactlyTheCompleteLines) {
  const fs::path dir = scratch_dir("journal");
  CampaignConfig config = campaign_config();
  config.journal_path = (dir / "full.jsonl").string();
  ASSERT_TRUE(fi::Campaign::run(config).is_ok());
  const std::string full = read_file(*config.journal_path);
  const std::vector<std::string> lines = split_lines(full);
  ASSERT_EQ(lines.size(), config.num_injections + 1);

  const std::string path = (dir / "cut.jsonl").string();
  for (std::size_t offset = 0; offset <= full.size(); ++offset) {
    const std::string prefix = full.substr(0, offset);
    const Cut cut = complete_lines(prefix);
    write_file(path, prefix);
    auto loaded = Journal::load(path);
    if (cut.lines == 0) {
      // No complete header: the one code that lets Campaign::run recreate.
      ASSERT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
          << "cut at " << offset;
      continue;
    }
    ASSERT_TRUE(loaded.is_ok())
        << "cut at " << offset << ": " << loaded.status().to_string();
    const auto& records = loaded.value().records;
    ASSERT_EQ(records.size(), cut.lines - 1) << "cut at " << offset;
    for (std::size_t k = 0; k < records.size(); ++k) {
      ASSERT_EQ(Journal::record_line(records[k].first, records[k].second) +
                    "\n",
                lines[k + 1])
          << "cut at " << offset;
    }
    ASSERT_EQ(loaded.value().valid_bytes, cut.valid_bytes)
        << "cut at " << offset;
    if (cut.lines == lines.size()) continue;
    append_at(path, loaded.value().valid_bytes, lines[cut.lines]);
    ASSERT_EQ(read_file(path), full.substr(0, cut.valid_bytes +
                                                  lines[cut.lines].size()))
        << "cut at " << offset;
  }
}

TEST(JsonlLog, PlanFileCutAtEveryByteKeepsExactlyTheCompleteLines) {
  const fs::path dir = scratch_dir("plan");
  CampaignConfig config = campaign_config();
  config.num_injections = 400;
  config.planner.checkpoint_every = 100;
  std::vector<PlanEvent> events;
  for (u64 c = 0; c < 3; ++c) {
    PlanEvent alloc;
    alloc.kind = PlanEvent::Kind::kAlloc;
    alloc.checkpoint = c;
    alloc.alloc[0] = 60 + c;
    alloc.alloc[3] = 40 - c;
    events.push_back(alloc);
  }
  PlanEvent stop;
  stop.kind = PlanEvent::Kind::kStop;
  stop.stop_at = 300;
  events.push_back(stop);
  // Any golden reference will do: the log rule never reads it.
  const fi::Campaign::Golden golden;
  std::string full = fi::plan_file_header(config, golden) + "\n";
  for (const PlanEvent& event : events) {
    full += fi::plan_event_line(event) + "\n";
  }
  const std::vector<std::string> lines = split_lines(full);

  const std::string path = (dir / "plan.jsonl").string();
  for (std::size_t offset = 0; offset <= full.size(); ++offset) {
    const std::string prefix = full.substr(0, offset);
    const Cut cut = complete_lines(prefix);
    write_file(path, prefix);
    auto loaded = fi::load_plan_file(path, config, golden);
    if (cut.lines == 0) {
      ASSERT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
          << "cut at " << offset;
      continue;
    }
    ASSERT_TRUE(loaded.is_ok())
        << "cut at " << offset << ": " << loaded.status().to_string();
    const std::size_t kept = cut.lines - 1;
    const std::size_t allocs = std::min<std::size_t>(kept, 3);
    ASSERT_EQ(loaded.value().allocs.size(), allocs) << "cut at " << offset;
    for (u64 c = 0; c < allocs; ++c) {
      ASSERT_EQ(loaded.value().allocs.at(c), events[c]) << "cut at " << offset;
    }
    ASSERT_EQ(loaded.value().stop_at.has_value(), kept == 4)
        << "cut at " << offset;
    ASSERT_EQ(loaded.value().valid_bytes, cut.valid_bytes)
        << "cut at " << offset;
    if (kept == events.size()) continue;
    append_at(path, loaded.value().valid_bytes, "");
    ASSERT_TRUE(fi::append_plan_event(path, events[kept]).is_ok());
    ASSERT_EQ(read_file(path), full.substr(0, cut.valid_bytes +
                                                  lines[cut.lines].size()))
        << "cut at " << offset;
  }
}

TEST(JsonlLog, SupervisorStateCutAtEveryByteKeepsExactlyTheCompleteLines) {
  const fs::path dir = scratch_dir("state");
  fi::SupervisorConfig config;
  config.campaign = campaign_config();
  config.campaign.num_injections = 24;
  config.shards = 2;
  const fi::Campaign::Golden golden;
  const std::vector<std::string> events = {
      R"({"ev":"launch","shard":0,"pid":41})",
      R"({"ev":"crash","shard":1,"exit":137,"records":4,"candidate":9})",
      R"({"ev":"quarantine","shard":1,"index":9})",
      R"({"ev":"resume"})",
      R"({"ev":"quarantine","shard":0,"index":14})",
      R"({"ev":"shard_done","shard":0})",
  };
  std::string full = fi::Supervisor::state_header(config, golden) + "\n";
  for (const std::string& event : events) full += event + "\n";
  const std::vector<std::string> lines = split_lines(full);

  const std::string path = (dir / "supervisor.jsonl").string();
  for (std::size_t offset = 0; offset <= full.size(); ++offset) {
    const std::string prefix = full.substr(0, offset);
    const Cut cut = complete_lines(prefix);
    write_file(path, prefix);
    auto loaded = fi::Supervisor::load_state(path, config, golden);
    if (cut.lines == 0) {
      ASSERT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition)
          << "cut at " << offset;
      continue;
    }
    ASSERT_TRUE(loaded.is_ok())
        << "cut at " << offset << ": " << loaded.status().to_string();
    std::set<u64> quarantine;
    if (cut.lines > 3) quarantine.insert(9);
    if (cut.lines > 5) quarantine.insert(14);
    ASSERT_EQ(loaded.value().quarantine, quarantine) << "cut at " << offset;
    ASSERT_EQ(loaded.value().valid_bytes, cut.valid_bytes)
        << "cut at " << offset;
    if (cut.lines == lines.size()) continue;
    append_at(path, loaded.value().valid_bytes, lines[cut.lines]);
    ASSERT_EQ(read_file(path), full.substr(0, cut.valid_bytes +
                                                  lines[cut.lines].size()))
        << "cut at " << offset;
  }
}

/// A campaign with one field changed, and the field's name in the refusal.
struct Changed {
  const char* field;
  CampaignConfig config;
  fi::Campaign::Golden golden;
};

/// `config` and `golden` with each field of their journal header changed
/// in turn.
std::vector<Changed> changed_campaigns(const CampaignConfig& config,
                                       const fi::Campaign::Golden& golden) {
  std::vector<Changed> out;
  auto add = [&](const char* field) -> Changed& {
    return out.emplace_back(Changed{field, config, golden});
  };
  add("workload").config.workload = "saxpy";
  add("arch").config.machine = arch::a100();
  add("ecc").config.machine.rf_ecc = ecc::EccMode::kDisabled;
  add("mode").config.model.mode = fi::InjectionMode::kIoa;
  add("flip").config.model.flip = fi::BitFlipModel::kZeroValue;
  add("persistence").config.model.persistence = fi::FaultPersistence::kStuckAt;
  add("max_retries").config.max_retries = 2;
  add("group").config.group = sim::InstrGroup::kStore;
  add("fixed bit").config.fixed_bit = 3;
  add("seed").config.seed += 1;
  add("num_injections").config.num_injections += 1;
  add("planner").config.planner.stop.target_half_width = 0.05;
  add("golden run").golden.cycles += 1;
  ++add("golden run").golden.profile.warp_instrs_by_group[0];
  return out;
}

/// Expects `loaded` to be a refusal naming `field`.
template <typename T>
void expect_refused(const Result<T>& loaded, const std::string& field) {
  ASSERT_FALSE(loaded.is_ok()) << field;
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition) << field;
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find(field + " is '"), std::string::npos) << message;
}

TEST(CampaignIdentity, PlanFileRefusesEveryChangedField) {
  const std::string path = (scratch_dir("plan_identity") / "plan").string();
  CampaignConfig config = campaign_config();
  config.planner.stop.target_half_width = 0.07;
  const fi::Campaign::Golden golden;
  write_file(path, fi::plan_file_header(config, golden) + "\n");
  ASSERT_TRUE(fi::load_plan_file(path, config, golden).is_ok());
  for (const Changed& changed : changed_campaigns(config, golden)) {
    const std::string header =
        fi::plan_file_header(changed.config, changed.golden);
    write_file(path, header + "\n");
    expect_refused(fi::load_plan_file(path, config, golden), changed.field);
  }
}

TEST(CampaignIdentity, StateLogRefusesEveryChangedField) {
  const std::string path = (scratch_dir("state_identity") / "state").string();
  fi::SupervisorConfig config;
  config.campaign = campaign_config();
  config.shards = 2;
  const fi::Campaign::Golden golden;
  write_file(path, fi::Supervisor::state_header(config, golden) + "\n");
  ASSERT_TRUE(fi::Supervisor::load_state(path, config, golden).is_ok());
  for (const Changed& changed : changed_campaigns(config.campaign, golden)) {
    fi::SupervisorConfig written = config;
    written.campaign = changed.config;
    const std::string header =
        fi::Supervisor::state_header(written, changed.golden);
    write_file(path, header + "\n");
    expect_refused(fi::Supervisor::load_state(path, config, golden),
                   changed.field);
  }
  // The state log adds the shard count to the campaign's identity.
  fi::SupervisorConfig reshard = config;
  reshard.shards = 3;
  write_file(path, fi::Supervisor::state_header(reshard, golden) + "\n");
  expect_refused(fi::Supervisor::load_state(path, config, golden), "shard");
  // Neither file kind loads as the other, nor as a journal.
  write_file(path, fi::plan_file_header(config.campaign, golden) + "\n");
  auto foreign = fi::Supervisor::load_state(path, config, golden);
  EXPECT_EQ(foreign.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(foreign.status().message().find("wrong magic"), std::string::npos)
      << foreign.status().to_string();
  EXPECT_FALSE(Journal::load(path).is_ok());
}

TEST(JsonlLog, ForeignOneLineFileIsNeverMistakenForATornJournal) {
  // A complete but foreign first line is not a torn header: the load must
  // fail with a code Campaign::run does not treat as "recreate", and the
  // user's file must survive the attempt byte for byte.
  const fs::path dir = scratch_dir("foreign");
  const std::string path = (dir / "results.csv").string();
  const std::string foreign = "workload,arch,sdc\n";
  write_file(path, foreign);
  auto loaded = Journal::load(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kFailedPrecondition);

  CampaignConfig config = campaign_config();
  config.journal_path = path;
  auto ran = fi::Campaign::run(config);
  ASSERT_FALSE(ran.is_ok());
  EXPECT_NE(ran.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(read_file(path), foreign);
}

TEST(JsonlLog, RejectedLineBeforeTheLastIsCorruptionNamingTheLine) {
  const fs::path dir = scratch_dir("corrupt");
  const std::string path = (dir / "log.jsonl").string();
  auto strict = [](const std::string& line) {
    return line == "ok" ? Status::ok() : Status::invalid_argument("bad");
  };
  write_file(path, "ok\nok\nbad\n");
  auto tail = jsonl::read_log(path, nullptr, strict);
  ASSERT_TRUE(tail.is_ok()) << tail.status().to_string();
  EXPECT_EQ(tail.value(), 6u);  // the rejected last line is dropped

  write_file(path, "ok\nbad\nok\n");
  auto middle = jsonl::read_log(path, nullptr, strict);
  ASSERT_FALSE(middle.is_ok());
  EXPECT_EQ(middle.status().code(), StatusCode::kInternal);
  EXPECT_NE(middle.status().message().find(path + " is corrupt at line 2"),
            std::string::npos)
      << middle.status().to_string();

  // The heartbeat policy skips it instead and keeps reading.
  auto skipped =
      jsonl::read_log(path, nullptr, strict, jsonl::Rejected::kSkip);
  ASSERT_TRUE(skipped.is_ok()) << skipped.status().to_string();
  EXPECT_EQ(skipped.value(), 10u);
}

}  // namespace
}  // namespace gfi
