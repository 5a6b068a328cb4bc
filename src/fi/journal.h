// Crash-safe campaign journal: one JSONL line per completed injection.
//
// A journal makes a campaign an append-only log of independent, replayable
// units. The first line is a header binding the journal to its campaign
// (workload, arch, ECC, fault model, seed, injection count, shard, planner)
// plus the golden-run reference, so a resumed or merged journal can never
// silently mix incompatible runs. The header is the one campaign identity:
// the plan file and the supervisor state log open with it too, under their
// own magic (campaign_header_line). Every subsequent line is one
// InjectionRecord, flushed as soon as the injection completes. On restart:
//   * a file truncated mid-record keeps every complete line (the torn tail
//     is discarded and overwritten),
//   * already-journaled injections are skipped, and
//   * aggregate outcome counts are rebuilt deterministically, so a killed
//     and resumed campaign is bit-identical to an uninterrupted one.
// Shard journals (--shard i/N) partition the same index space and are
// recombined with merge_journals().
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fi/campaign.h"

namespace gfi::fi {

/// First line of every journal: identifies the campaign and pins its
/// phase-1 golden reference, which resume recomputes and compares.
struct JournalHeader {
  std::string workload;
  std::string arch;  ///< MachineConfig::name
  /// RF and DRAM protection, "rf=<mode>,dram=<mode>". Written only when one
  /// is disabled: every arch preset defaults to SECDED, so default journals
  /// stay byte-identical to those of builds without the field.
  std::string ecc = "rf=secded,dram=secded";
  std::string mode;  ///< to_string(InjectionMode)
  std::string flip;  ///< to_string(BitFlipModel)
  /// to_string(FaultPersistence). Absent in pre-recovery journals, which
  /// were all transient — the parser defaults accordingly.
  std::string persist = "transient";
  u32 max_retries = 0;  ///< recovery budget (absent in old journals = 0)
  std::optional<std::string> group;  ///< instruction-group filter, if any
  std::optional<u32> fixed_bit;
  u64 seed = 0;
  u64 num_injections = 0;  ///< global campaign size (across all shards)
  u32 shard_index = 0;
  u32 shard_count = 1;
  u64 golden_dyn_instrs = 0;
  u64 golden_cycles = 0;
  /// Adaptive-planner identity, normalized (all-zero when inactive, so
  /// pre-planner journals and planner-off campaigns compare equal). A
  /// journal written under one stopping rule or stratification scheme can
  /// never silently resume under another.
  PlannerConfig planner;
  sim::Profile profile;  ///< golden dynamic-instruction profile
};

/// Header describing `config` + its golden run.
JournalHeader make_journal_header(const CampaignConfig& config,
                                  const Campaign::Golden& golden);

/// Rejects resume against a journal written by a different campaign:
/// kFailedPrecondition "<file> was written by a different campaign: <field>
/// is '<header's>', campaign has '<config's>'" for the first differing field.
Status check_journal_compatible(const JournalHeader& header,
                                const CampaignConfig& config,
                                const Campaign::Golden& golden,
                                std::string_view file = "journal");

/// The first field of a header line, naming the kind of file it opens. Each
/// file that carries the campaign identity has its own, so none of them
/// loads as another.
struct HeaderMagic {
  const char* key;
  const char* value;
};
inline constexpr HeaderMagic kJournalMagic{"journal", "gpufi-journal-v1"};

/// The header line of a file that binds a whole campaign rather than one
/// shard's journal (the plan file, the supervisor state log): the journal
/// header of `config` as shard 0 of `shard_count`, under `magic`.
std::string campaign_header_line(HeaderMagic magic, CampaignConfig config,
                                 const Campaign::Golden& golden,
                                 u32 shard_count = 1);

/// Checks a campaign_header_line against `config` as shard 0 of
/// `shard_count`: kFailedPrecondition naming `path` and the first differing
/// field, or why the line is no `magic` header.
Status check_campaign_header_line(const std::string& path,
                                  const std::string& line, HeaderMagic magic,
                                  CampaignConfig config,
                                  const Campaign::Golden& golden,
                                  u32 shard_count = 1);

/// Parsed journal contents. `valid_bytes` is the offset just past the last
/// complete record — the truncation point for crash-safe appends.
struct JournalContents {
  JournalHeader header;
  /// (global index, record)
  std::vector<std::pair<u64, InjectionRecord>> records;
  /// Planner decisions journaled alongside the records (file order:
  /// allocations before their block's records, a stop event last).
  std::vector<PlanEvent> plan;
  u64 valid_bytes = 0;
};

class Journal {
 public:
  /// Loads a journal under the log rule of common/jsonl.h: a torn trailing
  /// record (a mid-record crash leaves a partial last line) is dropped, a
  /// malformed line before the last is corruption and fails, and so does a
  /// first line that is not a journal header. kFailedPrecondition only when
  /// no complete header line exists.
  static Result<JournalContents> load(const std::string& path);

  /// Rewrites the complete journal at `path` with every run of record
  /// lines between plan lines in global index order (first-wins duplicates
  /// keep their order), unless it already is: the bytes a run in index
  /// order writes. Campaign::run sorts every journal it finishes, since it
  /// appends records in run order as its workers finish them.
  static Status sort_records(const std::string& path);

  // Serialization primitives (exposed for tests and the merge tool).
  static std::string header_line(const JournalHeader& header,
                                 HeaderMagic magic = kJournalMagic);
  static std::string record_line(u64 index, const InjectionRecord& record);
  static Result<JournalHeader> parse_header(const std::string& line,
                                            HeaderMagic magic = kJournalMagic);
  static Result<std::pair<u64, InjectionRecord>> parse_record(
      const std::string& line);
};

/// Append-only writer; one flushed line per record. Thread-safe.
class JournalWriter {
 public:
  /// Creates (truncating) `path` and writes the header line.
  static Result<std::unique_ptr<JournalWriter>> create(
      const std::string& path, const JournalHeader& header);

  /// Opens an existing journal for appending from `valid_bytes` (from
  /// Journal::load) through jsonl::open_append, so a torn tail never
  /// corrupts the next record.
  static Result<std::unique_ptr<JournalWriter>> open_append(
      const std::string& path, u64 valid_bytes);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  Status append(u64 index, const InjectionRecord& record);
  /// Appends one planner decision line (fi/planner.h line format), under
  /// the same flush + failpoint discipline as records.
  Status append_plan(const PlanEvent& event);

 private:
  explicit JournalWriter(std::FILE* file) : file_(file) {}

  Status append_line(const std::string& line);

  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

/// A campaign reassembled from shard journals: records in global index
/// order (dense over [0, num_injections) unless merged allow_partial), plus
/// the rebuilt outcome table.
struct MergedCampaign {
  JournalHeader header;  ///< shard fields reset to 0/1
  std::vector<InjectionRecord> records;
  /// Global injection index of records[k]. Identity for a complete merge;
  /// the surviving subsequence for a partial one.
  std::vector<u64> indices;
  /// Injections not covered by any journal (nonzero only with allow_partial).
  u64 missing = 0;
  /// Planner decisions, deduplicated across shards and verified equal:
  /// allocations in checkpoint order, then the stop event if any.
  std::vector<PlanEvent> plan;
  /// Global injections the campaign covers: header.num_injections, or the
  /// journaled stop boundary when the planner halted it early.
  u64 effective_injections = 0;
  /// Records beyond the stop boundary (a worker racing ahead of the
  /// supervisor's stop decision); dropped deterministically from the merge.
  u64 overshoot = 0;
  std::array<u64, kOutcomeCount> outcome_counts{};

  [[nodiscard]] u64 count(Outcome outcome) const {
    return outcome_counts[static_cast<int>(outcome)];
  }
};

struct MergeOptions {
  /// Accept an incomplete shard set: missing shards / unfinished slices are
  /// tolerated and the merge returns only the covered records (statistics
  /// over a partial campaign are biased toward fast injections — this is an
  /// escape hatch, not a default).
  bool allow_partial = false;
};

/// Merges shard journals into one campaign. A malformed shard *set* —
/// duplicate shard indices, disagreeing shard counts, missing shards, or
/// uncovered indices — is kFailedPrecondition with the offending shards
/// named (relaxed by MergeOptions::allow_partial); identity mismatches are
/// kFailedPrecondition; corrupt record indices are kInternal.
Result<MergedCampaign> merge_journals(const std::vector<std::string>& paths,
                                      const MergeOptions& options = {});

/// Writes `merged` back out as a journal file (temp file + rename, so a
/// crash never leaves a torn merged journal). A complete merge of shard
/// journals is byte-identical to the journal an uninterrupted unsharded
/// single-threaded run would have written — the bit-identity contract the
/// supervisor's auto-merge is verified against.
Status write_merged_journal(const std::string& path,
                            const MergedCampaign& merged);

}  // namespace gfi::fi
