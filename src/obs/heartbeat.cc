#include "obs/heartbeat.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>

#include "common/failpoint.h"
#include "common/jsonl.h"

namespace gfi::obs {

std::string heartbeat_line(const HeartbeatState& state) {
  std::string out = "{";
  jsonl::append_str(out, "ev", state.finished ? "done" : "heartbeat");
  jsonl::append_str(out, "workload", state.workload);
  jsonl::append_str(out, "arch", state.arch);
  jsonl::append_u64(out, "shard", state.shard_index);
  jsonl::append_u64(out, "shard_count", state.shard_count);
  jsonl::append_u64(out, "done", state.done);
  jsonl::append_u64(out, "total", state.total);
  jsonl::append_u64_array(out, "outcome_counts", state.outcome_counts);
  jsonl::append_f64(out, "t_s", state.elapsed_s);
  jsonl::append_f64(out, "rate", state.rate);
  jsonl::append_f64(out, "eta_s", state.eta_s);
  if (state.stop_half_width > 0.0) {
    jsonl::append_f64(out, "stop_hw", state.stop_half_width);
  }
  out += '}';
  return out;
}

Result<HeartbeatState> parse_heartbeat(const std::string& line) {
  jsonl::Fields fields;
  if (!jsonl::parse_fields(line, &fields)) {
    return Status::invalid_argument("heartbeat: not a JSON object");
  }
  auto ev = jsonl::get_str(fields, "ev");
  auto workload = jsonl::get_str(fields, "workload");
  auto arch = jsonl::get_str(fields, "arch");
  auto shard = jsonl::get_u64(fields, "shard");
  auto shard_count = jsonl::get_u64(fields, "shard_count");
  auto done = jsonl::get_u64(fields, "done");
  auto total = jsonl::get_u64(fields, "total");
  auto t_s = jsonl::get_f64(fields, "t_s");
  auto rate = jsonl::get_f64(fields, "rate");
  auto eta = jsonl::get_f64(fields, "eta_s");
  auto counts = fields.arrays.find("outcome_counts");
  if (!ev || (*ev != "heartbeat" && *ev != "done")) {
    return Status::invalid_argument("heartbeat: missing or unknown ev");
  }
  if (!workload || !arch || !shard || !shard_count || !done || !total ||
      !t_s || !rate || !eta || counts == fields.arrays.end()) {
    return Status::invalid_argument("heartbeat: missing required field");
  }
  HeartbeatState state;
  state.finished = *ev == "done";
  state.workload = *workload;
  state.arch = *arch;
  state.shard_index = static_cast<u32>(*shard);
  state.shard_count = static_cast<u32>(*shard_count);
  state.done = *done;
  state.total = *total;
  state.outcome_counts = counts->second;
  state.elapsed_s = *t_s;
  state.rate = *rate;
  state.eta_s = *eta;
  // Absent in planner-off sidecars and older builds.
  state.stop_half_width = jsonl::get_f64(fields, "stop_hw").value_or(0.0);
  return state;
}

Result<HeartbeatState> load_status_file(const std::string& path) {
  // Keep the last parseable line: a shard killed mid-write leaves a torn
  // tail, and a reader racing the writer can see a half-flushed line; both
  // must degrade to slightly stale progress, never to an error.
  std::optional<HeartbeatState> last;
  auto beat = [&](const std::string& line) -> Status {
    auto parsed = parse_heartbeat(line);
    if (!parsed.is_ok()) return parsed.status();
    last = std::move(parsed).take();
    return Status::ok();
  };
  auto read = jsonl::read_log(path, nullptr, beat, jsonl::Rejected::kSkip);
  if (!read.is_ok()) return read.status();
  if (!last) {
    return Status::failed_precondition("status file " + path +
                                       " has no complete heartbeat record");
  }
  return *last;
}

std::string status_path_for_journal(const std::string& journal_path) {
  return journal_path + ".status.jsonl";
}

Result<u64> sidecar_age_ms(const std::string& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) {
    return Status::not_found("cannot stat sidecar " + path + ": " +
                             ec.message());
  }
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(age);
  // A clock step can make mtime appear to be in the future; clamp to fresh.
  return ms.count() < 0 ? 0 : static_cast<u64>(ms.count());
}

HeartbeatWriter::HeartbeatWriter(std::FILE* file, HeartbeatState state,
                                 u64 interval_ms)
    : file_(file),
      state_(std::move(state)),
      session_start_done_(state_.done),
      interval_ms_(interval_ms),
      start_(std::chrono::steady_clock::now()),
      last_beat_(start_) {}

HeartbeatWriter::~HeartbeatWriter() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // An error-path unwind still flushes the latest progress; only finish()
    // may declare the shard done.
    if (!finished_ && file_) write_line_locked(/*done_event=*/false);
  }
  if (file_) std::fclose(file_);
}

Result<std::unique_ptr<HeartbeatWriter>> HeartbeatWriter::create(
    const std::string& path, const HeartbeatState& initial, u64 interval_ms) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (!file) {
    return Status::internal("cannot create status file " + path + ": " +
                            std::strerror(errno));
  }
  auto writer = std::unique_ptr<HeartbeatWriter>(
      new HeartbeatWriter(file, initial, interval_ms));
  std::lock_guard<std::mutex> lock(writer->mutex_);
  writer->write_line_locked(/*done_event=*/false);
  return writer;
}

void HeartbeatWriter::record(int outcome_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++state_.done;
  if (outcome_index >= 0 &&
      static_cast<std::size_t>(outcome_index) < state_.outcome_counts.size()) {
    ++state_.outcome_counts[static_cast<std::size_t>(outcome_index)];
  }
  const auto now = std::chrono::steady_clock::now();
  const u64 since_beat_ms =
      static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - last_beat_)
                           .count());
  if (since_beat_ms >= interval_ms_ || state_.done == state_.total) {
    write_line_locked(/*done_event=*/false);
  }
}

void HeartbeatWriter::idle_beat() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto now = std::chrono::steady_clock::now();
  const u64 since_beat_ms =
      static_cast<u64>(std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - last_beat_)
                           .count());
  if (since_beat_ms >= interval_ms_) write_line_locked(/*done_event=*/false);
}

void HeartbeatWriter::finish() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  write_line_locked(/*done_event=*/true);
  finished_ = true;
}

void HeartbeatWriter::write_line_locked(bool done_event) {
  const auto now = std::chrono::steady_clock::now();
  state_.elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<f64>>(now - start_)
          .count();
  const u64 done_this_session = state_.done - session_start_done_;
  state_.rate = state_.elapsed_s > 0.0
                    ? static_cast<f64>(done_this_session) / state_.elapsed_s
                    : 0.0;
  const u64 remaining = state_.total > state_.done
                            ? state_.total - state_.done
                            : 0;
  // rate 0 with work remaining gives eta NaN -> serialized as null.
  state_.eta_s = remaining == 0 ? 0.0
                 : state_.rate > 0.0
                     ? static_cast<f64>(remaining) / state_.rate
                     : std::numeric_limits<f64>::quiet_NaN();
  state_.finished = done_event;
  const std::string line = heartbeat_line(state_) + "\n";
  // Write failures (real or injected) are swallowed: heartbeats are
  // disposable telemetry and must never abort a campaign. The sidecar
  // simply goes stale, which is precisely the supervisor's stall signal.
  const bool drop = fp::enabled() &&
                    fp::hit("heartbeat.write").action == fp::Action::kErr;
  if (!drop &&
      std::fwrite(line.data(), 1, line.size(), file_) == line.size()) {
    std::fflush(file_);
  }
  last_beat_ = now;
}

}  // namespace gfi::obs
