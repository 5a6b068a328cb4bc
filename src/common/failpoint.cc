#include "common/failpoint.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"

namespace gfi::fp {
namespace {

enum class Trigger : u8 {
  kAlways = 0,  ///< fires on every evaluation
  kHit,         ///< fires exactly once, on the n-th evaluation (1-based)
  kEvery,       ///< fires on every n-th evaluation
  kKey,         ///< fires whenever the site key equals the value
};

struct Clause {
  std::string site;
  Action action = Action::kNone;
  u64 arg = 0;
  Trigger trigger = Trigger::kAlways;
  u64 value = 0;
  // Evaluations of this clause so far; only meaningful for hit=/every=.
  // unique_ptr keeps Clause movable while the counter stays addressable.
  std::unique_ptr<std::atomic<u64>> count =
      std::make_unique<std::atomic<u64>>(0);
};

struct Registry {
  std::mutex mu;
  // Guarded by mu for mutation; stable between set_spec calls.
  std::vector<Clause> clauses;
  std::string spec;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Fast-path gate: true iff at least one non-off clause is installed.
std::atomic<bool> g_enabled{false};

/// Trigger counts, keys and action arguments: decimal or 0x hex.
Status parse_number(const std::string& text, u64* out) {
  const std::optional<u64> value = parse_u64(text, /*allow_hex=*/true);
  if (!value) {
    return Status(StatusCode::kInvalidArgument, "bad number '" + text + "'");
  }
  *out = *value;
  return Status::ok();
}

Status parse_clause(const std::string& text, Clause* out) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "failpoint clause '" + text + "' is not <site>=<action>");
  }
  out->site = text.substr(0, eq);
  std::string rest = text.substr(eq + 1);

  // Peel the trigger suffix: @hit=N | @every=N | @key=K.
  const auto at = rest.find('@');
  if (at != std::string::npos) {
    const std::string trig = rest.substr(at + 1);
    rest.resize(at);
    const auto teq = trig.find('=');
    if (teq == std::string::npos) {
      return Status(StatusCode::kInvalidArgument,
                    "failpoint trigger '" + trig + "' is not <kind>=<n>");
    }
    const std::string kind = trig.substr(0, teq);
    u64 value = 0;
    if (Status s = parse_number(trig.substr(teq + 1), &value); !s.is_ok()) {
      return s;
    }
    if (kind == "hit") {
      out->trigger = Trigger::kHit;
    } else if (kind == "every") {
      out->trigger = Trigger::kEvery;
    } else if (kind == "key") {
      out->trigger = Trigger::kKey;
    } else {
      return Status(StatusCode::kInvalidArgument,
                    "unknown failpoint trigger '" + kind + "'");
    }
    if (out->trigger != Trigger::kKey && value == 0) {
      return Status(StatusCode::kInvalidArgument,
                    "failpoint trigger '" + kind + "' needs n >= 1");
    }
    out->value = value;
  }

  // Action with optional :arg.
  std::string arg_text;
  const auto colon = rest.find(':');
  if (colon != std::string::npos) {
    arg_text = rest.substr(colon + 1);
    rest.resize(colon);
  }
  if (rest == "off") {
    out->action = Action::kNone;
  } else if (rest == "err") {
    out->action = Action::kErr;
  } else if (rest == "kill") {
    out->action = Action::kKill;
    out->arg = static_cast<u64>(kKillExitCode);
  } else if (rest == "torn") {
    out->action = Action::kTorn;
  } else if (rest == "stall") {
    out->action = Action::kStall;
  } else {
    return Status(StatusCode::kInvalidArgument,
                  "unknown failpoint action '" + rest + "'");
  }
  if (!arg_text.empty()) {
    if (out->action != Action::kKill && out->action != Action::kStall) {
      return Status(StatusCode::kInvalidArgument,
                    "failpoint action '" + rest + "' takes no argument");
    }
    if (Status s = parse_number(arg_text, &out->arg); !s.is_ok()) return s;
  } else if (out->action == Action::kStall) {
    return Status(StatusCode::kInvalidArgument,
                  "failpoint action 'stall' needs :<ms>");
  }
  return Status::ok();
}

Status parse_spec(const std::string& spec, std::vector<Clause>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    auto semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string clause_text = spec.substr(pos, semi - pos);
    pos = semi + 1;
    if (clause_text.empty()) continue;  // tolerate trailing/duplicate ';'
    Clause clause;
    if (Status s = parse_clause(clause_text, &clause); !s.is_ok()) return s;
    if (clause.action != Action::kNone) out->push_back(std::move(clause));
  }
  return Status::ok();
}

void load_env_once() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("GFI_FAILPOINTS");
    if (env == nullptr || *env == '\0') return;
    if (Status s = set_spec(env); !s.is_ok()) {
      // A typo'd chaos spec silently doing nothing would make a chaos run
      // look like a clean pass; die loudly instead.
      GFI_LOG(kError) << "GFI_FAILPOINTS: " << s.message();
      std::_Exit(2);
    }
  });
}

}  // namespace

bool enabled() {
  load_env_once();
  return g_enabled.load(std::memory_order_relaxed);
}

Hit hit(const char* name, u64 key) {
  if (!enabled()) return {};
  Registry& r = registry();
  Hit result;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (Clause& clause : r.clauses) {
      if (clause.site != name) continue;
      bool fire = false;
      switch (clause.trigger) {
        case Trigger::kAlways:
          fire = true;
          break;
        case Trigger::kHit:
          fire = clause.count->fetch_add(1, std::memory_order_relaxed) + 1 ==
                 clause.value;
          break;
        case Trigger::kEvery:
          fire = (clause.count->fetch_add(1, std::memory_order_relaxed) + 1) %
                     clause.value ==
                 0;
          break;
        case Trigger::kKey:
          fire = key != kAnyKey && key == clause.value;
          break;
      }
      if (fire) {
        result = Hit{clause.action, clause.arg};
        break;  // first matching clause wins
      }
    }
  }
  if (result.action == Action::kKill) {
    GFI_LOG(kWarn) << "failpoint " << name << ": kill (exit "
                   << result.arg << ")";
    std::_Exit(static_cast<int>(result.arg));
  }
  if (result.action == Action::kStall) {
    GFI_LOG(kWarn) << "failpoint " << name << ": stall " << result.arg << "ms";
    std::this_thread::sleep_for(std::chrono::milliseconds(result.arg));
    return {};  // stall then proceed normally
  }
  return result;
}

Status set_spec(const std::string& spec) {
  std::vector<Clause> clauses;
  if (Status s = parse_spec(spec, &clauses); !s.is_ok()) return s;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.clauses = std::move(clauses);
  r.spec = r.clauses.empty() ? std::string() : spec;
  g_enabled.store(!r.clauses.empty(), std::memory_order_relaxed);
  return Status::ok();
}

std::string spec() {
  load_env_once();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.spec;
}

}  // namespace gfi::fp
