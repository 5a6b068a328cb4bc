// Failpoints: engine-level fault injection for the engine itself.
//
// The simulator injects faults into modeled GPUs; failpoints inject faults
// into the *campaign machinery* — a worker killed mid-shard, a torn journal
// write, ENOSPC on append, a failed heartbeat write — so the supervisor's
// recovery paths can be exercised deterministically in tests and in the CI
// chaos job instead of waiting for real disks to fill up.
//
// Activation is explicit: the `GFI_FAILPOINTS` environment variable (or
// fp::set_spec in tests) installs a spec; with no spec every site costs one
// relaxed atomic load. A spec is a `;`-separated list of clauses:
//
//   <site>=<action>[:<arg>][@<trigger>=<n>]
//
//   actions   err          site reports a synthetic IO failure
//             kill[:code]  process dies via _Exit (default code 137), no
//                          destructors — the moral equivalent of SIGKILL
//             torn         site performs a partial write, then dies
//             stall:<ms>   site sleeps <ms>, then proceeds normally
//             off          clause disabled (keep it in the spec for notes)
//   triggers  hit=<n>      fires exactly once, on the n-th evaluation
//                          (1-based) of this clause in this process
//             every=<n>    fires on every n-th evaluation
//             key=<k>      fires whenever the call site's key equals k
//                          (e.g. the global injection index)
//             (none)       fires on every evaluation
//
// Examples:
//   GFI_FAILPOINTS='campaign.injection=kill@hit=25'     # die at the 25th
//   GFI_FAILPOINTS='inject.execute=kill@key=133'        # poison injection
//   GFI_FAILPOINTS='journal.append=err@every=50;heartbeat.write=err'
//
// Determinism: triggers are counters and key matches, never wall-clock or
// randomness, so a single-threaded worker replays the identical failure
// schedule on every attempt — which is exactly what the quarantine and
// bit-identity tests need. (With multiple worker threads the interleaving
// of `hit` counts is scheduling-dependent; key= triggers stay exact.)
//
// kKill and kStall are executed inside hit() so most call sites need no
// handling; kErr and kTorn are returned for the site to act on (a torn
// write has to happen at the site that owns the file).
#pragma once

#include <string>

#include "common/status.h"
#include "common/types.h"

namespace gfi::fp {

enum class Action : u8 {
  kNone = 0,  ///< proceed normally
  kErr,       ///< report a synthetic failure
  kKill,      ///< executed inside hit(): std::_Exit, no destructors
  kTorn,      ///< call site: write a partial record, then die
  kStall,     ///< executed inside hit(): sleep, then proceed
};

/// Result of evaluating a site. `arg` carries the action's argument (stall
/// milliseconds, kill exit code, torn fraction is fixed at 1/2).
struct Hit {
  Action action = Action::kNone;
  u64 arg = 0;
  explicit operator bool() const { return action != Action::kNone; }
};

/// Key value meaning "this site has no coordinate"; never matches key=.
inline constexpr u64 kAnyKey = ~0ULL;

/// True when a spec with at least one live clause is installed. One relaxed
/// atomic load — cheap enough for per-injection sites.
bool enabled();

/// Evaluates site `name`. Executes kKill (process exit, code = arg) and
/// kStall (sleep arg ms) internally; returns kErr/kTorn for the call site.
/// `key` is the site's stable coordinate (e.g. global injection index) for
/// key= triggers.
Hit hit(const char* name, u64 key = kAnyKey);

/// Installs a spec, replacing the current one (and any env spec); clause
/// counters reset. An empty string disables all failpoints. A malformed
/// spec leaves the current one installed and reports what was wrong.
Status set_spec(const std::string& spec);

/// The currently installed spec string ("" when disabled).
std::string spec();

/// Process exit code used by kill clauses with no explicit code. Chosen to
/// look like SIGKILL (128+9) so supervisors treat failpoint deaths exactly
/// like real ones.
inline constexpr int kKillExitCode = 137;

}  // namespace gfi::fp
