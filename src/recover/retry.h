// Trap-and-retry relaunch: the recovery a real driver stack performs when a
// kernel dies with an ECC DBE / illegal-address Xid or is killed by the
// watchdog — tear the context down, restore application state, relaunch.
//
// The executor runs the caller's attempt callback and, while the attempt
// reports a trap, reruns it, up to `max_retries` extra attempts. Restoring
// the device state a retry starts from is the caller's business, and so is
// whether the retry sees the same fault again (FaultPersistence): a
// campaign restores its post-setup checkpoint before every retry it
// simulates.
#pragma once

#include <functional>

#include "common/status.h"
#include "common/types.h"
#include "sassim/trap.h"

namespace gfi::recover {

struct RetryPolicy {
  /// Extra attempts after the first; 0 disables recovery entirely (the
  /// first attempt's result stands).
  u32 max_retries = 0;
};

/// What one attempt (launch + result check) reported back.
struct Attempt {
  /// A fired trap marks the attempt as detected-bad and triggers a retry.
  /// Silent corruption must NOT be reported here — nothing detected it.
  sim::Trap trap;
  u64 dyn_instrs = 0;  ///< dynamic warp instructions this attempt cost
};

struct RetryResult {
  sim::Trap first_trap;  ///< attempt 0's trap (kNone if it ran clean)
  sim::Trap last_trap;   ///< final attempt's trap (kNone = ended clean)
  u32 attempts = 1;      ///< total attempts run (1 = no retry needed)
  u64 total_dyn_instrs = 0;  ///< summed over all attempts

  /// The first attempt trapped and a retry ran clean.
  [[nodiscard]] bool recovered() const {
    return first_trap.fired() && !last_trap.fired();
  }
  /// Every allowed attempt trapped.
  [[nodiscard]] bool gave_up() const { return last_trap.fired(); }
};

/// Runs `attempt(0)`, then retries while the attempt traps and budget
/// remains. The callback receives the attempt index (0 = original run) so
/// a caller modeling a stuck-at fault can re-arm it on every attempt.
using AttemptFn = std::function<Result<Attempt>(u32 attempt)>;
Result<RetryResult> run_with_retry(const RetryPolicy& policy,
                                   const AttemptFn& attempt);

}  // namespace gfi::recover
