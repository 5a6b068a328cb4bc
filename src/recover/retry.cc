#include "recover/retry.h"

namespace gfi::recover {

Result<RetryResult> run_with_retry(const RetryPolicy& policy,
                                   const AttemptFn& attempt) {
  auto first = attempt(0);
  if (!first.is_ok()) return first.status();

  RetryResult result;
  result.first_trap = first.value().trap;
  result.last_trap = first.value().trap;
  result.total_dyn_instrs = first.value().dyn_instrs;

  for (u32 retry = 1;
       retry <= policy.max_retries && result.last_trap.fired(); ++retry) {
    auto rerun = attempt(retry);
    if (!rerun.is_ok()) return rerun.status();
    result.last_trap = rerun.value().trap;
    result.total_dyn_instrs += rerun.value().dyn_instrs;
    ++result.attempts;
  }
  return result;
}

}  // namespace gfi::recover
