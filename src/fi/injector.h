// The injector: an InstrumentHook that strikes exactly one fault at a
// pre-sampled dynamic site, replicating what NVBitFI's instrumentation does
// on real GPUs.
#pragma once

#include <optional>
#include <string>

#include "common/types.h"
#include "fi/fault_model.h"
#include "sassim/instrument.h"
#include "sassim/machine_config.h"

namespace gfi::fi {

/// A fully sampled fault site. `target_occurrence` counts eligible dynamic
/// warp instructions (those matching the mode/group) from 0; the injector
/// fires on the matching one.
struct FaultSite {
  FaultModel model;
  /// Group filter for instruction-targeted modes; kRf strikes at an
  /// absolute dynamic index regardless of group.
  std::optional<sim::InstrGroup> group;
  u64 target_occurrence = 0;
  u32 lane_sel = 0;   ///< resolved against the exec mask at strike time
  u32 bit_sel = 0;    ///< bit index within the target's bit width
  u32 bit_sel2 = 0;   ///< second bit for kDouble
  u16 reg_sel = 0;    ///< kRf: architected register to strike
  u64 random_value = 0;  ///< payload for kRandomValue

  [[nodiscard]] std::string to_string() const;
};

/// What the injector actually did (for classification and replay logs).
struct InjectionEffect {
  bool activated = false;         ///< the site was reached and struck
  bool corrected_by_ecc = false;  ///< RF ECC corrected the flip (no corruption)
  u64 struck_dyn_index = 0;       ///< dynamic index of the strike
  sim::Opcode struck_opcode = sim::Opcode::kNop;
  sim::InstrGroup struck_group = sim::InstrGroup::kControl;
  u32 struck_lane = 0;
};

class InjectorHook final : public sim::InstrumentHook {
 public:
  InjectorHook(const FaultSite& site, const sim::MachineConfig& config)
      : site_(site), config_(config) {}

  void on_before_instr(sim::InstrContext& ctx) override;
  void on_after_instr(sim::InstrContext& ctx) override;
  u64 transform_store_address(u64 addr, const sim::InstrContext& ctx,
                              u32 lane) override;

  /// One-shot: after the fault has fired (and any armed store-address
  /// strike has landed) the hook is inert for the rest of the launch, so
  /// an instrumented-tier launch may downgrade to the hook-free tier.
  [[nodiscard]] bool done_observing() const override {
    return fired_ && armed_store_dyn_ == ~0ULL;
  }

  /// The eligible groups and occurrence of the site: every group for kRf,
  /// the mode's targetable groups (narrowed to site.group) otherwise. The
  /// engine then counts occurrences and calls on_strike_slot() on the
  /// struck one; attached to an instrumented-tier launch the hook counts
  /// them itself.
  [[nodiscard]] std::optional<sim::StrikeRequest> strike_request()
      const override;
  void on_strike_slot() override {
    eligible_seen_ = site_.target_occurrence;
  }

  [[nodiscard]] const InjectionEffect& effect() const { return effect_; }

  /// Picks the struck lane among the set bits of `exec_mask`. Public so the
  /// campaign's analytic pruning path can reproduce the exact lane a
  /// simulated strike would have hit.
  [[nodiscard]] static u32 pick_lane(u32 exec_mask, u32 lane_sel);

 private:
  [[nodiscard]] bool is_target(const sim::InstrContext& ctx) const;

  void strike_iov(sim::InstrContext& ctx);
  void strike_pred(sim::InstrContext& ctx);
  void strike_rf(sim::InstrContext& ctx);

  FaultSite site_;
  const sim::MachineConfig& config_;
  u64 eligible_seen_ = 0;
  bool fired_ = false;
  u64 armed_store_dyn_ = ~0ULL;  ///< dyn index whose store address to corrupt
  InjectionEffect effect_;
};

}  // namespace gfi::fi
