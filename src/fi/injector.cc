#include "fi/injector.h"

#include <bit>
#include <sstream>

#include "common/bitutil.h"
#include "common/rng.h"

namespace gfi::fi {

std::string FaultSite::to_string() const {
  std::ostringstream out;
  out << fi::to_string(model.mode) << "/" << fi::to_string(model.flip);
  if (group) out << " group=" << sim::group_name(*group);
  out << " occ=" << target_occurrence << " lane_sel=" << lane_sel
      << " bit=" << bit_sel;
  if (model.mode == InjectionMode::kRf) out << " reg=R" << reg_sel;
  return out.str();
}

bool InjectorHook::is_target(const sim::InstrContext& ctx) const {
  switch (site_.model.mode) {
    case InjectionMode::kIov:
    case InjectionMode::kPred:
    case InjectionMode::kIoa:
      if (!mode_targets_group(site_.model.mode, ctx.group)) return false;
      return !site_.group || *site_.group == ctx.group;
    case InjectionMode::kRf:
      return true;  // strikes at an absolute dynamic index
    case InjectionMode::kMemory:
      return false;  // handled outside the hook (pre-launch)
  }
  return false;
}

std::optional<sim::StrikeRequest> InjectorHook::strike_request() const {
  if (site_.model.mode == InjectionMode::kMemory) return std::nullopt;
  sim::StrikeRequest request;
  request.occurrence = site_.target_occurrence;
  for (int g = 0; g < sim::kInstrGroupCount; ++g) {
    const auto group = static_cast<sim::InstrGroup>(g);
    const bool eligible =
        site_.model.mode == InjectionMode::kRf ||
        (mode_targets_group(site_.model.mode, group) &&
         (!site_.group || *site_.group == group));
    if (eligible) request.groups |= 1u << g;
  }
  return request;
}

u32 InjectorHook::pick_lane(u32 exec_mask, u32 lane_sel) {
  const u32 lanes = static_cast<u32>(std::popcount(exec_mask));
  u32 n = lane_sel % lanes;
  for (u32 lane = 0; lane < sim::kWarpSize; ++lane) {
    if ((exec_mask >> lane) & 1u) {
      if (n == 0) return lane;
      --n;
    }
  }
  return 0;
}

void InjectorHook::on_before_instr(sim::InstrContext& ctx) {
  if (fired_) return;
  if (site_.model.mode == InjectionMode::kRf) {
    if (eligible_seen_++ == site_.target_occurrence) strike_rf(ctx);
    return;
  }
  if (site_.model.mode == InjectionMode::kIoa && is_target(ctx)) {
    if (eligible_seen_++ == site_.target_occurrence) {
      // Arm the address transform for this store instruction.
      fired_ = true;
      effect_.struck_dyn_index = ctx.dyn_index;
      effect_.struck_opcode = ctx.instr->op;
      effect_.struck_group = ctx.group;
      if (ctx.exec_mask != 0) {
        effect_.activated = true;
        effect_.struck_lane = pick_lane(ctx.exec_mask, site_.lane_sel);
        armed_store_dyn_ = ctx.dyn_index;
      }
    }
  }
}

void InjectorHook::on_after_instr(sim::InstrContext& ctx) {
  if (fired_) return;
  const auto mode = site_.model.mode;
  if (mode != InjectionMode::kIov && mode != InjectionMode::kPred) return;
  if (!is_target(ctx)) return;
  if (eligible_seen_++ != site_.target_occurrence) return;

  fired_ = true;
  effect_.struck_dyn_index = ctx.dyn_index;
  effect_.struck_opcode = ctx.instr->op;
  effect_.struck_group = ctx.group;
  if (ctx.exec_mask == 0) return;  // predicated off: never activated

  if (mode == InjectionMode::kIov) {
    strike_iov(ctx);
  } else {
    strike_pred(ctx);
  }
}

u64 InjectorHook::transform_store_address(u64 addr,
                                          const sim::InstrContext& ctx,
                                          u32 lane) {
  if (armed_store_dyn_ != ctx.dyn_index || lane != effect_.struck_lane) {
    return addr;
  }
  armed_store_dyn_ = ~0ULL;  // strike only one lane's address
  switch (site_.model.flip) {
    case BitFlipModel::kSingle:
      return flip_bit64(addr, site_.bit_sel % 32);
    case BitFlipModel::kDouble: {
      u32 b2 = site_.bit_sel2 % 32;
      if (b2 == site_.bit_sel % 32) b2 = (b2 + 1) % 32;
      return flip_bit64(flip_bit64(addr, site_.bit_sel % 32), b2);
    }
    case BitFlipModel::kRandomValue:
      return site_.random_value;
    case BitFlipModel::kZeroValue:
      return 0;
  }
  return addr;
}

void InjectorHook::strike_iov(sim::InstrContext& ctx) {
  const sim::Instr& instr = *ctx.instr;
  sim::WarpState& warp = *ctx.warp_state;
  const u32 lane = pick_lane(ctx.exec_mask, site_.lane_sel);
  effect_.struck_lane = lane;

  if (instr.writes_reg() || instr.op == sim::Opcode::kHmma) {
    const u16 span = instr.dst_reg_span();
    const u32 bits = span * 32u;
    const u16 base = instr.dst.index;
    effect_.activated = true;
    switch (site_.model.flip) {
      case BitFlipModel::kSingle: {
        const u32 bit = site_.bit_sel % bits;
        const u16 r = static_cast<u16>(base + bit / 32);
        warp.set_reg(lane, r, flip_bit32(warp.reg(lane, r), bit % 32));
        break;
      }
      case BitFlipModel::kDouble: {
        const u32 b1 = site_.bit_sel % bits;
        u32 b2 = site_.bit_sel2 % bits;
        if (b2 == b1) b2 = (b2 + 1) % bits;
        for (u32 bit : {b1, b2}) {
          const u16 r = static_cast<u16>(base + bit / 32);
          warp.set_reg(lane, r, flip_bit32(warp.reg(lane, r), bit % 32));
        }
        break;
      }
      case BitFlipModel::kRandomValue: {
        u64 payload = site_.random_value;
        for (u16 s = 0; s < span; ++s) {
          warp.set_reg(lane, static_cast<u16>(base + s),
                       static_cast<u32>(splitmix64(payload)));
        }
        break;
      }
      case BitFlipModel::kZeroValue:
        for (u16 s = 0; s < span; ++s) {
          warp.set_reg(lane, static_cast<u16>(base + s), 0);
        }
        break;
    }
    return;
  }

  if (instr.writes_pred()) {
    effect_.activated = true;
    const auto p = static_cast<u8>(instr.dst.index);
    warp.set_pred(lane, p, !warp.pred(lane, p));
  }
}

void InjectorHook::strike_pred(sim::InstrContext& ctx) {
  const sim::Instr& instr = *ctx.instr;
  if (!instr.writes_pred()) return;
  sim::WarpState& warp = *ctx.warp_state;
  const u32 lane = pick_lane(ctx.exec_mask, site_.lane_sel);
  effect_.struck_lane = lane;
  effect_.activated = true;
  const auto p = static_cast<u8>(instr.dst.index);
  warp.set_pred(lane, p, !warp.pred(lane, p));
}

void InjectorHook::strike_rf(sim::InstrContext& ctx) {
  fired_ = true;
  effect_.struck_dyn_index = ctx.dyn_index;
  effect_.struck_opcode = ctx.instr->op;
  effect_.struck_group = ctx.group;
  sim::WarpState& warp = *ctx.warp_state;
  const u32 live = warp.active();
  if (live == 0) return;
  const u32 lane = pick_lane(live, site_.lane_sel);
  effect_.struck_lane = lane;
  effect_.activated = true;

  const u16 reg = warp.num_regs() == 0
                      ? 0
                      : static_cast<u16>(site_.reg_sel % warp.num_regs());

  if (config_.rf_ecc == ecc::EccMode::kSecded) {
    // The register file is SECDED protected: a single-bit upset is
    // corrected on the next read; anything wider is detected-uncorrectable
    // and surfaces as a DUE (XID-63-style) at consumption time, which we
    // model as an immediate trap.
    if (site_.model.flip == BitFlipModel::kSingle) {
      effect_.corrected_by_ecc = true;
      return;
    }
    ctx.requested_trap = sim::TrapKind::kEccDoubleBit;
    return;
  }

  switch (site_.model.flip) {
    case BitFlipModel::kSingle:
      warp.set_reg(lane, reg,
                   flip_bit32(warp.reg(lane, reg), site_.bit_sel % 32));
      break;
    case BitFlipModel::kDouble: {
      u32 b2 = site_.bit_sel2 % 32;
      if (b2 == site_.bit_sel % 32) b2 = (b2 + 1) % 32;
      u32 value = flip_bit32(warp.reg(lane, reg), site_.bit_sel % 32);
      warp.set_reg(lane, reg, flip_bit32(value, b2));
      break;
    }
    case BitFlipModel::kRandomValue:
      warp.set_reg(lane, reg, static_cast<u32>(site_.random_value));
      break;
    case BitFlipModel::kZeroValue:
      warp.set_reg(lane, reg, 0);
      break;
  }
}

}  // namespace gfi::fi
