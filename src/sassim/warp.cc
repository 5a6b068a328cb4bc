#include "sassim/warp.h"

#include <algorithm>
#include <cstring>

namespace gfi::sim {

void WarpState::retire_lanes(u32 lanes) {
  exited_ |= lanes;
  active_ &= ~lanes;
  for (auto& entry : stack_) entry.mask &= ~lanes;

  // If the current context emptied, resume the next pending one.
  while (active_ == 0 && !stack_.empty()) {
    const StackEntry entry = stack_.back();
    stack_.pop_back();
    if (entry.mask == 0) continue;
    active_ = entry.mask;
    pc = entry.pc;
    break;
  }
}

namespace {

/// Image words of the fixed fields, the predicate bytes and one SIMT stack
/// entry (mask, pc, kind).
constexpr std::size_t kHeaderWords = 9;
constexpr std::size_t kPredWords = kWarpSize / sizeof(u32);
constexpr std::size_t kEntryWords = 3;

}  // namespace

std::size_t WarpState::image_words() const {
  return kHeaderWords + regs_.size() + kPredWords +
         stack_.size() * kEntryWords;
}

u32* WarpState::save_image(u32* out) const {
  *out++ = warp_in_cta_;
  *out++ = num_regs_;
  *out++ = active_;
  *out++ = exited_;
  *out++ = pc;
  *out++ = lo32(ready_cycle);
  *out++ = hi32(ready_cycle);
  *out++ = at_barrier ? 1u : 0u;
  *out++ = static_cast<u32>(stack_.size());
  out = std::copy(regs_.begin(), regs_.end(), out);
  std::memcpy(out, preds_, sizeof(preds_));
  out += kPredWords;
  for (const StackEntry& entry : stack_) {
    *out++ = entry.mask;
    *out++ = entry.pc;
    *out++ = static_cast<u32>(entry.kind);
  }
  return out;
}

WarpState WarpState::load_image(const u32*& in) {
  const u32* header = in;
  WarpState warp(header[0], header[1], header[2], header + kHeaderWords);
  warp.exited_ = header[3];
  warp.pc = header[4];
  warp.ready_cycle = make64(header[5], header[6]);
  warp.at_barrier = header[7] != 0;
  in += kHeaderWords + warp.regs_.size();
  std::memcpy(warp.preds_, in, sizeof(warp.preds_));
  in += kPredWords;
  warp.stack_.resize(header[8]);
  for (StackEntry& entry : warp.stack_) {
    entry.mask = in[0];
    entry.pc = in[1];
    entry.kind = static_cast<StackEntry::Kind>(in[2]);
    in += kEntryWords;
  }
  return warp;
}

}  // namespace gfi::sim
