#include "sassim/warp.h"

#include <algorithm>
#include <bit>
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

/// Image words of the fields a new CTA does not set, the predicate bytes
/// and one SIMT stack entry (mask, pc, kind).
constexpr std::size_t kHeaderWords = 7;
constexpr std::size_t kPredWords = kWarpSize / sizeof(u32);
constexpr std::size_t kEntryWords = 3;

/// Calls `copy(first, count)` for each run of consecutive registers whose
/// bits are set in `rows`, a mask of `words` words: a capture copies a few
/// runs of rows, not one row at a time.
template <typename Copy>
void for_each_row_run(const u32* rows, std::size_t words, Copy copy) {
  for (std::size_t w = 0; w < words; ++w) {
    u32 bits = rows[w];
    while (bits != 0) {
      const int first = std::countr_zero(bits);
      const int count = std::countr_one(bits >> first);
      copy(w * 32 + static_cast<std::size_t>(first),
           static_cast<std::size_t>(count));
      bits = count == 32 ? 0u : bits & ~(((1u << count) - 1u) << first);
    }
  }
}

}  // namespace

std::size_t WarpState::image_words(const u32* rows) const {
  const std::size_t mask_words = row_mask_words(num_regs_);
  std::size_t live = 0;
  for (std::size_t w = 0; w < mask_words; ++w) {
    live += static_cast<std::size_t>(std::popcount(rows[w]));
  }
  return kHeaderWords + mask_words + live * kWarpSize + kPredWords +
         stack_.size() * kEntryWords;
}

u32* WarpState::save_image(u32* out, const u32* rows) const {
  *out++ = active_;
  *out++ = exited_;
  *out++ = pc;
  *out++ = lo32(ready_cycle);
  *out++ = hi32(ready_cycle);
  *out++ = at_barrier ? 1u : 0u;
  *out++ = static_cast<u32>(stack_.size());
  const std::size_t mask_words = row_mask_words(num_regs_);
  out = std::copy(rows, rows + mask_words, out);
  for_each_row_run(rows, mask_words, [&](std::size_t first, std::size_t count) {
    out = std::copy_n(&regs_[first * kWarpSize], count * kWarpSize, out);
  });
  std::memcpy(out, preds_, sizeof(preds_));
  out += kPredWords;
  for (const StackEntry& entry : stack_) {
    *out++ = entry.mask;
    *out++ = entry.pc;
    *out++ = static_cast<u32>(entry.kind);
  }
  return out;
}

void WarpState::load_image(const u32*& in) {
  const u32* header = in;
  active_ = header[0];
  exited_ = header[1];
  pc = header[2];
  ready_cycle = make64(header[3], header[4]);
  at_barrier = header[5] != 0;
  const u32* rows = header + kHeaderWords;
  const std::size_t mask_words = row_mask_words(num_regs_);
  in = rows + mask_words;
  for_each_row_run(rows, mask_words, [&](std::size_t first, std::size_t count) {
    std::copy_n(in, count * kWarpSize, regs_ + first * kWarpSize);
    in += count * kWarpSize;
  });
  std::memcpy(preds_, in, sizeof(preds_));
  in += kPredWords;
  stack_.resize(header[6]);
  for (StackEntry& entry : stack_) {
    entry.mask = in[0];
    entry.pc = in[1];
    entry.kind = static_cast<StackEntry::Kind>(in[2]);
    in += kEntryWords;
  }
}

}  // namespace gfi::sim
