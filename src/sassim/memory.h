// Simulated device global memory: bump allocator + ECC fault-map semantics.
//
// Injected upsets are recorded per 32-bit word in a fault map rather than
// stored in the backing bytes, so ECC behaviour stays observable-equivalent
// (see ecc/protection.h): with SECDED on, a 1-bit fault is corrected and
// counted on every read, a >=2-bit fault traps; with ECC off, reads return
// the corrupted bits. Overwriting a whole faulted word clears the fault
// (transient-upset model — new data is re-encoded correctly).
#pragma once

#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ecc/protection.h"
#include "sassim/trap.h"

namespace gfi::sim {

class GlobalMemory {
 public:
  /// First valid device address; accesses below it trap (NULL-page guard).
  static constexpr u64 kBaseAddress = 0x10000;

  GlobalMemory(u64 capacity_bytes, ecc::EccMode mode);

  /// Bump-allocates `bytes` with the given alignment (power of two).
  [[nodiscard]] Result<u64> allocate(u64 bytes, u64 align = 256);

  /// Releases every allocation and all injected faults.
  void reset();

  [[nodiscard]] u64 bytes_allocated() const { return brk_ - kBaseAddress; }
  [[nodiscard]] u64 capacity() const { return capacity_; }
  [[nodiscard]] ecc::EccMode ecc_mode() const { return mode_; }
  void set_ecc_mode(ecc::EccMode mode) { mode_ = mode; }

  /// Reads `n` bytes with full trap/ECC semantics. On a trap the output
  /// buffer contents are unspecified. Inlined fast path for the (dominant)
  /// fault-free case; ECC classification lives in read_faulty().
  [[nodiscard]] TrapKind read(u64 addr, void* out, u32 n) {
    if (!in_bounds(addr, n)) return TrapKind::kIllegalGlobalAddress;
    std::memcpy(out, backing(addr), n);
    if (faults_.empty()) [[likely]] return TrapKind::kNone;
    return read_faulty(addr, out, n);
  }

  /// Writes `n` bytes; clears faults on fully overwritten words.
  [[nodiscard]] TrapKind write(u64 addr, const void* src, u32 n) {
    if (!in_bounds(addr, n)) return TrapKind::kIllegalGlobalAddress;
    std::memcpy(backing(addr), src, n);
    if (!faults_.empty()) clear_overwritten_faults(addr, n);
    return TrapKind::kNone;
  }

  /// Bounds check for the row paths: the arena is a single contiguous
  /// extent [kBaseAddress, brk), so checking the min and max word addresses
  /// of a row's executing lanes covers every one of them.
  [[nodiscard]] bool row_u32_in_bounds(u64 lo, u64 hi) const {
    return lo <= hi && in_bounds(lo, 4) && in_bounds(hi, 4);
  }
  /// Unchecked 32-bit accessors for row paths that already hold
  /// row_u32_in_bounds() on a covering range and fault_free() (writes
  /// bypass fault clearing, which is vacuous on an empty fault map).
  [[nodiscard]] u32 read_u32_raw(u64 addr) const {
    u32 v;
    std::memcpy(&v, data_.data() + (addr - kBaseAddress), 4);
    return v;
  }
  void write_u32_raw(u64 addr, u32 value) {
    std::memcpy(backing(addr), &value, 4);
  }

  /// Host-side copies. d2h goes through the ECC read path on purpose: a
  /// pending DBE in an output buffer surfaces when results are copied back,
  /// just as cudaMemcpy returns an ECC error on real hardware.
  [[nodiscard]] TrapKind copy_to_device(u64 dst, const void* src, u64 n);
  [[nodiscard]] TrapKind copy_to_host(void* dst, u64 src, u64 n);
  [[nodiscard]] TrapKind fill(u64 dst, u8 value, u64 n);

  /// Records an upset: XORs `flip_mask` into the fault mask of the 32-bit
  /// word containing byte address `addr`.
  void inject_fault(u64 addr, u32 flip_mask);

  /// Full mutable state of the arena: allocation table (brk), backing bytes,
  /// pending upsets, and ECC counters. Restoring a snapshot makes a relaunch
  /// bit-identical to the original run (recover/retry.h builds on this).
  struct Snapshot {
    u64 brk = kBaseAddress;
    std::vector<u8> data;
    std::unordered_map<u64, u32> faults;
    ecc::EccCounters counters;
  };

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{brk_, data_, faults_, counters_};
  }
  /// snapshot() less the backing bytes, for the paged restore() below.
  [[nodiscard]] Snapshot snapshot_without_bytes() const {
    return Snapshot{brk_, {}, faults_, counters_};
  }

  void restore(const Snapshot& snap) {
    brk_ = snap.brk;
    data_ = snap.data;
    faults_ = snap.faults;
    counters_ = snap.counters;
  }

  /// restore() from a snapshot whose backing bytes are `base` with the
  /// `page_bytes` pages numbered `pages` (ascending) replaced by the bytes
  /// at `bytes`, one page after the other (the arena's last page may be
  /// short), in one pass: LaunchCheckpoint keeps the pages that differ
  /// from launch start in its image. `base` must cover every other page.
  void restore(const Snapshot& snap, std::span<const u8> base,
               std::span<const u32> pages, std::size_t page_bytes,
               const u8* bytes);

  /// The backing bytes of [kBaseAddress, brk).
  [[nodiscard]] std::span<const u8> bytes() const { return data_; }

  [[nodiscard]] std::size_t fault_count() const { return faults_.size(); }
  /// True while no upsets are pending — the executor's hoisted load fast
  /// path requires it so ECC classification can never be skipped.
  [[nodiscard]] bool fault_free() const { return faults_.empty(); }
  [[nodiscard]] const ecc::EccCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// Range check without side effects (used by the address validator).
  [[nodiscard]] bool in_bounds(u64 addr, u64 n) const {
    return addr >= kBaseAddress && n <= brk_ && addr <= brk_ - n;
  }

 private:
  [[nodiscard]] u8* backing(u64 addr) {
    return data_.data() + (addr - kBaseAddress);
  }

  /// Out-of-line tail of read(): ECC classification of the pending upsets
  /// the access overlaps. Called only when faults_ is non-empty; the bytes
  /// are already copied into `out`.
  [[nodiscard]] TrapKind read_faulty(u64 addr, void* out, u32 n);
  /// Out-of-line tail of write(): erase faults on fully overwritten words.
  void clear_overwritten_faults(u64 addr, u32 n);

  u64 capacity_;
  ecc::EccMode mode_;
  u64 brk_ = kBaseAddress;
  std::vector<u8> data_;  ///< backing store for [kBaseAddress, brk_)
  std::unordered_map<u64, u32> faults_;  ///< word index -> flipped-bit mask
  ecc::EccCounters counters_;
};

}  // namespace gfi::sim
