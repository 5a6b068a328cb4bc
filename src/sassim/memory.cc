#include "sassim/memory.h"

#include <algorithm>
#include <cstring>

namespace gfi::sim {

GlobalMemory::GlobalMemory(u64 capacity_bytes, ecc::EccMode mode)
    : capacity_(capacity_bytes), mode_(mode) {}

Result<u64> GlobalMemory::allocate(u64 bytes, u64 align) {
  if (bytes == 0) return Status::invalid_argument("zero-byte allocation");
  if (align == 0 || (align & (align - 1)) != 0) {
    return Status::invalid_argument("alignment must be a power of two");
  }
  const u64 addr = (brk_ + align - 1) & ~(align - 1);
  if (addr - kBaseAddress + bytes > capacity_) {
    return Status::out_of_range("device arena exhausted: requested " +
                                std::to_string(bytes) + " bytes");
  }
  brk_ = addr + bytes;
  if (data_.size() < brk_ - kBaseAddress) data_.resize(brk_ - kBaseAddress, 0);
  return addr;
}

void GlobalMemory::reset() {
  brk_ = kBaseAddress;
  data_.clear();
  faults_.clear();
  counters_ = {};
}

TrapKind GlobalMemory::read_faulty(u64 addr, void* out, u32 n) {
  // Visit every 32-bit word the access overlaps.
  const u64 first_word = addr / 4;
  const u64 last_word = (addr + n - 1) / 4;
  for (u64 word = first_word; word <= last_word; ++word) {
    auto it = faults_.find(word);
    if (it == faults_.end()) continue;
    switch (ecc::classify_read(mode_, it->second)) {
      case ecc::ReadEffect::kClean:
        break;
      case ecc::ReadEffect::kCorrected:
        // Correct-on-read; the cell itself stays corrupted (no scrubbing),
        // so repeated reads keep counting, as volatile SBE counters do.
        ++counters_.corrected_sbe;
        break;
      case ecc::ReadEffect::kDoubleBitTrap:
        ++counters_.detected_dbe;
        return TrapKind::kEccDoubleBit;
      case ecc::ReadEffect::kRawCorrupted: {
        ++counters_.silent_corrupted;
        // XOR the flipped bits into the returned bytes that overlap.
        const u64 word_base = word * 4;
        for (u32 byte = 0; byte < 4; ++byte) {
          const u64 byte_addr = word_base + byte;
          if (byte_addr < addr || byte_addr >= addr + n) continue;
          const u32 mask = (it->second >> (byte * 8)) & 0xffu;
          static_cast<u8*>(out)[byte_addr - addr] ^= static_cast<u8>(mask);
        }
        break;
      }
    }
  }
  return TrapKind::kNone;
}

void GlobalMemory::clear_overwritten_faults(u64 addr, u32 n) {
  // A write that covers a whole word re-encodes it, clearing the upset.
  u64 word = (addr + 3) / 4;                // first fully covered word
  const u64 end_word = (addr + n) / 4;      // one past last fully covered
  for (; word < end_word; ++word) faults_.erase(word);
}

TrapKind GlobalMemory::copy_to_device(u64 dst, const void* src, u64 n) {
  const u8* bytes = static_cast<const u8*>(src);
  while (n > 0) {
    const u32 chunk = static_cast<u32>(std::min<u64>(n, 1u << 20));
    if (TrapKind trap = write(dst, bytes, chunk); trap != TrapKind::kNone) {
      return trap;
    }
    dst += chunk;
    bytes += chunk;
    n -= chunk;
  }
  return TrapKind::kNone;
}

TrapKind GlobalMemory::copy_to_host(void* dst, u64 src, u64 n) {
  u8* bytes = static_cast<u8*>(dst);
  while (n > 0) {
    const u32 chunk = static_cast<u32>(std::min<u64>(n, 1u << 20));
    if (TrapKind trap = read(src, bytes, chunk); trap != TrapKind::kNone) {
      return trap;
    }
    src += chunk;
    bytes += chunk;
    n -= chunk;
  }
  return TrapKind::kNone;
}

TrapKind GlobalMemory::fill(u64 dst, u8 value, u64 n) {
  std::vector<u8> chunk(std::min<u64>(n, 1u << 16), value);
  while (n > 0) {
    const u32 step = static_cast<u32>(std::min<u64>(n, chunk.size()));
    if (TrapKind trap = write(dst, chunk.data(), step);
        trap != TrapKind::kNone) {
      return trap;
    }
    dst += step;
    n -= step;
  }
  return TrapKind::kNone;
}

void GlobalMemory::inject_fault(u64 addr, u32 flip_mask) {
  if (flip_mask == 0) return;
  u32& mask = faults_[addr / 4];
  mask ^= flip_mask;
  if (mask == 0) faults_.erase(addr / 4);
}

void GlobalMemory::restore(const Snapshot& snap, std::span<const u8> base,
                           std::span<const u32> pages, std::size_t page_bytes,
                           const u8* bytes) {
  brk_ = snap.brk;
  const std::size_t size = brk_ - kBaseAddress;
  data_.resize(size);
  auto from_base = [&](std::size_t begin, std::size_t end) {
    if (end > begin) std::memcpy(&data_[begin], &base[begin], end - begin);
  };
  std::size_t done = 0;  // bytes of data_ restored so far
  for (const u32 page : pages) {
    const std::size_t begin = page * page_bytes;
    const std::size_t length = std::min(page_bytes, size - begin);
    from_base(done, begin);
    std::memcpy(&data_[begin], bytes, length);
    bytes += length;
    done = begin + length;
  }
  from_base(done, size);
  faults_ = snap.faults;
  counters_ = snap.counters;
}

}  // namespace gfi::sim
