#include "host_ref.h"

#include <sys/mman.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "trace.h"

namespace gfi::cbench {
namespace {

constexpr std::size_t kCycleSize = std::size_t{1} << 17;  // 32-bit, 512 KiB
constexpr std::size_t kSteps = 220'000;                    // per sample
constexpr std::size_t kChurnBytes = std::size_t{1} << 20;
constexpr std::size_t kChurnRounds = 4;  // per sample
constexpr std::size_t kPageBytes = 4096;

u64 next(u64& state) {
  // xorshift64: the cycle is the same in every run.
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

HostReference::HostReference() : cycle_(kCycleSize) {
  // The churned mapping stays mapped, and resident outside sample(), for
  // the whole run: peak_rss_mb takes off its exact size.
  churn_ = mmap(nullptr, kChurnBytes, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (churn_ == MAP_FAILED) std::abort();
  std::memset(churn_, 1, kChurnBytes);
  // Sattolo's shuffle turns the identity into one random cycle through
  // every slot: each step depends on the last and lands on an
  // unpredictable cache line.
  for (std::size_t i = 0; i < kCycleSize; ++i) cycle_[i] = static_cast<u32>(i);
  u64 seed = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = kCycleSize - 1; i > 0; --i) {
    std::swap(cycle_[i], cycle_[next(seed) % i]);
  }
}

HostReference::~HostReference() { munmap(churn_, kChurnBytes); }

f64 HostReference::resident_mb() const {
  return static_cast<f64>(cycle_.size() * sizeof(u32) + kChurnBytes) /
         (1024.0 * 1024.0);
}

void HostReference::churn_pages() {
  auto* bytes = static_cast<volatile unsigned char*>(churn_);
  for (std::size_t round = 0; round < kChurnRounds; ++round) {
    // MADV_DONTNEED drops the pages, so every touch below faults in a
    // fresh zeroed page, as a new mapping would.
    madvise(churn_, kChurnBytes, MADV_DONTNEED);
    for (std::size_t i = 0; i < kChurnBytes; i += kPageBytes) bytes[i] = 1;
    for (std::size_t i = 0; i < kChurnBytes; i += 64) churn_sum_ += bytes[i];
  }
}

void HostReference::walk() {
  u32 at = position_;
  for (std::size_t step = 0; step < kSteps; ++step) at = cycle_[at];
  position_ = at;  // the next sample walks on, and the loop stays live
}

void HostReference::sample() {
  const f64 cpu_start = cpu_seconds();
  const f64 wall_start = wall_seconds();
  churn_pages();
  walk();
  cpu_s_.push_back(cpu_seconds() - cpu_start);
  wall_s_.push_back(wall_seconds() - wall_start);
}

f64 HostReference::median_cpu_s() const { return quantile(cpu_s_, 0.5); }

f64 HostReference::cpu_scale() const {
  return cpu_s_.empty() ? 1.0 : kNominalSeconds / cpu_s_.back();
}

f64 HostReference::wall_scale() const {
  return wall_s_.empty() ? 1.0 : kNominalSeconds / wall_s_.back();
}

}  // namespace gfi::cbench
