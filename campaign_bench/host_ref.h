// Host-speed reference for the campaign benchmark.
//
// On a shared virtual machine the host runs the guest faster or slower, for
// seconds and for minutes at a time: frequency steps, and other guests
// contending for the shared caches, memory and the hypervisor. Every timing
// moves with it. The reference is a fixed piece of work that uses no gpufi
// code, so a change to gpufi cannot move it, in two halves of about equal
// time:
//
//   - page churn: drop the pages of a 1 MiB anonymous mapping, touch every
//     page again and read it back, which goes through the kernel's fault
//     and zeroing paths and the memory bus;
//   - a dependent walk along a fixed random cycle through 512 KiB, which
//     stays in the core's own caches and follows its clock.
//
// The benchmark samples it just before every timed campaign and scales that
// campaign's time by its own sample:
//
//   scaled time = measured time * kNominalSeconds / sample just before
//
// Calibration (NOTES.md): with each fixed campaign scaled by its own sample,
// the spread of 30-second medians fell from 0.066 to 0.032. Page churn
// tracked the campaigns' swings best in a noisy stretch, the small walk in
// a quiet one; the sum did best over both.
#pragma once

#include <vector>

#include "common/types.h"

namespace gfi::cbench {

class HostReference {
 public:
  /// About the median sample, in CPU seconds, on the machine the benchmark
  /// was defined on (4-vCPU Intel Xeon VM, 2.1 GHz nominal).
  static constexpr f64 kNominalSeconds = 5.0e-3;

  HostReference();
  ~HostReference();
  HostReference(const HostReference&) = delete;
  HostReference& operator=(const HostReference&) = delete;

  /// Runs the reference once and records its time on both clocks.
  void sample();

  /// Factor that turns a time measured in CPU (or wall) seconds just after
  /// the last sample into one at the reference's nominal speed; 1 before
  /// the first sample.
  [[nodiscard]] f64 cpu_scale() const;
  [[nodiscard]] f64 wall_scale() const;
  /// Median sample so far, process CPU seconds.
  [[nodiscard]] f64 median_cpu_s() const;
  /// Memory the reference keeps resident for the whole run, MiB: the
  /// walk's cycle and the churned mapping (whole again once sample()
  /// returns).
  [[nodiscard]] f64 resident_mb() const;

 private:
  void churn_pages();
  void walk();

  std::vector<u32> cycle_;  ///< cycle_[i] is the slot after i
  void* churn_ = nullptr;   ///< the mapping page churn drops and refaults
  u32 position_ = 0;
  u64 churn_sum_ = 0;  ///< keeps the read-back live
  std::vector<f64> cpu_s_;
  std::vector<f64> wall_s_;
};

}  // namespace gfi::cbench
