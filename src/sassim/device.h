// CUDA-runtime-like device facade: allocation, host<->device copies, and
// kernel launches against one simulated GPU.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sassim/machine_config.h"
#include "sassim/memory.h"
#include "sassim/simulator.h"

namespace gfi::sim {

/// One simulated GPU. Fault-injection campaigns set each worker's Device up
/// once and restore its post-setup snapshot (or resume a launch from a
/// golden-prefix checkpoint) before every injection run, so corrupted state
/// never leaks across runs.
class Device {
 public:
  explicit Device(MachineConfig config)
      : config_(std::move(config)),
        memory_(config_.global_mem_bytes, config_.dram_ecc) {}

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] GlobalMemory& memory() { return memory_; }
  [[nodiscard]] const GlobalMemory& memory() const { return memory_; }

  /// Allocates `count` elements of T; returns the device address.
  template <typename T>
  Result<u64> malloc_n(u64 count) {
    return memory_.allocate(count * sizeof(T));
  }

  /// Typed host -> device copy. Returns a Status (a trap here indicates an
  /// internal error; h2d writes cannot fault in a healthy device).
  template <typename T>
  Status to_device(u64 dst, std::span<const T> host) {
    const TrapKind trap =
        memory_.copy_to_device(dst, host.data(), host.size_bytes());
    if (trap != TrapKind::kNone) {
      return Status::internal(std::string("h2d trap: ") + trap_kind_name(trap));
    }
    return Status::ok();
  }

  /// Typed device -> host copy with ECC read semantics: a pending
  /// double-bit error in the source range surfaces as a trap.
  template <typename T>
  [[nodiscard]] TrapKind to_host(std::span<T> host, u64 src) {
    return memory_.copy_to_host(host.data(), src, host.size_bytes());
  }

  /// Checkpoint of the device's mutable state (global memory, allocation
  /// table, pending upsets, ECC counters). The config is immutable, so a
  /// snapshot + restore round-trip yields a device indistinguishable from
  /// the one at snapshot time; kernels relaunched after restore() replay
  /// bit-identically.
  [[nodiscard]] GlobalMemory::Snapshot snapshot() const {
    return memory_.snapshot();
  }

  void restore(const GlobalMemory::Snapshot& snap) { memory_.restore(snap); }

  /// Launches a kernel.
  Result<LaunchResult> launch(const Program& program, Dim3 grid, Dim3 block,
                              std::span<const u64> params,
                              const LaunchOptions& options = {}) {
    Simulator simulator(config_, memory_, arena_);
    return simulator.launch(program, grid, block, params, options);
  }

 private:
  MachineConfig config_;
  GlobalMemory memory_;
  LaunchArena arena_;  ///< resident CTAs of every launch on this device
};

}  // namespace gfi::sim
