// Workload abstraction: a kernel plus deterministic inputs and a CPU
// reference check. Campaigns treat workloads as black boxes with a
// setup -> launch -> check lifecycle, mirroring how NVBitFI wraps benchmark
// binaries.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sassim/device.h"

namespace gfi::wl {

/// Everything a launch needs: geometry and kernel parameters.
struct LaunchSpec {
  Dim3 grid;
  Dim3 block;
  std::vector<u64> params;
};

/// Output comparison against the CPU reference.
struct CheckResult {
  bool bitwise_equal = false;     ///< outputs match the reference exactly
  bool within_tolerance = false;  ///< mismatch small enough to be benign
  f64 max_rel_err = 0.0;          ///< worst relative error observed

  /// The classification campaigns use: an SDC is a mismatch beyond
  /// tolerance.
  [[nodiscard]] bool passed() const { return within_tolerance; }
};

/// One benchmark kernel with deterministic inputs and a golden check.
///
/// Set up once: construct, setup(device), then launch from the returned
/// spec and check(device) as often as needed. check() is repeatable after
/// Device::restore: it reads only the device and the instance's inputs (it
/// is const), so a campaign worker restores its post-setup snapshot, or
/// resumes a launch from a golden-prefix checkpoint, and checks again.
/// Construction and the CPU reference must be deterministic (seeded) so
/// every injection run of a campaign sees identical inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual const sim::Program& program() const = 0;

  /// Allocates device buffers and uploads inputs; returns the launch spec.
  virtual Result<LaunchSpec> setup(sim::Device& device) = 0;

  /// Copies outputs back and compares against the CPU reference. The
  /// returned Status is non-OK only on harness errors; an ECC trap during
  /// the copy-back is reported through `trap`.
  struct Checked {
    sim::TrapKind trap = sim::TrapKind::kNone;  ///< d2h ECC trap, if any
    CheckResult result;
  };
  virtual Result<Checked> check(sim::Device& device) const = 0;

  /// Relative-error tolerance for within_tolerance (0 = exact match only).
  [[nodiscard]] virtual f64 tolerance() const { return 0.0; }
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Global registry (populated at static-init time by each workload TU).
void register_workload(const std::string& name, WorkloadFactory factory);
[[nodiscard]] std::vector<std::string> workload_names();
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

/// Helper used by workload TUs for self-registration.
struct Registrar {
  Registrar(const std::string& name, WorkloadFactory factory) {
    register_workload(name, std::move(factory));
  }
};

}  // namespace gfi::wl
