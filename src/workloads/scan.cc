// Segmented inclusive prefix sum (Hillis-Steele in shared memory): each
// 256-element segment is scanned by one CTA. Heavy on LDS/STS, barriers,
// and per-step divergent guards.
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::Program;
using sim::ShiftKind;
using sim::SpecialReg;

class Scan final : public Workload {
 public:
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = 16;

  Scan()
      : name_("scan"),
        n_(kBlock * kGrid),
        x_(random_u32(n_, 0x5CA9, 1000)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<u32>(n_);
    auto y = device.malloc_n<u32>(n_);
    if (!x.is_ok()) return x.status();
    if (!y.is_ok()) return y.status();
    x_dev_ = x.value();
    y_dev_ = y.value();
    if (auto s = device.to_device<u32>(x_dev_, x_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {x_dev_, y_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<u32> want(n_);
    for (u32 seg = 0; seg < kGrid; ++seg) {
      u32 running = 0;
      for (u32 i = 0; i < kBlock; ++i) {
        running += x_[seg * kBlock + i];
        want[seg * kBlock + i] = running;
      }
    }
    return fetch_and_check<u32>(
        device, y_dev_, n_,
        [&](std::span<const u32> got) { return compare_u32(got, want); });
  }

 private:
  Program build() {
    KernelBuilder b("scan");
    b.set_shared_bytes(kBlock * 4);
    emit_global_tid_x(b, 0);      // R0 = gid
    b.s2r(3, SpecialReg::kTidX);  // R3 = tid
    b.ldc_u64(6, 0);              // x
    b.ldc_u64(8, 1);              // y

    b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
    b.ldg(16, 10);                                        // running value
    b.shf(ShiftKind::kLeft, 17, Operand::reg(3), Operand::imm_u(2));
    // R18 (the neighbour value) is loaded and consumed under the same @P0
    // guard each step; a path-insensitive analysis cannot correlate the two
    // guards, so define it up front (zero matches the launch-time state).
    b.mov_u32(18, Operand::imm_u(0));
    b.sts(17, 16);
    b.bar();

    for (u32 dist = 1; dist < kBlock; dist <<= 1) {
      // Read the neighbour before anyone overwrites it this step.
      b.isetp(CmpOp::kGe, 0, Operand::reg(3), Operand::imm_u(dist));
      b.if_then(0, false, [&] {
        const u64 back = static_cast<u64>(-static_cast<i64>(dist) * 4);
        b.iadd_u32(19, Operand::reg(17), Operand::imm_u(back & 0xffffffffu));
        b.lds(18, 19);
      });
      b.bar();
      b.if_then(0, false, [&] {
        b.iadd_u32(16, Operand::reg(16), Operand::reg(18));
      });
      b.sts(17, 16);
      b.bar();
    }

    b.imad_wide(12, Operand::reg(0), Operand::imm_u(4), Operand::reg(8));
    b.stg(12, 16);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<u32> x_;
  u64 x_dev_ = 0, y_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_scan() { return std::make_unique<Scan>(); }

}  // namespace gfi::wl
