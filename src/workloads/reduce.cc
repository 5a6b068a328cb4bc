// Reduction workloads:
//  - reduce_u32: integer grid sum (grid-stride partials -> shared-memory
//    tree -> global atomic). Exact, order-free golden check.
//  - dotprod: FP32 dot product using warp shuffle reduction and a global
//    FP32 atomic — exercises SHFL/VOTE-class instructions and float
//    atomics; checked against a double-precision reference with tolerance.
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::AtomKind;
using sim::CmpOp;
using sim::Device;
using sim::DType;
using sim::KernelBuilder;
using sim::Operand;
using sim::Program;
using sim::ShflKind;
using sim::ShiftKind;
using sim::SpecialReg;

class ReduceU32 final : public Workload {
 public:
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = 8;
  static constexpr u32 kPerThread = 8;

  ReduceU32()
      : name_("reduce_u32"),
        n_(kBlock * kGrid * kPerThread),
        x_(random_u32(n_, 0x5EED, 1u << 16)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<u32>(n_);
    auto out = device.malloc_n<u32>(1);
    if (!x.is_ok()) return x.status();
    if (!out.is_ok()) return out.status();
    x_dev_ = x.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<u32>(x_dev_, x_); !s.is_ok()) return s;
    const u32 zero = 0;
    if (auto s =
            device.to_device<u32>(out_dev_, std::span<const u32>(&zero, 1));
        !s.is_ok()) {
      return s;
    }

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {x_dev_, out_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    u32 want = 0;
    for (u32 v : x_) want += v;
    std::vector<u32> expect = {want};
    return fetch_and_check<u32>(
        device, out_dev_, 1,
        [&](std::span<const u32> got) { return compare_u32(got, expect); });
  }

 private:
  Program build() {
    KernelBuilder b("reduce_u32");
    emit_global_tid_x(b, 0);          // R0 = gid (clobbers R1, R2)
    b.s2r(3, SpecialReg::kTidX);      // R3 = tid
    b.s2r(1, SpecialReg::kNtidX);
    b.s2r(2, SpecialReg::kNctaidX);
    b.imul_u32(4, Operand::reg(1), Operand::reg(2));  // R4 = total threads
    b.ldc_u64(6, 0);                  // x
    b.ldc_u64(8, 1);                  // out

    // Grid-stride partial sum (uniform trip count).
    b.mov_u32(10, Operand::imm_u(0));
    b.mov_u32(11, Operand::imm_u(0));
    b.uniform_loop(11, Operand::imm_u(kPerThread), 1, [&] {
      b.imad_u32(12, Operand::reg(11), Operand::reg(4), Operand::reg(0));
      b.imad_wide(14, Operand::reg(12), Operand::imm_u(4), Operand::reg(6));
      b.ldg(16, 14);
      b.iadd_u32(10, Operand::reg(10), Operand::reg(16));
    });

    // Shared-memory tree reduction.
    b.set_shared_bytes(kBlock * 4);
    b.shf(ShiftKind::kLeft, 17, Operand::reg(3), Operand::imm_u(2));
    b.sts(17, 10);
    b.bar();
    for (u32 stride = kBlock / 2; stride > 0; stride >>= 1) {
      b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(stride));
      b.if_then(0, false, [&] {
        b.lds(18, 17, 0);
        b.lds(19, 17, static_cast<u64>(stride) * 4);
        b.iadd_u32(18, Operand::reg(18), Operand::reg(19));
        b.sts(17, 18);
      });
      b.bar();
    }

    // Thread 0 accumulates the block's partial into the global result.
    b.isetp(CmpOp::kEq, 0, Operand::reg(3), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.lds(18, 17, 0);
      b.atomg(AtomKind::kAdd, sim::kRegZ, 8, Operand::reg(18));
    });
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<u32> x_;
  u64 x_dev_ = 0, out_dev_ = 0;
  Program program_;
};

class DotProd final : public Workload {
 public:
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = 4;
  static constexpr u32 kPerThread = 4;

  DotProd()
      : name_("dotprod"),
        n_(kBlock * kGrid * kPerThread),
        x_(random_f32(n_, 0xD07, -0.5f, 0.5f)),
        y_(random_f32(n_, 0xFEED, -0.5f, 0.5f)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-3; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<f32>(n_);
    auto y = device.malloc_n<f32>(n_);
    auto out = device.malloc_n<f32>(1);
    if (!x.is_ok()) return x.status();
    if (!y.is_ok()) return y.status();
    if (!out.is_ok()) return out.status();
    x_dev_ = x.value();
    y_dev_ = y.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<f32>(x_dev_, x_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(y_dev_, y_); !s.is_ok()) return s;
    const f32 zero = 0.0f;
    if (auto s =
            device.to_device<f32>(out_dev_, std::span<const f32>(&zero, 1));
        !s.is_ok()) {
      return s;
    }

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {x_dev_, y_dev_, out_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    f64 sum = 0.0;
    for (u32 i = 0; i < n_; ++i) {
      sum += static_cast<f64>(x_[i]) * static_cast<f64>(y_[i]);
    }
    std::vector<f32> want = {static_cast<f32>(sum)};
    return fetch_and_check<f32>(
        device, out_dev_, 1, [&](std::span<const f32> got) {
          return compare_f32(got, want, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("dotprod");
    emit_global_tid_x(b, 0);          // R0 = gid
    b.s2r(3, SpecialReg::kLaneId);
    b.s2r(1, SpecialReg::kNtidX);
    b.s2r(2, SpecialReg::kNctaidX);
    b.imul_u32(4, Operand::reg(1), Operand::reg(2));  // total threads
    b.ldc_u64(6, 0);   // x
    b.ldc_u64(8, 1);   // y
    b.ldc_u64(10, 2);  // out

    b.mov_f32(12, 0.0f);  // partial
    b.mov_u32(13, Operand::imm_u(0));
    b.uniform_loop(13, Operand::imm_u(kPerThread), 1, [&] {
      b.imad_u32(14, Operand::reg(13), Operand::reg(4), Operand::reg(0));
      b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(6));
      b.ldg(20, 16);
      b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(8));
      b.ldg(21, 16);
      b.ffma_f32(12, Operand::reg(20), Operand::reg(21), Operand::reg(12));
    });

    // Warp-level butterfly reduction via SHFL.DOWN.
    for (u32 delta = 16; delta > 0; delta >>= 1) {
      b.shfl(ShflKind::kDown, 22, 12, Operand::imm_u(delta));
      b.fadd_f32(12, Operand::reg(12), Operand::reg(22));
    }

    // Lane 0 of each warp contributes via a global FP32 atomic add.
    b.isetp(CmpOp::kEq, 0, Operand::reg(3), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.atomg(AtomKind::kAdd, sim::kRegZ, 10, Operand::reg(12),
              Operand::none(), DType::kF32);
    });
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<f32> x_;
  std::vector<f32> y_;
  u64 x_dev_ = 0, y_dev_ = 0, out_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_reduce_u32() {
  return std::make_unique<ReduceU32>();
}
std::unique_ptr<Workload> make_dotprod() { return std::make_unique<DotProd>(); }

}  // namespace gfi::wl
