// Element-wise streaming kernels: vecadd (c = a + b) and saxpy
// (y = alpha * x + y). The simplest dataflow workloads in the suite —
// dominated by LDG/FADD-or-FFMA/STG with one bounds compare.
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::CmpOp;
using sim::Device;
using sim::DType;
using sim::KernelBuilder;
using sim::Operand;
using sim::Program;
using sim::SpecialReg;

class VecAdd final : public Workload {
 public:
  VecAdd()
      : name_("vecadd"),
        n_(1u << 14),
        a_(random_f32(n_, 0xA11CE)),
        b_(random_f32(n_, 0xB0B)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto a = device.malloc_n<f32>(n_);
    auto b = device.malloc_n<f32>(n_);
    auto c = device.malloc_n<f32>(n_);
    if (!a.is_ok()) return a.status();
    if (!b.is_ok()) return b.status();
    if (!c.is_ok()) return c.status();
    a_dev_ = a.value();
    b_dev_ = b.value();
    c_dev_ = c.value();
    if (auto s = device.to_device<f32>(a_dev_, a_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(b_dev_, b_); !s.is_ok()) return s;

    // The host reference, once per instance: check() runs per injection.
    want_.resize(n_);
    for (u32 i = 0; i < n_; ++i) want_[i] = a_[i] + b_[i];

    LaunchSpec spec;
    spec.block = Dim3(256);
    spec.grid = Dim3((n_ + 255) / 256);
    spec.params = {a_dev_, b_dev_, c_dev_, n_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    return fetch_and_check<f32>(
        device, c_dev_, n_, [&](std::span<const f32> got) {
          return compare_f32(got, want_, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("vecadd");
    emit_global_tid_x(b, 0);                       // R0 = gid
    b.ldc_u32(3, 3);                               // R3 = n
    b.isetp(CmpOp::kGe, 0, Operand::reg(0), Operand::reg(3));
    b.exit_if(0);
    b.ldc_u64(4, 0);                               // R4:R5 = a
    b.ldc_u64(6, 1);                               // R6:R7 = b
    b.ldc_u64(8, 2);                               // R8:R9 = c
    b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.imad_wide(12, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
    b.imad_wide(14, Operand::reg(0), Operand::imm_u(4), Operand::reg(8));
    b.ldg(16, 10);
    b.ldg(17, 12);
    b.fadd_f32(18, Operand::reg(16), Operand::reg(17));
    b.stg(14, 18);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<f32> a_;
  std::vector<f32> b_;
  std::vector<f32> want_;  ///< host reference, computed by setup()
  u64 a_dev_ = 0, b_dev_ = 0, c_dev_ = 0;
  Program program_;
};

class Saxpy final : public Workload {
 public:
  Saxpy()
      : name_("saxpy"),
        n_(1u << 14),
        alpha_(1.75f),
        x_(random_f32(n_, 0x5AE9)),
        y_(random_f32(n_, 0x1234)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<f32>(n_);
    auto y = device.malloc_n<f32>(n_);
    if (!x.is_ok()) return x.status();
    if (!y.is_ok()) return y.status();
    x_dev_ = x.value();
    y_dev_ = y.value();
    if (auto s = device.to_device<f32>(x_dev_, x_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(y_dev_, y_); !s.is_ok()) return s;

    // The host reference, once per instance: check() runs per injection.
    want_.resize(n_);
    for (u32 i = 0; i < n_; ++i) want_[i] = std::fmaf(alpha_, x_[i], y_[i]);

    LaunchSpec spec;
    spec.block = Dim3(256);
    spec.grid = Dim3((n_ + 255) / 256);
    spec.params = {x_dev_, y_dev_, n_, static_cast<u64>(f32_bits(alpha_))};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    return fetch_and_check<f32>(
        device, y_dev_, n_, [&](std::span<const f32> got) {
          return compare_f32(got, want_, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("saxpy");
    emit_global_tid_x(b, 0);                       // R0 = gid
    b.ldc_u32(3, 2);                               // R3 = n
    b.isetp(CmpOp::kGe, 0, Operand::reg(0), Operand::reg(3));
    b.exit_if(0);
    b.ldc_u64(4, 0);                               // x
    b.ldc_u64(6, 1);                               // y
    b.ldc_u32(8, 3);                               // alpha bits
    b.imad_wide(10, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.imad_wide(12, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
    b.ldg(16, 10);                                 // x[i]
    b.ldg(17, 12);                                 // y[i]
    b.ffma_f32(18, Operand::reg(8), Operand::reg(16), Operand::reg(17));
    b.stg(12, 18);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  f32 alpha_;
  std::vector<f32> x_;
  std::vector<f32> y_;
  std::vector<f32> want_;  ///< host reference, computed by setup()
  u64 x_dev_ = 0, y_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_vecadd() { return std::make_unique<VecAdd>(); }
std::unique_ptr<Workload> make_saxpy() { return std::make_unique<Saxpy>(); }

}  // namespace gfi::wl
