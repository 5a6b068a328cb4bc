// Row-wise softmax (64 rows x 256 cols): shared-memory max-tree, MUFU
// exp2/rcp, sum-tree, normalize — the suite's transformer-inference proxy.
#include "workloads/all.h"

#include "common/bitutil.h"
#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::MinMax;
using sim::MufuKind;
using sim::Operand;
using sim::Program;
using sim::ShiftKind;
using sim::SpecialReg;

constexpr f32 kLog2e = 1.4426950408889634f;

class Softmax final : public Workload {
 public:
  static constexpr u32 kRowsN = 64;
  static constexpr u32 kColsN = 256;

  Softmax()
      : name_("softmax"),
        x_(random_f32(static_cast<std::size_t>(kRowsN) * kColsN, 0x50F7,
                      -4.0f, 4.0f)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<f32>(x_.size());
    auto y = device.malloc_n<f32>(x_.size());
    if (!x.is_ok()) return x.status();
    if (!y.is_ok()) return y.status();
    x_dev_ = x.value();
    y_dev_ = y.value();
    if (auto s = device.to_device<f32>(x_dev_, x_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kColsN);
    spec.grid = Dim3(kRowsN);
    spec.params = {x_dev_, y_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<f32> want(x_.size());
    std::vector<f32> scratch(kColsN);
    for (u32 row = 0; row < kRowsN; ++row) {
      const f32* xr = &x_[row * kColsN];
      // Max tree in the exact shared-memory order.
      for (u32 i = 0; i < kColsN; ++i) scratch[i] = xr[i];
      for (u32 s = kColsN / 2; s > 0; s >>= 1) {
        for (u32 i = 0; i < s; ++i) {
          // fmax_det, not std::fmax: the golden must mirror the kernel's
          // FMNMX bit-for-bit in every build (bitutil.h explains why
          // std::fmax is not compilation-stable).
          scratch[i] = fmax_det(scratch[i], scratch[i + s]);
        }
      }
      const f32 neg_max = scratch[0] * -1.0f;
      std::vector<f32> e(kColsN);
      for (u32 i = 0; i < kColsN; ++i) {
        e[i] = std::exp2((xr[i] + neg_max) * kLog2e);
      }
      for (u32 i = 0; i < kColsN; ++i) scratch[i] = e[i];
      for (u32 s = kColsN / 2; s > 0; s >>= 1) {
        for (u32 i = 0; i < s; ++i) scratch[i] += scratch[i + s];
      }
      const f32 inv = 1.0f / scratch[0];
      for (u32 i = 0; i < kColsN; ++i) want[row * kColsN + i] = e[i] * inv;
    }
    return fetch_and_check<f32>(
        device, y_dev_, want.size(), [&](std::span<const f32> got) {
          return compare_f32(got, want, tolerance());
        });
  }

 private:
  // Emits a shared-memory tree combine; `combine` emits R18 = f(R18, R19).
  void emit_tree(KernelBuilder& b, const std::function<void()>& combine) {
    for (u32 stride = kColsN / 2; stride > 0; stride >>= 1) {
      b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(stride));
      b.if_then(0, false, [&] {
        b.lds(18, 17, 0);
        b.lds(19, 17, static_cast<u64>(stride) * 4);
        combine();
        b.sts(17, 18);
      });
      b.bar();
    }
  }

  Program build() {
    KernelBuilder b("softmax");
    b.set_shared_bytes(kColsN * 4);
    b.s2r(3, SpecialReg::kTidX);    // col
    b.s2r(4, SpecialReg::kCtaidX);  // row
    b.ldc_u64(6, 0);                // x
    b.ldc_u64(8, 1);                // y

    // idx = row * cols + col
    b.imad_u32(10, Operand::reg(4), Operand::imm_u(kColsN), Operand::reg(3));
    b.imad_wide(12, Operand::reg(10), Operand::imm_u(4), Operand::reg(6));
    b.ldg(16, 12);  // x value

    b.shf(ShiftKind::kLeft, 17, Operand::reg(3), Operand::imm_u(2));
    b.sts(17, 16);
    b.bar();
    emit_tree(b, [&] {
      b.fmnmx_f32(18, Operand::reg(18), Operand::reg(19), MinMax::kMax);
    });
    b.mov_u32(20, Operand::imm_u(0));
    b.lds(20, 20);  // row max (shared[0])
    b.bar();        // everyone read the max before the sum tree overwrites

    // e = exp2((x - max) * log2e)
    b.fmul_f32(20, Operand::reg(20), Operand::imm_f32(-1.0f));
    b.fadd_f32(21, Operand::reg(16), Operand::reg(20));
    b.fmul_f32(21, Operand::reg(21), Operand::imm_f32(kLog2e));
    b.mufu(MufuKind::kExp2, 22, Operand::reg(21));

    b.sts(17, 22);
    b.bar();
    emit_tree(b, [&] {
      b.fadd_f32(18, Operand::reg(18), Operand::reg(19));
    });
    b.mov_u32(23, Operand::imm_u(0));
    b.lds(23, 23);  // row sum
    b.mufu(MufuKind::kRcp, 24, Operand::reg(23));
    b.fmul_f32(25, Operand::reg(22), Operand::reg(24));

    b.imad_wide(12, Operand::reg(10), Operand::imm_u(4), Operand::reg(8));
    b.stg(12, 25);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  std::vector<f32> x_;
  u64 x_dev_ = 0, y_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_softmax() { return std::make_unique<Softmax>(); }

}  // namespace gfi::wl
