// Row-wise LayerNorm (64 rows x 256 cols): mean and variance via
// shared-memory sum trees, normalization via MUFU rsqrt — the second
// transformer-layer proxy, with two dependent reductions per row.
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::MufuKind;
using sim::Operand;
using sim::Program;
using sim::ShiftKind;
using sim::SpecialReg;

constexpr f32 kEps = 1e-5f;

class LayerNorm final : public Workload {
 public:
  static constexpr u32 kRowsN = 64;
  static constexpr u32 kColsN = 256;

  LayerNorm()
      : name_("layernorm"),
        x_(random_f32(static_cast<std::size_t>(kRowsN) * kColsN, 0x7A9E,
                      -2.0f, 2.0f)),
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
    constexpr f32 kInvN = 1.0f / kColsN;
    std::vector<f32> want(x_.size());
    std::vector<f32> scratch(kColsN);
    auto tree_sum = [&](const std::vector<f32>& values) {
      for (u32 i = 0; i < kColsN; ++i) scratch[i] = values[i];
      for (u32 s = kColsN / 2; s > 0; s >>= 1) {
        for (u32 i = 0; i < s; ++i) scratch[i] += scratch[i + s];
      }
      return scratch[0];
    };
    std::vector<f32> row(kColsN);
    std::vector<f32> sq(kColsN);
    for (u32 r = 0; r < kRowsN; ++r) {
      for (u32 i = 0; i < kColsN; ++i) row[i] = x_[r * kColsN + i];
      const f32 mean = tree_sum(row) * kInvN;
      const f32 neg_mean = mean * -1.0f;
      std::vector<f32> diff(kColsN);
      for (u32 i = 0; i < kColsN; ++i) {
        diff[i] = row[i] + neg_mean;
        sq[i] = diff[i] * diff[i];
      }
      const f32 var = tree_sum(sq) * kInvN;
      const f32 rstd = 1.0f / std::sqrt(var + kEps);
      for (u32 i = 0; i < kColsN; ++i) {
        want[r * kColsN + i] = diff[i] * rstd;
      }
    }
    return fetch_and_check<f32>(
        device, y_dev_, want.size(), [&](std::span<const f32> got) {
          return compare_f32(got, want, tolerance());
        });
  }

 private:
  void emit_sum_tree(KernelBuilder& b) {
    for (u32 stride = kColsN / 2; stride > 0; stride >>= 1) {
      b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(stride));
      b.if_then(0, false, [&] {
        b.lds(18, 17, 0);
        b.lds(19, 17, static_cast<u64>(stride) * 4);
        b.fadd_f32(18, Operand::reg(18), Operand::reg(19));
        b.sts(17, 18);
      });
      b.bar();
    }
  }

  Program build() {
    KernelBuilder b("layernorm");
    b.set_shared_bytes(kColsN * 4);
    b.s2r(3, SpecialReg::kTidX);    // col
    b.s2r(4, SpecialReg::kCtaidX);  // row
    b.ldc_u64(6, 0);                // x
    b.ldc_u64(8, 1);                // y

    b.imad_u32(10, Operand::reg(4), Operand::imm_u(kColsN), Operand::reg(3));
    b.imad_wide(12, Operand::reg(10), Operand::imm_u(4), Operand::reg(6));
    b.ldg(16, 12);

    b.shf(ShiftKind::kLeft, 17, Operand::reg(3), Operand::imm_u(2));
    b.sts(17, 16);
    b.bar();
    emit_sum_tree(b);
    b.mov_u32(20, Operand::imm_u(0));
    b.lds(20, 20);  // row sum
    b.bar();
    b.fmul_f32(20, Operand::reg(20), Operand::imm_f32(1.0f / kColsN));  // mean
    b.fmul_f32(20, Operand::reg(20), Operand::imm_f32(-1.0f));
    b.fadd_f32(21, Operand::reg(16), Operand::reg(20));  // diff
    b.fmul_f32(22, Operand::reg(21), Operand::reg(21));  // diff^2

    b.sts(17, 22);
    b.bar();
    emit_sum_tree(b);
    b.mov_u32(23, Operand::imm_u(0));
    b.lds(23, 23);  // sum of squares
    b.fmul_f32(23, Operand::reg(23), Operand::imm_f32(1.0f / kColsN));  // var
    b.fadd_f32(23, Operand::reg(23), Operand::imm_f32(kEps));
    b.mufu(MufuKind::kRsq, 24, Operand::reg(23));  // 1/sqrt(var+eps)
    b.fmul_f32(25, Operand::reg(21), Operand::reg(24));

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

std::unique_ptr<Workload> make_layernorm() {
  return std::make_unique<LayerNorm>();
}

}  // namespace gfi::wl
