// 5-point Jacobi stencil sweep in FP64 — the suite's double-precision HPC
// proxy (register pairs, 8-byte loads/stores, FP64 arithmetic group).
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
using sim::SpecialReg;

class Stencil final : public Workload {
 public:
  Stencil()
      : name_("stencil"), width_(64), height_(64), program_(build()) {
    Rng rng(0x57E4C11);
    input_.resize(static_cast<std::size_t>(width_) * height_);
    for (auto& v : input_) v = rng.next_double() * 2.0 - 1.0;
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-12; }

  Result<LaunchSpec> setup(Device& device) override {
    auto in = device.malloc_n<f64>(input_.size());
    auto out = device.malloc_n<f64>(input_.size());
    if (!in.is_ok()) return in.status();
    if (!out.is_ok()) return out.status();
    in_dev_ = in.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<f64>(in_dev_, input_); !s.is_ok()) return s;
    // Borders are copied through; the kernel rewrites the interior.
    if (auto s = device.to_device<f64>(out_dev_, input_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(16, 16);
    spec.grid = Dim3((width_ - 2 + 15) / 16, (height_ - 2 + 15) / 16);
    spec.params = {in_dev_, out_dev_, width_, height_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<f64> want = input_;
    for (u32 y = 1; y + 1 < height_; ++y) {
      for (u32 x = 1; x + 1 < width_; ++x) {
        const f64 up = input_[(y - 1) * width_ + x];
        const f64 down = input_[(y + 1) * width_ + x];
        const f64 left = input_[y * width_ + x - 1];
        const f64 right = input_[y * width_ + x + 1];
        want[y * width_ + x] = ((up + down) + (left + right)) * 0.25;
      }
    }
    return fetch_and_check<f64>(
        device, out_dev_, want.size(), [&](std::span<const f64> got) {
          return compare_f64(got, want, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("stencil");
    b.s2r(0, SpecialReg::kTidX);
    b.s2r(1, SpecialReg::kCtaidX);
    b.s2r(2, SpecialReg::kNtidX);
    b.imad_u32(4, Operand::reg(1), Operand::reg(2), Operand::reg(0));
    b.s2r(0, SpecialReg::kTidY);
    b.s2r(1, SpecialReg::kCtaidY);
    b.s2r(2, SpecialReg::kNtidY);
    b.imad_u32(5, Operand::reg(1), Operand::reg(2), Operand::reg(0));
    b.iadd_u32(4, Operand::reg(4), Operand::imm_u(1));  // x in [1, W-1)
    b.iadd_u32(5, Operand::reg(5), Operand::imm_u(1));  // y in [1, H-1)

    b.ldc_u32(6, 2);  // W
    b.ldc_u32(7, 3);  // H
    b.iadd_u32(8, Operand::reg(6), Operand::imm_u(0xFFFFFFFFu));  // W-1
    b.iadd_u32(9, Operand::reg(7), Operand::imm_u(0xFFFFFFFFu));  // H-1
    b.isetp(CmpOp::kGe, 0, Operand::reg(4), Operand::reg(8));
    b.exit_if(0);
    b.isetp(CmpOp::kGe, 0, Operand::reg(5), Operand::reg(9));
    b.exit_if(0);

    b.ldc_u64(10, 0);  // in
    b.ldc_u64(12, 1);  // out

    b.imad_u32(14, Operand::reg(5), Operand::reg(6), Operand::reg(4));  // idx
    // Neighbour loads (FP64, register pairs).
    auto load_at = [&](u16 dst_pair, i64 delta) {
      b.iadd_u32(15, Operand::reg(14),
                 Operand::imm_u(static_cast<u64>(static_cast<i64>(delta)) &
                                0xffffffffu));
      b.imad_wide(16, Operand::reg(15), Operand::imm_u(8), Operand::reg(10));
      b.ldg(dst_pair, 16, 0, 8);
    };
    // up = idx - W
    b.imul_u32(17, Operand::reg(6), Operand::imm_u(0xFFFFFFFFu));  // -W
    b.iadd_u32(15, Operand::reg(14), Operand::reg(17));
    b.imad_wide(16, Operand::reg(15), Operand::imm_u(8), Operand::reg(10));
    b.ldg(20, 16, 0, 8);
    // down = idx + W
    b.iadd_u32(15, Operand::reg(14), Operand::reg(6));
    b.imad_wide(16, Operand::reg(15), Operand::imm_u(8), Operand::reg(10));
    b.ldg(22, 16, 0, 8);
    // left / right
    load_at(24, -1);
    load_at(26, +1);

    // ((up + down) + (left + right)) * 0.25
    b.fadd_f64(28, Operand::reg(20), Operand::reg(22));
    b.fadd_f64(30, Operand::reg(24), Operand::reg(26));
    b.fadd_f64(28, Operand::reg(28), Operand::reg(30));
    b.mov_u64(32, f64_bits(0.25));
    b.fmul_f64(28, Operand::reg(28), Operand::reg(32));

    b.imad_wide(16, Operand::reg(14), Operand::imm_u(8), Operand::reg(12));
    b.stg(16, 28, 0, 8);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 width_, height_;
  std::vector<f64> input_;
  u64 in_dev_ = 0, out_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_stencil() { return std::make_unique<Stencil>(); }

}  // namespace gfi::wl
