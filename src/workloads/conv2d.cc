// 2D convolution (3x3, "valid" padding) in FP32 — one thread per output
// pixel, fully unrolled taps. Representative of image/CNN inference layers.
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

constexpr f32 kWeights[3][3] = {
    {0.0625f, 0.125f, 0.0625f},
    {0.125f, 0.25f, 0.125f},
    {0.0625f, 0.125f, 0.0625f},
};

class Conv2d final : public Workload {
 public:
  Conv2d()
      : name_("conv2d"),
        width_(64),
        height_(64),
        input_(random_f32(static_cast<std::size_t>(width_) * height_, 0xC04)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    const u32 ow = width_ - 2;
    const u32 oh = height_ - 2;
    auto in = device.malloc_n<f32>(input_.size());
    auto out = device.malloc_n<f32>(static_cast<u64>(ow) * oh);
    if (!in.is_ok()) return in.status();
    if (!out.is_ok()) return out.status();
    in_dev_ = in.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<f32>(in_dev_, input_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(16, 16);
    spec.grid = Dim3((ow + 15) / 16, (oh + 15) / 16);
    spec.params = {in_dev_, out_dev_, width_, height_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    const u32 ow = width_ - 2;
    const u32 oh = height_ - 2;
    std::vector<f32> want(static_cast<std::size_t>(ow) * oh);
    for (u32 oy = 0; oy < oh; ++oy) {
      for (u32 ox = 0; ox < ow; ++ox) {
        f32 acc = 0.0f;
        for (u32 dy = 0; dy < 3; ++dy) {
          for (u32 dx = 0; dx < 3; ++dx) {
            acc = std::fmaf(input_[(oy + dy) * width_ + ox + dx],
                            kWeights[dy][dx], acc);
          }
        }
        want[oy * ow + ox] = acc;
      }
    }
    return fetch_and_check<f32>(
        device, out_dev_, want.size(), [&](std::span<const f32> got) {
          return compare_f32(got, want, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("conv2d");
    // ox / oy
    b.s2r(0, SpecialReg::kTidX);
    b.s2r(1, SpecialReg::kCtaidX);
    b.s2r(2, SpecialReg::kNtidX);
    b.imad_u32(4, Operand::reg(1), Operand::reg(2), Operand::reg(0));  // ox
    b.s2r(0, SpecialReg::kTidY);
    b.s2r(1, SpecialReg::kCtaidY);
    b.s2r(2, SpecialReg::kNtidY);
    b.imad_u32(5, Operand::reg(1), Operand::reg(2), Operand::reg(0));  // oy

    b.ldc_u32(6, 2);  // W
    b.ldc_u32(7, 3);  // H
    b.iadd_u32(8, Operand::reg(6), Operand::imm_u(0xFFFFFFFEu));  // OW = W-2
    b.iadd_u32(9, Operand::reg(7), Operand::imm_u(0xFFFFFFFEu));  // OH = H-2
    b.isetp(CmpOp::kGe, 0, Operand::reg(4), Operand::reg(8));
    b.exit_if(0);
    b.isetp(CmpOp::kGe, 0, Operand::reg(5), Operand::reg(9));
    b.exit_if(0);

    b.ldc_u64(10, 0);  // input
    b.ldc_u64(12, 1);  // output

    b.mov_f32(14, 0.0f);  // acc
    for (u32 dy = 0; dy < 3; ++dy) {
      for (u32 dx = 0; dx < 3; ++dx) {
        b.iadd_u32(15, Operand::reg(5), Operand::imm_u(dy));   // iy
        b.iadd_u32(16, Operand::reg(4), Operand::imm_u(dx));   // ix
        b.imad_u32(15, Operand::reg(15), Operand::reg(6), Operand::reg(16));
        b.imad_wide(18, Operand::reg(15), Operand::imm_u(4), Operand::reg(10));
        b.ldg(17, 18);
        b.ffma_f32(14, Operand::reg(17), Operand::imm_f32(kWeights[dy][dx]),
                   Operand::reg(14));
      }
    }

    b.imad_u32(15, Operand::reg(5), Operand::reg(8), Operand::reg(4));
    b.imad_wide(18, Operand::reg(15), Operand::imm_u(4), Operand::reg(12));
    b.stg(18, 14);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 width_, height_;
  std::vector<f32> input_;
  u64 in_dev_ = 0, out_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_conv2d() { return std::make_unique<Conv2d>(); }

}  // namespace gfi::wl
