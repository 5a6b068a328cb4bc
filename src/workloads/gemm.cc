// SIMT GEMM: C = A * B in FP32, one thread per output element, sequential
// k-loop of FFMAs — the canonical dense dataflow kernel and the workload
// with the highest SDC exposure in every GPU fault-injection study.
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

class Gemm final : public Workload {
 public:
  Gemm()
      : name_("gemm"),
        m_(48),
        n_(48),
        k_(48),
        a_(random_f32(static_cast<std::size_t>(m_) * k_, 0xAAAA)),
        b_(random_f32(static_cast<std::size_t>(k_) * n_, 0xBBBB)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto a = device.malloc_n<f32>(a_.size());
    auto b = device.malloc_n<f32>(b_.size());
    auto c = device.malloc_n<f32>(static_cast<u64>(m_) * n_);
    if (!a.is_ok()) return a.status();
    if (!b.is_ok()) return b.status();
    if (!c.is_ok()) return c.status();
    a_dev_ = a.value();
    b_dev_ = b.value();
    c_dev_ = c.value();
    if (auto s = device.to_device<f32>(a_dev_, a_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(b_dev_, b_); !s.is_ok()) return s;

    // The host reference, once per instance: check() runs per injection.
    want_.assign(static_cast<std::size_t>(m_) * n_, 0.0f);
    for (u32 row = 0; row < m_; ++row) {
      for (u32 col = 0; col < n_; ++col) {
        f32 acc = 0.0f;
        for (u32 k = 0; k < k_; ++k) {
          acc = std::fmaf(a_[row * k_ + k], b_[k * n_ + col], acc);
        }
        want_[row * n_ + col] = acc;
      }
    }

    LaunchSpec spec;
    spec.block = Dim3(16, 16);
    spec.grid = Dim3((n_ + 15) / 16, (m_ + 15) / 16);
    spec.params = {a_dev_, b_dev_, c_dev_, m_, n_, k_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    return fetch_and_check<f32>(
        device, c_dev_, want_.size(), [&](std::span<const f32> got) {
          return compare_f32(got, want_, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("gemm");
    // col = ctaid.x * ntid.x + tid.x ; row = ctaid.y * ntid.y + tid.y
    b.s2r(0, SpecialReg::kTidX);
    b.s2r(1, SpecialReg::kCtaidX);
    b.s2r(2, SpecialReg::kNtidX);
    b.imad_u32(4, Operand::reg(1), Operand::reg(2), Operand::reg(0));  // col
    b.s2r(0, SpecialReg::kTidY);
    b.s2r(1, SpecialReg::kCtaidY);
    b.s2r(2, SpecialReg::kNtidY);
    b.imad_u32(5, Operand::reg(1), Operand::reg(2), Operand::reg(0));  // row

    b.ldc_u32(6, 3);  // M
    b.ldc_u32(7, 4);  // N
    b.ldc_u32(8, 5);  // K
    b.isetp(CmpOp::kGe, 0, Operand::reg(5), Operand::reg(6));
    b.exit_if(0);
    b.isetp(CmpOp::kGe, 0, Operand::reg(4), Operand::reg(7));
    b.exit_if(0);

    b.ldc_u64(10, 0);  // A
    b.ldc_u64(12, 1);  // B
    b.ldc_u64(14, 2);  // C

    b.mov_f32(24, 0.0f);                                   // acc
    b.imul_u32(26, Operand::reg(5), Operand::reg(8));      // row * K
    b.mov_u32(16, Operand::imm_u(0));                      // k = 0
    b.uniform_loop(16, Operand::reg(8), 1, [&] {
      // a = A[row*K + k]
      b.iadd_u32(27, Operand::reg(26), Operand::reg(16));
      b.imad_wide(18, Operand::reg(27), Operand::imm_u(4), Operand::reg(10));
      b.ldg(22, 18);
      // bv = B[k*N + col]
      b.imad_u32(27, Operand::reg(16), Operand::reg(7), Operand::reg(4));
      b.imad_wide(20, Operand::reg(27), Operand::imm_u(4), Operand::reg(12));
      b.ldg(23, 20);
      b.ffma_f32(24, Operand::reg(22), Operand::reg(23), Operand::reg(24));
    });

    // C[row*N + col] = acc
    b.imad_u32(27, Operand::reg(5), Operand::reg(7), Operand::reg(4));
    b.imad_wide(18, Operand::reg(27), Operand::imm_u(4), Operand::reg(14));
    b.stg(18, 24);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 m_, n_, k_;
  std::vector<f32> a_;
  std::vector<f32> b_;
  std::vector<f32> want_;  ///< host reference, computed by setup()
  u64 a_dev_ = 0, b_dev_ = 0, c_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_gemm() { return std::make_unique<Gemm>(); }

}  // namespace gfi::wl
