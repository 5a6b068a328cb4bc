// Tensor-core GEMM: each warp computes one 16x8 C tile through m16n8k8
// HMMA instructions with TF32 input rounding, accumulating over K in chunks
// of 8. The contrast workload for SIMT-vs-tensor-core resilience (R-F5).
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::LopKind;
using sim::Operand;
using sim::Program;
using sim::ShiftKind;
using sim::SpecialReg;

class GemmHmma final : public Workload {
 public:
  GemmHmma()
      : name_("gemm_hmma"),
        m_(32),
        n_(32),
        k_(32),
        a_(random_f32(static_cast<std::size_t>(m_) * k_, 0xCAFE)),
        b_(random_f32(static_cast<std::size_t>(k_) * n_, 0xF00D)),
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

    LaunchSpec spec;
    spec.block = Dim3(32);                    // one warp per CTA
    spec.grid = Dim3(n_ / 8, m_ / 16);        // one 16x8 tile per warp
    spec.params = {a_dev_, b_dev_, c_dev_, m_, n_, k_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    const bool tf32 = device.config().tensor_core_tf32;
    auto in = [&](f32 v) { return tf32 ? to_tf32(v) : v; };
    std::vector<f32> want(static_cast<std::size_t>(m_) * n_);
    // Chunk-major accumulation replicates the HMMA sequence bit-for-bit.
    for (u32 row = 0; row < m_; ++row) {
      for (u32 col = 0; col < n_; ++col) {
        f32 acc = 0.0f;
        for (u32 k0 = 0; k0 < k_; k0 += 8) {
          for (u32 kk = 0; kk < 8; ++kk) {
            acc = std::fmaf(in(a_[row * k_ + k0 + kk]),
                            in(b_[(k0 + kk) * n_ + col]), acc);
          }
        }
        want[row * n_ + col] = acc;
      }
    }
    return fetch_and_check<f32>(
        device, c_dev_, want.size(), [&](std::span<const f32> got) {
          return compare_f32(got, want, tolerance());
        });
  }

 private:
  // Register map:
  //   R0 lane | R1 tile_n (ctaid.x) | R2 tile_m (ctaid.y)
  //   R4 N | R5 K | R6:7 A | R8:9 B | R10:11 C
  //   R12 k0 | R13..17 scratch | R18:19 address
  //   R20..23 C/D fragment | R24..27 A fragment | R28..29 B fragment
  //   R30 chunk counter | R31 chunk bound
  Program build() {
    KernelBuilder b("gemm_hmma");
    b.s2r(0, SpecialReg::kLaneId);
    b.s2r(1, SpecialReg::kCtaidX);
    b.s2r(2, SpecialReg::kCtaidY);
    b.ldc_u32(4, 4);   // N
    b.ldc_u32(5, 5);   // K
    b.ldc_u64(6, 0);   // A
    b.ldc_u64(8, 1);   // B
    b.ldc_u64(10, 2);  // C

    for (u16 r = 20; r < 24; ++r) b.mov_f32(r, 0.0f);  // acc tile = 0

    b.shf(ShiftKind::kRightLogical, 31, Operand::reg(5), Operand::imm_u(3));
    b.mov_u32(30, Operand::imm_u(0));
    b.uniform_loop(30, Operand::reg(31), 1, [&] {
      b.shf(ShiftKind::kLeft, 12, Operand::reg(30), Operand::imm_u(3));  // k0

      // Load the A fragment: element e = slot*32 + lane of the row-major
      // 16x8 tile; i = e>>3, kk = e&7.
      for (u16 slot = 0; slot < 4; ++slot) {
        b.iadd_u32(14, Operand::reg(0), Operand::imm_u(slot * 32u));
        b.shf(ShiftKind::kRightLogical, 15, Operand::reg(14),
              Operand::imm_u(3));
        b.lop(LopKind::kAnd, 16, Operand::reg(14), Operand::imm_u(7));
        b.imad_u32(17, Operand::reg(2), Operand::imm_u(16), Operand::reg(15));
        b.imul_u32(17, Operand::reg(17), Operand::reg(5));   // row*K
        b.iadd_u32(17, Operand::reg(17), Operand::reg(12));  // + k0
        b.iadd_u32(17, Operand::reg(17), Operand::reg(16));  // + kk
        b.imad_wide(18, Operand::reg(17), Operand::imm_u(4), Operand::reg(6));
        b.ldg(static_cast<u16>(24 + slot), 18);
      }
      // Load the B fragment: 8x8 tile, krow = e>>3, j = e&7.
      for (u16 slot = 0; slot < 2; ++slot) {
        b.iadd_u32(14, Operand::reg(0), Operand::imm_u(slot * 32u));
        b.shf(ShiftKind::kRightLogical, 15, Operand::reg(14),
              Operand::imm_u(3));
        b.lop(LopKind::kAnd, 16, Operand::reg(14), Operand::imm_u(7));
        b.iadd_u32(17, Operand::reg(12), Operand::reg(15));  // k0 + krow
        b.imul_u32(17, Operand::reg(17), Operand::reg(4));   // * N
        b.imad_u32(13, Operand::reg(1), Operand::imm_u(8), Operand::reg(16));
        b.iadd_u32(17, Operand::reg(17), Operand::reg(13));  // + tile_n*8 + j
        b.imad_wide(18, Operand::reg(17), Operand::imm_u(4), Operand::reg(8));
        b.ldg(static_cast<u16>(28 + slot), 18);
      }
      b.hmma(20, 24, 28, 20);
    });

    // Store D: same layout as the C fragment.
    for (u16 slot = 0; slot < 4; ++slot) {
      b.iadd_u32(14, Operand::reg(0), Operand::imm_u(slot * 32u));
      b.shf(ShiftKind::kRightLogical, 15, Operand::reg(14), Operand::imm_u(3));
      b.lop(LopKind::kAnd, 16, Operand::reg(14), Operand::imm_u(7));
      b.imad_u32(17, Operand::reg(2), Operand::imm_u(16), Operand::reg(15));
      b.imul_u32(17, Operand::reg(17), Operand::reg(4));   // row*N
      b.imad_u32(13, Operand::reg(1), Operand::imm_u(8), Operand::reg(16));
      b.iadd_u32(17, Operand::reg(17), Operand::reg(13));  // + tile_n*8 + j
      b.imad_wide(18, Operand::reg(17), Operand::imm_u(4), Operand::reg(10));
      b.stg(18, static_cast<u16>(20 + slot));
    }
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 m_, n_, k_;
  std::vector<f32> a_;
  std::vector<f32> b_;
  u64 a_dev_ = 0, b_dev_ = 0, c_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_gemm_hmma() {
  return std::make_unique<GemmHmma>();
}

}  // namespace gfi::wl
