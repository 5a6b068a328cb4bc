// Monte-Carlo pi estimation with a per-thread LCG — mixed integer/FP
// pipeline, data-dependent divergent counting, and an atomic tally. The
// inherently-approximate workload: small numeric corruption is invisible,
// so it shows the highest masking rates in the suite (the "app-level
// masking" effect the resilience literature reports for stochastic codes).
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::AtomKind;
using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::LopKind;
using sim::Operand;
using sim::Program;
using sim::ShiftKind;

constexpr u32 kLcgA = 1664525u;
constexpr u32 kLcgC = 1013904223u;

class McPi final : public Workload {
 public:
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = 4;
  static constexpr u32 kSamplesPerThread = 16;

  McPi() : name_("mc_pi"), program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto hits = device.malloc_n<u32>(1);
    if (!hits.is_ok()) return hits.status();
    hits_dev_ = hits.value();
    const u32 zero = 0;
    if (auto s =
            device.to_device<u32>(hits_dev_, std::span<const u32>(&zero, 1));
        !s.is_ok()) {
      return s;
    }
    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {hits_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    // The device computation is integer-exact and fully deterministic, so
    // the reference replays the same LCG streams on the host.
    u32 want = 0;
    const u32 threads = kBlock * kGrid;
    for (u32 gid = 0; gid < threads; ++gid) {
      u32 state = gid * 2654435761u + 12345u;
      for (u32 s = 0; s < kSamplesPerThread; ++s) {
        state = state * kLcgA + kLcgC;
        const u32 xi = state >> 16;  // 16-bit x
        state = state * kLcgA + kLcgC;
        const u32 yi = state >> 16;  // 16-bit y
        const f32 x =
            static_cast<f32>(static_cast<i32>(xi)) * (1.0f / 65536.0f);
        const f32 y =
            static_cast<f32>(static_cast<i32>(yi)) * (1.0f / 65536.0f);
        const f32 r2 = std::fmaf(x, x, y * y);
        if (r2 <= 1.0f) ++want;
      }
    }
    std::vector<u32> expect = {want};
    return fetch_and_check<u32>(
        device, hits_dev_, 1,
        [&](std::span<const u32> got) { return compare_u32(got, expect); });
  }

 private:
  // Registers: R0 gid | R2 lcg state | R4:5 out | R6 local hits | R7 loop
  // R10..14 scratch
  Program build() {
    KernelBuilder b("mc_pi");
    emit_global_tid_x(b, 0);
    b.ldc_u64(4, 0);  // hits pointer
    b.imad_u32(2, Operand::reg(0), Operand::imm_u(2654435761u),
               Operand::imm_u(12345u));  // seed
    b.mov_u32(6, Operand::imm_u(0));     // local hit count
    b.mov_u32(7, Operand::imm_u(0));
    b.uniform_loop(7, Operand::imm_u(kSamplesPerThread), 1, [&] {
      // x = (state >> 16) / 65536
      b.imad_u32(2, Operand::reg(2), Operand::imm_u(kLcgA),
                 Operand::imm_u(kLcgC));
      b.shf(ShiftKind::kRightLogical, 10, Operand::reg(2), Operand::imm_u(16));
      b.i2f(11, Operand::reg(10));
      b.fmul_f32(11, Operand::reg(11), Operand::imm_f32(1.0f / 65536.0f));
      // y likewise
      b.imad_u32(2, Operand::reg(2), Operand::imm_u(kLcgA),
                 Operand::imm_u(kLcgC));
      b.shf(ShiftKind::kRightLogical, 10, Operand::reg(2), Operand::imm_u(16));
      b.i2f(12, Operand::reg(10));
      b.fmul_f32(12, Operand::reg(12), Operand::imm_f32(1.0f / 65536.0f));
      // r2 = fma(x, x, y*y); hit if r2 <= 1
      b.fmul_f32(13, Operand::reg(12), Operand::reg(12));
      b.ffma_f32(13, Operand::reg(11), Operand::reg(11), Operand::reg(13));
      b.fsetp(CmpOp::kLe, 0, Operand::reg(13), Operand::imm_f32(1.0f));
      b.iadd_u32(6, Operand::reg(6), Operand::imm_u(1));
      b.guard_last(0);  // divergence-free guarded increment
    });
    b.atomg(AtomKind::kAdd, sim::kRegZ, 4, Operand::reg(6));
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u64 hits_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_mc_pi() { return std::make_unique<McPi>(); }

}  // namespace gfi::wl
