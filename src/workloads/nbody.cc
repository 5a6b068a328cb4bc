// N-body acceleration step (all-pairs, softened gravity) — the suite's
// MUFU-heavy workload: one rsqrt per interaction, quadratic FFMA stream.
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

constexpr f32 kSoftening = 1e-2f;

class NBody final : public Workload {
 public:
  static constexpr u32 kBodies = 256;

  NBody()
      : name_("nbody"),
        px_(random_f32(kBodies, 0xAB0D1, -1.0f, 1.0f)),
        py_(random_f32(kBodies, 0xAB0D2, -1.0f, 1.0f)),
        mass_(random_f32(kBodies, 0xAB0D3, 0.5f, 1.5f)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto px = device.malloc_n<f32>(kBodies);
    auto py = device.malloc_n<f32>(kBodies);
    auto mass = device.malloc_n<f32>(kBodies);
    auto ax = device.malloc_n<f32>(kBodies);
    auto ay = device.malloc_n<f32>(kBodies);
    for (const auto* r : {&px, &py, &mass, &ax, &ay}) {
      if (!r->is_ok()) return r->status();
    }
    px_dev_ = px.value();
    py_dev_ = py.value();
    mass_dev_ = mass.value();
    ax_dev_ = ax.value();
    ay_dev_ = ay.value();
    if (auto s = device.to_device<f32>(px_dev_, px_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(py_dev_, py_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(mass_dev_, mass_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(64);
    spec.grid = Dim3(kBodies / 64);
    spec.params = {px_dev_, py_dev_, mass_dev_, ax_dev_, ay_dev_, kBodies};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<f32> want_ax(kBodies);
    std::vector<f32> want_ay(kBodies);
    for (u32 i = 0; i < kBodies; ++i) {
      f32 ax = 0.0f;
      f32 ay = 0.0f;
      for (u32 j = 0; j < kBodies; ++j) {
        const f32 dx = px_[j] - px_[i];
        const f32 dy = py_[j] - py_[i];
        // r2 = dx*dx + dy*dy + eps, accumulated exactly as the kernel does.
        f32 r2 = std::fmaf(dx, dx, kSoftening);
        r2 = std::fmaf(dy, dy, r2);
        const f32 inv_r = 1.0f / std::sqrt(r2);  // MUFU.RSQ
        const f32 inv_r3 = inv_r * inv_r * inv_r;
        const f32 s = mass_[j] * inv_r3;
        ax = std::fmaf(dx, s, ax);
        ay = std::fmaf(dy, s, ay);
      }
      want_ax[i] = ax;
      want_ay[i] = ay;
    }
    auto first = fetch_and_check<f32>(
        device, ax_dev_, kBodies, [&](std::span<const f32> got) {
          return compare_f32(got, want_ax, tolerance());
        });
    if (!first.is_ok() || first.value().trap != sim::TrapKind::kNone ||
        !first.value().result.passed()) {
      return first;
    }
    auto second = fetch_and_check<f32>(
        device, ay_dev_, kBodies, [&](std::span<const f32> got) {
          return compare_f32(got, want_ay, tolerance());
        });
    if (!second.is_ok()) return second;
    // Combine: worst of the two output buffers.
    Checked combined = second.value();
    combined.result.bitwise_equal &= first.value().result.bitwise_equal;
    combined.result.within_tolerance &= first.value().result.within_tolerance;
    combined.result.max_rel_err = std::max(combined.result.max_rel_err,
                                           first.value().result.max_rel_err);
    return combined;
  }

 private:
  // Registers: R0 i | R4:5 px | R6:7 py | R8:9 mass | R10 n | R12/13 my x/y
  // R14/15 ax/ay | R16 j | R18:19 addr | R20.. interaction scratch
  Program build() {
    KernelBuilder b("nbody");
    emit_global_tid_x(b, 0);  // R0 = i
    b.ldc_u32(10, 5);         // n
    b.isetp(CmpOp::kGe, 0, Operand::reg(0), Operand::reg(10));
    b.exit_if(0);
    b.ldc_u64(4, 0);
    b.ldc_u64(6, 1);
    b.ldc_u64(8, 2);

    b.imad_wide(18, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.ldg(12, 18);  // px[i]
    b.imad_wide(18, Operand::reg(0), Operand::imm_u(4), Operand::reg(6));
    b.ldg(13, 18);  // py[i]
    b.mov_f32(14, 0.0f);
    b.mov_f32(15, 0.0f);
    b.fmul_f32(26, Operand::reg(12), Operand::imm_f32(-1.0f));  // -px[i]
    b.fmul_f32(27, Operand::reg(13), Operand::imm_f32(-1.0f));  // -py[i]

    b.mov_u32(16, Operand::imm_u(0));
    b.uniform_loop(16, Operand::reg(10), 1, [&] {
      b.imad_wide(18, Operand::reg(16), Operand::imm_u(4), Operand::reg(4));
      b.ldg(20, 18);  // px[j]
      b.imad_wide(18, Operand::reg(16), Operand::imm_u(4), Operand::reg(6));
      b.ldg(21, 18);  // py[j]
      b.fadd_f32(20, Operand::reg(20), Operand::reg(26));  // dx
      b.fadd_f32(21, Operand::reg(21), Operand::reg(27));  // dy
      b.ffma_f32(22, Operand::reg(20), Operand::reg(20),
                 Operand::imm_f32(kSoftening));
      b.ffma_f32(22, Operand::reg(21), Operand::reg(21), Operand::reg(22));
      b.mufu(MufuKind::kRsq, 23, Operand::reg(22));        // 1/r
      b.fmul_f32(24, Operand::reg(23), Operand::reg(23));
      b.fmul_f32(24, Operand::reg(24), Operand::reg(23));  // 1/r^3
      b.imad_wide(18, Operand::reg(16), Operand::imm_u(4), Operand::reg(8));
      b.ldg(25, 18);                                       // mass[j]
      b.fmul_f32(24, Operand::reg(25), Operand::reg(24));  // s
      b.ffma_f32(14, Operand::reg(20), Operand::reg(24), Operand::reg(14));
      b.ffma_f32(15, Operand::reg(21), Operand::reg(24), Operand::reg(15));
    });

    b.ldc_u64(4, 3);  // ax (reuse R4:5)
    b.imad_wide(18, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.stg(18, 14);
    b.ldc_u64(4, 4);  // ay
    b.imad_wide(18, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.stg(18, 15);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  std::vector<f32> px_, py_, mass_;
  u64 px_dev_ = 0, py_dev_ = 0, mass_dev_ = 0, ax_dev_ = 0, ay_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_nbody() { return std::make_unique<NBody>(); }

}  // namespace gfi::wl
