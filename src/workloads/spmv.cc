// Sparse matrix-vector product (CSR, scalar row-per-thread) — irregular
// row lengths make the inner loop trip count warp-divergent, exercising the
// simulator's divergent backward-branch handling and indirect addressing.
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

class Spmv final : public Workload {
 public:
  static constexpr u32 kRows = 1024;
  static constexpr u32 kCols = 1024;

  Spmv() : name_("spmv"), program_(build()) {
    Rng rng(0x5B37);
    row_ptr_.push_back(0);
    for (u32 row = 0; row < kRows; ++row) {
      const u32 nnz = 1 + static_cast<u32>(rng.next_below(15));
      for (u32 e = 0; e < nnz; ++e) {
        col_idx_.push_back(static_cast<u32>(rng.next_below(kCols)));
        vals_.push_back(rng.next_float(-1.0f, 1.0f));
      }
      row_ptr_.push_back(static_cast<u32>(col_idx_.size()));
    }
    x_ = random_f32(kCols, 0x5137);
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto rp = device.malloc_n<u32>(row_ptr_.size());
    auto ci = device.malloc_n<u32>(col_idx_.size());
    auto va = device.malloc_n<f32>(vals_.size());
    auto xv = device.malloc_n<f32>(x_.size());
    auto yv = device.malloc_n<f32>(kRows);
    for (const auto* r : {&rp, &ci, &va, &xv, &yv}) {
      if (!r->is_ok()) return r->status();
    }
    rp_dev_ = rp.value();
    ci_dev_ = ci.value();
    va_dev_ = va.value();
    x_dev_ = xv.value();
    y_dev_ = yv.value();
    if (auto s = device.to_device<u32>(rp_dev_, row_ptr_); !s.is_ok()) return s;
    if (auto s = device.to_device<u32>(ci_dev_, col_idx_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(va_dev_, vals_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(x_dev_, x_); !s.is_ok()) return s;

    // The host reference, once per instance: check() runs per injection.
    want_.assign(kRows, 0.0f);
    for (u32 row = 0; row < kRows; ++row) {
      f32 acc = 0.0f;
      for (u32 e = row_ptr_[row]; e < row_ptr_[row + 1]; ++e) {
        acc = std::fmaf(vals_[e], x_[col_idx_[e]], acc);
      }
      want_[row] = acc;
    }

    LaunchSpec spec;
    spec.block = Dim3(256);
    spec.grid = Dim3(kRows / 256);
    spec.params = {rp_dev_, ci_dev_, va_dev_, x_dev_, y_dev_, kRows};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    return fetch_and_check<f32>(
        device, y_dev_, kRows, [&](std::span<const f32> got) {
          return compare_f32(got, want_, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("spmv");
    emit_global_tid_x(b, 0);  // R0 = row
    b.ldc_u32(3, 5);          // rows
    b.isetp(CmpOp::kGe, 0, Operand::reg(0), Operand::reg(3));
    b.exit_if(0);

    b.ldc_u64(4, 0);   // row_ptr
    b.ldc_u64(6, 1);   // col_idx
    b.ldc_u64(8, 2);   // vals
    b.ldc_u64(10, 3);  // x
    b.ldc_u64(12, 4);  // y

    // start = row_ptr[row]; end = row_ptr[row+1]
    b.imad_wide(14, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.ldg(16, 14, 0);
    b.ldg(17, 14, 4);

    b.mov_f32(18, 0.0f);  // acc
    // Divergent trip count: rows in a warp have different nnz.
    b.uniform_loop(16, Operand::reg(17), 1, [&] {
      b.imad_wide(20, Operand::reg(16), Operand::imm_u(4), Operand::reg(6));
      b.ldg(22, 20);  // col
      b.imad_wide(20, Operand::reg(16), Operand::imm_u(4), Operand::reg(8));
      b.ldg(23, 20);  // val
      b.imad_wide(20, Operand::reg(22), Operand::imm_u(4), Operand::reg(10));
      b.ldg(24, 20);  // x[col]
      b.ffma_f32(18, Operand::reg(23), Operand::reg(24), Operand::reg(18));
    });

    b.imad_wide(20, Operand::reg(0), Operand::imm_u(4), Operand::reg(12));
    b.stg(20, 18);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  std::vector<u32> row_ptr_;
  std::vector<u32> col_idx_;
  std::vector<f32> vals_;
  std::vector<f32> x_;
  std::vector<f32> want_;  ///< host reference, computed by setup()
  u64 rp_dev_ = 0, ci_dev_ = 0, va_dev_ = 0, x_dev_ = 0, y_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_spmv() { return std::make_unique<Spmv>(); }

}  // namespace gfi::wl
