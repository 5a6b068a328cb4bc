#include "recover/abft.h"

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "sassim/kernel_builder.h"
#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::recover {
namespace {

using sim::AtomKind;
using sim::CmpOp;
using sim::Device;
using sim::KernelBuilder;
using sim::Operand;
using sim::Program;
using sim::ShflKind;
using sim::ShiftKind;
using sim::SpecialReg;
using wl::LaunchSpec;
using wl::Workload;

// Squared checksum tolerance |result - checksum|^2 > kAbsTol2 + kRelTol2*c^2,
// i.e. ~1e-2 absolute + ~1e-3 relative. Two orders of magnitude above the
// FP32 reassociation noise of these problem sizes (so the golden run never
// trips) while still catching any exponent- or sign-class corruption.
constexpr f32 kAbsTol2 = 1e-4f;
constexpr f32 kRelTol2 = 1e-6f;

/// @P(pred) STG [RZ] — a detected checksum mismatch becomes an
/// illegal-address DUE before the corrupt result escapes (swift.h idiom).
void emit_trap_if(KernelBuilder& b, u8 pred, u16 src_reg) {
  b.stg(sim::kRegZ, src_reg);
  b.guard_last(pred);
}

/// Emits the lane-0 tolerance compare: traps when
/// (sum - chk)^2 > kAbsTol2 + kRelTol2 * chk^2. Clobbers t0..t2 and `pred`.
void emit_checksum_compare(KernelBuilder& b, u16 sum, u16 chk, u16 t0, u16 t1,
                           u16 t2, u8 pred) {
  b.ffma_f32(t0, Operand::reg(chk), Operand::imm_f32(-1.0f),
             Operand::reg(sum));                       // d = sum - chk
  b.fmul_f32(t1, Operand::reg(t0), Operand::reg(t0));  // d^2
  b.fmul_f32(t2, Operand::reg(chk), Operand::reg(chk));
  b.ffma_f32(t2, Operand::reg(t2), Operand::imm_f32(kRelTol2),
             Operand::imm_f32(kAbsTol2));              // tol^2
  b.fsetp(CmpOp::kGt, pred, Operand::reg(t1), Operand::reg(t2));
  emit_trap_if(b, pred, t0);
}

// ---------------------------------------------------------------- gemm ----

/// Checksum GEMM: one CTA (one warp) per row of C. Each lane computes one
/// element, the warp shuffle-reduces the row sum, and lane 0 compares it
/// against dot(A[row,:], bsum) where bsum[k] = sum_j B[k][j] is precomputed
/// on the host — the classic row-checksum ABFT identity
/// sum_j C[row][j] = sum_k A[row][k] * bsum[k].
class GemmAbft final : public Workload {
 public:
  static constexpr u32 kDim = 32;  // M = N = K; one warp covers a row

  GemmAbft()
      : name_("gemm_abft"),
        a_(wl::random_f32(kDim * kDim, 0xAAAA)),
        b_(wl::random_f32(kDim * kDim, 0xBBBB)),
        program_(build()) {
    bsum_.resize(kDim);
    for (u32 k = 0; k < kDim; ++k) {
      f32 sum = 0.0f;
      for (u32 j = 0; j < kDim; ++j) sum += b_[k * kDim + j];
      bsum_[k] = sum;
    }
  }

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }
  [[nodiscard]] f64 tolerance() const override { return 1e-5; }

  Result<LaunchSpec> setup(Device& device) override {
    auto a = device.malloc_n<f32>(a_.size());
    auto b = device.malloc_n<f32>(b_.size());
    auto c = device.malloc_n<f32>(kDim * kDim);
    auto bsum = device.malloc_n<f32>(bsum_.size());
    for (const auto* r : {&a, &b, &c, &bsum}) {
      if (!r->is_ok()) return r->status();
    }
    a_dev_ = a.value();
    b_dev_ = b.value();
    c_dev_ = c.value();
    bsum_dev_ = bsum.value();
    if (auto s = device.to_device<f32>(a_dev_, a_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(b_dev_, b_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(bsum_dev_, bsum_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kDim);
    spec.grid = Dim3(kDim);
    spec.params = {a_dev_, b_dev_, c_dev_, bsum_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<f32> want(kDim * kDim);
    for (u32 row = 0; row < kDim; ++row) {
      for (u32 col = 0; col < kDim; ++col) {
        f32 acc = 0.0f;
        for (u32 k = 0; k < kDim; ++k) {
          acc = std::fmaf(a_[row * kDim + k], b_[k * kDim + col], acc);
        }
        want[row * kDim + col] = acc;
      }
    }
    return wl::fetch_and_check<f32>(
        device, c_dev_, want.size(), [&](std::span<const f32> got) {
          return wl::compare_f32(got, want, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("gemm_abft");
    b.s2r(0, SpecialReg::kTidX);    // col
    b.s2r(1, SpecialReg::kCtaidX);  // row
    b.ldc_u64(4, 0);   // A
    b.ldc_u64(6, 1);   // B
    b.ldc_u64(8, 2);   // C
    b.ldc_u64(10, 3);  // bsum
    b.imul_u32(2, Operand::reg(1), Operand::imm_u(kDim));  // row*K

    // C[row][col] = dot(A[row,:], B[:,col])
    b.mov_f32(12, 0.0f);
    b.mov_u32(13, Operand::imm_u(0));
    b.uniform_loop(13, Operand::imm_u(kDim), 1, [&] {
      b.iadd_u32(14, Operand::reg(2), Operand::reg(13));
      b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(4));
      b.ldg(19, 16);
      b.imad_u32(14, Operand::reg(13), Operand::imm_u(kDim), Operand::reg(0));
      b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(6));
      b.ldg(20, 16);
      b.ffma_f32(12, Operand::reg(19), Operand::reg(20), Operand::reg(12));
    });
    b.iadd_u32(14, Operand::reg(2), Operand::reg(0));
    b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(8));
    b.stg(16, 12);

    // Row sum of C via warp shuffle reduction (lane 0 ends with the total).
    b.mov_u32(21, Operand::reg(12));
    for (u32 delta = kDim / 2; delta > 0; delta >>= 1) {
      b.shfl(ShflKind::kDown, 22, 21, Operand::imm_u(delta));
      b.fadd_f32(21, Operand::reg(21), Operand::reg(22));
    }

    // Reference checksum chk = dot(A[row,:], bsum), redundantly on every
    // lane — a second dataflow, so a fault rarely corrupts both equally.
    b.mov_f32(23, 0.0f);
    b.mov_u32(13, Operand::imm_u(0));
    b.uniform_loop(13, Operand::imm_u(kDim), 1, [&] {
      b.iadd_u32(14, Operand::reg(2), Operand::reg(13));
      b.imad_wide(16, Operand::reg(14), Operand::imm_u(4), Operand::reg(4));
      b.ldg(19, 16);
      b.imad_wide(16, Operand::reg(13), Operand::imm_u(4), Operand::reg(10));
      b.ldg(20, 16);
      b.ffma_f32(23, Operand::reg(19), Operand::reg(20), Operand::reg(23));
    });

    b.s2r(14, SpecialReg::kLaneId);
    b.isetp(CmpOp::kEq, 0, Operand::reg(14), Operand::imm_u(0));
    b.if_then(0, false,
              [&] { emit_checksum_compare(b, 21, 23, 25, 26, 27, 2); });
    b.exit_();
    return wl::must_build(b);
  }

  std::string name_;
  std::vector<f32> a_;
  std::vector<f32> b_;
  std::vector<f32> bsum_;
  u64 a_dev_ = 0, b_dev_ = 0, c_dev_ = 0, bsum_dev_ = 0;
  Program program_;
};

// -------------------------------------------------------------- reduce ----

/// Dual-path integer reduction: every block accumulates its partial sums
/// both through the shared-memory tree and through a shared atomic counter;
/// thread 0 requires exact agreement before committing to the global sum.
class ReduceAbft final : public Workload {
 public:
  static constexpr u32 kBlock = 128;
  static constexpr u32 kGrid = 4;
  static constexpr u32 kPerThread = 4;
  /// Byte offset of the atomic checksum slot, past the tree scratch.
  static constexpr u32 kChkSlot = kBlock * 4;

  ReduceAbft()
      : name_("reduce_abft"),
        n_(kBlock * kGrid * kPerThread),
        x_(wl::random_u32(n_, 0x5EED, 1u << 16)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto x = device.malloc_n<u32>(n_);
    auto out = device.malloc_n<u32>(1);
    if (!x.is_ok()) return x.status();
    if (!out.is_ok()) return out.status();
    x_dev_ = x.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<u32>(x_dev_, x_); !s.is_ok()) return s;
    const u32 zero = 0;
    if (auto s =
            device.to_device<u32>(out_dev_, std::span<const u32>(&zero, 1));
        !s.is_ok()) {
      return s;
    }

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {x_dev_, out_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    u32 want = 0;
    for (u32 v : x_) want += v;
    std::vector<u32> expect = {want};
    return wl::fetch_and_check<u32>(
        device, out_dev_, 1,
        [&](std::span<const u32> got) { return wl::compare_u32(got, expect); });
  }

 private:
  Program build() {
    KernelBuilder b("reduce_abft");
    wl::emit_global_tid_x(b, 0);  // R0 = gid (clobbers R1, R2)
    b.s2r(3, SpecialReg::kTidX);
    b.s2r(1, SpecialReg::kNtidX);
    b.s2r(2, SpecialReg::kNctaidX);
    b.imul_u32(4, Operand::reg(1), Operand::reg(2));  // total threads
    b.ldc_u64(6, 0);  // x
    b.ldc_u64(8, 1);  // out
    b.set_shared_bytes(kChkSlot + 4);

    // Thread 0 zeroes the atomic checksum slot.
    b.mov_u32(20, Operand::imm_u(kChkSlot));
    b.isetp(CmpOp::kEq, 0, Operand::reg(3), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.mov_u32(21, Operand::imm_u(0));
      b.sts(20, 21);
    });
    b.bar();

    // Grid-stride partial sum.
    b.mov_u32(10, Operand::imm_u(0));
    b.mov_u32(11, Operand::imm_u(0));
    b.uniform_loop(11, Operand::imm_u(kPerThread), 1, [&] {
      b.imad_u32(12, Operand::reg(11), Operand::reg(4), Operand::reg(0));
      b.imad_wide(14, Operand::reg(12), Operand::imm_u(4), Operand::reg(6));
      b.ldg(16, 14);
      b.iadd_u32(10, Operand::reg(10), Operand::reg(16));
    });

    // Path 1: shared-memory tree. Path 2: shared atomic adds.
    b.shf(ShiftKind::kLeft, 17, Operand::reg(3), Operand::imm_u(2));
    b.sts(17, 10);
    b.atoms(AtomKind::kAdd, sim::kRegZ, 20, Operand::reg(10));
    b.bar();
    for (u32 stride = kBlock / 2; stride > 0; stride >>= 1) {
      b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(stride));
      b.if_then(0, false, [&] {
        b.lds(18, 17, 0);
        b.lds(19, 17, static_cast<u64>(stride) * 4);
        b.iadd_u32(18, Operand::reg(18), Operand::reg(19));
        b.sts(17, 18);
      });
      b.bar();
    }

    // Thread 0: both paths must agree bit-for-bit (integer, order-free)
    // before the block's partial reaches global memory.
    b.isetp(CmpOp::kEq, 0, Operand::reg(3), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.lds(18, 17, 0);  // tree result (tid 0 -> shared[0])
      b.lds(19, 20, 0);  // atomic result
      b.isetp(CmpOp::kNe, 2, Operand::reg(18), Operand::reg(19));
      emit_trap_if(b, 2, 18);
      b.atomg(AtomKind::kAdd, sim::kRegZ, 8, Operand::reg(18));
    });
    b.exit_();
    return wl::must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<u32> x_;
  u64 x_dev_ = 0, out_dev_ = 0;
  Program program_;
};

// ---------------------------------------------------------------- spmv ----

/// Checksum SpMV (CSR, row per thread): each CTA tree-reduces the y values
/// it produced and thread 0 compares against dot(colsum, x), where
/// colsum[j] = sum of A[row][j] over the CTA's rows is precomputed on the
/// host — the column-checksum identity sum_rows y = (colsum) . x.
class SpmvAbft final : public Workload {
 public:
  static constexpr u32 kRows = 512;
  static constexpr u32 kCols = 256;
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = kRows / kBlock;

  SpmvAbft() : name_("spmv_abft"), program_(build()) {
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
    x_ = wl::random_f32(kCols, 0x5137);
    colsum_.assign(static_cast<std::size_t>(kGrid) * kCols, 0.0f);
    for (u32 row = 0; row < kRows; ++row) {
      const u32 cta = row / kBlock;
      for (u32 e = row_ptr_[row]; e < row_ptr_[row + 1]; ++e) {
        colsum_[cta * kCols + col_idx_[e]] += vals_[e];
      }
    }
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
    auto cs = device.malloc_n<f32>(colsum_.size());
    for (const auto* r : {&rp, &ci, &va, &xv, &yv, &cs}) {
      if (!r->is_ok()) return r->status();
    }
    rp_dev_ = rp.value();
    ci_dev_ = ci.value();
    va_dev_ = va.value();
    x_dev_ = xv.value();
    y_dev_ = yv.value();
    cs_dev_ = cs.value();
    if (auto s = device.to_device<u32>(rp_dev_, row_ptr_); !s.is_ok()) return s;
    if (auto s = device.to_device<u32>(ci_dev_, col_idx_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(va_dev_, vals_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(x_dev_, x_); !s.is_ok()) return s;
    if (auto s = device.to_device<f32>(cs_dev_, colsum_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {rp_dev_, ci_dev_, va_dev_, x_dev_, y_dev_, cs_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<f32> want(kRows);
    for (u32 row = 0; row < kRows; ++row) {
      f32 acc = 0.0f;
      for (u32 e = row_ptr_[row]; e < row_ptr_[row + 1]; ++e) {
        acc = std::fmaf(vals_[e], x_[col_idx_[e]], acc);
      }
      want[row] = acc;
    }
    return wl::fetch_and_check<f32>(
        device, y_dev_, kRows, [&](std::span<const f32> got) {
          return wl::compare_f32(got, want, tolerance());
        });
  }

 private:
  Program build() {
    KernelBuilder b("spmv_abft");
    wl::emit_global_tid_x(b, 0);  // R0 = row (grid exactly covers kRows)
    b.s2r(3, SpecialReg::kTidX);
    b.ldc_u64(4, 0);   // row_ptr
    b.ldc_u64(6, 1);   // col_idx
    b.ldc_u64(8, 2);   // vals
    b.ldc_u64(10, 3);  // x
    b.ldc_u64(12, 4);  // y
    b.set_shared_bytes(kBlock * 4);

    // y[row] = dot(A[row,:], x) over the row's CSR entries. The trip count
    // is warp-divergent, and unlike spmv the kernel keeps running past the
    // loop (shared tree + barriers), so the loop needs an explicit SSY/SYNC
    // reconvergence wrapper: without it, early-finishing lanes would hit the
    // CTA barrier while their warp mates are still parked on the divergence
    // stack.
    b.imad_wide(14, Operand::reg(0), Operand::imm_u(4), Operand::reg(4));
    b.ldg(16, 14, 0);  // start
    b.ldg(17, 14, 4);  // end
    b.mov_f32(18, 0.0f);
    const KernelBuilder::Label l_reconv = b.new_label();
    b.ssy(l_reconv);
    b.uniform_loop(16, Operand::reg(17), 1, [&] {
      b.imad_wide(20, Operand::reg(16), Operand::imm_u(4), Operand::reg(6));
      b.ldg(22, 20);  // col
      b.imad_wide(20, Operand::reg(16), Operand::imm_u(4), Operand::reg(8));
      b.ldg(23, 20);  // val
      b.imad_wide(20, Operand::reg(22), Operand::imm_u(4), Operand::reg(10));
      b.ldg(24, 20);  // x[col]
      b.ffma_f32(18, Operand::reg(23), Operand::reg(24), Operand::reg(18));
    });
    b.bind(l_reconv);
    b.sync_();
    b.imad_wide(20, Operand::reg(0), Operand::imm_u(4), Operand::reg(12));
    b.stg(20, 18);

    // Tree-reduce the CTA's y values in shared memory.
    b.shf(ShiftKind::kLeft, 25, Operand::reg(3), Operand::imm_u(2));
    b.sts(25, 18);
    b.bar();
    for (u32 stride = kBlock / 2; stride > 0; stride >>= 1) {
      b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(stride));
      b.if_then(0, false, [&] {
        b.lds(26, 25, 0);
        b.lds(27, 25, static_cast<u64>(stride) * 4);
        b.fadd_f32(26, Operand::reg(26), Operand::reg(27));
        b.sts(25, 26);
      });
      b.bar();
    }

    // Thread 0: chk = dot(colsum[cta], x), compared against the tree total.
    b.isetp(CmpOp::kEq, 0, Operand::reg(3), Operand::imm_u(0));
    b.if_then(0, false, [&] {
      b.ldc_u64(30, 5);  // colsum
      b.s2r(22, SpecialReg::kCtaidX);
      b.imul_u32(23, Operand::reg(22), Operand::imm_u(kCols));
      b.mov_f32(28, 0.0f);
      b.mov_u32(29, Operand::imm_u(0));
      b.uniform_loop(29, Operand::imm_u(kCols), 1, [&] {
        b.iadd_u32(22, Operand::reg(23), Operand::reg(29));
        b.imad_wide(20, Operand::reg(22), Operand::imm_u(4), Operand::reg(30));
        b.ldg(24, 20);  // colsum[cta*kCols + j]
        b.imad_wide(20, Operand::reg(29), Operand::imm_u(4), Operand::reg(10));
        b.ldg(27, 20);  // x[j]
        b.ffma_f32(28, Operand::reg(24), Operand::reg(27), Operand::reg(28));
      });
      b.lds(26, 25, 0);  // tree total (tid 0 -> shared[0])
      emit_checksum_compare(b, 26, 28, 32, 33, 34, 2);
    });
    b.exit_();
    return wl::must_build(b);
  }

  std::string name_;
  std::vector<u32> row_ptr_;
  std::vector<u32> col_idx_;
  std::vector<f32> vals_;
  std::vector<f32> x_;
  std::vector<f32> colsum_;
  u64 rp_dev_ = 0, ci_dev_ = 0, va_dev_ = 0, x_dev_ = 0, y_dev_ = 0,
      cs_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<wl::Workload> make_gemm_abft() {
  return std::make_unique<GemmAbft>();
}
std::unique_ptr<wl::Workload> make_reduce_abft() {
  return std::make_unique<ReduceAbft>();
}
std::unique_ptr<wl::Workload> make_spmv_abft() {
  return std::make_unique<SpmvAbft>();
}

void register_abft_workloads() {
  static const bool done = [] {
    wl::register_workload("gemm_abft", make_gemm_abft);
    wl::register_workload("reduce_abft", make_reduce_abft);
    wl::register_workload("spmv_abft", make_spmv_abft);
    return true;
  }();
  (void)done;
}

}  // namespace gfi::recover
