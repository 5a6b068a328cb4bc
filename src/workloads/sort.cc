// Bitonic sort of 512 u32 keys in shared memory (one CTA) — the suite's
// control-flow-dominated workload: 45 compare-exchange passes with nested
// data-dependent divergence, barriers every pass.
#include "workloads/all.h"

#include <algorithm>

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

class BitonicSort final : public Workload {
 public:
  static constexpr u32 kN = 512;
  static constexpr u32 kBlock = 256;

  BitonicSort()
      : name_("bitonic_sort"),
        keys_(random_u32(kN, 0xB170)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto data = device.malloc_n<u32>(kN);
    if (!data.is_ok()) return data.status();
    data_dev_ = data.value();
    if (auto s = device.to_device<u32>(data_dev_, keys_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(1);
    spec.params = {data_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    std::vector<u32> want = keys_;
    std::sort(want.begin(), want.end());
    return fetch_and_check<u32>(
        device, data_dev_, kN,
        [&](std::span<const u32> got) { return compare_u32(got, want); });
  }

 private:
  // One compare-exchange for element index held in R4 (i) under the (k, j)
  // pass. Registers: R4 i, R5 l, R6/R7 keys, R8 scratch, R10/R11 addresses.
  void emit_compare_exchange(KernelBuilder& b, u32 k, u32 j) {
    b.lop(LopKind::kXor, 5, Operand::reg(4), Operand::imm_u(j));  // l = i ^ j
    b.isetp(CmpOp::kGt, 0, Operand::reg(5), Operand::reg(4));
    b.if_then(0, false, [&] {
      b.shf(ShiftKind::kLeft, 10, Operand::reg(4), Operand::imm_u(2));
      b.shf(ShiftKind::kLeft, 11, Operand::reg(5), Operand::imm_u(2));
      b.lds(6, 10);
      b.lds(7, 11);
      b.lop(LopKind::kAnd, 8, Operand::reg(4), Operand::imm_u(k));
      b.isetp(CmpOp::kEq, 1, Operand::reg(8), Operand::imm_u(0));  // ascending
      b.if_then_else(
          1, false,
          [&] {  // ascending: swap when a > b
            b.isetp(CmpOp::kGt, 2, Operand::reg(6), Operand::reg(7));
            b.if_then(2, false, [&] {
              b.sts(10, 7);
              b.sts(11, 6);
            });
          },
          [&] {  // descending: swap when a < b
            b.isetp(CmpOp::kLt, 2, Operand::reg(6), Operand::reg(7));
            b.if_then(2, false, [&] {
              b.sts(10, 7);
              b.sts(11, 6);
            });
          });
    });
  }

  Program build() {
    KernelBuilder b("bitonic_sort");
    b.set_shared_bytes(kN * 4);
    b.s2r(3, SpecialReg::kTidX);  // tid
    b.ldc_u64(14, 0);             // data pointer

    // Stage in: each thread loads two elements.
    for (u32 half = 0; half < 2; ++half) {
      b.iadd_u32(4, Operand::reg(3), Operand::imm_u(half * kBlock));
      b.imad_wide(10, Operand::reg(4), Operand::imm_u(4), Operand::reg(14));
      b.ldg(6, 10);
      b.shf(ShiftKind::kLeft, 12, Operand::reg(4), Operand::imm_u(2));
      b.sts(12, 6);
    }
    b.bar();

    for (u32 k = 2; k <= kN; k <<= 1) {
      for (u32 j = k >> 1; j > 0; j >>= 1) {
        for (u32 half = 0; half < 2; ++half) {
          b.iadd_u32(4, Operand::reg(3), Operand::imm_u(half * kBlock));
          emit_compare_exchange(b, k, j);
        }
        b.bar();
      }
    }

    // Stage out.
    for (u32 half = 0; half < 2; ++half) {
      b.iadd_u32(4, Operand::reg(3), Operand::imm_u(half * kBlock));
      b.shf(ShiftKind::kLeft, 12, Operand::reg(4), Operand::imm_u(2));
      b.lds(6, 12);
      b.imad_wide(10, Operand::reg(4), Operand::imm_u(4), Operand::reg(14));
      b.stg(10, 6);
    }
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  std::vector<u32> keys_;
  u64 data_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_bitonic_sort() {
  return std::make_unique<BitonicSort>();
}

}  // namespace gfi::wl
