// 64-bin histogram with per-block shared-memory privatization and a global
// merge — the suite's atomic-heavy, data-dependent-addressing workload.
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
using sim::SpecialReg;

class HistogramWl final : public Workload {
 public:
  static constexpr u32 kBins = 64;
  static constexpr u32 kBlock = 256;
  static constexpr u32 kGrid = 4;
  static constexpr u32 kPerThread = 8;

  HistogramWl()
      : name_("histogram"),
        n_(kBlock * kGrid * kPerThread),
        data_(random_u32(n_, 0x415706, kBins)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto data = device.malloc_n<u32>(n_);
    auto bins = device.malloc_n<u32>(kBins);
    if (!data.is_ok()) return data.status();
    if (!bins.is_ok()) return bins.status();
    data_dev_ = data.value();
    bins_dev_ = bins.value();
    if (auto s = device.to_device<u32>(data_dev_, data_); !s.is_ok()) return s;
    const std::vector<u32> zeros(kBins, 0);
    if (auto s = device.to_device<u32>(bins_dev_, zeros); !s.is_ok()) return s;

    // The host reference, once per instance: check() runs per injection.
    want_.assign(kBins, 0);
    for (u32 v : data_) ++want_[v % kBins];

    LaunchSpec spec;
    spec.block = Dim3(kBlock);
    spec.grid = Dim3(kGrid);
    spec.params = {data_dev_, bins_dev_};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    return fetch_and_check<u32>(
        device, bins_dev_, kBins,
        [&](std::span<const u32> got) { return compare_u32(got, want_); });
  }

 private:
  Program build() {
    KernelBuilder b("histogram");
    b.set_shared_bytes(kBins * 4);
    emit_global_tid_x(b, 0);        // R0 = gid
    b.s2r(3, SpecialReg::kTidX);    // R3 = tid
    b.s2r(1, SpecialReg::kNtidX);
    b.s2r(2, SpecialReg::kNctaidX);
    b.imul_u32(4, Operand::reg(1), Operand::reg(2));  // total threads
    b.ldc_u64(6, 0);  // data
    b.ldc_u64(8, 1);  // bins

    // Zero the privatized bins.
    b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(kBins));
    b.if_then(0, false, [&] {
      b.shf(ShiftKind::kLeft, 10, Operand::reg(3), Operand::imm_u(2));
      b.mov_u32(11, Operand::imm_u(0));
      b.sts(10, 11);
    });
    b.bar();

    // Count into shared bins.
    b.mov_u32(12, Operand::imm_u(0));  // loop counter
    b.uniform_loop(12, Operand::imm_u(kPerThread), 1, [&] {
      b.imad_u32(13, Operand::reg(12), Operand::reg(4), Operand::reg(0));
      b.imad_wide(14, Operand::reg(13), Operand::imm_u(4), Operand::reg(6));
      b.ldg(16, 14);
      b.lop(LopKind::kAnd, 17, Operand::reg(16), Operand::imm_u(kBins - 1));
      b.shf(ShiftKind::kLeft, 17, Operand::reg(17), Operand::imm_u(2));
      b.atoms(AtomKind::kAdd, sim::kRegZ, 17, Operand::imm_u(1));
    });
    b.bar();

    // Merge privatized bins into the global histogram.
    b.isetp(CmpOp::kLt, 0, Operand::reg(3), Operand::imm_u(kBins));
    b.if_then(0, false, [&] {
      b.shf(ShiftKind::kLeft, 10, Operand::reg(3), Operand::imm_u(2));
      b.lds(18, 10);
      b.imad_wide(20, Operand::reg(3), Operand::imm_u(4), Operand::reg(8));
      b.atomg(AtomKind::kAdd, sim::kRegZ, 20, Operand::reg(18));
    });
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  u32 n_;
  std::vector<u32> data_;
  std::vector<u32> want_;  ///< host reference, computed by setup()
  u64 data_dev_ = 0, bins_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_histogram() {
  return std::make_unique<HistogramWl>();
}

}  // namespace gfi::wl
