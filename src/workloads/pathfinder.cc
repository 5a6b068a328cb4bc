// Pathfinder-style dynamic programming: each CTA sweeps a 64-column strip
// of a cost grid row by row, taking min(left, center, right) of the previous
// row from ping-pong shared buffers. Integer DP with clamped neighbour
// indexing and a barrier every row — the Rodinia-derived control workload.
#include "workloads/all.h"

#include "workloads/kernels_common.h"
#include "workloads/util.h"

namespace gfi::wl {
namespace {

using sim::Device;
using sim::KernelBuilder;
using sim::LopKind;
using sim::MinMax;
using sim::Operand;
using sim::Program;
using sim::SpecialReg;

class Pathfinder final : public Workload {
 public:
  static constexpr u32 kStripCols = 64;
  static constexpr u32 kStrips = 4;
  static constexpr u32 kCols = kStripCols * kStrips;
  static constexpr u32 kRows = 32;

  Pathfinder()
      : name_("pathfinder"),
        wall_(random_u32(static_cast<std::size_t>(kCols) * kRows, 0x9A7F, 10)),
        program_(build()) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const Program& program() const override { return program_; }

  Result<LaunchSpec> setup(Device& device) override {
    auto wall = device.malloc_n<u32>(wall_.size());
    auto out = device.malloc_n<u32>(kCols);
    if (!wall.is_ok()) return wall.status();
    if (!out.is_ok()) return out.status();
    wall_dev_ = wall.value();
    out_dev_ = out.value();
    if (auto s = device.to_device<u32>(wall_dev_, wall_); !s.is_ok()) return s;

    LaunchSpec spec;
    spec.block = Dim3(kStripCols);
    spec.grid = Dim3(kStrips);
    spec.params = {wall_dev_, out_dev_, kCols, kRows};
    return spec;
  }

  Result<Checked> check(Device& device) const override {
    // Reference DP with strip-local neighbour clamping (each CTA only sees
    // its own 64-column strip, matching the kernel).
    std::vector<u32> prev(kCols);
    std::vector<u32> cur(kCols);
    for (u32 c = 0; c < kCols; ++c) prev[c] = wall_[c];
    for (u32 r = 1; r < kRows; ++r) {
      for (u32 strip = 0; strip < kStrips; ++strip) {
        const u32 base = strip * kStripCols;
        for (u32 t = 0; t < kStripCols; ++t) {
          const u32 left = prev[base + (t == 0 ? 0 : t - 1)];
          const u32 center = prev[base + t];
          const u32 right =
              prev[base + (t == kStripCols - 1 ? t : t + 1)];
          const u32 best = std::min(std::min(left, center), right);
          cur[base + t] = wall_[r * kCols + base + t] + best;
        }
      }
      std::swap(prev, cur);
    }
    return fetch_and_check<u32>(
        device, out_dev_, kCols,
        [&](std::span<const u32> got) { return compare_u32(got, prev); });
  }

 private:
  // Register map: R3 tid | R4 gcol | R5 ping-pong offset | R6:7 wall
  // R8:9 out | R10 row counter | R11..15 scratch | R16:17 addresses
  Program build() {
    KernelBuilder b("pathfinder");
    b.set_shared_bytes(2 * kStripCols * 4);
    b.s2r(3, SpecialReg::kTidX);
    b.s2r(1, SpecialReg::kCtaidX);
    b.imad_u32(4, Operand::reg(1), Operand::imm_u(kStripCols),
               Operand::reg(3));  // global column
    b.ldc_u64(6, 0);              // wall
    b.ldc_u64(8, 1);              // out

    // prev[tid] = wall[0][gcol]
    b.imad_wide(16, Operand::reg(4), Operand::imm_u(4), Operand::reg(6));
    b.ldg(11, 16);
    b.shf(sim::ShiftKind::kLeft, 12, Operand::reg(3), Operand::imm_u(2));
    b.sts(12, 11);
    b.bar();

    b.mov_u32(5, Operand::imm_u(0));  // ping-pong byte offset (0 / 256)
    b.mov_u32(10, Operand::imm_u(1));  // row = 1
    b.uniform_loop(10, Operand::imm_u(kRows), 1, [&] {
      // Clamped neighbour columns.
      b.iadd_u32(13, Operand::reg(3), Operand::imm_u(0xFFFFFFFFu));  // t-1
      b.imnmx_s32(13, Operand::reg(13), Operand::imm_u(0), MinMax::kMax);
      b.iadd_u32(14, Operand::reg(3), Operand::imm_u(1));            // t+1
      b.imnmx_u32(14, Operand::reg(14), Operand::imm_u(kStripCols - 1),
                  MinMax::kMin);
      // prev values from shared[off + idx*4].
      b.imad_u32(15, Operand::reg(13), Operand::imm_u(4), Operand::reg(5));
      b.lds(13, 15);  // left
      b.imad_u32(15, Operand::reg(3), Operand::imm_u(4), Operand::reg(5));
      b.lds(11, 15);  // center
      b.imad_u32(15, Operand::reg(14), Operand::imm_u(4), Operand::reg(5));
      b.lds(14, 15);  // right
      b.imnmx_u32(11, Operand::reg(11), Operand::reg(13), MinMax::kMin);
      b.imnmx_u32(11, Operand::reg(11), Operand::reg(14), MinMax::kMin);
      // wall[row][gcol]
      b.ldc_u32(15, 2);  // total cols
      b.imad_u32(15, Operand::reg(10), Operand::reg(15), Operand::reg(4));
      b.imad_wide(16, Operand::reg(15), Operand::imm_u(4), Operand::reg(6));
      b.ldg(15, 16);
      b.iadd_u32(11, Operand::reg(11), Operand::reg(15));
      // cur[tid] in the other half of shared memory.
      b.lop(LopKind::kXor, 13, Operand::reg(5),
            Operand::imm_u(kStripCols * 4));
      b.imad_u32(15, Operand::reg(3), Operand::imm_u(4), Operand::reg(13));
      b.sts(15, 11);
      b.bar();
      b.mov_u32(5, Operand::reg(13));  // swap ping-pong
    });

    // Result = final "prev" row (offset R5 after the last swap).
    b.imad_u32(15, Operand::reg(3), Operand::imm_u(4), Operand::reg(5));
    b.lds(11, 15);
    b.imad_wide(16, Operand::reg(4), Operand::imm_u(4), Operand::reg(8));
    b.stg(16, 11);
    b.exit_();
    return must_build(b);
  }

  std::string name_;
  std::vector<u32> wall_;
  u64 wall_dev_ = 0, out_dev_ = 0;
  Program program_;
};

}  // namespace

std::unique_ptr<Workload> make_pathfinder() {
  return std::make_unique<Pathfinder>();
}

}  // namespace gfi::wl
