// common/simd.h: per-op agreement between the active backend and plain
// per-lane C++ (the semantics the execution core's generic loop uses), and
// between the active backend and the always-compiled scalar backend.
//
// Under GFI_SIMD=off the two backends are the same type and this suite
// pins the scalar reference against the per-lane expressions; under avx2
// it is the cross-backend bit-identity proof for every op the executor's
// fast paths consume. The CI build matrix runs both, so any lane the AVX2
// code gets wrong fails one build or the other.
//
// Lane coverage is the cartesian product of an edge-value set per operand:
// 0, +/-1, INT_MIN, INT_MAX, UINT_MAX, shift counts >= 32 for integers;
// NaN (quiet and signaling patterns), +/-inf, +/-0.0, denormals and the
// finite extremes for f32.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitutil.h"
#include "common/simd.h"
#include "sassim/warp.h"

namespace gfi {
namespace {

using sim::kWarpSize;

constexpr u32 kW = simd::kWidth;

const std::vector<u32>& u32_edges() {
  static const std::vector<u32> edges = {
      0u,          1u,          2u,          31u,         32u,
      33u,         64u,         0x7fffffffu, 0x80000000u, 0x80000001u,
      0xfffffffeu, 0xffffffffu, 0xdeadbeefu, 0x00010000u,
  };
  return edges;
}

const std::vector<u32>& f32_edge_bits() {
  static const std::vector<u32> edges = {
      0x00000000u,  // +0.0
      0x80000000u,  // -0.0
      0x3f800000u,  // 1.0
      0xbf800000u,  // -1.0
      0x40490fdbu,  // pi
      0x7f800000u,  // +inf
      0xff800000u,  // -inf
      0x7fc00000u,  // quiet NaN
      0xffc00001u,  // quiet NaN, negative, payload
      0x00000001u,  // smallest denormal
      0x807fffffu,  // largest negative denormal
      0x7f7fffffu,  // largest finite
      0xff7fffffu,  // lowest finite
      0x33800000u,  // small normal
  };
  return edges;
}

/// All (a, b) edge pairs, flattened into kW-lane rows (tail padded by
/// repeating the last pair), so every op sees every combination in every
/// lane position at least once across the sweep.
struct PairSweep {
  std::vector<u32> a;
  std::vector<u32> b;

  explicit PairSweep(const std::vector<u32>& edges) {
    for (u32 x : edges) {
      for (u32 y : edges) {
        a.push_back(x);
        b.push_back(y);
      }
    }
    while (a.size() % kW != 0) {
      a.push_back(a.back());
      b.push_back(b.back());
    }
  }
  [[nodiscard]] std::size_t chunks() const { return a.size() / kW; }
};

// ---------------------------------------------------------------------------
// u32xN ops vs per-lane expressions
// ---------------------------------------------------------------------------

template <typename V>
void check_u32_ops() {
  const PairSweep sweep(u32_edges());
  for (std::size_t c = 0; c < sweep.chunks(); ++c) {
    const u32* pa = sweep.a.data() + c * kW;
    const u32* pb = sweep.b.data() + c * kW;
    const V a = V::load(pa);
    const V b = V::load(pb);

    u32 out[kW];
    auto expect_lanes = [&](const V& r, auto&& ref, const char* op) {
      r.store(out);
      for (u32 l = 0; l < kW; ++l) {
        ASSERT_EQ(out[l], ref(pa[l], pb[l]))
            << op << " lane " << l << " a=0x" << std::hex << pa[l] << " b=0x"
            << pb[l];
      }
    };

    expect_lanes(a + b, [](u32 x, u32 y) { return x + y; }, "add");
    expect_lanes(a - b, [](u32 x, u32 y) { return x - y; }, "sub");
    expect_lanes(a * b, [](u32 x, u32 y) { return x * y; }, "mul");
    expect_lanes(a & b, [](u32 x, u32 y) { return x & y; }, "and");
    expect_lanes(a | b, [](u32 x, u32 y) { return x | y; }, "or");
    expect_lanes(a ^ b, [](u32 x, u32 y) { return x ^ y; }, "xor");
    expect_lanes(~a, [](u32 x, u32) { return ~x; }, "not");
    expect_lanes(shl(a, b), [](u32 x, u32 y) { return x << (y & 31u); },
                 "shl");
    expect_lanes(shr(a, b), [](u32 x, u32 y) { return x >> (y & 31u); },
                 "shr");
    expect_lanes(sar(a, b),
                 [](u32 x, u32 y) {
                   return static_cast<u32>(static_cast<i32>(x) >> (y & 31u));
                 },
                 "sar");
    expect_lanes(min_u(a, b), [](u32 x, u32 y) { return x < y ? x : y; },
                 "min_u");
    expect_lanes(max_u(a, b), [](u32 x, u32 y) { return x < y ? y : x; },
                 "max_u");
    expect_lanes(min_s(a, b),
                 [](u32 x, u32 y) {
                   return static_cast<i32>(x) < static_cast<i32>(y) ? x : y;
                 },
                 "min_s");
    expect_lanes(max_s(a, b),
                 [](u32 x, u32 y) {
                   return static_cast<i32>(x) < static_cast<i32>(y) ? y : x;
                 },
                 "max_s");
    expect_lanes(select(ceq(a, b), a, b),
                 [](u32 x, u32 y) { return x == y ? x : y; }, "select/ceq");

    auto expect_mask = [&](u32 got, auto&& ref, const char* op) {
      u32 want = 0;
      for (u32 l = 0; l < kW; ++l) want |= (ref(pa[l], pb[l]) ? 1u : 0u) << l;
      ASSERT_EQ(got, want) << op << " chunk " << c;
    };
    expect_mask(meq(a, b), [](u32 x, u32 y) { return x == y; }, "meq");
    expect_mask(mne(a, b), [](u32 x, u32 y) { return x != y; }, "mne");
    expect_mask(mlt_u(a, b), [](u32 x, u32 y) { return x < y; }, "mlt_u");
    expect_mask(mle_u(a, b), [](u32 x, u32 y) { return x <= y; }, "mle_u");
    expect_mask(mgt_u(a, b), [](u32 x, u32 y) { return x > y; }, "mgt_u");
    expect_mask(mge_u(a, b), [](u32 x, u32 y) { return x >= y; }, "mge_u");
    expect_mask(mlt_s(a, b),
                [](u32 x, u32 y) {
                  return static_cast<i32>(x) < static_cast<i32>(y);
                },
                "mlt_s");
    expect_mask(mle_s(a, b),
                [](u32 x, u32 y) {
                  return static_cast<i32>(x) <= static_cast<i32>(y);
                },
                "mle_s");
    expect_mask(mgt_s(a, b),
                [](u32 x, u32 y) {
                  return static_cast<i32>(x) > static_cast<i32>(y);
                },
                "mgt_s");
    expect_mask(mge_s(a, b),
                [](u32 x, u32 y) {
                  return static_cast<i32>(x) >= static_cast<i32>(y);
                },
                "mge_s");
  }
}

TEST(SimdU32, ActiveBackendMatchesPerLaneExpressions) {
  check_u32_ops<simd::u32xN>();
}
TEST(SimdU32, ScalarBackendMatchesPerLaneExpressions) {
  check_u32_ops<simd::scalar::u32xN>();
}

TEST(SimdU32, SplatAndLaneRoundTrip) {
  for (u32 x : u32_edges()) {
    const simd::u32xN v = simd::u32xN::splat(x);
    for (u32 l = 0; l < kW; ++l) ASSERT_EQ(v.lane(l), x);
  }
}

// ---------------------------------------------------------------------------
// f32xN ops vs per-lane expressions (bit-exact, NaN payloads included)
// ---------------------------------------------------------------------------

template <typename VF>
void check_f32_ops() {
  const PairSweep sweep(f32_edge_bits());
  for (std::size_t c = 0; c < sweep.chunks(); ++c) {
    const u32* pa = sweep.a.data() + c * kW;
    const u32* pb = sweep.b.data() + c * kW;
    const VF a = VF::load(pa);
    const VF b = VF::load(pb);

    u32 out[kW];
    auto expect_lanes = [&](const VF& r, auto&& ref, const char* op) {
      r.store(out);
      for (u32 l = 0; l < kW; ++l) {
        ASSERT_EQ(out[l], f32_bits(ref(bits_f32(pa[l]), bits_f32(pb[l]))))
            << op << " lane " << l << " a=0x" << std::hex << pa[l] << " b=0x"
            << pb[l];
      }
    };
    // Independent restatement of the gfi::fmin_det/fmax_det spec: take y
    // on strict order (or when x is the only NaN), else keep x — so ties
    // (fmin(+0,-0)) and two-NaN inputs return the first operand.
    auto ref_fmin = [](f32 x, f32 y) {
      if (y < x) return y;
      if (std::isnan(x) && !std::isnan(y)) return y;
      return x;
    };
    auto ref_fmax = [](f32 x, f32 y) {
      if (x < y) return y;
      if (std::isnan(x) && !std::isnan(y)) return y;
      return x;
    };
    // +/* results go through canon_nan on both sides, as the executor
    // does: two-NaN input payload selection is compilation-dependent
    // (bitutil.h), so only the canonicalized result is contractual.
    expect_lanes(canon_nan(a + b),
                 [](f32 x, f32 y) { return canon_nan(x + y); }, "fadd");
    expect_lanes(canon_nan(a * b),
                 [](f32 x, f32 y) { return canon_nan(x * y); }, "fmul");
    expect_lanes(fmin_det(a, b), ref_fmin, "fmin");
    expect_lanes(fmax_det(a, b), ref_fmax, "fmax");

    auto expect_mask = [&](u32 got, auto&& ref, const char* op) {
      u32 want = 0;
      for (u32 l = 0; l < kW; ++l) {
        want |= (ref(bits_f32(pa[l]), bits_f32(pb[l])) ? 1u : 0u) << l;
      }
      ASSERT_EQ(got, want) << op << " chunk " << c;
    };
    expect_mask(meq(a, b), [](f32 x, f32 y) { return x == y; }, "meq");
    expect_mask(mne(a, b), [](f32 x, f32 y) { return x != y; }, "mne");
    expect_mask(mlt(a, b), [](f32 x, f32 y) { return x < y; }, "mlt");
    expect_mask(mle(a, b), [](f32 x, f32 y) { return x <= y; }, "mle");
    expect_mask(mgt(a, b), [](f32 x, f32 y) { return x > y; }, "mgt");
    expect_mask(mge(a, b), [](f32 x, f32 y) { return x >= y; }, "mge");

    // fma over the pair sweep with a third operand drawn from the edges.
    for (u32 cb : {0x00000000u, 0x3f800000u, 0xff800000u, 0x7fc00000u,
                   0x7f7fffffu}) {
      const VF cc = VF::splat_bits(cb);
      const VF r = canon_nan(fma(a, b, cc));
      r.store(out);
      for (u32 l = 0; l < kW; ++l) {
        ASSERT_EQ(out[l], f32_bits(canon_nan(std::fmaf(
                              bits_f32(pa[l]), bits_f32(pb[l]), bits_f32(cb)))))
            << "fma lane " << l << " a=0x" << std::hex << pa[l] << " b=0x"
            << pb[l] << " c=0x" << cb;
      }
    }
  }
}

TEST(SimdF32, ActiveBackendMatchesPerLaneExpressions) {
  check_f32_ops<simd::f32xN>();
}
TEST(SimdF32, ScalarBackendMatchesPerLaneExpressions) {
  check_f32_ops<simd::scalar::f32xN>();
}

TEST(SimdF32, DetMinMaxPinsUnspecifiedCases) {
  const f32 pz = bits_f32(0x00000000u);
  const f32 nz = bits_f32(0x80000000u);
  // Ties return the first operand — std::fmin leaves this unspecified.
  EXPECT_EQ(f32_bits(fmin_det(pz, nz)), 0x00000000u);
  EXPECT_EQ(f32_bits(fmin_det(nz, pz)), 0x80000000u);
  EXPECT_EQ(f32_bits(fmax_det(pz, nz)), 0x00000000u);
  EXPECT_EQ(f32_bits(fmax_det(nz, pz)), 0x80000000u);
  // NaN-discarding with payloads untouched; two NaNs keep the first.
  const f32 nan_a = bits_f32(0x7fc00001u);
  const f32 nan_b = bits_f32(0xffc00002u);
  EXPECT_EQ(f32_bits(fmin_det(nan_a, 1.0f)), f32_bits(1.0f));
  EXPECT_EQ(f32_bits(fmin_det(1.0f, nan_b)), f32_bits(1.0f));
  EXPECT_EQ(f32_bits(fmin_det(nan_a, nan_b)), 0x7fc00001u);
  EXPECT_EQ(f32_bits(fmax_det(nan_b, nan_a)), 0xffc00002u);
}

TEST(SimdF32, I32ConversionMatchesStaticCast) {
  const std::vector<u32>& edges = u32_edges();
  std::vector<u32> padded = edges;
  while (padded.size() % kW != 0) padded.push_back(padded.back());
  for (std::size_t c = 0; c < padded.size() / kW; ++c) {
    const u32* p = padded.data() + c * kW;
    u32 out[kW];
    cvt_i32(simd::u32xN::load(p)).store(out);
    for (u32 l = 0; l < kW; ++l) {
      ASSERT_EQ(out[l],
                f32_bits(static_cast<f32>(static_cast<i32>(p[l]))));
    }
  }
}

// ---------------------------------------------------------------------------
// Predicate-byte primitives: partial lane masks
// ---------------------------------------------------------------------------

/// Deterministic byte patterns without pulling in <random>: xorshift32.
u32 next_rng(u32& state) {
  state ^= state << 13;
  state ^= state >> 17;
  state ^= state << 5;
  return state;
}

TEST(SimdPredicates, TestbitMask32MatchesByteLoop) {
  u32 rng = 0x5eedu;
  for (int round = 0; round < 64; ++round) {
    u8 bytes[kWarpSize];
    for (u8& byte : bytes) byte = static_cast<u8>(next_rng(rng));
    for (u32 bit = 0; bit < 8; ++bit) {
      u32 want = 0;
      for (u32 i = 0; i < kWarpSize; ++i) {
        want |= static_cast<u32>((bytes[i] >> bit) & 1u) << i;
      }
      ASSERT_EQ(simd::testbit_mask32(bytes, bit), want) << "bit " << bit;
      ASSERT_EQ(simd::scalar::testbit_mask32(bytes, bit), want)
          << "scalar bit " << bit;
    }
  }
}

TEST(SimdPredicates, GuardMaskFastMatchesGuardMaskOnPartialMasks) {
  u32 rng = 0xfeedu;
  for (int round = 0; round < 32; ++round) {
    std::vector<u32> rows(8 * kWarpSize);
    sim::WarpState warp(0, 8, 0xffffffffu, rows.data());
    for (u32 lane = 0; lane < kWarpSize; ++lane) {
      warp.set_pred_bits(lane, static_cast<u8>(next_rng(rng)));
    }
    // Full, empty, sparse and dense active masks.
    for (u32 active : {0xffffffffu, 0u, 0x00010001u, 0xaaaaaaaau,
                       next_rng(rng)}) {
      warp.set_active(active);
      for (u8 p = 0; p < 8; ++p) {
        for (bool negated : {false, true}) {
          ASSERT_EQ(warp.guard_mask_fast(p, negated),
                    warp.guard_mask(p, negated))
              << "p " << static_cast<int>(p) << " neg " << negated
              << " active 0x" << std::hex << active;
        }
      }
    }
  }
}

TEST(SimdPredicates, SetPredRowMatchesPerLaneSetPred) {
  u32 rng = 0xabcdu;
  for (u8 p = 0; p < 8; ++p) {
    for (u32 mask : {0u, 0xffffffffu, 0x80000001u, 0x55555555u,
                     next_rng(rng), next_rng(rng)}) {
      std::vector<u32> rows(2 * 8 * kWarpSize);
      sim::WarpState via_row(0, 8, 0xffffffffu, rows.data());
      sim::WarpState via_lanes(0, 8, 0xffffffffu, rows.data() + 8 * kWarpSize);
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        const u8 bits = static_cast<u8>(next_rng(rng));
        via_row.set_pred_bits(lane, bits);
        via_lanes.set_pred_bits(lane, bits);
      }
      via_row.set_pred_row(p, mask);
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        via_lanes.set_pred(lane, p, ((mask >> lane) & 1u) != 0);
      }
      for (u32 lane = 0; lane < kWarpSize; ++lane) {
        ASSERT_EQ(via_row.pred_bits(lane), via_lanes.pred_bits(lane))
            << "p " << static_cast<int>(p) << " lane " << lane;
      }
    }
  }
}

TEST(SimdBackend, NameIsConsistentWithCompiledPath) {
#ifdef GFI_SIMD_ACTIVE_AVX2
  EXPECT_STRNE(simd::backend(), "off");
  EXPECT_FALSE((std::is_same_v<simd::u32xN, simd::scalar::u32xN>));
#else
  EXPECT_STREQ(simd::backend(), "off");
  EXPECT_TRUE((std::is_same_v<simd::u32xN, simd::scalar::u32xN>));
#endif
}

}  // namespace
}  // namespace gfi
