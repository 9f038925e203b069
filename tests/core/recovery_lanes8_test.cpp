// The 8-lane recovery entry points (CollapsedEval::recover8 /
// recover_blocks8) against the all-integer binary-search recovery: full
// domains on every kernel nest, the closed-form shape menagerie, the
// depth-kMaxDepth tower and the astronomical-offsets quartic nest whose
// checked-i128 solves the lane path must reproduce.  Masked-tail edge
// cases pin trip counts congruent to 1..7 mod 8 and single-point
// domains, and the stats-parity test pins the vectorized Cardano/Ferrari
// trig to zero additional corrections or search fallbacks against the
// per-lane libm reference path (set_vector_trig(false)).
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/real_solvers.hpp"
#include "kernels/registry.hpp"

namespace nrc {
namespace {

/// recover8 against binary search: sliding windows of 8 consecutive pcs
/// across the whole domain, the trailing window clamped (recover8 takes
/// arbitrary pcs, so the start is clamped rather than the span shortened).
void expect_recover8_matches_search(const CollapsedEval& cn, const std::string& tag) {
  const size_t d = static_cast<size_t>(cn.depth());
  std::vector<i64> out(8 * d);
  std::vector<i64> via_search(d);
  for (i64 lo = 1; lo <= cn.trip_count(); lo += 8) {
    const i64 base = std::min<i64>(lo, std::max<i64>(1, cn.trip_count() - 7));
    i64 pcs[8];
    for (int l = 0; l < 8; ++l) pcs[l] = std::min<i64>(base + l, cn.trip_count());
    cn.recover8(pcs, out);
    for (int l = 0; l < 8; ++l) {
      cn.recover_search(pcs[l], via_search);
      for (size_t q = 0; q < d; ++q)
        ASSERT_EQ(out[static_cast<size_t>(l) * d + q], via_search[q])
            << tag << " pc=" << pcs[l] << " lane=" << l << " dim=" << q;
    }
  }
}

/// recover_blocks8 == eight independent recover_block_lanes tiles,
/// clipped tails included.
void expect_blocks8_match_lane_blocks(const CollapsedEval& cn, i64 block, i64 stride,
                                      const std::string& tag) {
  ASSERT_GE(stride, block);
  const size_t d = static_cast<size_t>(cn.depth());
  const i64 total = cn.trip_count();
  std::vector<i64> out8(8 * d * static_cast<size_t>(stride));
  std::vector<i64> one(d * static_cast<size_t>(stride));
  i64 rows[8];
  i64 pcs[8];
  const i64 q = std::max<i64>(1, total / 8);
  for (int b = 0; b < 8; ++b) pcs[b] = std::min<i64>(static_cast<i64>(b) * q + 1, total);
  pcs[7] = total;  // force a clipped tail tile
  cn.recover_blocks8(pcs, block, out8, stride, rows);
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(rows[b], std::min<i64>(block, total - pcs[b] + 1)) << tag;
    const i64 got = cn.recover_block_lanes(pcs[b], block, one, stride);
    ASSERT_EQ(got, rows[b]) << tag;
    for (size_t k = 0; k < d; ++k)
      for (i64 r = 0; r < rows[b]; ++r)
        ASSERT_EQ(out8[(static_cast<size_t>(b) * d + k) * static_cast<size_t>(stride) +
                       static_cast<size_t>(r)],
                  one[k * static_cast<size_t>(stride) + static_cast<size_t>(r)])
            << tag << " block=" << b << " dim=" << k << " row=" << r;
  }
}

TEST(RecoveryLanes8, MatchesSearchOnEveryKernelNest) {
  for (const auto& name : kernel_names()) {
    auto kernel = make_kernel(name);
    kernel->prepare(0.0);  // floor sizes: full domains stay test-sized
    const Collapsed col = collapse(kernel->collapsed_spec());
    const CollapsedEval cn = col.bind(kernel->bound_params());
    expect_recover8_matches_search(cn, name);
    expect_blocks8_match_lane_blocks(cn, 9, 9, name);  // 9: not a lane multiple
  }
}

TEST(RecoveryLanes8, MatchesSearchOnAllShapes) {
  for (const auto& sc : testutil::closed_form_shapes()) {
    const ParamMap p = testutil::uniform_params(sc.nest, 7);
    if (!has_no_empty_ranges(sc.nest, p)) continue;
    const CollapsedEval cn = collapse(sc.nest).bind(p);
    expect_recover8_matches_search(cn, sc.name);
    expect_blocks8_match_lane_blocks(cn, 5, 8, sc.name);
  }
}

TEST(RecoveryLanes8, MaxDepthNest) {
  NestSpec n;
  n.param("N");
  n.loop("t0", aff::c(0), aff::v("N"));
  n.loop("t1", aff::v("t0"), aff::v("N"));
  for (int k = 2; k < kMaxDepth; ++k)
    n.loop("t" + std::to_string(k), aff::c(0), aff::c(2));
  ASSERT_EQ(n.depth(), kMaxDepth);
  const CollapsedEval cn = collapse(n).bind({{"N", 3}});
  expect_recover8_matches_search(cn, "max_depth");
  expect_blocks8_match_lane_blocks(cn, 64, 64, "max_depth");
}

TEST(RecoveryLanes8, AstronomicalParameterOffsetsStillBind) {
  // Quartic coefficients past the exact-double window: the 8-lane path
  // must take the same i128-guarded paths as the scalar engine and
  // still match search exactly (see the 4-lane twin in
  // recovery_engine_test.cpp for the magnitude analysis).
  NestSpec n;
  n.param("A");
  n.loop("i", aff::v("A"), aff::v("A") + 9)
      .loop("j", aff::v("i"), aff::v("A") + 9)
      .loop("k", aff::v("j"), aff::v("A") + 9)
      .loop("l", aff::v("k"), aff::v("A") + 9);
  const CollapsedEval cn = collapse(n).bind({{"A", 1000000}});
  ASSERT_EQ(cn.solver_kind(0), LevelSolverKind::Quartic);
  ASSERT_FALSE(cn.guards_provably_f64(0));
  expect_recover8_matches_search(cn, "astronomical_offsets");
  expect_blocks8_match_lane_blocks(cn, 13, 13, "astronomical_offsets");
}

TEST(RecoveryLanes8, MaskedTailTripCounts) {
  // Triangular domains with trip counts hitting every residue 1..7
  // mod 8: T(N) = N*(N-1)/2 over N in 4..11 gives residues
  // {6,2,7,5,4,4,5,7} — with the windows clamped against trip_count()
  // these sweep every masked-tail shape of the fills and the clamped
  // trailing solve window.
  for (i64 N = 4; N <= 11; ++N) {
    const CollapsedEval cn = collapse(testutil::triangular_strict()).bind({{"N", N}});
    ASSERT_GE(cn.trip_count(), 1);
    expect_recover8_matches_search(cn, "tri_N" + std::to_string(N));
    expect_blocks8_match_lane_blocks(cn, 3, 3, "tri_N" + std::to_string(N));
  }
}

TEST(RecoveryLanes8, SinglePointDomain) {
  // One iteration total: all 8 lanes land on pc=1 and every block tile
  // clips to a single row.
  const CollapsedEval cn = collapse(testutil::triangular_inclusive()).bind({{"N", 1}});
  ASSERT_EQ(cn.trip_count(), 1);
  const size_t d = static_cast<size_t>(cn.depth());
  const i64 pcs[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  std::vector<i64> out(8 * d), ref(d);
  cn.recover8(pcs, out);
  cn.recover_search(1, ref);
  for (int l = 0; l < 8; ++l)
    for (size_t q = 0; q < d; ++q)
      ASSERT_EQ(out[static_cast<size_t>(l) * d + q], ref[q]) << l;
  std::vector<i64> tiles(8 * d * 4);
  i64 rows[8];
  cn.recover_blocks8(pcs, 4, tiles, 4, rows);
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(rows[b], 1);
    for (size_t q = 0; q < d; ++q)
      ASSERT_EQ(tiles[(static_cast<size_t>(b) * d + q) * 4], ref[q]) << b;
  }
}

TEST(RecoveryLanes8, VectorTrigAddsNoDemotions) {
  // The acceptance bar for the polynomial vcos/vatan2 kernels: across
  // the full domain of every kernel nest, recovery stats with the
  // vectorized trig must equal the per-lane libm reference path's —
  // same closed-form/corrected/fallback split (a looser trig estimate
  // would surface as `corrected` or `fallback` drift long before a wrong
  // tuple could).
  ASSERT_TRUE(simd::vector_trig_enabled());
  for (const auto& name : kernel_names()) {
    auto kernel = make_kernel(name);
    kernel->prepare(0.0);
    const Collapsed col = collapse(kernel->collapsed_spec());
    const CollapsedEval cn = col.bind(kernel->bound_params());
    const size_t d = static_cast<size_t>(cn.depth());
    std::vector<i64> out(8 * d);

    auto sweep = [&](RecoveryStats* stats) {
      for (i64 lo = 1; lo <= cn.trip_count(); lo += 8) {
        const i64 base = std::min<i64>(lo, std::max<i64>(1, cn.trip_count() - 7));
        i64 pcs[8];
        for (int l = 0; l < 8; ++l) pcs[l] = std::min<i64>(base + l, cn.trip_count());
        cn.recover8(pcs, out, stats);
      }
    };
    RecoveryStats vec, libm;
    sweep(&vec);
    simd::set_vector_trig(false);
    sweep(&libm);
    simd::set_vector_trig(true);

    EXPECT_EQ(vec.closed_form, libm.closed_form) << name;
    EXPECT_EQ(vec.corrected, libm.corrected) << name;
    EXPECT_EQ(vec.fallback, libm.fallback) << name;
  }
}

}  // namespace
}  // namespace nrc
