// Measured cost model: profile classification, the persisted table
// format (save/parse round trip and rejection of malformed input),
// nearest-depth lookup, the auto_select integration (table-driven
// choice vs heuristic fallback, ABI refusal, describe()'s cost line),
// the composite schemes' full-domain equivalence under hostile
// parameters, and the selection-accuracy property: on every closed-form
// kernel nest, the schedule the calibrated table picks must measure
// within a fixed factor of the measured-best candidate.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "../test_util.hpp"
#include "pipeline/cost_model.hpp"
#include "pipeline/plan.hpp"
#include "runtime/simd_abi.hpp"

namespace nrc {
namespace {

/// Every test that installs a global table goes through this fixture so
/// the suite leaves auto_select on the heuristic for the other test
/// files linked into this binary.
class CostModelGlobal : public ::testing::Test {
 protected:
  void SetUp() override { CostModel::clear_global(); }
  void TearDown() override { CostModel::clear_global(); }
};

CostEntry entry(SolverProfile p, int depth, double engine, double block,
                double simd4, double simd8) {
  CostEntry e;
  e.profile = p;
  e.depth = depth;
  e.lanes = simd::kGroupLanes;
  e.engine_ns = engine;
  e.block_ns = block;
  e.simd4_ns = simd4;
  e.simd8_ns = simd8;
  return e;
}

// ------------------------------------------------------- classification

TEST(CostModel, ClassifiesByWorstLevelSolver) {
  auto profile_of = [](const NestSpec& nest, i64 n) {
    const Collapsed col = collapse(nest);
    return classify_solver_profile(col.bind(testutil::uniform_params(nest, n)));
  };
  EXPECT_EQ(profile_of(testutil::rectangular(), 40), SolverProfile::Division);
  EXPECT_EQ(profile_of(testutil::triangular_strict(), 40), SolverProfile::Quadratic);
  EXPECT_EQ(profile_of(testutil::tetrahedral_fig6(), 24), SolverProfile::Cubic);
  EXPECT_EQ(profile_of(testutil::simplex_4d(), 16), SolverProfile::Quartic);
  EXPECT_EQ(profile_of(testutil::simplex_5d(), 10), SolverProfile::Costly);
}

// --------------------------------------------------------- persistence

TEST(CostModel, SaveParseRoundTripIsExact) {
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 12.5, 1.25, 0.8, 0.6));
  m.add(entry(SolverProfile::Cubic, 3, 48.0, 2.0, 1.5, 1.1));
  const std::string text = m.save_text();
  EXPECT_NE(text.find("nrc-cost-table v1"), std::string::npos);
  EXPECT_NE(text.find(std::string("abi ") + simd::runtime_abi()), std::string::npos);
  EXPECT_NE(text.find("entry profile=quadratic depth=2"), std::string::npos);

  const CostModel back = CostModel::parse_text(text);
  EXPECT_EQ(back.abi(), m.abi());
  ASSERT_EQ(back.size(), 2u);
  const CostEntry* e = back.lookup(SolverProfile::Cubic, 3);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->engine_ns, 48.0);
  EXPECT_DOUBLE_EQ(e->block_ns, 2.0);
  EXPECT_DOUBLE_EQ(e->simd8_ns, 1.1);
  // Stability: re-rendering parses to the same text.
  EXPECT_EQ(back.save_text(), text);
}

TEST(CostModel, ParseRejectsMalformedInput) {
  EXPECT_THROW(CostModel::parse_text(""), ParseError);
  EXPECT_THROW(CostModel::parse_text("bogus header\n"), ParseError);
  EXPECT_THROW(CostModel::parse_text("nrc-cost-table v1\nentry profile=nope depth=2\n"),
               ParseError);
  EXPECT_THROW(CostModel::parse_text("nrc-cost-table v1\nwhat is this\n"), ParseError);
  // The retired bytecode profile row is refused, not misindexed.
  EXPECT_THROW(CostModel::parse_text("nrc-cost-table v1\nentry profile=program depth=4 "
                                     "lanes=4 engine=1 block=1 simd4=1 simd8=1\n"),
               ParseError);
  // Comments and blank lines are fine.
  EXPECT_NO_THROW(CostModel::parse_text("# c\n\nnrc-cost-table v1\nabi scalar\n"));
}

TEST(CostModel, LoadFileThrowsOnMissingPath) {
  EXPECT_THROW(CostModel::load_file("/nonexistent/nrc-cost-table"), ParseError);
}

TEST(CostModel, LookupFallsBackToNearestDepthWithinProfile) {
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 10, 1, 1, 1));
  m.add(entry(SolverProfile::Quadratic, 5, 50, 1, 1, 1));
  const CostEntry* exact = m.lookup(SolverProfile::Quadratic, 5);
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->depth, 5);
  const CostEntry* near = m.lookup(SolverProfile::Quadratic, 3);
  ASSERT_NE(near, nullptr);
  EXPECT_EQ(near->depth, 2);
  EXPECT_EQ(m.lookup(SolverProfile::Costly, 3), nullptr);
  // Re-adding a (profile, depth) replaces rather than duplicates.
  m.add(entry(SolverProfile::Quadratic, 2, 99, 1, 1, 1));
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.lookup(SolverProfile::Quadratic, 2)->engine_ns, 99);
}

// ------------------------------------------------- auto_select plumbing

TEST_F(CostModelGlobal, EmptyTableFallsBackToHeuristic) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 500}});
  AutoSelectHints h;
  h.threads = 4;
  const Schedule::Choice ch = Schedule::auto_select_with_cost(cn, h);
  EXPECT_FALSE(ch.from_cost_model);
  EXPECT_LT(ch.est_ns_per_iter, 0);
  EXPECT_EQ(ch.schedule.scheme, Scheme::RowSegmentsChunked);  // the heuristic pick
}

TEST_F(CostModelGlobal, CalibratedTableDrivesAutoSelect) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 500}});
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 20.0, 1.0, 0.7, 0.5));
  CostModel::set_global(std::move(m));

  AutoSelectHints h;
  h.threads = 4;
  const Schedule::Choice ch = Schedule::auto_select_with_cost(cn, h);
  EXPECT_TRUE(ch.from_cost_model);
  EXPECT_GT(ch.est_ns_per_iter, 0);
  EXPECT_EQ(ch.profile, "quadratic/d2");
  EXPECT_NO_THROW(ch.schedule.validate());
  // auto_select and auto_select_with_cost agree.
  EXPECT_EQ(Schedule::auto_select(cn, h).describe(), ch.schedule.describe());
}

TEST_F(CostModelGlobal, RecoveryDominatedTableFlipsTheChoice) {
  // An (artificial) table where recoveries are catastrophically
  // expensive and walking is free: the model must pick a scheme with
  // O(threads) recoveries (per-thread / row-segments / D&C with its
  // grain capped) — never the chunked scheme the heuristic would take.
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 500}});
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 5e6, 0.5, 0.5, 0.5));
  CostModel::set_global(std::move(m));
  AutoSelectHints h;
  h.threads = 4;
  const Schedule::Choice ch = Schedule::auto_select_with_cost(cn, h);
  ASSERT_TRUE(ch.from_cost_model);
  EXPECT_TRUE(ch.schedule.scheme == Scheme::PerThread ||
              ch.schedule.scheme == Scheme::RowSegments)
      << ch.schedule.describe();
}

TEST_F(CostModelGlobal, MismatchedAbiTableIsRefused) {
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 20.0, 1.0, 0.7, 0.5));
  m.set_abi("some-other-machine");
  CostModel::set_global(std::move(m));
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 500}});
  AutoSelectHints h;
  h.threads = 4;
  const Schedule::Choice ch = Schedule::auto_select_with_cost(cn, h);
  EXPECT_FALSE(ch.from_cost_model);  // heuristic fallback, not a mis-priced pick
}

TEST_F(CostModelGlobal, TinyDomainGuardsStayAheadOfTheTable) {
  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 20.0, 1.0, 0.7, 0.5));
  CostModel::set_global(std::move(m));
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval tiny = col.bind({{"N", 2}});  // 1 iteration
  const Schedule::Choice ch = Schedule::auto_select_with_cost(tiny, {});
  EXPECT_EQ(ch.schedule.scheme, Scheme::SerialSim);
  EXPECT_FALSE(ch.from_cost_model);
}

TEST_F(CostModelGlobal, DescribeCarriesTheCostEstimateLine) {
  // describe() auto-selects under the OpenMP default team; on a 1-core
  // box that hits the serial guard before the table, so widen the
  // default for the duration of the test.
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(4);

  const auto plan = CollapsePlan::build(testutil::triangular_strict(), {{"N", 200}});
  EXPECT_NE(plan->describe().find("cost estimate: heuristic (no cost table)"),
            std::string::npos)
      << plan->describe();

  CostModel m;
  m.add(entry(SolverProfile::Quadratic, 2, 20.0, 1.0, 0.7, 0.5));
  CostModel::set_global(std::move(m));
  const std::string d = plan->describe();
  EXPECT_NE(d.find("ns/iter (cost model, quadratic/d2)"), std::string::npos) << d;
  EXPECT_NE(d.find("schedule (auto): "), std::string::npos) << d;

  omp_set_num_threads(saved_threads);
}

// ------------------------------------- composite schemes, full domain

TEST(CompositeSchemes, DivideAndConquerVisitsTheExactDomain) {
  const Collapsed col = collapse(testutil::triangular_strict());
  const CollapsedEval cn = col.bind({{"N", 220}});  // 24090 iterations
  const auto ref = testutil::odometer_reference(cn, /*cap=*/0);
  const i64 total = cn.trip_count();
  for (const i64 grain : {i64{0}, i64{1}, i64{7}, total / 2, total,
                          total + 11, std::numeric_limits<i64>::max()}) {
    for (const int t : {1, 3, 8}) {
      EXPECT_TRUE(testutil::run_scheme_differential(
          cn, ref,
          [&](auto&& visit) { run(cn, Schedule::divide_and_conquer(grain, {t}), visit); }))
          << "grain=" << grain << " threads=" << t;
    }
  }
}

TEST(CompositeSchemes, TiledTwoLevelVisitsTheExactDomain) {
  const Collapsed col = collapse(testutil::tetrahedral_fig6());
  const CollapsedEval cn = col.bind({{"N", 40}});  // 11480 iterations
  const auto ref = testutil::odometer_reference(cn, /*cap=*/0);
  const i64 total = cn.trip_count();
  for (const auto& [tile, vlen] :
       {std::pair<i64, int>{0, 4}, {1, 1}, {3, 8}, {64, 3}, {total, 4},
        {total + 5, 8}, {std::numeric_limits<i64>::max(), 4}}) {
    for (const int t : {1, 3, 8}) {
      EXPECT_TRUE(testutil::run_scheme_differential(
          cn, ref,
          [&](auto&& visit) {
            run(cn, Schedule::tiled_two_level(tile, vlen, {t}), visit);
          }))
          << "tile=" << tile << " vlen=" << vlen << " threads=" << t;
    }
  }
}

TEST(CompositeSchemes, SegmentAndBlockBodiesRunNatively) {
  const Collapsed col = collapse(testutil::triangular_inclusive());
  const CollapsedEval cn = col.bind({{"N", 64}});
  // D&C with a segment body: maximal-run segments inside each leaf.
  i64 visited = 0;
  run(cn, Schedule::divide_and_conquer(16, {3}),
      [&](std::span<const i64>, i64 j0, i64 j1) {
#pragma omp atomic
        visited += j1 - j0;
      });
  EXPECT_EQ(visited, cn.trip_count());
  // Tiled with a block body: SoA lane groups inside each tile.
  i64 lanes_seen = 0;
  run(cn, Schedule::tiled_two_level(128, 8, {3}), [&](int lanes, const i64* const*) {
#pragma omp atomic
    lanes_seen += lanes;
  });
  EXPECT_EQ(lanes_seen, cn.trip_count());
}

// ------------------------------------------------- selection accuracy

/// Wall-clock one schedule end to end with a race-free per-thread-slot
/// body; best of `reps`.
double measure_ns(const CollapsedEval& cn, const Schedule& s, int reps) {
  static thread_local u64 sink_slot;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = omp_get_wtime();
    run(cn, s, [](std::span<const i64> idx) { sink_slot += testutil::tuple_mix(idx); });
    best = std::min(best, omp_get_wtime() - t0);
  }
  static volatile u64 g_sink;
  g_sink = sink_slot;
  return best * 1e9;
}

/// auto_select with an in-process-calibrated table must land within a
/// fixed factor of the measured-best candidate on every closed-form
/// kernel nest.  The factor is deliberately generous (shared CI boxes
/// jitter), but it catches the failure mode that matters: the model
/// systematically picking a scheme whose measured cost is in a
/// different league (e.g. per-iteration recovery on a quartic nest).
TEST_F(CostModelGlobal, SelectionWithinFixedFactorOfMeasuredBest) {
  constexpr double kFactor = 16.0;
  constexpr double kSlackNs = 2e5;  // absolute jitter floor per run
  AutoSelectHints h;
  h.threads = 4;
  h.block_body = true;

  for (const auto& shape : testutil::closed_form_shapes()) {
    const Collapsed col = collapse(shape.nest);
    // Scale the uniform parameter until the domain is big enough that
    // scheme choice is measurable but cheap (>= ~30k iterations).
    i64 v = 24;
    CollapsedEval cn = col.bind(testutil::uniform_params(shape.nest, v));
    while (cn.trip_count() < 30000 && v < (i64{1} << 20)) {
      v *= 2;
      cn = col.bind(testutil::uniform_params(shape.nest, v));
    }

    CostModel m;
    m.add(CostModel::calibrate(cn));
    CostModel::set_global(std::move(m));

    const Schedule::Choice ch = Schedule::auto_select_with_cost(cn, h);
    ASSERT_TRUE(ch.from_cost_model) << shape.name;

    const int nt = h.threads;
    const CostEntry* e =
        CostModel::global().lookup(classify_solver_profile(cn), cn.depth());
    ASSERT_NE(e, nullptr) << shape.name;
    double best_ns = 1e300;
    std::string best_label;
    for (const Schedule& s : CostModel::candidate_schedules(e, cn.trip_count(), h, nt)) {
      const double ns = measure_ns(cn, s, 3);
      if (ns < best_ns) {
        best_ns = ns;
        best_label = s.describe();
      }
    }
    const double chosen_ns = measure_ns(cn, ch.schedule, 3);
    EXPECT_LE(chosen_ns, kFactor * best_ns + kSlackNs)
        << shape.name << ": chose " << ch.schedule.describe() << " ("
        << chosen_ns / 1e3 << " us), measured best " << best_label << " ("
        << best_ns / 1e3 << " us)";
    CostModel::clear_global();
  }
}

}  // namespace
}  // namespace nrc
