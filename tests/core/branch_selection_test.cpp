// Differential test of branch calibration: the library's sampled,
// estimator-scored selection must pick, on every level, the branch the
// exhaustive full-domain CompiledExpr scorer (branch_oracle.hpp) picks —
// on the closed-form shape menagerie, the eleven kernel nests, the
// simplex4/simplex4sh bench nests and seeded nests of all four
// differential-fuzz classes.

#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "branch_oracle.hpp"
#include "core/unrank_closed.hpp"

namespace nrc {
namespace {

std::vector<std::string> slots_of(const NestSpec& nest) {
  std::vector<std::string> slots = nest.loop_vars();
  for (const auto& p : nest.params()) slots.push_back(p);
  slots.push_back(kPcVar);
  return slots;
}

ParamMap calibration_of(const NestSpec& nest) {
  return nest.params().empty() ? ParamMap{} : default_calibration(nest);
}

/// Select with the library and with the oracle; every level must agree.
/// Returns the library's levels.
std::vector<LevelFormula> expect_oracle_branches(const std::string& what, const NestSpec& nest,
                                                 const ParamMap& calibration) {
  const RankingSystem rs = build_ranking_system(nest);
  auto levels = build_level_formulas(rs, CollapseOptions{}.max_closed_degree);
  const std::vector<std::string> slots = slots_of(nest);
  select_convenient_branches(levels, rs, calibration, slots);
  const std::vector<int> want = testutil::full_domain_branches(levels, rs, calibration, slots);
  for (size_t k = 0; k < levels.size(); ++k) {
    if (levels[k].coeffs.empty()) continue;
    EXPECT_EQ(levels[k].branch, want[k]) << what << " level " << k << "\n" << nest.str();
    EXPECT_EQ(levels[k].root.empty(), levels[k].branch < 0) << what << " level " << k;
  }
  return levels;
}

TEST(BranchOracle, ClosedFormShapes) {
  for (const auto& sc : testutil::closed_form_shapes())
    expect_oracle_branches(sc.name, sc.nest, calibration_of(sc.nest));
}

TEST(BranchOracle, KernelNests) {
  const auto kernels = make_all_kernels();
  ASSERT_EQ(kernels.size(), 11u);
  for (const auto& kernel : kernels) {
    kernel->prepare(0.02);
    const NestSpec nest = kernel->collapsed_spec();
    expect_oracle_branches(kernel->info().name, nest, calibration_of(nest));
  }
}

TEST(BranchOracle, BenchSimplexNests) {
  // bench/recovery_ns.cpp's simplex4 and simplex4sh: a quartic level 0.
  for (const auto& [name, nest] : {std::pair{"simplex4", testutil::simplex_4d()},
                                   std::pair{"simplex4sh", testutil::simplex_4d_shifted()}}) {
    const auto levels = expect_oracle_branches(name, nest, default_calibration(nest));
    EXPECT_EQ(levels[0].degree, 4) << name;
    EXPECT_GE(levels[0].branch, 0) << name;
  }
}

TEST(BranchOracle, FuzzClasses) {
  // 1200 seeds per class reach skewed seeds 48149 and 48598, whose
  // quartic level 0 has branches that are right everywhere except on a
  // run of pcs at one end of the domain — the case the end probes of the
  // calibration sample exist for.
  constexpr u64 kSeedsPerClass = 1200;
  for (const testutil::FuzzClass cls : testutil::kFuzzClasses) {
    int closed_levels = 0;
    for (u64 seed = 0; seed < kSeedsPerClass; ++seed) {
      const testutil::FuzzNest fc = testutil::make_fuzz_nest(cls, 0xb7a0 + seed);
      if (fc.expect_empty) {
        // An empty domain is refused before or by branch selection.
        EXPECT_THROW(
            {
              const RankingSystem rs = build_ranking_system(fc.nest);
              auto levels = build_level_formulas(rs, 4);
              select_convenient_branches(levels, rs, fc.calibration, slots_of(fc.nest));
            },
            SolveError)
            << fc.repro();
        continue;
      }
      for (const auto& lf : expect_oracle_branches(fc.repro(), fc.nest, fc.calibration))
        closed_levels += !lf.coeffs.empty();
    }
    EXPECT_GT(closed_levels, 0) << testutil::fuzz_class_name(cls);
  }
}

TEST(BranchOracle, SelectionIsDeterministic) {
  const NestSpec nest = testutil::simplex_4d_shifted();
  const RankingSystem rs = build_ranking_system(nest);
  const ParamMap cal = default_calibration(nest);
  auto a = build_level_formulas(rs, 4);
  auto b = build_level_formulas(rs, 4);
  select_convenient_branches(a, rs, cal, slots_of(nest));
  select_convenient_branches(b, rs, cal, slots_of(nest));
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].branch, b[k].branch) << k;
    EXPECT_EQ(a[k].root.str(), b[k].root.str()) << k;
  }
}

}  // namespace
}  // namespace nrc
