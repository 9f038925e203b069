#pragma once
// Full-domain branch oracle for the branch-selection differential test.
//
// This is the selection rule the library used before it switched to
// estimator-scored sampling: compile every root branch of every level
// into the complex long-double CompiledExpr interpreter and score each
// branch at every point of the calibration domain (exact pc from the
// rank polynomial, imaginary part within 1e-6 relative, floor with the
// 1e-9 nudge).  The best branch wins (lowest index on ties) when it
// recovers more than half of the points.  It is exhaustive and slow,
// which is why it lives here and not in the library.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/unrank_closed.hpp"
#include "math/roots.hpp"
#include "symbolic/compile.hpp"
#include "symbolic/root_formula.hpp"

namespace nrc::testutil {

/// Branch per level (-1: disabled or no closed form), outermost first.
inline std::vector<int> full_domain_branches(const std::vector<LevelFormula>& levels,
                                             const RankingSystem& rs,
                                             const ParamMap& calibration,
                                             std::span<const std::string> slot_order) {
  const int c = rs.nest.depth();
  std::vector<int> out(static_cast<size_t>(c), -1);
  const auto points = domain_points(rs.nest, calibration);
  if (points.empty()) return out;

  const CompiledPoly rank_cp(rs.rank, slot_order);
  const size_t nslots = slot_order.size();
  std::vector<i64> base(nslots, 0);
  for (size_t s = 0; s < nslots; ++s) {
    auto it = calibration.find(slot_order[s]);
    if (it != calibration.end()) base[s] = it->second;
  }
  std::vector<i64> pcs(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<i64> pt = base;
    for (int k = 0; k < c; ++k) pt[static_cast<size_t>(k)] = points[i][static_cast<size_t>(k)];
    pcs[i] = narrow_i64(rank_cp.eval_i128(pt));
  }
  const size_t pc_slot = nslots - 1;

  for (int k = 0; k < c; ++k) {
    const LevelFormula& lf = levels[static_cast<size_t>(k)];
    if (lf.coeffs.empty()) continue;
    const int nb = root_branch_count(lf.degree);
    std::vector<CompiledExpr> compiled;
    for (int b = 0; b < nb; ++b)
      compiled.emplace_back(root_branch_expr(std::span<const Polynomial>(lf.coeffs), b),
                            slot_order);

    std::vector<size_t> score(static_cast<size_t>(nb), 0);
    for (size_t i = 0; i < points.size(); ++i) {
      std::vector<i64> pt = base;
      for (int q = 0; q < k; ++q) pt[static_cast<size_t>(q)] = points[i][static_cast<size_t>(q)];
      pt[pc_slot] = pcs[i];
      const i64 expected = points[i][static_cast<size_t>(k)];
      for (int b = 0; b < nb; ++b) {
        const cld z = compiled[static_cast<size_t>(b)].eval(pt);
        if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) continue;
        const long double tol = 1e-6L * std::max<long double>(1.0L, std::abs(z.real()));
        if (std::abs(z.imag()) > tol) continue;
        if (static_cast<i64>(std::floor(z.real() + 1e-9L)) == expected)
          ++score[static_cast<size_t>(b)];
      }
    }
    int best = -1;
    size_t best_score = 0;
    for (int b = 0; b < nb; ++b) {
      if (score[static_cast<size_t>(b)] > best_score) {
        best_score = score[static_cast<size_t>(b)];
        best = b;
      }
    }
    if (best >= 0 && best_score * 2 > points.size()) out[static_cast<size_t>(k)] = best;
  }
  return out;
}

}  // namespace nrc::testutil
