#include "core/unrank_closed.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/folded_bound.hpp"
#include "core/real_solvers.hpp"
#include "math/roots.hpp"
#include "support/error.hpp"
#include "symbolic/root_formula.hpp"

namespace nrc {

namespace {

/// Calibration domains default_calibration accepts hold 4..kWindow points.
constexpr i64 kWindow = 4000;

/// Number of points of the domain when it satisfies the Fig. 5 model
/// and holds at most `cap` points; -1 as soon as the walk meets an
/// empty range or passes `cap`.  Innermost rows are counted whole, so
/// the walk visits fewer than depth * cap loop iterations whatever the
/// nest and the parameter values.  (count_domain_brute with a cap would
/// not be bounded: a nest whose inner ranges are empty holds no points
/// to reach the cap with, however many outer iterations it walks.)
i64 count_model_domain(const NestSpec& spec, const ParamMap& params, i64 cap) {
  const int c = spec.depth();
  std::vector<FoldedBound> lo, hi;
  for (int k = 0; k < c; ++k) {
    lo.push_back(FoldedBound::fold(spec.at(k).lower, spec, params));
    hi.push_back(FoldedBound::fold(spec.at(k).upper, spec, params));
  }
  std::vector<i64> idx(static_cast<size_t>(c)), end(static_cast<size_t>(c));
  i64 n = 0;
  int k = -1;
  for (;;) {
    // Descend from level k + 1 to the innermost level.
    while (k + 1 < c) {
      ++k;
      idx[static_cast<size_t>(k)] = lo[static_cast<size_t>(k)].eval_checked(idx.data());
      end[static_cast<size_t>(k)] = hi[static_cast<size_t>(k)].eval_checked(idx.data());
      if (end[static_cast<size_t>(k)] <= idx[static_cast<size_t>(k)]) return -1;
    }
    const i128 row = static_cast<i128>(end[static_cast<size_t>(k)]) - idx[static_cast<size_t>(k)];
    if (row > cap - n) return -1;
    n += static_cast<i64>(row);
    // Step to the next row: the innermost enclosing loop with room left.
    do {
      if (--k < 0) return n;
    } while (++idx[static_cast<size_t>(k)] >= end[static_cast<size_t>(k)]);
  }
}

/// Level k's equation over a common denominator D > 0:
///   D * (prefix_rank[k] - pc) = sum_e A_e * i_k^e,
/// with A_e integer-valued polynomials in the outer indices, the
/// parameters and pc (only A_0 depends on pc, as A_0 - D * pc).  The
/// same scaling bind() lowers the level solvers with.
struct LevelEquation {
  std::vector<CompiledPoly> A;
  i64 den = 1;

  LevelEquation(std::span<const Polynomial> coeffs, std::span<const std::string> slot_order) {
    for (const auto& a : coeffs) den = lcm_i64(den, a.denominator_lcm());
    for (const auto& a : coeffs) A.emplace_back(a * Rational(den), slot_order);
  }
};

/// One scored point of a level: its equation's exact coefficients at
/// the point's prefix and pc, and the index the level must recover.
/// `ok` is false for a drawn pc the domain has no tuple for (the
/// calibration domain breaks the model there): every branch misses it.
struct ScoredPoint {
  std::array<i128, 5> A{};
  i64 expected = 0;
  bool ok = false;
};

u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// sum_e A[e] * t^e, checked.
i128 horner(std::span<const i128> A, i64 t) {
  i128 v = 0;
  for (size_t e = A.size(); e-- > 0;) v = checked_add(checked_mul(v, t), A[e]);
  return v;
}

/// The bounded calibration sample (see kCalibrationSample), as the
/// points each level is scored on; levels without a closed form get
/// none.  The paper's §IV-D proof that the convenient branch does not
/// depend on pc licenses scoring a few points instead of the whole
/// domain.  Each drawn pc is unranked exactly, level by level, by binary
/// search on the level equation's integer coefficients (one evaluation
/// of them per level, then Horner); the row-boundary points need no
/// evaluation at all, since moving pc only shifts A_0.
std::vector<std::vector<ScoredPoint>> calibration_sample(
    const std::vector<LevelFormula>& levels, const RankingSystem& rs,
    const ParamMap& calibration, std::span<const std::string> slot_order) {
  const int c = rs.nest.depth();
  const size_t nslots = slot_order.size();
  std::vector<i64> base(nslots, 0);
  for (size_t s = 0; s < nslots; ++s) {
    auto it = calibration.find(slot_order[s]);
    if (it != calibration.end()) base[s] = it->second;
  }
  std::vector<FoldedBound> lo, hi;
  for (int k = 0; k < c; ++k) {
    lo.push_back(FoldedBound::fold(rs.nest.at(k).lower, rs.nest, calibration));
    hi.push_back(FoldedBound::fold(rs.nest.at(k).upper, rs.nest, calibration));
  }
  std::vector<LevelEquation> eqs;
  const Polynomial pc_poly = Polynomial::variable(kPcVar);
  try {
    for (int k = 0; k < c; ++k) {
      const LevelFormula& lf = levels[static_cast<size_t>(k)];
      if (!lf.coeffs.empty()) {
        eqs.emplace_back(std::span<const Polynomial>(lf.coeffs), slot_order);
      } else {
        // Search-recovered levels are never scored, but unranking needs
        // their equation too.
        const std::vector<Polynomial> coeffs =
            (rs.prefix_rank[static_cast<size_t>(k)] - pc_poly).coefficients_in(rs.nest.at(k).var);
        eqs.emplace_back(std::span<const Polynomial>(coeffs), slot_order);
      }
    }
  } catch (const OverflowError&) {
    // Scaling left the exact int64 coefficient range, as it would in
    // bind(): no pc can be unranked exactly, so nothing is scored and
    // every level falls back to exact search.
    return std::vector<std::vector<ScoredPoint>>(static_cast<size_t>(c));
  }

  const i64 total = narrow_i64(rs.total.eval_i128(calibration));
  if (total <= 0) throw SolveError("select_convenient_branches: calibration domain is empty");
  std::vector<i64> pcs;
  const bool whole = total <= 2 * kCalibrationSample;
  if (whole) {
    for (i64 pc = 1; pc <= total; ++pc) pcs.push_back(pc);
  } else {
    u64 state = kCalibrationSeed;
    for (int i = 0; i < kCalibrationSample; ++i)
      pcs.push_back(1 + static_cast<i64>(splitmix64(state) % static_cast<u64>(total)));
    // Geometric probes off both ends of the domain: a branch that is
    // right almost everywhere typically goes wrong on a run of pcs
    // touching the first or the last point.
    for (i64 off = 0; off <= kCalibrationSample; off = off == 0 ? 1 : 2 * off) {
      pcs.push_back(1 + off);
      pcs.push_back(total - off);
    }
  }

  std::vector<std::vector<ScoredPoint>> out(static_cast<size_t>(c));
  std::vector<ScoredPoint> at(static_cast<size_t>(c));
  std::vector<i128> A;
  for (size_t i = 0; i < pcs.size(); ++i) {
    std::vector<i64> pt = base;
    pt[nslots - 1] = pcs[i];
    // Unrank pc: per level, the largest index whose prefix rank does not
    // exceed pc, i.e. the largest t with sum_e A_e t^e <= 0; the
    // innermost level must land exactly on rank pc.
    bool ok = true;
    try {
      for (int k = 0; k < c; ++k) {
        const size_t ks = static_cast<size_t>(k);
        A.resize(eqs[ks].A.size());
        for (size_t e = 0; e < A.size(); ++e) A[e] = eqs[ks].A[e].eval_i128(pt);
        i64 t = lo[ks].eval_checked(pt.data());
        const i64 end = hi[ks].eval_checked(pt.data());
        if (end <= t || horner(A, t) > 0) {
          ok = false;
          break;
        }
        i64 top = end - 1;
        while (t < top) {
          const i64 mid = static_cast<i64>(t + (static_cast<i128>(top) - t + 1) / 2);
          if (horner(A, mid) <= 0) {
            t = mid;
          } else {
            top = mid - 1;
          }
        }
        if (k == c - 1 && horner(A, t) != 0) ok = false;
        pt[ks] = t;
        if (!levels[ks].coeffs.empty()) {
          std::copy(A.begin(), A.end(), at[ks].A.begin());
          at[ks].expected = t;
        }
      }
    } catch (const OverflowError&) {
      ok = false;
    }
    for (int k = 0; k < c; ++k) {
      const size_t ks = static_cast<size_t>(k);
      if (levels[ks].coeffs.empty()) continue;
      ScoredPoint sp = at[ks];
      sp.ok = ok;
      out[ks].push_back(sp);
      // Row-boundary points from the first K/2 drawn pcs: the first
      // point of the row through this one (its rank is pc plus
      // sum_e A_e t^e / D) and the last point of the row before it.
      if (!ok || whole || i >= static_cast<size_t>(kCalibrationSample / 2)) continue;
      try {
        const std::span<const i128> coeffs(sp.A.data(), eqs[ks].A.size());
        sp.A[0] = checked_sub(sp.A[0], horner(coeffs, sp.expected));  // pc -> row start
        out[ks].push_back(sp);
        if (sp.expected > lo[ks].eval_checked(pt.data())) {
          sp.A[0] = checked_add(sp.A[0], eqs[ks].den);  // row start -> row start - 1
          --sp.expected;
          out[ks].push_back(sp);
        }
      } catch (const OverflowError&) {
        // A boundary point past the exact range is simply not scored.
      }
    }
  }
  return out;
}

/// floor(Re(root)) of a cubic or quartic branch value, when the value
/// is finite and real at this point (|Im| within 1e-6 relative).  The
/// real parts of a conjugate branch pair coincide, so only the
/// imaginary part tells the real branch from its complex twins.
bool real_floor(const CardanoBranch<long double>& z, i64* est) {
  if (!index_range_finite(z.re) || !std::isfinite(z.im)) return false;
  if (std::fabs(z.im) > 1e-6L * std::max(1.0L, std::fabs(z.re))) return false;
  *est = static_cast<i64>(std::floor(z.re + 1e-9L));
  return true;
}

/// floor(root) of branch `branch` of A_deg*t^deg + ... + A_0 = 0 with
/// the arithmetic of the solver the bound evaluator runs for that degree
/// (scalar checked-i128 / long-double path): exact division, the
/// quadratic formula, guarded Cardano, guarded Ferrari.  False when the
/// branch degenerates or is complex at this point; throws OverflowError
/// when exact arithmetic leaves its range.
bool branch_floor(const i128* A, int degree, int branch, i64* est) {
  switch (degree) {
    case 1:  // exact floor(-A0 / A1), as the exact-division solver
      if (A[1] == 0) return false;
      *est = floor_div_i128_to_i64(checked_sub(0, A[0]), A[1]);
      return true;
    case 2:  // a complex quadratic root is a negative discriminant: false
      return quadratic_estimate<long double>(A, branch, est);
    case 3:
      return A[3] != 0 && real_floor(cubic_branch<long double>(A, branch), est);
    case 4:
      return real_floor(ferrari_branch<long double, i128, true>(A, branch), est);
    default:
      return false;
  }
}

}  // namespace

std::vector<LevelFormula> build_level_formulas(const RankingSystem& rs, int max_degree) {
  const int c = rs.nest.depth();
  std::vector<LevelFormula> levels(static_cast<size_t>(c));
  const Polynomial pc_poly = Polynomial::variable(kPcVar);
  for (int k = 0; k < c; ++k) {
    LevelFormula& lf = levels[static_cast<size_t>(k)];
    const std::string& var = rs.nest.at(k).var;
    const Polynomial eq = rs.prefix_rank[static_cast<size_t>(k)] - pc_poly;
    lf.degree = eq.degree_in(var);
    if (lf.degree < 1)
      throw SolveError("level equation for '" + var +
                       "' is constant in its own variable; nest violates the model");
    if (lf.degree > max_degree) continue;  // exact-search recovery for this level
    lf.coeffs = eq.coefficients_in(var);
  }
  return levels;
}

ParamMap default_calibration(const NestSpec& spec) {
  if (spec.params().empty()) return {};
  spec.validate();
  // Smallest uniform assignment with a healthy, model-conforming domain.
  // Each candidate's walk stops at its first empty range or its
  // (kWindow + 1)-th point, so an oversized nest costs a bounded walk
  // per candidate, not an enumeration of its whole domain.
  for (i64 v : {6, 8, 5, 7, 10, 12, 4, 16, 3, 24, 32, 2, 48, 64}) {
    ParamMap cal;
    for (const auto& p : spec.params()) cal[p] = v;
    if (count_model_domain(spec, cal, kWindow) >= 4) return cal;
  }
  throw SolveError(
      "default_calibration: no uniform parameter assignment yields a usable "
      "calibration domain; pass CollapseOptions::calibration explicitly");
}

void select_convenient_branches(std::vector<LevelFormula>& levels, const RankingSystem& rs,
                                const ParamMap& calibration,
                                std::span<const std::string> slot_order) {
  const auto sample = calibration_sample(levels, rs, calibration, slot_order);
  const int c = rs.nest.depth();
  for (int k = 0; k < c; ++k) {
    LevelFormula& lf = levels[static_cast<size_t>(k)];
    if (lf.coeffs.empty()) continue;  // degree > max: search recovery
    const std::vector<ScoredPoint>& points = sample[static_cast<size_t>(k)];
    auto hit = [&](const ScoredPoint& sp, int b) {
      i64 got;
      try {
        return sp.ok && branch_floor(sp.A.data(), lf.degree, b, &got) && got == sp.expected;
      } catch (const OverflowError&) {
        return false;  // exact arithmetic left its range here
      }
    };
    // Best score, lowest branch on ties.  A branch stops being scored
    // once its misses rule out beating the best so far, so wrong
    // branches cost a few points each.
    int best = -1;
    size_t best_score = 0;
    for (int b = 0; b < root_branch_count(lf.degree); ++b) {
      size_t score = 0, missed = 0;
      for (const ScoredPoint& sp : points) {
        if (points.size() - missed <= best_score) break;
        if (hit(sp, b)) {
          ++score;
        } else {
          ++missed;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = b;
      }
    }
    // Trust the branch only when it recovers a majority of the sample;
    // anything else indicates a model violation and exact search is the
    // safe recovery.
    if (best >= 0 && best_score * 2 > points.size()) {
      lf.branch = best;
      lf.root = root_branch_expr(std::span<const Polynomial>(lf.coeffs), best);
    } else {
      lf.branch = -1;
      lf.root = Expr();
    }
  }
}

}  // namespace nrc
