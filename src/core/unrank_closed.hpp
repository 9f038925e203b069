#pragma once
// Closed-form unranking: the level equations and their convenient roots
// (paper §IV).
//
// For each level k the equation
//
//   prefix_rank[k](i_0, ..., i_{k-1}, x) - pc = 0
//
// is univariate in x with coefficients that are polynomials in the prefix
// indices, the parameters and pc.  Degrees up to 4 are invertible in
// closed form; among the root branches exactly one — the *convenient*
// root — recovers the original index as floor(Re(x)) for every pc
// (paper §IV-D proves uniqueness and pc-independence of the branch).
// Branch selection is therefore performed once, numerically, on a
// bounded sample of a small calibration domain, and generalizes.

#include <vector>

#include "core/ranking.hpp"
#include "polyhedral/domain.hpp"
#include "symbolic/expr.hpp"

namespace nrc {

/// Closed-form description of one level's recovery.
struct LevelFormula {
  int degree = 0;                  ///< degree of the level equation in i_k
  std::vector<Polynomial> coeffs;  ///< a0..a_deg over (i_0..i_{k-1}, params, pc)
  int branch = -1;                 ///< selected convenient branch (-1: none)
  Expr root;                       ///< symbolic root (empty when branch < 0)
};

/// Build the level equations; `root`/`branch` stay unset.  Levels whose
/// degree exceeds `max_degree` get an empty coefficient list (they will
/// be recovered by exact search).
std::vector<LevelFormula> build_level_formulas(const RankingSystem& rs, int max_degree);

/// Size K of the branch-calibration sample.  Each level is scored on
///   * K pcs drawn uniformly from a SplitMix64 generator seeded with
///     kCalibrationSeed,
///   * the pcs at offsets 0, 1, 2, 4, ..., K from both ends of the
///     domain (2 * (log2(K) + 2) points), and
///   * at most K row-boundary points: the first point of the level's
///     row through each of the first K/2 drawn pcs and the last point of
///     the row before it, where the convenient root is an exact integer
///     or just below one.
/// A calibration domain of at most 2K points is scored whole.
inline constexpr int kCalibrationSample = 16;
inline constexpr u64 kCalibrationSeed = 0x5eedca1b0000000dULL;

/// Numerically select the convenient branch for every level over a
/// sampled calibration domain (see kCalibrationSample), and fill in
/// `branch` and `root`.  Each branch is scored with the arithmetic of
/// the solver the bound evaluator runs for the level's degree (exact
/// division, the quadratic formula, guarded Cardano, guarded Ferrari)
/// on the exact level coefficients at each sample point; a cubic or
/// quartic branch scores only where its value is real.  Ties go to the
/// lowest branch index, and the symbolic root is built for the winner
/// only.
/// A level whose best branch mis-recovers half of the sample or more
/// is disabled (branch = -1) rather than trusted.  Deterministic: the
/// same nest and calibration always select the same branches.
/// `slot_order` is the variable layout used at runtime
/// (loop vars, params..., "pc").  Throws SolveError when the
/// calibration domain is empty.
void select_convenient_branches(std::vector<LevelFormula>& levels, const RankingSystem& rs,
                                const ParamMap& calibration,
                                std::span<const std::string> slot_order);

/// Heuristic calibration parameters: the first uniform assignment (of
/// 6, 8, 5, 7, 10, 12, 4, 16, 3, 24, 32, 2, 48, 64) whose domain has no
/// empty range and holds 4..4000 points.  Each candidate's domain walk
/// stops at its first empty range or its 4001st point, so the search is
/// bounded whatever the nest.  Returns an empty map for parameter-free
/// nests.  Throws SolveError when nothing suitable exists.
ParamMap default_calibration(const NestSpec& spec);

}  // namespace nrc
