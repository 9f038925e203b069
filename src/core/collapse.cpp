#include "core/collapse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <list>
#include <mutex>

#include "core/real_solvers.hpp"
#include "core/runtime_config.hpp"
#include "runtime/simd_abi.hpp"
#include "support/error.hpp"
#include "symbolic/print_c.hpp"

namespace nrc {

namespace {

/// Static classification of the solver bind() will pick for a level.
LevelSolverKind planned_solver(const LevelFormula& lf, int level, int depth) {
  if (level == depth - 1) return LevelSolverKind::InnermostLinear;
  if (lf.branch < 0) return LevelSolverKind::Search;
  if (lf.degree == 1) return LevelSolverKind::ExactDivision;
  if (lf.degree == 2) return LevelSolverKind::Quadratic;
  if (lf.degree == 3) return LevelSolverKind::Cubic;
  return LevelSolverKind::Quartic;
}

/// Substitute concrete parameter values into a polynomial so the runtime
/// evaluation touches only loop-variable and pc slots.  Astronomically
/// large parameters can push folded coefficients past the exact int64
/// coefficient range; in that case keep the unfolded polynomial (the
/// runtime ipow path handles it with its own overflow checks).
Polynomial fold_params(const Polynomial& p, const ParamMap& params) {
  try {
    Polynomial q = p;
    for (const auto& [name, val] : params) q = q.substitute(name, Polynomial(val));
    return q;
  } catch (const OverflowError&) {
    return p;
  }
}

}  // namespace

const char* level_solver_kind_name(LevelSolverKind k) {
  switch (k) {
    case LevelSolverKind::InnermostLinear:
      return "innermost-linear";
    case LevelSolverKind::ExactDivision:
      return "exact-division";
    case LevelSolverKind::Quadratic:
      return "guarded-quadratic";
    case LevelSolverKind::Cubic:
      return "guarded-cubic";
    case LevelSolverKind::Quartic:
      return "guarded-ferrari";
    case LevelSolverKind::Search:
      return "binary-search";
  }
  return "?";
}

struct Collapsed::Impl {
  RankingSystem rs;
  std::vector<LevelFormula> levels;
  std::vector<std::string> slots;
  CollapseOptions opts;

  // Parameter-keyed bind memo: re-binding the same parameters (cache
  // eviction rebuilds, deserialized plans, warm starts) copies the
  // memoized pristine evaluator — sharing nothing mutable, FlatPoly
  // layouts and the f64-guard proof included — instead of redoing the
  // lowering.  Small and linearly scanned; LRU beyond capacity.
  static constexpr size_t kBindMemoCapacity = 8;
  mutable std::mutex bind_mu;
  mutable std::list<std::pair<ParamMap, std::shared_ptr<const CollapsedEval>>> bind_memo;
  mutable size_t bind_reuses = 0;
};

const NestSpec& Collapsed::nest() const { return impl_->rs.nest; }
const RankingSystem& Collapsed::ranking() const { return impl_->rs; }
const std::vector<LevelFormula>& Collapsed::levels() const { return impl_->levels; }
const std::vector<std::string>& Collapsed::slot_order() const { return impl_->slots; }

bool Collapsed::fully_closed_form() const {
  for (const auto& lf : impl_->levels)
    if (lf.branch < 0) return false;
  return true;
}

Collapsed collapse(const NestSpec& nest, const CollapseOptions& opts) {
  auto impl = std::make_shared<Collapsed::Impl>();
  impl->opts = opts;
  impl->rs = build_ranking_system(nest);

  const int c = nest.depth();
  if (c > kMaxDepth)
    throw SpecError("collapse: nest depth exceeds kMaxDepth = " + std::to_string(kMaxDepth));

  impl->slots = nest.loop_vars();
  for (const auto& p : nest.params()) impl->slots.push_back(p);
  impl->slots.push_back(kPcVar);
  if (impl->slots.size() > static_cast<size_t>(kMaxSlots))
    throw SpecError("collapse: too many variables+parameters for the runtime fast path");

  if (opts.build_closed_form) {
    impl->levels = build_level_formulas(impl->rs, opts.max_closed_degree);
    const ParamMap cal =
        opts.calibration.empty() && !nest.params().empty() ? default_calibration(nest)
                                                           : opts.calibration;
    select_convenient_branches(impl->levels, impl->rs, cal, impl->slots);
  } else {
    // Degrees still need computing so describe() and codegen stay useful.
    impl->levels = build_level_formulas(impl->rs, 0);
  }

  Collapsed col;
  col.impl_ = std::move(impl);
  return col;
}

std::string Collapsed::describe() const {
  const RankingSystem& rs = impl_->rs;
  std::string s;
  s += "collapsed nest:\n" + rs.nest.str();
  s += "ranking polynomial r = " + rs.rank.str() + "\n";
  s += "trip count = " + rs.total.str() + "\n";
  const int c = rs.nest.depth();
  for (int k = 0; k < c; ++k) {
    const LevelFormula& lf = impl_->levels[static_cast<size_t>(k)];
    s += "level " + std::to_string(k) + " (" + rs.nest.at(k).var +
         "): degree " + std::to_string(lf.degree);
    if (lf.branch >= 0) {
      s += ", branch " + std::to_string(lf.branch) + "\n    " + rs.nest.at(k).var +
           " = floor(" + lf.root.str() + ")\n";
    } else {
      s += ", recovered by exact binary search\n";
    }
    const LevelSolverKind kind = planned_solver(lf, k, c);
    s += "    lowered solver: " + std::string(level_solver_kind_name(kind));
    // Quadratic and Ferrari levels evaluate one lane group of pcs per
    // call in the batched entry points (recover4 / recover8 /
    // recover_blocks4 / recover_blocks8).
    if (kind == LevelSolverKind::Quadratic || kind == LevelSolverKind::Quartic)
      s += " [lane-batched x" + std::to_string(simd::kGroupLanes) + "]";
    s += "\n";
  }
  s += "runtime simd abi: " + std::string(simd::runtime_abi()) + " (compiled " +
       std::string(simd::abi_name()) + ", " + std::to_string(simd::kGroupLanes) +
       "-lane groups; masked lane-strided block fills, lane-batched "
       "quadratic, cardano and ferrari solvers, polynomial lane trig)\n";
  s += "guard policy: proven-exact f64 where the bind-time slot-magnitude "
       "proof holds, checked-i128 fallback (all engines)\n";
  return s;
}

namespace {

/// Apply the process-global RuntimeConfig defaults to a freshly bound
/// (or memo-copied) evaluator.  set_f64_guards() stays available to
/// diverge individual evaluators afterwards.
void apply_runtime_config(CollapsedEval& ev) {
  ev.set_f64_guards(runtime_config().f64_guards);
}

}  // namespace

CollapsedEval Collapsed::bind(const ParamMap& params) const {
  const Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.bind_mu);
    for (auto it = im.bind_memo.begin(); it != im.bind_memo.end(); ++it) {
      if (it->first == params) {
        im.bind_memo.splice(im.bind_memo.begin(), im.bind_memo, it);
        ++im.bind_reuses;
        CollapsedEval ev = *it->second;
        apply_runtime_config(ev);
        return ev;
      }
    }
  }
  CollapsedEval ev = bind_fresh(params);
  {
    std::lock_guard<std::mutex> lock(im.bind_mu);
    im.bind_memo.emplace_front(params, std::make_shared<const CollapsedEval>(ev));
    if (im.bind_memo.size() > Impl::kBindMemoCapacity) im.bind_memo.pop_back();
  }
  apply_runtime_config(ev);
  return ev;
}

size_t Collapsed::bind_reuses() const {
  std::lock_guard<std::mutex> lock(impl_->bind_mu);
  return impl_->bind_reuses;
}

CollapsedEval Collapsed::bind_fresh(const ParamMap& params) const {
  const Impl& im = *impl_;
  const NestSpec& spec = im.rs.nest;
  const int c = spec.depth();

  CollapsedEval ev;
  ev.c_ = c;
  ev.params_ = params;
  ev.nslots_ = im.slots.size();
  ev.pc_slot_ = im.slots.size() - 1;

  for (const auto& p : spec.params())
    if (!params.count(p)) throw SpecError("bind: missing parameter '" + p + "'");

  ev.base_.fill(0);
  for (size_t s = 0; s < im.slots.size(); ++s) {
    auto it = params.find(im.slots[s]);
    if (it != params.end()) ev.base_[s] = it->second;
  }

  for (int k = 0; k < c; ++k) {
    ev.bounds_lo_.push_back(FoldedBound::fold(spec.at(k).lower, spec, params));
    ev.bounds_hi_.push_back(FoldedBound::fold(spec.at(k).upper, spec, params));
  }

  // Rank polynomials get the parameters folded in (fewer terms, no
  // runtime parameter powers) and, when small enough, a flat
  // multiply-add form that skips the generic power loop entirely.
  for (int k = 0; k < c; ++k) {
    const Polynomial folded = fold_params(im.rs.prefix_rank[static_cast<size_t>(k)], params);
    ev.prank_.emplace_back(folded, im.slots);
    ev.prank_flat_.push_back(FlatPoly::build(folded, im.slots));
  }

  // Lower every level's recovery into the cheapest exact engine.  The
  // scaled coefficients A_e = D * a_e (D = common denominator) have
  // integer monomial coefficients, so they are integer-valued on integer
  // points and CompiledPoly evaluates them exactly; they feed both the
  // degree-specialized solvers and the Horner correction guard.
  ev.solvers_.resize(static_cast<size_t>(c));
  for (int k = 0; k < c; ++k) {
    CollapsedEval::LevelSolver& sv = ev.solvers_[static_cast<size_t>(k)];
    const LevelFormula& lf = im.levels[static_cast<size_t>(k)];
    sv.kind = planned_solver(lf, k, c);
    sv.branch = lf.branch;
    if (k == c - 1 || lf.branch < 0) continue;

    try {
      i64 den = 1;
      for (const auto& a : lf.coeffs) den = lcm_i64(den, a.denominator_lcm());
      for (const auto& a : lf.coeffs) {
        const Polynomial pe = fold_params(a * Rational(den), params);
        // Flat multiply-add fast path for the guard coefficients (most
        // A_e are low-degree after folding); CompiledPoly stays the
        // exact fallback when the flat form doesn't fit.
        if (sv.scaled.size() < sv.flat.size())
          sv.flat[sv.scaled.size()] = FlatPoly::build(pe, im.slots);
        sv.scaled.emplace_back(pe, im.slots);
      }
    } catch (const OverflowError&) {
      // Scaling left the exact int64 coefficient range; without guard
      // coefficients no specialized solver can run, so this level
      // degrades to exact binary search — and solver_kind() reports it
      // truthfully (solve_level's early exit handles empty scaled).
      sv.scaled.clear();
      sv.flat = {};
      sv.kind = LevelSolverKind::Search;
    }
  }

  std::map<std::string, i64> pv(params.begin(), params.end());
  // Overflow-checked trip count with a structured refusal instead of the
  // raw narrowing error: adversarial parameter magnitudes must produce a
  // diagnostic naming the analyzer code (NRC-W001), never signed-overflow
  // UB or a cryptic conversion message.  eval_i128 is itself checked, so
  // a domain whose *intermediates* leave i128 surfaces the same way.
  try {
    ev.total_ = narrow_i64(im.rs.total.eval_i128(pv));
  } catch (const OverflowError&) {
    throw SpecError(
        "bind: total trip count overflows i64 for these parameters "
        "[NRC-W001 trip-count-overflow]; shrink the parameter magnitudes "
        "or collapse fewer levels");
  }
  if (ev.total_ <= 0)
    throw SpecError("bind: the iteration domain is empty for these parameters");

  // Prove the exact-double guard path: conservative per-slot magnitude
  // bounds (every point the recovery evaluates keeps loop slots inside
  // their clamped level bounds and the pc slot inside [1, total]), then
  // enable plain-double evaluation wherever every intermediate provably
  // stays far below the 2^53 exact-integer limit of double.  Levels
  // whose coefficients and Horner guard all pass run their solves —
  // scalar recover()/recover_block() and the lane-batched paths alike —
  // without any 128-bit arithmetic, bit-exact either way.
  {
    double B[kMaxSlots] = {0.0};
    for (size_t s = 0; s < ev.nslots_; ++s)
      B[s] = std::fabs(static_cast<double>(ev.base_[s]));
    B[ev.pc_slot_] = static_cast<double>(ev.total_);
    auto bound_abs = [&](const FoldedBound& b, int level) {
      double v = std::fabs(static_cast<double>(b.cst));
      for (int t = 0; t < b.nterms; ++t) {
        // Level bounds reference outer loop slots only; anything else
        // (malformed spec) poisons the proof instead of under-counting.
        if (b.slot[t] >= level) return 1.0e300;
        v += std::fabs(static_cast<double>(b.coef[t])) * B[b.slot[t]];
      }
      return v;
    };
    for (int k = 0; k < c; ++k)
      B[static_cast<size_t>(k)] =
          std::max(bound_abs(ev.bounds_lo_[static_cast<size_t>(k)], k),
                   bound_abs(ev.bounds_hi_[static_cast<size_t>(k)], k)) +
          2.0;  // margin for the guard's x+1 probes

    for (int k = 0; k < c; ++k) {
      ev.prank_flat_[static_cast<size_t>(k)].enable_f64(B);
      CollapsedEval::LevelSolver& sv = ev.solvers_[static_cast<size_t>(k)];
      const int deg = static_cast<int>(sv.scaled.size()) - 1;
      if (deg < 1) continue;
      bool ok = true;
      double horner = 0.0;
      for (int e = deg; e >= 0; --e) {
        const FlatPoly& f = sv.flat[static_cast<size_t>(e)];
        if (!f.usable()) {
          ok = false;
          break;
        }
        sv.flat[static_cast<size_t>(e)].enable_f64(B);
        if (!f.exact_f64()) {
          ok = false;
          break;
        }
        // Worst-case Horner intermediate |A_deg*t^... + A_e| at |t| <= B_k.
        horner = horner * B[static_cast<size_t>(k)] + f.value_bound(B);
        if (horner >= 1.0e15) {
          ok = false;
          break;
        }
      }
      sv.guards_f64 = ok;
    }
  }
  return ev;
}

i128 CollapsedEval::eval_rank(int k, const i64* pt) const {
  const FlatPoly& f = prank_flat_[static_cast<size_t>(k)];
  if (f.usable()) return f.eval_i128(pt);
  return prank_[static_cast<size_t>(k)].eval_i128(std::span<const i64>(pt, nslots_));
}

i64 CollapsedEval::rank(std::span<const i64> idx) const {
  std::array<i64, kMaxSlots> pt;
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  for (int k = 0; k < c_; ++k) pt[static_cast<size_t>(k)] = idx[static_cast<size_t>(k)];
  return narrow_i64(eval_rank(c_ - 1, pt.data()));
}

i64 CollapsedEval::search_level(int k, std::span<i64> pt, i64 pc) const {
  const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
  const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());
  auto rank_at = [&](i64 t) {
    pt[static_cast<size_t>(k)] = t;
    return eval_rank(k, pt.data());
  };
  i64 lo = lb;
  i64 hi = ub - 1;
  if (hi < lo || rank_at(lo) > pc)
    throw SolveError("recover: pc outside the prefix subtree (corrupt state or bad pc)");
  while (lo < hi) {
    const i64 mid = lo + (hi - lo + 1) / 2;
    if (rank_at(mid) <= pc) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  pt[static_cast<size_t>(k)] = lo;
  return lo;
}

/// Correct a floating-point index estimate against the exact level
/// equation.  A(t) = sum A[e] * t^e satisfies A(t) <= 0 iff
/// rank(prefix, t) <= pc, so `above(t)` (A(t) > 0) is an O(degree)
/// Horner evaluation on the coefficient values the solver already
/// evaluated.  An estimate off by more than kMaxCorrection steps falls
/// back to exact binary search.
template <class Above>
i64 CollapsedEval::guard_with(int k, std::span<i64> pt, i64 pc, i64 estimate, Above above,
                              RecoveryStats* stats) const {
  const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
  const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());

  i64 x = estimate;
  if (x < lb) x = lb;
  if (x > ub - 1) x = ub - 1;

  int steps = 0;
  while (x > lb && above(x) && steps < kMaxCorrection) {
    --x;
    ++steps;
  }
  while (x < ub - 1 && !above(x + 1) && steps < kMaxCorrection) {
    ++x;
    ++steps;
  }
  if (steps >= kMaxCorrection) {  // formula was badly off
    const i64 val = search_level(k, pt, pc);
    if (stats) ++stats->fallback;
    return val;
  }
  if (stats) ++(steps > 0 ? stats->corrected : stats->closed_form);
  pt[static_cast<size_t>(k)] = x;
  return x;
}

i64 CollapsedEval::guard_level(int k, std::span<i64> pt, i64 pc, i64 estimate,
                               const i128* A, int deg, RecoveryStats* stats) const {
  return guard_with(
      k, pt, pc, estimate,
      [&](i64 t) {
        i128 v = A[deg];
        for (int e = deg - 1; e >= 0; --e) v = checked_add(checked_mul(v, t), A[e]);
        return v > 0;
      },
      stats);
}

/// guard_level with the Horner boundary test in plain double — only
/// reached when bind() proved (LevelSolver::guards_f64) that every
/// intermediate is an exact integer below 2^53, so the test decides
/// identically to the i128 version.
i64 CollapsedEval::guard_level_f64(int k, std::span<i64> pt, i64 pc, i64 estimate,
                                   const double* A, int deg,
                                   RecoveryStats* stats) const {
  return guard_with(
      k, pt, pc, estimate,
      [&](i64 t) {
        const double td = static_cast<double>(t);
        double v = A[deg];
        for (int e = deg - 1; e >= 0; --e) v = v * td + A[e];
        return v > 0.0;
      },
      stats);
}

i64 CollapsedEval::solve_level(int k, std::span<i64> pt, i64 pc,
                               RecoveryStats* stats) const {
  const LevelSolver& sv = solvers_[static_cast<size_t>(k)];
  const std::span<const i64> pts(pt.data(), nslots_);

  // No guard coefficients: Search levels, or bind() dropped them on
  // overflow — only exact binary search can recover those.
  const int deg = static_cast<int>(sv.scaled.size()) - 1;
  if (deg < 1) {
    const i64 val = search_level(k, pt, pc);
    if (stats) ++stats->fallback;
    return val;
  }

  // Exact guard coefficients: when bind() proved the exact-double path
  // (guards_f64) they evaluate — and the guard runs — in plain double,
  // with no 128-bit arithmetic anywhere; otherwise checked i128.  Same
  // policy as the lane-batched engine.
  const bool f64 = sv.guards_f64 && f64_guards_;
  try {
    i128 A[5];
    double Ad[5] = {0.0, 0.0, 0.0, 0.0, 0.0};
    if (f64) {
      for (int e = 0; e <= deg; ++e)
        Ad[e] = sv.flat[static_cast<size_t>(e)].eval_f64(pt.data());
    } else {
      for (int e = 0; e <= deg; ++e)
        A[e] = sv.flat[static_cast<size_t>(e)].usable()
                   ? sv.flat[static_cast<size_t>(e)].eval_i128(pt.data())
                   : sv.scaled[static_cast<size_t>(e)].eval_i128(pts);
    }
    auto guard = [&](i64 est) {
      return f64 ? guard_level_f64(k, pt, pc, est, Ad, deg, stats)
                 : guard_level(k, pt, pc, est, A, deg, stats);
    };

    switch (sv.kind) {
      case LevelSolverKind::ExactDivision: {
        // A1 * x + A0 <= 0, A1 > 0:  x = floor(-A0 / A1), exactly (the
        // f64 coefficients are exact integers, so materializing them
        // back into i128 keeps the division exact).
        if (f64) {
          A[0] = static_cast<i128>(Ad[0]);
          A[1] = static_cast<i128>(Ad[1]);
        }
        if (A[1] <= 0) break;  // slope violates the model here: search
        const i64 x = floor_div_i128_to_i64(-A[0], A[1]);
        const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(pt.data());
        const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(pt.data());
        if (x < lb || x > ub - 1) break;  // inconsistent pc: search decides
        if (stats) ++stats->closed_form;
        pt[static_cast<size_t>(k)] = x;
        return x;
      }
      case LevelSolverKind::Quadratic: {
        i64 est;
        const bool ok = f64 ? quadratic_estimate<double>(Ad, sv.branch, &est)
                            : quadratic_estimate<long double>(A, sv.branch, &est);
        if (!ok) break;  // degenerate here: search
        return guard(est);
      }
      case LevelSolverKind::Cubic: {
        i64 est;
        const bool ok = f64 ? cubic_estimate<double>(Ad, sv.branch, &est)
                            : cubic_estimate<long double>(A, sv.branch, &est);
        if (!ok) break;
        return guard(est);
      }
      case LevelSolverKind::Quartic: {
        // A degenerate Ferrari point (complex resolvent root the real
        // arithmetic cannot follow, w == 0) breaks to exact search.
        i64 est;
        const bool ok = !fail_ferrari_ &&
                        (f64 ? ferrari_estimate<double>(Ad, sv.branch, &est)
                             : ferrari_estimate<long double>(A, sv.branch, &est));
        if (!ok) break;
        return guard(est);
      }
      default:
        break;
    }
  } catch (const OverflowError&) {
    // Exact arithmetic left the checked range (astronomical parameters):
    // binary search below is still exact.
  }
  const i64 val = search_level(k, pt, pc);
  if (stats) ++stats->fallback;
  return val;
}

/// Innermost index is linear with unit slope: i = lb + (pc - R(prefix, lb)),
/// the rank evaluated on the proven-exact double stream when bind()
/// established it and the guard policy allows it.
void CollapsedEval::recover_innermost(std::span<i64> pt, std::span<i64> idx, i64 pc) const {
  const int kl = c_ - 1;
  const i64 lb = bounds_lo_[static_cast<size_t>(kl)].eval(pt.data());
  pt[static_cast<size_t>(kl)] = lb;
  const FlatPoly& flat = prank_flat_[static_cast<size_t>(kl)];
  const i64 r0 = f64_guards_ && flat.exact_f64()
                     ? static_cast<i64>(flat.eval_f64(pt.data()))
                     : narrow_i64(eval_rank(kl, pt.data()));
  idx[static_cast<size_t>(kl)] = lb + (pc - r0);
}

void CollapsedEval::recover(i64 pc, std::span<i64> idx, RecoveryStats* stats) const {
  std::array<i64, kMaxSlots> pt;  // only the live slot prefix is copied
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  pt[pc_slot_] = pc;
  std::span<i64> pts(pt.data(), nslots_);
  for (int k = 0; k + 1 < c_; ++k)
    idx[static_cast<size_t>(k)] = solve_level(k, pts, pc, stats);
  recover_innermost(pts, idx, pc);
}

template <int W>
void CollapsedEval::solve_level_lanes(int k, i64* pts, const i64* pcs,
                                      RecoveryStats* stats) const {
  static_assert(W == 4 || W == 8, "lane group width");
  const LevelSolver& sv = solvers_[static_cast<size_t>(k)];
  auto lane_pt = [&](int l) {
    return std::span<i64>(pts + static_cast<size_t>(l) * kMaxSlots, nslots_);
  };

  // No guard coefficients: Search levels, or bind() dropped them on
  // overflow — only exact binary search can recover those.
  const int deg = static_cast<int>(sv.scaled.size()) - 1;
  if (deg < 1) {
    for (int l = 0; l < W; ++l) {
      search_level(k, lane_pt(l), pcs[l]);
      if (stats) ++stats->fallback;
    }
    return;
  }

  // Exact guard coefficients per lane (needed by the guard regardless of
  // how the estimate is produced).  When bind() proved the exact-double
  // path (guards_f64), all lanes evaluate each coefficient in one
  // vectorizable multiply-add sweep with no 128-bit arithmetic;
  // otherwise checked i128, where a lane whose exact arithmetic leaves
  // the checked range drops to the scalar solver — astronomically rare,
  // still exact.
  const bool f64 = sv.guards_f64 && f64_guards_;
  double Ad[W][5] = {};  // filled (and read) only on the f64 path
  i128 A[W][5];
  bool lane_ok[W];
  for (int l = 0; l < W; ++l) lane_ok[l] = true;
  if (f64) {
    for (int e = 0; e <= deg; ++e) {
      double col[W];
      sv.flat[static_cast<size_t>(e)].template eval_f64_lanes<W>(pts, kMaxSlots, col);
      for (int l = 0; l < W; ++l) Ad[l][e] = col[l];
    }
  } else {
    for (int l = 0; l < W; ++l) {
      try {
        for (int e = 0; e <= deg; ++e)
          A[l][e] = sv.flat[static_cast<size_t>(e)].usable()
                        ? sv.flat[static_cast<size_t>(e)].eval_i128(
                              pts + static_cast<size_t>(l) * kMaxSlots)
                        : sv.scaled[static_cast<size_t>(e)].eval_i128(
                              std::span<const i64>(
                                  pts + static_cast<size_t>(l) * kMaxSlots, nslots_));
      } catch (const OverflowError&) {
        lane_ok[l] = false;
      }
    }
  }

  // Per-lane estimates; est_ok lanes finish through the scalar exact
  // guard, the rest through the scalar solver / binary search.
  i64 est[W] = {};
  bool est_ok[W] = {};
  switch (sv.kind) {
    case LevelSolverKind::ExactDivision: {
      // Exact per lane (no floating point, no guard) — same semantics as
      // the scalar solver.  The f64 coefficients are exact integers, so
      // materializing them back into i128 keeps the division exact.
      for (int l = 0; l < W; ++l) {
        if (!lane_ok[l]) continue;
        if (f64) {
          A[l][0] = static_cast<i128>(Ad[l][0]);
          A[l][1] = static_cast<i128>(Ad[l][1]);
        }
        if (A[l][1] <= 0) {
          lane_ok[l] = false;  // slope violates the model here: search
          continue;
        }
        const i64 x = floor_div_i128_to_i64(-A[l][0], A[l][1]);
        const i64 lb = bounds_lo_[static_cast<size_t>(k)].eval(lane_pt(l).data());
        const i64 ub = bounds_hi_[static_cast<size_t>(k)].eval(lane_pt(l).data());
        if (x < lb || x > ub - 1) {
          lane_ok[l] = false;  // inconsistent pc: search decides
          continue;
        }
        if (stats) ++stats->closed_form;
        lane_pt(l)[static_cast<size_t>(k)] = x;
      }
      for (int l = 0; l < W; ++l)
        if (!lane_ok[l]) {
          search_level(k, lane_pt(l), pcs[l]);
          if (stats) ++stats->fallback;
        }
      return;
    }
    case LevelSolverKind::Quadratic: {
      // The quadratic formula across the lanes at once: per-lane
      // discriminants (double on the f64 path — the estimate doesn't
      // need exactness, the guard does), then one vector sqrt / divide.
      double dA1[W], dA2[W], ddisc[W];
      for (int l = 0; l < W; ++l) {
        dA1[l] = 0.0;
        dA2[l] = 1.0;
        ddisc[l] = 0.0;
      }
      for (int l = 0; l < W; ++l) {
        if (!lane_ok[l]) continue;
        if (f64) {
          const double disc = Ad[l][1] * Ad[l][1] - 4.0 * Ad[l][2] * Ad[l][0];
          if (disc < 0.0 || Ad[l][2] == 0.0) {
            lane_ok[l] = false;  // degenerate here: search / scalar solve
            continue;
          }
          ddisc[l] = disc;
          dA1[l] = Ad[l][1];
          dA2[l] = Ad[l][2];
          continue;
        }
        try {
          const i128 disc = checked_sub(
              checked_mul(A[l][1], A[l][1]),
              checked_mul(checked_mul(4, A[l][2]), A[l][0]));
          if (disc < 0 || A[l][2] == 0) {
            lane_ok[l] = false;  // degenerate here: search
            continue;
          }
          ddisc[l] = static_cast<double>(disc);
          dA1[l] = static_cast<double>(A[l][1]);
          dA2[l] = static_cast<double>(A[l][2]);
        } catch (const OverflowError&) {
          lane_ok[l] = false;
        }
      }
      const simd::batch<W> s = simd::sqrt(simd::load<W>(ddisc));
      const simd::batch<W> a1 = simd::load<W>(dA1);
      const simd::batch<W> num =
          sv.branch == 1 ? simd::sub(simd::neg(a1), s) : simd::add(simd::neg(a1), s);
      const simd::batch<W> root =
          simd::div(num, simd::mul(simd::splat<W>(2.0), simd::load<W>(dA2)));
      const simd::batch<W> flo = simd::floor(simd::add(root, simd::splat<W>(1e-9)));
      double rootl[W], flol[W];
      simd::store(rootl, root);
      simd::store(flol, flo);
      for (int l = 0; l < W; ++l) {
        if (!lane_ok[l]) continue;
        const double r = rootl[l];
        if (!std::isfinite(r) || r < -9.2e18 || r > 9.2e18) continue;
        est[l] = static_cast<i64>(flol[l]);
        est_ok[l] = true;
      }
      break;
    }
    case LevelSolverKind::Cubic: {
      // Lane-batched Cardano in double (the scalar engine runs long
      // double; the guard absorbs the difference).  Both discriminant
      // signs stay in-register — polynomial vcos/vatan2 on the Viete
      // lanes, Halley vcbrt on the one-real-root lanes — unless
      // simd::set_vector_trig(false) routes it back through libm.
      if (f64) {
        cubic_estimate_lanes<W>(&Ad[0][0], 5, sv.branch, est, est_ok);
      } else {
        double Ac[W][5] = {};  // dead lanes stay zero: a3 == 0 rejects them
        for (int l = 0; l < W; ++l)
          if (lane_ok[l])
            for (int e = 0; e <= deg; ++e) Ac[l][e] = static_cast<double>(A[l][e]);
        cubic_estimate_lanes<W>(&Ac[0][0], 5, sv.branch, est, est_ok);
        for (int l = 0; l < W; ++l) est_ok[l] = est_ok[l] && lane_ok[l];
      }
      break;
    }
    case LevelSolverKind::Quartic: {
      // Guarded real-arithmetic Ferrari: on the proven-f64 path all
      // lanes run the vectorized estimate (the resolvent's Cardano trig
      // included, via cardano_branch_lanes); otherwise per-lane double
      // on the exact i128 coefficients.  Lanes the real path cannot
      // follow (est_ok false) search in the finish loop below.
      if (fail_ferrari_) break;  // test hook: every estimate fails
      if (f64) {
        ferrari_estimate_lanes<W>(&Ad[0][0], 5, sv.branch, est, est_ok);
      } else {
        for (int l = 0; l < W; ++l) {
          if (!lane_ok[l]) continue;
          est_ok[l] = ferrari_estimate<double>(A[l], sv.branch, &est[l]);
        }
      }
      break;
    }
    default:
      break;
  }

  for (int l = 0; l < W; ++l) {
    if (!lane_ok[l]) {
      solve_level(k, lane_pt(l), pcs[l], stats);
      continue;
    }
    if (est_ok[l]) {
      // The guard's built-in search fallback decides.
      if (f64) {
        guard_level_f64(k, lane_pt(l), pcs[l], est[l], Ad[l], deg, stats);
        continue;
      }
      try {
        guard_level(k, lane_pt(l), pcs[l], est[l], A[l], deg, stats);
        continue;
      } catch (const OverflowError&) {
        // Horner guard left the checked range: exact search below.
      }
    }
    search_level(k, lane_pt(l), pcs[l]);
    if (stats) ++stats->fallback;
  }
}

template <int W>
void CollapsedEval::recover_lanes(const i64* pcs, std::span<i64> out,
                                  RecoveryStats* stats) const {
  constexpr const char* kName = W == 4 ? "recover4" : "recover8";
  const size_t d = static_cast<size_t>(c_);
  if (out.size() < W * d)
    throw SpecError(std::string(kName) + ": output span too small (needs W*depth())");
  for (int l = 0; l < W; ++l)
    if (pcs[l] < 1 || pcs[l] > total_)
      throw SolveError(std::string(kName) + ": pc outside [1, trip_count()]");

  i64 pts[W][kMaxSlots];
  for (int l = 0; l < W; ++l) {
    std::memcpy(pts[l], base_.data(), nslots_ * sizeof(i64));
    pts[l][pc_slot_] = pcs[l];
  }
  for (int k = 0; k + 1 < c_; ++k) solve_level_lanes<W>(k, &pts[0][0], pcs, stats);

  // Innermost level: linear with unit slope, i = lb + (pc - R(prefix, lb)).
  // On the proven-exact-f64 stream one lane-batched multiply-add sweep
  // replaces W scalar rank evaluations (the per-lane recover_innermost
  // loop was the 8-lane engine's single largest scalar cost on deep
  // nests); anything else runs the per-lane scalar path unchanged.
  const int kl = c_ - 1;
  const FlatPoly& inner_flat = prank_flat_[d - 1];
  if (f64_guards_ && inner_flat.exact_f64()) {
    double r0[W];
    for (int l = 0; l < W; ++l)
      pts[l][kl] = bounds_lo_[static_cast<size_t>(kl)].eval(pts[l]);
    inner_flat.template eval_f64_lanes<W>(&pts[0][0], kMaxSlots, r0);
    for (int l = 0; l < W; ++l) {
      std::span<i64> row = out.subspan(static_cast<size_t>(l) * d, d);
      for (int k = 0; k + 1 < c_; ++k) row[static_cast<size_t>(k)] = pts[l][k];
      row[d - 1] = pts[l][kl] + (pcs[l] - static_cast<i64>(r0[l]));
    }
    return;
  }
  for (int l = 0; l < W; ++l) {
    std::span<i64> pt(pts[l], nslots_);
    std::span<i64> row = out.subspan(static_cast<size_t>(l) * d, d);
    for (int k = 0; k + 1 < c_; ++k) row[static_cast<size_t>(k)] = pts[l][k];
    recover_innermost(pt, row, pcs[l]);
  }
}

void CollapsedEval::recover4(const i64 pcs[4], std::span<i64> out,
                             RecoveryStats* stats) const {
  recover_lanes<4>(pcs, out, stats);
}

void CollapsedEval::recover8(const i64 pcs[8], std::span<i64> out,
                             RecoveryStats* stats) const {
  recover_lanes<8>(pcs, out, stats);
}

i64 CollapsedEval::recover_block(i64 pc_lo, i64 n, std::span<i64> out,
                                 RecoveryStats* stats) const {
  if (n <= 0) return 0;
  if (pc_lo < 1 || pc_lo > total_)
    throw SolveError("recover_block: pc_lo outside [1, trip_count()]");
  const i64 m = std::min<i64>(n, total_ - pc_lo + 1);
  const size_t d = static_cast<size_t>(c_);
  if (out.size() < static_cast<size_t>(m) * d)
    throw SpecError("recover_block: output span too small for the requested block");

  i64 filled = 0;
  for_each_row(
      pc_lo, pc_lo + m - 1,
      [&](const i64* idx, i64 j_begin, i64 j_end) {
        for (i64 j = j_begin; j < j_end; ++j) {
          i64* row = out.data() + static_cast<size_t>(filled++) * d;
          std::memcpy(row, idx, d * sizeof(i64));
          row[d - 1] = j;
        }
      },
      stats);
  return filled;
}

void CollapsedEval::fill_rows_lanes(std::span<i64> idx, i64 pc, i64 hi, i64* out,
                                    i64 stride) const {
  const size_t d = static_cast<size_t>(c_);
  i64 filled = 0;
  for_each_row_from(idx, pc, hi, [&](const i64* row, i64 j_begin, i64 j_end) {
    const i64 len = j_end - j_begin;
    // One broadcast store stream per outer column, one iota stream for
    // the innermost — the structure-of-arrays fill the SIMD bodies read.
    for (size_t k = 0; k + 1 < d; ++k)
      simd::fill_broadcast(out + k * static_cast<size_t>(stride) + filled, len, row[k]);
    simd::fill_iota(out + (d - 1) * static_cast<size_t>(stride) + filled, len, j_begin);
    filled += len;
  });
}

i64 CollapsedEval::recover_block_lanes(i64 pc_lo, i64 n, std::span<i64> out, i64 stride,
                                       RecoveryStats* stats) const {
  if (n <= 0) return 0;
  if (pc_lo < 1 || pc_lo > total_)
    throw SolveError("recover_block_lanes: pc_lo outside [1, trip_count()]");
  const i64 m = std::min<i64>(n, total_ - pc_lo + 1);
  if (stride < m)
    throw SpecError("recover_block_lanes: stride smaller than the produced rows");
  const size_t d = static_cast<size_t>(c_);
  if (out.size() < d * static_cast<size_t>(stride))
    throw SpecError("recover_block_lanes: output span too small for depth()*stride");

  i64 idx[kMaxDepth];
  recover(pc_lo, {idx, d}, stats);
  fill_rows_lanes({idx, d}, pc_lo, pc_lo + m - 1, out.data(), stride);
  return m;
}

template <int W>
void CollapsedEval::recover_blocks_lanes(const i64* pcs, i64 n, std::span<i64> out,
                                         i64 stride, i64* rows,
                                         RecoveryStats* stats) const {
  constexpr const char* kName = W == 4 ? "recover_blocks4" : "recover_blocks8";
  const size_t d = static_cast<size_t>(c_);
  if (n <= 0) {
    for (int b = 0; b < W; ++b) rows[b] = 0;
    return;
  }
  if (out.size() < W * d * static_cast<size_t>(stride))
    throw SpecError(std::string(kName) + ": output span too small for W*depth()*stride");
  for (int b = 0; b < W; ++b) {
    if (pcs[b] < 1 || pcs[b] > total_)
      throw SolveError(std::string(kName) + ": pc outside [1, trip_count()]");
    rows[b] = std::min<i64>(n, total_ - pcs[b] + 1);
    if (stride < rows[b])
      throw SpecError(std::string(kName) + ": stride smaller than the produced rows");
  }

  // One lane-parallel solve covers all block starts; each block then
  // fills its lane-strided tile by row arithmetic.
  i64 seed[W * kMaxDepth];
  recover_lanes<W>(pcs, {seed, W * d}, stats);
  for (int b = 0; b < W; ++b) {
    i64 idx[kMaxDepth];
    std::memcpy(idx, seed + static_cast<size_t>(b) * d, d * sizeof(i64));
    fill_rows_lanes({idx, d}, pcs[b], pcs[b] + rows[b] - 1,
                    out.data() + static_cast<size_t>(b) * d * static_cast<size_t>(stride),
                    stride);
  }
}

void CollapsedEval::recover_blocks4(const i64 pcs[4], i64 n, std::span<i64> out,
                                    i64 stride, i64 rows[4], RecoveryStats* stats) const {
  recover_blocks_lanes<4>(pcs, n, out, stride, rows, stats);
}

void CollapsedEval::recover_blocks8(const i64 pcs[8], i64 n, std::span<i64> out,
                                    i64 stride, i64 rows[8], RecoveryStats* stats) const {
  recover_blocks_lanes<8>(pcs, n, out, stride, rows, stats);
}

void CollapsedEval::recover_search(i64 pc, std::span<i64> idx) const {
  std::array<i64, kMaxSlots> pt;
  std::memcpy(pt.data(), base_.data(), nslots_ * sizeof(i64));
  pt[pc_slot_] = pc;
  std::span<i64> pts(pt.data(), nslots_);
  for (int k = 0; k < c_; ++k) idx[static_cast<size_t>(k)] = search_level(k, pts, pc);
}

bool CollapsedEval::increment(std::span<i64> idx) const {
  int k = c_ - 1;
  ++idx[static_cast<size_t>(k)];
  while (idx[static_cast<size_t>(k)] >= bounds_hi_[static_cast<size_t>(k)].eval(idx.data())) {
    if (k == 0) return false;
    --k;
    ++idx[static_cast<size_t>(k)];
  }
  for (int q = k + 1; q < c_; ++q)
    idx[static_cast<size_t>(q)] = bounds_lo_[static_cast<size_t>(q)].eval(idx.data());
  return true;
}

bool CollapsedEval::advance(std::span<i64> idx, i64 n) const {
  while (n > 0) {
    const i64 left = row_extent(idx) - 1;  // steps that stay in this row
    if (n <= left) {
      idx[static_cast<size_t>(c_ - 1)] += n;
      return true;
    }
    idx[static_cast<size_t>(c_ - 1)] += left;
    n -= left + 1;
    if (!increment(idx)) return false;
  }
  return true;
}

void CollapsedEval::first(std::span<i64> idx) const {
  for (int k = 0; k < c_; ++k)
    idx[static_cast<size_t>(k)] = bounds_lo_[static_cast<size_t>(k)].eval(idx.data());
}

void CollapsedEval::last(std::span<i64> idx) const {
  for (int k = 0; k < c_; ++k)
    idx[static_cast<size_t>(k)] = bounds_hi_[static_cast<size_t>(k)].eval(idx.data()) - 1;
}

}  // namespace nrc
