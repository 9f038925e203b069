#pragma once
// Affine loop bounds pre-folded over concrete parameter values.
//
// Binding a nest to parameters turns every bound into a small linear form
// over the loop-variable slots alone; evaluating it is then a handful of
// multiply-adds over an inline term array — no name lookups, no maps, no
// heap.  CollapsedEval reads every level bound this slot-indexed way.

#include "core/runtime_limits.hpp"
#include "polyhedral/domain.hpp"
#include "support/error.hpp"
#include "support/int128.hpp"

namespace nrc {

/// A loop bound with parameters folded in: only loop-variable slots
/// (0..depth-1) remain.  `idx` in eval() points at the loop-variable
/// array.  Terms live in a fixed inline array so eval() stays
/// branch-light and allocation-free on the odometer hot path.
struct FoldedBound {
  static constexpr int kMaxTerms = kMaxDepth;
  i64 cst = 0;
  int nterms = 0;
  int slot[kMaxTerms] = {};
  i64 coef[kMaxTerms] = {};

  void add_term(int s, i64 co) {
    if (nterms >= kMaxTerms) throw SpecError("FoldedBound: too many terms");
    slot[nterms] = s;
    coef[nterms] = co;
    ++nterms;
  }

  i64 eval(const i64* idx) const {
    i64 acc = cst;
    for (int t = 0; t < nterms; ++t) acc += coef[t] * idx[slot[t]];
    return acc;
  }

  /// eval() with overflow checks (throws OverflowError), for walks over
  /// nest text that no bind-time range proof has vetted yet.
  i64 eval_checked(const i64* idx) const {
    i64 acc = cst;
    for (int t = 0; t < nterms; ++t)
      acc = checked_add_i64(acc, checked_mul_i64(coef[t], idx[slot[t]]));
    return acc;
  }

  /// Fold `a` over `params`; every non-parameter variable must be a loop
  /// variable of `spec` (its nest position becomes the slot).
  static FoldedBound fold(const AffineExpr& a, const NestSpec& spec, const ParamMap& params) {
    FoldedBound b;
    b.cst = a.constant_term();
    const int c = spec.depth();
    for (const auto& [v, co] : a.coefficients()) {
      auto it = params.find(v);
      if (it != params.end()) {
        b.cst = checked_add_i64(b.cst, checked_mul_i64(co, it->second));
        continue;
      }
      bool found = false;
      for (int k = 0; k < c; ++k) {
        if (spec.at(k).var == v) {
          b.add_term(k, co);
          found = true;
          break;
        }
      }
      if (!found) throw SpecError("FoldedBound: unbound variable '" + v + "' in a loop bound");
    }
    return b;
  }
};

}  // namespace nrc
