#pragma once
// Whole-domain validation of a collapse.
//
// Walks the original nest once and checks, point by point, that the
// symbolic machinery and the runtime evaluator agree with ground truth:
// ranks are 1..total in walk order, recovery round-trips, and the
// odometer reproduces the walk.  Used by the test suite and available to
// users as a paranoia check before long production runs.

#include <span>
#include <string>
#include <vector>

#include "core/collapse.hpp"
#include "symbolic/compile.hpp"

namespace nrc {

struct ValidationReport {
  bool ok = true;
  i64 points_checked = 0;
  i64 mismatches = 0;
  std::string first_error;  // empty when ok

  explicit operator bool() const { return ok; }
};

struct ValidateOptions {
  bool check_rank = true;            ///< rank(point) == walk position
  bool check_recover = true;         ///< recover(rank) == point (guarded path)
  bool check_recover_search = true;  ///< search recovery == point
  bool check_increment = true;       ///< odometer sequence == walk sequence
  bool check_closed_raw = false;     ///< unguarded closed form == point (strict)
  i64 max_points = -1;               ///< -1: the whole domain
};

/// The paper's unguarded closed-form recovery: each non-innermost level
/// floors its root formula, evaluated through the complex reference
/// evaluator (CompiledExpr); the innermost level is the exact linear
/// shift lb + (pc - rank(prefix, lb)).  The recovery engine guards every
/// root instead; this serves check_closed_raw, ablations and tests.
class RawClosedForm {
 public:
  /// Compiles `col`'s level roots and fixes the parameter values.
  RawClosedForm(const Collapsed& col, const ParamMap& params);

  /// Recovers the tuple of rank `pc` into `idx`, using `ev` (bound to
  /// the same parameters) for the innermost shift.  False when a level
  /// has no formula or its value is non-finite.
  bool recover(const CollapsedEval& ev, i64 pc, std::span<i64> idx);

 private:
  std::vector<CompiledExpr> roots_;
  std::vector<i64> slots_;  ///< slot-ordered: loop vars, params, pc
};

/// Validate `col` bound to `params` against brute-force enumeration.
ValidationReport validate_collapsed(const Collapsed& col, const ParamMap& params,
                                    const ValidateOptions& opts = {});

}  // namespace nrc
