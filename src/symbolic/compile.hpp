#pragma once
// Flat evaluator for symbolic expressions.
//
// CompiledExpr is the complex reference evaluator of a root formula:
// the Expr DAG compiles into a linear instruction list that evaluates
// common subexpressions once, in complex<long double> throughout
// (§IV-C: roots can be complex with zero imaginary part).  The recovery
// engine never calls it — it runs the real-arithmetic estimates of
// core/real_solvers.hpp — so it serves as the oracle those estimates
// are tested against and as RawClosedForm's unguarded closed-form
// recovery (core/validate.hpp).  Its value vector is heap-allocated per
// call.

#include <complex>
#include <span>
#include <vector>

#include "symbolic/expr.hpp"

namespace nrc {

using cld = std::complex<long double>;

/// A compiled expression: evaluate with integer variable values laid out
/// according to the slot order given at compile time.
class CompiledExpr {
 public:
  CompiledExpr() = default;

  /// `order` maps slot index -> variable name; every polynomial leaf
  /// variable must appear in it.
  CompiledExpr(const Expr& e, std::span<const std::string> order);

  bool empty() const { return code_.empty(); }

  /// Evaluate on the integer point (slot-ordered).  May return non-finite
  /// values when a formula degenerates; the caller is responsible for
  /// falling back to exact recovery in that case.
  cld eval(std::span<const i64> point) const;

  /// Number of instructions (for tests / diagnostics).
  size_t size() const { return code_.size(); }

 private:
  struct Ins {
    ExprOp op;
    int a = -1;            // operand slots into the value vector
    int b = -1;
    cld cval;              // Const / Cis folded value
    CompiledPoly poly;     // Poly leaves
  };
  std::vector<Ins> code_;
};

}  // namespace nrc
