#pragma once
// Guarded real-arithmetic closed-form root estimates for the recovery
// engine (degrees 2 to 4).  Branch calibration scores root branches
// with these same estimates, so the branch it selects is the one the
// engine follows.
//
// The level solvers in CollapsedEval only need floor(Re(x)) of the
// *selected convenient branch* of a level equation — and they sit behind
// the exact integer correction guard, so an estimate may be off by a few
// ulps without ever producing a wrong tuple.  That licence lets both the
// cubic (Cardano/Viete) and the quartic (Ferrari) run without any
// std::complex arithmetic:
//
//   * a Cardano branch value is computed as an explicit (re, im) pair:
//     three-real-root cubics (negative discriminant) take the Viete
//     trigonometric form, one-real-root cubics read the branch off
//     tables of cos/sin of multiples of pi/3 (the rotation the principal
//     complex cube root introduces for a negative real radicand),
//   * the Ferrari resolvent cubic reuses that Cardano path, and the two
//     principal complex square roots of the quadratic-factor stage
//     unfold into their real-arithmetic closed forms
//     Re(csqrt(z)) = sqrt((|z| + Re z)/2),
//     Im(csqrt(z)) = sign(Im z) * sqrt((|z| - Re z)/2),
//     so a complex resolvent root (the conjugate-pair branches the
//     calibration routinely selects) costs two hypots instead of
//     complex arithmetic.
//
// Degenerate configurations (leading coefficient zero, w == 0 divisions,
// the u -> 0 Cardano degeneration) surface as non-finite values and make
// the estimate functions return false; the caller then recovers those
// points by exact binary search.
//
// Everything is templated on the evaluation type F (long double for the
// scalar checked-i128 engine, double for the proven-exact-f64 and
// lane-batched engines) and on the coefficient type TA (i128 or double).

#include <cmath>
#include <limits>
#include <type_traits>

#include "runtime/simd_abi.hpp"
#include "support/int128.hpp"

namespace nrc {

/// Complex value of Cardano branch `branch` of the monic cubic
/// x^3 + b x^2 + c x + d, as an explicit real pair.  Algebraically
/// identical to the branch-k complex formula
/// u*cis(k,3) - p/(3*u*cis(k,3)) - b/3 that the symbolic root encodes
/// (u the principal cube root of -q/2 + csqrt(delta)); no complex
/// arithmetic anywhere.  The u -> 0 degeneration surfaces as a
/// non-finite value.
template <class F>
struct CardanoBranch {
  F re = F(0);
  F im = F(0);
};

template <class F>
CardanoBranch<F> cardano_branch(F b, F c, F d, int branch) {
  const F p = c - b * b / F(3);
  const F q = F(2) * b * b * b / F(27) - b * c / F(3) + d;
  const F delta = q * q / F(4) + p * p * p / F(27);
  constexpr F k2Pi3 = F(2.0943951023931954923084289221863353L);
  CardanoBranch<F> out;
  if (delta < F(0)) {
    // Three real roots: u = m*cis(phi/3), |u|^2 = -p/3, and the k-th
    // root collapses to 2*m*cos(phi/3 + 2*pi*k/3).  (The seed's solver
    // divided the whole phase by 3 — cos((phi + 2*pi*k/3)/3) — which is
    // wrong for branches 1 and 2; the exact guard silently absorbed it
    // as a search fallback, and the calibrated nests all picked branch
    // 0.  The Ferrari resolvent exercises every branch, so the phase is
    // now correct and branches 1/2 estimate exactly.)
    const F m = std::sqrt(-p / F(3));
    const F phi = std::atan2(std::sqrt(-delta), -q / F(2));
    out.re = F(2) * m * std::cos(phi / F(3) + k2Pi3 * static_cast<F>(branch)) -
             b / F(3);
  } else {
    // One real root: the radicand v is real, so u = m*cis(theta) with
    // theta a multiple of pi/3 (shifted by pi/3 when v < 0, from the
    // principal cube root of a negative real).  With |u| = m,
    // u_k - p/(3 u_k) = (m - p/(3m))*cos(theta) + i*(m + p/(3m))*sin(theta).
    const F v = -q / F(2) + std::sqrt(delta);
    const F m = std::cbrt(std::fabs(v));
    constexpr F kR3o2 = F(0.86602540378443864676372317075293618L);  // sqrt(3)/2
    static constexpr F kCosPos[3] = {F(1), F(-0.5), F(-0.5)};    // v >= 0
    static constexpr F kSinPos[3] = {F(0), kR3o2, -kR3o2};
    static constexpr F kCosNeg[3] = {F(0.5), F(-1), F(0.5)};     // v < 0
    static constexpr F kSinNeg[3] = {kR3o2, F(0), -kR3o2};
    const F cosw = v < F(0) ? kCosNeg[branch] : kCosPos[branch];
    const F sinw = v < F(0) ? kSinNeg[branch] : kSinPos[branch];
    const F po3m = p / (F(3) * m);  // m == 0 degenerates to inf: guard
    out.re = (m - po3m) * cosw - b / F(3);
    out.im = (m + po3m) * sinw;
  }
  return out;
}

/// True when `root` can be floored into the i64 index range.
template <class F>
inline bool index_range_finite(F root) {
  return std::isfinite(root) && root >= F(-9.2e18L) && root <= F(9.2e18L);
}

/// Quadratic-formula estimate for A2*t^2 + A1*t + A0 <= 0, branch 0
/// taking +sqrt and branch 1 -sqrt of the discriminant (the numbering of
/// the symbolic root).  On i128 coefficients the discriminant is exact
/// (checked; throws OverflowError) and the root is taken in F; on
/// exact-double coefficients it is plain double arithmetic.  Returns
/// false when the formula degenerates here (A2 == 0, negative
/// discriminant, or a root out of the index range).
template <class F, class TA>
bool quadratic_estimate(const TA* A, int branch, i64* est) {
  TA disc;
  if constexpr (std::is_same_v<TA, i128>)
    disc = checked_sub(checked_mul(A[1], A[1]), checked_mul(checked_mul(4, A[2]), A[0]));
  else
    disc = A[1] * A[1] - TA(4) * A[2] * A[0];
  if (disc < 0 || A[2] == 0) return false;
  const F s = std::sqrt(static_cast<F>(disc));
  const F num = branch == 1 ? -static_cast<F>(A[1]) - s : -static_cast<F>(A[1]) + s;
  const F root = num / (F(2) * static_cast<F>(A[2]));
  if (!index_range_finite(root)) return false;
  *est = static_cast<i64>(std::floor(root + F(1e-9L)));
  return true;
}

/// Value of Cardano branch `branch` of A3*t^3 + ... + A0 = 0 (A3 != 0)
/// as an explicit (re, im) pair; see cardano_branch.
template <class F, class TA>
CardanoBranch<F> cubic_branch(const TA* A, int branch) {
  const F a3 = static_cast<F>(A[3]);
  return cardano_branch<F>(static_cast<F>(A[2]) / a3, static_cast<F>(A[1]) / a3,
                           static_cast<F>(A[0]) / a3, branch);
}

/// Real-arithmetic Cardano/Viete estimate for A3*t^3 + ... + A0 <= 0,
/// shared by the scalar solver (F = long double on i128 coefficients,
/// the historical behaviour) and the lane-batched solver (F = double on
/// i128 or exact-double coefficients; the exact guard absorbs the
/// precision difference).  Only Re of the branch is needed for the
/// floor.  Returns false when the formula degenerates here (A3 == 0,
/// non-finite, or out of the index range).
template <class F, class TA>
bool cubic_estimate(const TA* A, int branch, i64* est) {
  if (A[3] == 0) return false;
  const CardanoBranch<F> cb = cubic_branch<F>(A, branch);
  if (!index_range_finite(cb.re)) return false;
  *est = static_cast<i64>(std::floor(cb.re + F(1e-9L)));
  return true;
}

/// Value of Ferrari branch `branch` of A4*t^4 + ... + A0 = 0 as an
/// explicit (re, im) pair, branch = 4*(resolvent Cardano branch) +
/// quadratic-factor branch — the same branch family as
/// math/roots.cpp::root_quartic and the symbolic quartic_root.  The
/// resolvent root w (complex for the conjugate-pair Cardano branches)
/// flows through the chain as an explicit (re, im) pair:
///
///   alpha = csqrt(w):   ar = sqrt((|w| + wr)/2),
///                       ai = sign(wi) * sqrt((|w| - wr)/2),
///   q/alpha           = q * conj(alpha) / |w|,
///   beta, gamma       = (p + w -+ q/alpha)/2,
///   D = alpha^2 - 4*{beta,gamma} = w - 4*{beta,gamma},
///   y                 = (-+alpha +- csqrt(D)) / 2,
///
/// and the root is y - b/4.  Im is computed only when kWithIm is set
/// (branch calibration tells conjugate branches apart by it; the
/// recovery engine needs Re alone).  Degenerations (A4 == 0, w == 0
/// divisions) surface as non-finite values.
template <class F, class TA, bool kWithIm = false>
CardanoBranch<F> ferrari_branch(const TA* A, int branch) {
  CardanoBranch<F> out;
  if (A[4] == 0) {
    out.re = out.im = std::numeric_limits<F>::quiet_NaN();
    return out;
  }
  const F a4 = static_cast<F>(A[4]);
  const F b = static_cast<F>(A[3]) / a4;
  const F c = static_cast<F>(A[2]) / a4;
  const F d = static_cast<F>(A[1]) / a4;
  const F e = static_cast<F>(A[0]) / a4;

  // Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4).
  const F p = c - b * b * (F(3) / F(8));
  const F q = d - b * c / F(2) + b * b * b / F(8);
  const F r = e - b * d / F(4) + b * b * c / F(16) - b * b * b * b * (F(3) / F(256));

  const int rb = branch / 4;  // resolvent Cardano branch, 0..2
  const int qb = branch % 4;  // quadratic-factor branch, 0..3

  // Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0 (monic).
  const CardanoBranch<F> w =
      cardano_branch<F>(F(2) * p, p * p - F(4) * r, -(q * q), rb);

  // alpha = csqrt(w), principal (Re >= 0, Im carries sign(Im w)).
  const F aw = std::hypot(w.re, w.im);
  const F ar = std::sqrt((aw + w.re) / F(2));
  const F ai = std::copysign(std::sqrt((aw - w.re) / F(2)), w.im);
  // q / alpha = q * conj(alpha) / |alpha|^2, |alpha|^2 = |w|.
  const F qar = q * ar / aw;  // w == 0 degenerates to NaN
  const F qai = -q * ai / aw;
  // D = alpha^2 - 4*{beta,gamma} = w - 2*(p + w +- q/alpha).
  const F sg = qb < 2 ? F(-1) : F(1);
  const F Dr = w.re - F(2) * (p + w.re + sg * qar);
  const F Di = -w.im - F(2) * sg * qai;
  const F sr = std::sqrt((std::hypot(Dr, Di) + Dr) / F(2));  // Re(csqrt(D))
  const F y = ((qb < 2 ? -ar : ar) + ((qb & 1) ? -sr : sr)) / F(2);
  out.re = y - b / F(4);
  if constexpr (kWithIm) {
    const F si = std::copysign(std::sqrt((std::hypot(Dr, Di) - Dr) / F(2)), Di);  // Im(csqrt(D))
    out.im = ((qb < 2 ? -ai : ai) + ((qb & 1) ? -si : si)) / F(2);
  }
  return out;
}

/// Guarded real-arithmetic Ferrari estimate for A4*t^4 + ... + A0 <= 0:
/// floor(Re(root) + eps) of ferrari_branch, so the estimate tracks the
/// branch the calibration selected.  Returns false when the formula
/// degenerates (A4 == 0, w == 0 divisions, non-finite, out of the index
/// range); the caller then recovers the point by exact search.
template <class F, class TA>
bool ferrari_estimate(const TA* A, int branch, i64* est) {
  const F root = ferrari_branch<F, TA>(A, branch).re;
  if (!index_range_finite(root)) return false;
  *est = static_cast<i64>(std::floor(root + F(1e-9L)));
  return true;
}

/// Lane-wide Cardano branch value of W monic cubics at once, entirely
/// in-register on both discriminant signs: three-real-root (Viete)
/// lanes run on the simd_abi polynomial vatan2/vcos kernels, one-real-
/// root lanes (delta >= 0 — the dominant configuration on quartic
/// resolvents) on the Halley vcbrt kernel plus the same cos/sin branch
/// tables the scalar path reads.  Each side is computed only when some
/// lane needs it, and a lane-select blends the results, so pure-Viete
/// batches (the calibrated cubic kernel levels) and pure-cbrt batches
/// (the simplex quartic resolvents) each pay for exactly one side.
/// set_vector_trig(false) routes the whole batch through the scalar
/// cardano_branch<double> per lane — the libm reference path the
/// equivalence tests diff against.
template <class V>
struct CardanoBranchLanes {
  V re;
  V im;
};

template <class V>
CardanoBranchLanes<V> cardano_branch_lanes(V b, V c, V d, int branch) {
  using T = simd::vtraits<V>;
  constexpr int W = T::lanes;
  const V zero = T::splat(0.0);
  // p, q, delta mirror cardano_branch's operation order exactly so the
  // lane classification below agrees with the scalar fallback's.
  const V p = simd::sub(c, simd::div(simd::mul(b, b), T::splat(3.0)));
  const V q = simd::add(
      simd::sub(simd::div(simd::mul(simd::mul(simd::mul(T::splat(2.0), b), b), b),
                          T::splat(27.0)),
                simd::div(simd::mul(b, c), T::splat(3.0))),
      d);
  const V delta = simd::add(simd::div(simd::mul(q, q), T::splat(4.0)),
                            simd::div(simd::mul(simd::mul(p, p), p), T::splat(27.0)));
  CardanoBranchLanes<V> out{zero, zero};
  if (!simd::vector_trig_enabled()) {
    double bb[W], cc[W], dd[W], re[W], im[W];
    simd::store(bb, b);
    simd::store(cc, c);
    simd::store(dd, d);
    for (int l = 0; l < W; ++l) {
      const CardanoBranch<double> w = cardano_branch<double>(bb[l], cc[l], dd[l], branch);
      re[l] = w.re;
      im[l] = w.im;
    }
    out.re = simd::load<W>(re);
    out.im = simd::load<W>(im);
    return out;
  }
  const auto nonneg = simd::cmp_ge(delta, zero);
  // delta < 0 strictly (NaN deltas land on the nonneg side, where the
  // formula goes non-finite exactly like the scalar path's).
  const auto viete = simd::cmp_ge(simd::neg(delta), T::splat(5e-324));
  V re_v = zero;
  if (simd::any(viete)) {
    // Viete: 2*m*cos(phi/3 + 2*pi*k/3) - b/3.  delta >= 0 lanes compute
    // garbage here (sqrt of a negative) and are deselected below.
    constexpr double k2Pi3 = 2.0943951023931954923084289221863353;
    const V m = simd::sqrt(simd::div(simd::neg(p), T::splat(3.0)));
    const V phi = simd::vatan2(simd::sqrt(simd::neg(delta)),
                               simd::div(simd::neg(q), T::splat(2.0)));
    re_v = simd::sub(
        simd::mul(simd::mul(T::splat(2.0), m),
                  simd::vcos(simd::add(simd::div(phi, T::splat(3.0)),
                                       T::splat(k2Pi3 * branch)))),
        simd::div(b, T::splat(3.0)));
  }
  V re_p = zero, im_p = zero;
  if (simd::any(nonneg)) {
    // One real root: u = m*cis(theta), theta a multiple of pi/3 read
    // off the same cos/sin tables as the scalar path (v < 0 shifts the
    // principal cube root's phase by pi/3).  delta < 0 lanes compute
    // NaN here (sqrt of a negative flows into v) and are deselected.
    constexpr double kR3o2 = 0.86602540378443864676372317075293618;  // sqrt(3)/2
    static constexpr double kCosPos[3] = {1.0, -0.5, -0.5};  // v >= 0
    static constexpr double kSinPos[3] = {0.0, kR3o2, -kR3o2};
    static constexpr double kCosNeg[3] = {0.5, -1.0, 0.5};  // v < 0
    static constexpr double kSinNeg[3] = {kR3o2, 0.0, -kR3o2};
    const V v = simd::add(simd::div(simd::neg(q), T::splat(2.0)), simd::sqrt(delta));
    const V m = simd::vcbrt_nonneg(simd::vabs(v));
    const auto vpos = simd::cmp_ge(v, zero);
    const V cosw = simd::select(vpos, T::splat(kCosPos[branch]), T::splat(kCosNeg[branch]));
    const V sinw = simd::select(vpos, T::splat(kSinPos[branch]), T::splat(kSinNeg[branch]));
    const V po3m = simd::div(p, simd::mul(T::splat(3.0), m));  // m == 0 -> inf: guard
    re_p = simd::sub(simd::mul(simd::sub(m, po3m), cosw), simd::div(b, T::splat(3.0)));
    im_p = simd::mul(simd::add(m, po3m), sinw);
  }
  out.re = simd::select(nonneg, re_p, re_v);
  out.im = simd::select(nonneg, im_p, zero);
  return out;
}

/// Lane-batched cubic_estimate: W cubics with coefficient rows A0..A4
/// at `A + l*stride`, one shared branch.  Lane l of est/ok matches
/// cubic_estimate<double, double> on that row bit for bit when the
/// polynomial trig is disabled; with it enabled the estimates may
/// differ by ~1e-9, which the exact integer guard absorbs.
template <int W>
inline void cubic_estimate_lanes(const double* A, size_t stride, int branch,
                                 i64* est, bool* ok) {
  double b[W], c[W], d[W];
  for (int l = 0; l < W; ++l) {
    const double a3 = A[l * stride + 3];
    b[l] = A[l * stride + 2] / a3;  // a3 == 0 lanes go non-finite and
    c[l] = A[l * stride + 1] / a3;  // are rejected below, matching the
    d[l] = A[l * stride + 0] / a3;  // scalar estimate's early return
  }
  const CardanoBranchLanes<simd::batch<W>> cb = cardano_branch_lanes(
      simd::load<W>(b), simd::load<W>(c), simd::load<W>(d), branch);
  double re[W];
  simd::store(re, cb.re);
  for (int l = 0; l < W; ++l) {
    ok[l] = A[l * stride + 3] != 0.0 && index_range_finite(re[l]);
    if (ok[l]) est[l] = static_cast<i64>(std::floor(re[l] + 1e-9));
  }
}

/// Lane-batched ferrari_estimate: W quartics with coefficient rows
/// A0..A4 at `A + l*stride`, one shared branch.  The depression, the
/// resolvent-cubic coefficients and the quadratic-factor stage run as
/// simd_abi vectors; the resolvent's Cardano branch value runs through
/// cardano_branch_lanes (polynomial trig, or per-lane libm when
/// simd::set_vector_trig(false)).  ok[l] is false where the real
/// arithmetic cannot follow the branch (A4 == 0, w == 0 divisions,
/// non-finite, out of the index range); the caller searches those
/// lanes.  Double precision suffices behind the exact integer guard.
template <int W>
inline void ferrari_estimate_lanes(const double* A, size_t stride, int branch, i64* est,
                                   bool* ok) {
  using V = simd::batch<W>;
  const V zero = simd::splat<W>(0.0);
  const V half = simd::splat<W>(0.5);
  auto col = [&](int e) {
    double tmp[W];
    for (int l = 0; l < W; ++l)
      tmp[l] = A[static_cast<size_t>(l) * stride + static_cast<size_t>(e)];
    return simd::load<W>(tmp);
  };
  const V a4 = col(4);
  const V b = simd::div(col(3), a4);
  const V c = simd::div(col(2), a4);
  const V d = simd::div(col(1), a4);
  const V e = simd::div(col(0), a4);

  // Depressed quartic y^4 + p y^2 + q y + r (x = y - b/4).
  const V b2 = simd::mul(b, b);
  const V p = simd::sub(c, simd::mul(simd::splat<W>(3.0 / 8.0), b2));
  const V q = simd::add(simd::sub(d, simd::mul(half, simd::mul(b, c))),
                        simd::mul(simd::splat<W>(1.0 / 8.0), simd::mul(b2, b)));
  const V r = simd::sub(
      simd::add(simd::sub(e, simd::mul(simd::splat<W>(0.25), simd::mul(b, d))),
                simd::mul(simd::splat<W>(1.0 / 16.0), simd::mul(b2, c))),
      simd::mul(simd::splat<W>(3.0 / 256.0), simd::mul(b2, b2)));

  const int rb = branch / 4;  // resolvent Cardano branch, 0..2
  const int qb = branch % 4;  // quadratic-factor branch, 0..3

  // Resolvent cubic w^3 + 2p w^2 + (p^2 - 4r) w - q^2 = 0 (monic).
  const CardanoBranchLanes<V> w = cardano_branch_lanes(
      simd::mul(simd::splat<W>(2.0), p),
      simd::sub(simd::mul(p, p), simd::mul(simd::splat<W>(4.0), r)),
      simd::neg(simd::mul(q, q)), rb);
  const V wr = w.re;
  const V wi = w.im;

  // Quadratic-factor stage on the explicit (re, im) pair — see
  // ferrari_branch for the derivation.  alpha = csqrt(w), principal:
  // the Im sign carries sign(Im w), applied with a mask blend.
  const V aw = simd::sqrt(simd::add(simd::mul(wr, wr), simd::mul(wi, wi)));
  const V ar = simd::sqrt(simd::mul(half, simd::add(aw, wr)));
  const V ai0 = simd::sqrt(simd::mul(half, simd::sub(aw, wr)));
  const V ai = simd::select(simd::cmp_ge(wi, zero), ai0, simd::neg(ai0));
  // q / alpha = q * conj(alpha) / |w|  (w == 0 lanes degenerate to NaN).
  const V qoaw = simd::div(q, aw);
  const V qar = simd::mul(qoaw, ar);
  const V qai = simd::neg(simd::mul(qoaw, ai));
  // D = alpha^2 - 4*{beta,gamma} = w - 2*(p + w +- q/alpha).
  const V sqar = qb < 2 ? simd::neg(qar) : qar;
  const V sqai = qb < 2 ? simd::neg(qai) : qai;
  const V Dr =
      simd::sub(wr, simd::mul(simd::splat<W>(2.0), simd::add(simd::add(p, wr), sqar)));
  const V Di = simd::neg(simd::add(wi, simd::mul(simd::splat<W>(2.0), sqai)));
  const V ad = simd::sqrt(simd::add(simd::mul(Dr, Dr), simd::mul(Di, Di)));
  const V sr = simd::sqrt(simd::mul(half, simd::add(ad, Dr)));  // Re(csqrt(D))
  const V sa = qb < 2 ? simd::neg(ar) : ar;
  const V y = simd::mul(half, (qb & 1) ? simd::sub(sa, sr) : simd::add(sa, sr));

  const V root = simd::sub(y, simd::mul(simd::splat<W>(0.25), b));
  const V flo = simd::floor(simd::add(root, simd::splat<W>(1e-9)));
  double rootl[W], flol[W], a4l[W];
  simd::store(rootl, root);
  simd::store(flol, flo);
  simd::store(a4l, a4);
  for (int l = 0; l < W; ++l) {
    ok[l] = a4l[l] != 0.0 && index_range_finite(rootl[l]);
    est[l] = ok[l] ? static_cast<i64>(flol[l]) : 0;
  }
}

}  // namespace nrc
