#pragma once
// simd_abi — compile-time SIMD target selection for the recovery runtime.
//
// The lane-batched solvers (CollapsedEval::recover4/recover8 and
// friends, the lane Cardano/Ferrari in core/real_solvers.hpp) and the
// lane-strided block fills all express their vector arithmetic against
// this tiny shim instead of raw intrinsics, so exactly one place
// decides the target:
//
//   * AVX-512 when the translation unit is compiled with -mavx512f
//     (the CMake default where the host CPU supports it) and
//     NRC_NO_AVX512 is not defined: 8 x i64 / 8 x double per 512-bit
//     vector, with masked tail stores (__mmask8) so non-lane-multiple
//     fills never fall into scalar remainder loops,
//   * AVX2 when compiled with -mavx2 and NRC_NO_AVX2 is not defined
//     (disabling AVX2 also disables the AVX-512 leg): the 4-lane vf64
//     type is native and the 8-lane vf64x8 type runs as two 256-bit
//     halves; fill tails run masked through _mm256_maskstore_epi64,
//   * a portable scalar fallback otherwise — identical lane semantics,
//     so every caller is written once and the CI scalar leg
//     (-DNRC_NO_AVX2=ON) exercises the same code paths.
//
// Two lane widths coexist: the historical 4-lane vf64 (one 256-bit
// vector) and the 8-lane vf64x8 (one 512-bit vector, or an emulation).
// kGroupLanes names the width the batched entry points prefer on this
// target — 8 on the AVX-512 leg, 4 elsewhere — but BOTH widths work on
// EVERY target, so vlen=8 schedules and the recover8 engine stay
// testable (and fuzzable) on scalar and AVX2-only builds.
//
// Floating lanes are double, not the long double the scalar engine
// uses; every consumer runs behind the exact integer correction guard,
// which absorbs the precision difference (a worse estimate can only
// cost extra guard steps or a search fallback, never a wrong tuple).
// The same licence covers the polynomial vcos/vatan2 kernels and the
// Halley-iterated vcbrt at the bottom of this header (~1e-10 absolute
// error; see their comments), which replace the last per-lane libm
// calls in the lane solvers.

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/runtime_config.hpp"  // vector_trig toggle lives there now
#include "support/int128.hpp"       // i64

#if defined(__AVX2__) && !defined(NRC_NO_AVX2)
#define NRC_SIMD_AVX2 1
#include <immintrin.h>
#else
#define NRC_SIMD_AVX2 0
#endif

// The AVX-512 leg layers on top of the AVX2 leg (vf64 stays a native
// 256-bit vector there), so NRC_NO_AVX2 implies the scalar fallback for
// both widths.
#if defined(__AVX512F__) && !defined(NRC_NO_AVX512) && NRC_SIMD_AVX2
#define NRC_SIMD_AVX512 1
#else
#define NRC_SIMD_AVX512 0
#endif

namespace nrc::simd {

/// Lanes per vf64 vector (the historical 4-wide batched paths).
inline constexpr int kLanes = 4;

/// Lanes per vf64x8 vector (native on AVX-512, emulated elsewhere).
inline constexpr int kWideLanes = 8;

/// The lane-group width the batched recovery entry points prefer on
/// this target: 8 where vf64x8 is a native 512-bit vector, 4 elsewhere
/// (an emulated 8-lane group would just serialize two 4-lane solves).
inline constexpr int kGroupLanes = NRC_SIMD_AVX512 ? kWideLanes : kLanes;

/// Compile-time ABI tag ("avx512" / "avx2" / "scalar").
inline constexpr const char* abi_name() {
#if NRC_SIMD_AVX512
  return "avx512";
#elif NRC_SIMD_AVX2
  return "avx2";
#else
  return "scalar";
#endif
}

/// The ABI leg actually usable at run time: the compiled leg
/// cross-checked against cpuid, so a binary compiled for an ISA its
/// host lacks reports the widest leg the CPU can execute instead of
/// the compile-time macro.  Recorded in BENCH_recovery and surfaced by
/// Collapsed::describe().
inline const char* runtime_abi() {
#if defined(__GNUC__) || defined(__clang__)
#if NRC_SIMD_AVX512
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#elif NRC_SIMD_AVX2
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#else
  return "scalar";
#endif
#else
  return abi_name();
#endif
}

// ------------------------------------------------------------ f64 lanes

/// Four double lanes.  Only the operations the recovery solvers need.
struct vf64 {
#if NRC_SIMD_AVX2
  __m256d v;
#else
  double v[kLanes];
#endif
};

/// Eight double lanes: one 512-bit vector on the AVX-512 leg, two
/// 256-bit halves on AVX2, a plain array on the scalar leg — identical
/// lane semantics everywhere so the 8-lane engine runs on every target.
struct vf64x8 {
#if NRC_SIMD_AVX512
  __m512d v;
#elif NRC_SIMD_AVX2
  __m256d v[2];
#else
  double v[kWideLanes];
#endif
};

/// Comparison result for vf64x8 (a real predicate register on AVX-512,
/// a blend-style lane mask elsewhere).  vf64 comparisons keep using a
/// vf64 as their mask, as they always have.
struct vmask8 {
#if NRC_SIMD_AVX512
  __mmask8 m;
#elif NRC_SIMD_AVX2
  __m256d m[2];
#else
  double m[kWideLanes];
#endif
};

#if NRC_SIMD_AVX2

inline vf64 set1(double x) { return {_mm256_set1_pd(x)}; }
inline vf64 set(double a, double b, double c, double d) {
  return {_mm256_setr_pd(a, b, c, d)};
}
inline vf64 add(vf64 a, vf64 b) { return {_mm256_add_pd(a.v, b.v)}; }
inline vf64 sub(vf64 a, vf64 b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline vf64 mul(vf64 a, vf64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline vf64 div(vf64 a, vf64 b) { return {_mm256_div_pd(a.v, b.v)}; }
inline vf64 sqrt(vf64 a) { return {_mm256_sqrt_pd(a.v)}; }
inline vf64 neg(vf64 a) { return {_mm256_sub_pd(_mm256_setzero_pd(), a.v)}; }
inline vf64 floor(vf64 a) { return {_mm256_floor_pd(a.v)}; }
inline void store(double* p, vf64 a) { _mm256_storeu_pd(p, a.v); }
/// Lane mask a >= b (ordered: NaN lanes compare false).  Only meaningful
/// as the first argument of select().
inline vf64 cmp_ge(vf64 a, vf64 b) { return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)}; }
/// Per lane: mask ? a : b.
inline vf64 select(vf64 mask, vf64 a, vf64 b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
/// True when any lane of a comparison mask is set.
inline bool any(vf64 mask) { return _mm256_movemask_pd(mask.v) != 0; }

#else

inline vf64 set1(double x) { return {{x, x, x, x}}; }
inline vf64 set(double a, double b, double c, double d) { return {{a, b, c, d}}; }
inline vf64 add(vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline vf64 sub(vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline vf64 mul(vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
  return r;
}
inline vf64 div(vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] / b.v[l];
  return r;
}
inline vf64 sqrt(vf64 a) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = std::sqrt(a.v[l]);
  return r;
}
inline vf64 neg(vf64 a) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = -a.v[l];
  return r;
}
inline vf64 floor(vf64 a) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = std::floor(a.v[l]);
  return r;
}
inline void store(double* p, vf64 a) {
  for (int l = 0; l < kLanes; ++l) p[l] = a.v[l];
}
/// Lane mask a >= b (ordered: NaN lanes compare false).  Only meaningful
/// as the first argument of select().
inline vf64 cmp_ge(vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = a.v[l] >= b.v[l] ? 1.0 : 0.0;
  return r;
}
/// Per lane: mask ? a : b.
inline vf64 select(vf64 mask, vf64 a, vf64 b) {
  vf64 r;
  for (int l = 0; l < kLanes; ++l) r.v[l] = mask.v[l] != 0.0 ? a.v[l] : b.v[l];
  return r;
}
/// True when any lane of a comparison mask is set.
inline bool any(vf64 mask) {
  for (int l = 0; l < kLanes; ++l)
    if (mask.v[l] != 0.0) return true;
  return false;
}

#endif

// --------------------------------------------------------- vf64x8 ops

#if NRC_SIMD_AVX512

inline vf64x8 set1x8(double x) { return {_mm512_set1_pd(x)}; }
inline vf64x8 add(vf64x8 a, vf64x8 b) { return {_mm512_add_pd(a.v, b.v)}; }
inline vf64x8 sub(vf64x8 a, vf64x8 b) { return {_mm512_sub_pd(a.v, b.v)}; }
inline vf64x8 mul(vf64x8 a, vf64x8 b) { return {_mm512_mul_pd(a.v, b.v)}; }
inline vf64x8 div(vf64x8 a, vf64x8 b) { return {_mm512_div_pd(a.v, b.v)}; }
inline vf64x8 sqrt(vf64x8 a) { return {_mm512_sqrt_pd(a.v)}; }
inline vf64x8 neg(vf64x8 a) { return {_mm512_sub_pd(_mm512_setzero_pd(), a.v)}; }
inline vf64x8 floor(vf64x8 a) {
  return {_mm512_roundscale_pd(a.v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC)};
}
inline void store(double* p, vf64x8 a) { _mm512_storeu_pd(p, a.v); }
inline vmask8 cmp_ge(vf64x8 a, vf64x8 b) {
  return {_mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ)};
}
inline vf64x8 select(vmask8 mask, vf64x8 a, vf64x8 b) {
  return {_mm512_mask_blend_pd(mask.m, b.v, a.v)};
}
inline bool any(vmask8 mask) { return mask.m != 0; }

#elif NRC_SIMD_AVX2

inline vf64x8 set1x8(double x) {
  return {{_mm256_set1_pd(x), _mm256_set1_pd(x)}};
}
inline vf64x8 add(vf64x8 a, vf64x8 b) {
  return {{_mm256_add_pd(a.v[0], b.v[0]), _mm256_add_pd(a.v[1], b.v[1])}};
}
inline vf64x8 sub(vf64x8 a, vf64x8 b) {
  return {{_mm256_sub_pd(a.v[0], b.v[0]), _mm256_sub_pd(a.v[1], b.v[1])}};
}
inline vf64x8 mul(vf64x8 a, vf64x8 b) {
  return {{_mm256_mul_pd(a.v[0], b.v[0]), _mm256_mul_pd(a.v[1], b.v[1])}};
}
inline vf64x8 div(vf64x8 a, vf64x8 b) {
  return {{_mm256_div_pd(a.v[0], b.v[0]), _mm256_div_pd(a.v[1], b.v[1])}};
}
inline vf64x8 sqrt(vf64x8 a) {
  return {{_mm256_sqrt_pd(a.v[0]), _mm256_sqrt_pd(a.v[1])}};
}
inline vf64x8 neg(vf64x8 a) {
  const __m256d z = _mm256_setzero_pd();
  return {{_mm256_sub_pd(z, a.v[0]), _mm256_sub_pd(z, a.v[1])}};
}
inline vf64x8 floor(vf64x8 a) {
  return {{_mm256_floor_pd(a.v[0]), _mm256_floor_pd(a.v[1])}};
}
inline void store(double* p, vf64x8 a) {
  _mm256_storeu_pd(p, a.v[0]);
  _mm256_storeu_pd(p + 4, a.v[1]);
}
inline vmask8 cmp_ge(vf64x8 a, vf64x8 b) {
  return {{_mm256_cmp_pd(a.v[0], b.v[0], _CMP_GE_OQ),
           _mm256_cmp_pd(a.v[1], b.v[1], _CMP_GE_OQ)}};
}
inline vf64x8 select(vmask8 mask, vf64x8 a, vf64x8 b) {
  return {{_mm256_blendv_pd(b.v[0], a.v[0], mask.m[0]),
           _mm256_blendv_pd(b.v[1], a.v[1], mask.m[1])}};
}
inline bool any(vmask8 mask) {
  return (_mm256_movemask_pd(mask.m[0]) | _mm256_movemask_pd(mask.m[1])) != 0;
}

#else

inline vf64x8 set1x8(double x) { return {{x, x, x, x, x, x, x, x}}; }
inline vf64x8 add(vf64x8 a, vf64x8 b) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = a.v[l] + b.v[l];
  return r;
}
inline vf64x8 sub(vf64x8 a, vf64x8 b) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = a.v[l] - b.v[l];
  return r;
}
inline vf64x8 mul(vf64x8 a, vf64x8 b) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = a.v[l] * b.v[l];
  return r;
}
inline vf64x8 div(vf64x8 a, vf64x8 b) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = a.v[l] / b.v[l];
  return r;
}
inline vf64x8 sqrt(vf64x8 a) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = std::sqrt(a.v[l]);
  return r;
}
inline vf64x8 neg(vf64x8 a) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = -a.v[l];
  return r;
}
inline vf64x8 floor(vf64x8 a) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = std::floor(a.v[l]);
  return r;
}
inline void store(double* p, vf64x8 a) {
  for (int l = 0; l < kWideLanes; ++l) p[l] = a.v[l];
}
inline vmask8 cmp_ge(vf64x8 a, vf64x8 b) {
  vmask8 r;
  for (int l = 0; l < kWideLanes; ++l) r.m[l] = a.v[l] >= b.v[l] ? 1.0 : 0.0;
  return r;
}
inline vf64x8 select(vmask8 mask, vf64x8 a, vf64x8 b) {
  vf64x8 r;
  for (int l = 0; l < kWideLanes; ++l) r.v[l] = mask.m[l] != 0.0 ? a.v[l] : b.v[l];
  return r;
}
inline bool any(vmask8 mask) {
  for (int l = 0; l < kWideLanes; ++l)
    if (mask.m[l] != 0.0) return true;
  return false;
}

#endif

/// Lane extraction (all ABIs): store-and-load keeps it branch-free.
inline double lane(vf64 a, int l) {
  double tmp[kLanes];
  store(tmp, a);
  return tmp[l];
}
inline double lane(vf64x8 a, int l) {
  double tmp[kWideLanes];
  store(tmp, a);
  return tmp[l];
}

// ------------------------------------------- width-generic entry points
//
// The lane engines are templated on the lane count W; these aliases map
// W onto the vector/mask types and provide the two primitives that
// cannot be plain overloads (splat and load have identical scalar
// signatures for both widths).

template <int W>
struct batch_types;
template <>
struct batch_types<4> {
  using vec = vf64;
  using mask = vf64;
};
template <>
struct batch_types<8> {
  using vec = vf64x8;
  using mask = vmask8;
};
template <int W>
using batch = typename batch_types<W>::vec;

template <int W>
inline batch<W> splat(double x) {
  if constexpr (W == 4)
    return set1(x);
  else
    return set1x8(x);
}

/// Unaligned load of W consecutive doubles.
template <int W>
inline batch<W> load(const double* p) {
  if constexpr (W == 4) {
#if NRC_SIMD_AVX2
    return {_mm256_loadu_pd(p)};
#else
    return {{p[0], p[1], p[2], p[3]}};
#endif
  } else {
#if NRC_SIMD_AVX512
    return {_mm512_loadu_pd(p)};
#elif NRC_SIMD_AVX2
    return {{_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)}};
#else
    vf64x8 r;
    for (int l = 0; l < kWideLanes; ++l) r.v[l] = p[l];
    return r;
#endif
  }
}

/// Type-deduced traits for code templated on the vector type instead of
/// the width (the trig kernels below).
template <class V>
struct vtraits;
template <>
struct vtraits<vf64> {
  static constexpr int lanes = kLanes;
  static vf64 splat(double x) { return set1(x); }
};
template <>
struct vtraits<vf64x8> {
  static constexpr int lanes = kWideLanes;
  static vf64x8 splat(double x) { return set1x8(x); }
};

// Width-generic helpers built from the overloaded primitives.
template <class V>
inline V vmin(V a, V b) {
  return select(cmp_ge(a, b), b, a);
}
template <class V>
inline V vmax(V a, V b) {
  return select(cmp_ge(a, b), a, b);
}
template <class V>
inline V vabs(V a) {
  return select(cmp_ge(a, vtraits<V>::splat(0.0)), a, neg(a));
}

// ----------------------------------------------- lane-strided i64 fills

#if NRC_SIMD_AVX2 && !NRC_SIMD_AVX512
/// AVX2 tail mask: lanes 0..rem-1 all-ones (rem in [1, 3]), built as
/// rem > {0,1,2,3} so _mm256_maskstore_epi64 writes exactly rem lanes.
inline __m256i tail_mask4(i64 rem) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}
#endif

/// dst[0..n) = value.  The broadcast half of the structure-of-arrays
/// block fill: one store per column per row segment.  Tails are masked
/// stores on both vector ABIs (never a scalar remainder loop).
inline void fill_broadcast(i64* dst, i64 n, i64 value) {
#if NRC_SIMD_AVX512
  const __m512i v = _mm512_set1_epi64(static_cast<long long>(value));
  i64 i = 0;
  for (; i + kWideLanes <= n; i += kWideLanes)
    _mm512_storeu_si512(static_cast<void*>(dst + i), v);
  if (i < n)
    _mm512_mask_storeu_epi64(static_cast<void*>(dst + i),
                             static_cast<__mmask8>((1u << (n - i)) - 1u), v);
#elif NRC_SIMD_AVX2
  const __m256i v = _mm256_set1_epi64x(static_cast<long long>(value));
  i64 i = 0;
  for (; i + kLanes <= n; i += kLanes)
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
  if (i < n)
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(dst + i), tail_mask4(n - i), v);
#else
  for (i64 i = 0; i < n; ++i) dst[i] = value;
#endif
}

/// dst[0..n) = start, start+1, ...  The innermost column of the
/// structure-of-arrays block fill.  Masked tails, as above.
inline void fill_iota(i64* dst, i64 n, i64 start) {
#if NRC_SIMD_AVX512
  __m512i v = _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(start)),
                               _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0));
  const __m512i step = _mm512_set1_epi64(kWideLanes);
  i64 i = 0;
  for (; i + kWideLanes <= n; i += kWideLanes) {
    _mm512_storeu_si512(static_cast<void*>(dst + i), v);
    v = _mm512_add_epi64(v, step);
  }
  if (i < n)
    _mm512_mask_storeu_epi64(static_cast<void*>(dst + i),
                             static_cast<__mmask8>((1u << (n - i)) - 1u), v);
#elif NRC_SIMD_AVX2
  __m256i v = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(start)),
                               _mm256_setr_epi64x(0, 1, 2, 3));
  const __m256i step = _mm256_set1_epi64x(kLanes);
  i64 i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    v = _mm256_add_epi64(v, step);
  }
  if (i < n)
    _mm256_maskstore_epi64(reinterpret_cast<long long*>(dst + i), tail_mask4(n - i), v);
#else
  for (i64 i = 0; i < n; ++i) dst[i] = start + i;
#endif
}

// ------------------------------------------------- polynomial trig kernels
//
// The Cardano/Viete branch value — the last per-lane libm holdout in
// the lane solvers (cubic levels and the Ferrari resolvent) — needs one
// atan2 and one cos per lane.  These width-generic kernels evaluate
// both across all lanes at once with short range-reduced polynomials:
//
//   vcos:   Cody–Waite reduction by multiples of 2*pi (the 3-part pi/4
//           split of the classic sincos kernels, scaled by 8) to
//           r in [-pi, pi], then a degree-20 even Taylor/minimax
//           polynomial — |error| < 8e-11 over the reduced interval.
//   vatan2: min/max quotient reduction to [0, 1], a fold at tan(pi/8)
//           via atan(z) = pi/4 + atan((z-1)/(z+1)) to [-0.4142, 0.4142],
//           a degree-19 odd polynomial, then branch-free quadrant
//           fixups — |error| < 5e-10.
//
// ~1e-9 absolute error is sufficient by the guard argument at the top
// of this header: estimates sit behind the exact integer correction
// guard, so trig error can only move an estimate by a fraction of an
// index step, never corrupt a recovered tuple — and the accuracy tests
// (tests/runtime/simd_abi_test.cpp) plus the zero-new-fallbacks floor
// on the kernel nests pin that margin.  set_vector_trig(false) routes
// the lane Cardano back through per-lane libm for equivalence tests.

/// Process-wide switch between the polynomial lane trig and the
/// per-lane libm reference path (tests/ablation; not thread-safe, flip
/// it only around single-threaded test sections).
///
/// DEPRECATED: the flag now lives in nrc::RuntimeConfig (vector_trig);
/// prefer nrc::runtime_config().vector_trig / ScopedRuntimeConfig.
/// These forwarders remain for source compatibility.
inline bool& vector_trig_flag() { return runtime_config().vector_trig; }
inline void set_vector_trig(bool on) { vector_trig_flag() = on; }  // DEPRECATED: see above
inline bool vector_trig_enabled() { return vector_trig_flag(); }

/// Lane-wide cos via 2*pi Cody–Waite reduction + even polynomial.
template <class V>
inline V vcos(V x) {
  using T = vtraits<V>;
  // n = round(x / 2pi); r = x - n*2pi accumulated against the 3-part
  // split (each part exact in the head bits of double), r in [-pi, pi].
  const V n = floor(add(mul(x, T::splat(0.15915494309189533577)), T::splat(0.5)));
  V r = sub(x, mul(n, T::splat(6.28318500518798828125)));        // 8 * DP1
  r = sub(r, mul(n, T::splat(3.0199157663446332e-07)));          // 8 * DP2
  r = sub(r, mul(n, T::splat(2.1561211404432476e-14)));          // 8 * DP3
  const V u = mul(r, r);
  // cos(r) = sum (-1)^k u^k / (2k)!, truncated after u^10: the first
  // omitted term is pi^22/22! < 8e-11 on the reduced interval.
  V p = T::splat(4.1103176233121648585e-19);
  p = add(mul(p, u), T::splat(-1.5619206968586226462e-16));
  p = add(mul(p, u), T::splat(4.7794773323873852974e-14));
  p = add(mul(p, u), T::splat(-1.1470745597729724714e-11));
  p = add(mul(p, u), T::splat(2.0876756987868098979e-09));
  p = add(mul(p, u), T::splat(-2.7557319223985890653e-07));
  p = add(mul(p, u), T::splat(2.4801587301587301587e-05));
  p = add(mul(p, u), T::splat(-1.3888888888888888889e-03));
  p = add(mul(p, u), T::splat(4.1666666666666666667e-02));
  p = add(mul(p, u), T::splat(-0.5));
  p = add(mul(p, u), T::splat(1.0));
  return p;
}

/// Lane-wide atan2 via quotient reduction, tan(pi/8) fold, odd
/// polynomial and branch-free quadrant fixups.  Matches libm's quadrant
/// conventions for all finite inputs except the doubly-degenerate
/// (+-0, x <= -0) corner, which the lane solvers never feed it (their y
/// is a sqrt) and whose result the exact guard absorbs anyway.
template <class V>
inline V vatan2(V y, V x) {
  using T = vtraits<V>;
  const V zero = T::splat(0.0);
  const V one = T::splat(1.0);
  const V ay = vabs(y);
  const V ax = vabs(x);
  const V mn = vmin(ay, ax);
  const V mx = vmax(ay, ax);
  // z = min/max in [0, 1]; both-zero lanes forced to 0 instead of NaN.
  V z = select(cmp_ge(mx, T::splat(2.2250738585072014e-308)), div(mn, mx), zero);
  // Fold [tan(pi/8), 1] down to [-tan(pi/8), 0]: atan z = pi/4 + atan w.
  const auto folded = cmp_ge(z, T::splat(0.41421356237309503));
  const V w = select(folded, div(sub(z, one), add(z, one)), z);
  const V t = mul(w, w);
  // atan(w) = w * sum (-1)^k t^k / (2k+1), truncated after t^9: the
  // first omitted term is tan(pi/8)^21/21 < 5e-10.
  V p = T::splat(-5.2631578947368421053e-02);  // -1/19
  p = add(mul(p, t), T::splat(5.8823529411764705882e-02));   //  1/17
  p = add(mul(p, t), T::splat(-6.6666666666666666667e-02));  // -1/15
  p = add(mul(p, t), T::splat(7.6923076923076923077e-02));   //  1/13
  p = add(mul(p, t), T::splat(-9.0909090909090909091e-02));  // -1/11
  p = add(mul(p, t), T::splat(1.1111111111111111111e-01));   //  1/9
  p = add(mul(p, t), T::splat(-1.4285714285714285714e-01));  // -1/7
  p = add(mul(p, t), T::splat(2.0e-01));                     //  1/5
  p = add(mul(p, t), T::splat(-3.3333333333333333333e-01));  // -1/3
  p = add(mul(p, t), one);
  V a = add(mul(w, p), select(folded, T::splat(0.78539816339744830962), zero));
  // |y| > |x|: the quotient was x/y, so reflect about pi/4.
  a = select(cmp_ge(ax, ay), a, sub(T::splat(1.5707963267948966192), a));
  // x < 0 (strictly: x >= 0 keeps a, and +-0 >= 0 holds): second quadrant.
  a = select(cmp_ge(x, zero), a, sub(T::splat(3.1415926535897932385), a));
  // y < 0 (strictly): mirror to the lower half-plane.
  return select(cmp_ge(y, zero), a, neg(a));
}

/// Lane-wide cbrt for non-negative inputs — the one-real-root Cardano
/// lanes (delta >= 0, the dominant configuration on quartic resolvents)
/// need |v|^(1/3) per lane, and per-lane std::cbrt was the last libm
/// call left inside cardano_branch_lanes.  Seeded per lane by the
/// classic exponent-third bit trick (the integer scale is cheap scalar
/// work; there is no 64-bit lane divide to do it in-register), then
/// three lane-wide Halley iterations t <- t*(t^3 + 2x)/(2t^3 + x): the
/// seed is within ~5% relative, and Halley cubes the error, so three
/// rounds land around 1e-13 — far inside the ~1e-9 licence the exact
/// integer correction guard grants every estimate kernel here.  x == 0
/// is forced to exactly 0 (the seed bias alone would leave a tiny
/// positive) so the caller's p/(3m) degeneration check behaves like the
/// scalar path's.  Negative inputs are the caller's job to fold away
/// (cardano_branch_lanes passes |v| and applies the branch tables).
template <class V>
inline V vcbrt_nonneg(V x) {
  using T = vtraits<V>;
  constexpr int W = T::lanes;
  double xs[W], seed[W];
  store(xs, x);
  for (int l = 0; l < W; ++l) {
    std::uint64_t bits;
    std::memcpy(&bits, &xs[l], sizeof bits);
    bits = bits / 3 + 0x2A9F7893782DA1CEull;
    std::memcpy(&seed[l], &bits, sizeof bits);
  }
  V t = load<W>(seed);
  for (int it = 0; it < 3; ++it) {
    const V t3 = mul(mul(t, t), t);
    t = mul(t, div(add(t3, add(x, x)), add(add(t3, t3), x)));
  }
  return select(cmp_ge(T::splat(0.0), x), T::splat(0.0), t);
}

}  // namespace nrc::simd
