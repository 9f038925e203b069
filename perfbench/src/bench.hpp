#pragma once
// Shared pieces of the end-to-end benchmark: the integer nest model the
// generators and the correctness oracle work on, seeded generators for
// the serving workloads, sample statistics, the metric printer and the
// span recorder of the traced run.
//
// The oracle never asks the library for an answer: every nest is held
// here as integer affine coefficients and walked with plain odometer
// loops, and the run checksum is recomputed from the protocol's
// definition (an order-insensitive sum of splitmix-mixed tuples).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace pb {

using i64 = std::int64_t;
using u64 = std::uint64_t;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ nest model

/// One affine bound: c + sum(a[j] * i_j) + sum(p[q] * P_q).
struct Bound {
  i64 c = 0;
  std::vector<i64> a;  ///< one coefficient per outer loop variable
  std::vector<i64> p;  ///< one coefficient per parameter
};

/// A perfect affine nest: loop k runs lo[k] <= i_k < hi[k].
struct INest {
  std::string name;
  std::vector<std::string> params;
  std::vector<std::string> vars;
  std::vector<Bound> lo, hi;

  int depth() const { return static_cast<int>(vars.size()); }
  /// The nest as DSL text (no parameter values): the structure key.
  std::string dsl() const;
};

/// Result of the odometer walk.
struct Walk {
  i64 trip = 0;
  u64 checksum = 0;
  bool rows_nonempty = true;  ///< every reached range had lo < hi
};

/// The protocol's per-tuple mix (splitmix64 finalizer chained over the
/// indices); the run checksum is the wrapping sum over all tuples.
inline u64 tuple_mix(std::span<const i64> idx) {
  u64 h = 0x9e3779b97f4a7c15ULL;
  for (const i64 v : idx) {
    u64 x = static_cast<u64>(v) + 0x9e3779b97f4a7c15ULL + h;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h = x ^ (x >> 31);
  }
  return h;
}

/// Walk the nest at `pv` (values in INest::params order).  Stops
/// counting once the trip exceeds `cap` (returns trip = cap + 1).
Walk odometer(const INest& n, const std::vector<i64>& pv, bool checksum,
              i64 cap = INT64_MAX);

// ------------------------------------------------------------ generators

/// A nest bound to parameter values, with its oracle answer.
struct Key {
  INest nest;
  std::vector<i64> pv;
  Walk ref;
  std::string text;  ///< DSL text sent on the wire
  std::string param_text() const;
};

/// The serve-warm hot set: the 11 paper kernel nests plus triangular,
/// tetrahedral, 4-deep simplex, trapezoid and skewed 3-deep shapes.
/// Domain sizes come from a fixed log-spaced ladder over
/// [20k, 200k] iterations, one rung per nest; the seed jitters each
/// size by up to 3%, so every seed loads the same mix.
std::vector<Key> hot_set(u64 seed);

/// The serve-cold structure stream.  The corpus is a fixed set of
/// nest structures (depth 2..5 in a 4:3:2:1 mix, families simplex /
/// trapezoid / tiled / skewed) with their domain sizes, generated from
/// a constant so that every run measures the same population; the run
/// seed orders it within each depth and picks the re-binds.  Every level equation stays
/// at degree <= 4 (the paper's closed-form limit) and every row of the
/// domain is non-empty (the Fig. 5 model), so no request is refused.
class ColdGen {
 public:
  ColdGen(u64 seed, int corpus_size);
  /// True once every corpus structure has been sent.
  bool exhausted() const { return next_ >= order_.size(); }
  /// Corpus index of the structure next() returns next.
  size_t next_index() const { return order_[next_]; }
  /// The next never-sent corpus structure, bound to a small domain
  /// (about 2k..20k iterations).  Requires !exhausted().
  Key next();
  /// A structure sent earlier, re-bound to a seeded new domain size (a
  /// symbolic hit on the server); next() when none was sent yet.
  Key rebind();

 private:
  static i64 small_trip(std::mt19937_64& rng);
  static Key bind_small(const INest& n, i64 trip);
  std::mt19937_64 rng_;
  std::vector<INest> corpus_;
  std::vector<i64> target_;  ///< per corpus structure: trip-count target
  std::vector<size_t> order_;
  size_t next_ = 0;
};

/// Set pv[0] to the smallest value >= start (other parameters fixed)
/// whose trip count reaches `target`.
void size_for_trip(const INest& n, std::vector<i64>& pv, i64 target, i64 start);

// ------------------------------------------------------------ statistics

inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}
/// A percentile may be named only when at least ten samples lie beyond
/// it: true when q leaves >= 10 of n samples above.
inline bool tail_ok(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

/// Noise-robust run statistics: the run is cut into equal time windows
/// and a figure is the median of its per-window values, so a burst of
/// interference from other processes moves a few windows, not the
/// result.
struct Stamp {
  i64 t_end = 0;   ///< completion time (steady clock, ns)
  double ns = 0;   ///< latency
};
constexpr int kWindows = 20;
/// Completions per second in each of n windows over [t0, t1).
std::vector<double> window_rates(const std::vector<Stamp>& s, i64 t0, i64 t1, int n);
/// The latencies completed within each of n windows (empty ones skipped).
std::vector<std::vector<double>> window_latencies(const std::vector<Stamp>& s, i64 t0, i64 t1,
                                                  int n);

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  long long samples = -1;  ///< -1: not a sampled timing
  bool named = true;  ///< false: a percentile with too few samples beyond
                      ///< it to be named; printed as null
};

/// Ordered metric list; json() renders it as one JSON object.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           long long samples = -1, bool named = true) {
    for (auto& m : list_)
      if (m.name == name) {
        m = Metric{name, value, unit, samples, named};
        return;
      }
    list_.push_back(Metric{name, value, unit, samples, named});
  }
  const Metric* find(const std::string& name) const {
    for (const auto& m : list_)
      if (m.name == name) return &m;
    return nullptr;
  }
  /// {"name": {"value": v, "unit": u}, ...}; with_samples adds "n".
  std::string json(bool with_samples) const;

 private:
  std::vector<Metric> list_;
};


// ------------------------------------------------------------ tracing

/// Span names of the traced run, one per layer boundary the benchmark
/// wraps.  Names are the per-layer metric prefixes.
enum class Sp : std::uint8_t {
  Request,        ///< one client request, framing included
  FrameIn,        ///< format_request + read_request
  FrameOut,       ///< format_response + read_response
  HandleDescribe, ///< the handle_request replacement, per verb
  HandleEmit,
  HandleLint,
  HandleRun,
  HandleJitrun,
  Parse,          ///< serve::parse_nest_text + collapsed_nest
  Analyze,        ///< analyze_nest (lint)
  CacheGet,       ///< PlanCache::get_with_outcome
  Describe,       ///< CollapsePlan::describe
  Select,         ///< auto_schedule / auto_select_with_cost
  Emit,           ///< emit_collapsed_function
  RuntimeRun,     ///< nrc::run with the serve body
  JitGet,         ///< CollapsePlan::jit (kernel cache)
  JitRun,         ///< JitKernel::run
  Payload,        ///< response payload assembly
  kCount
};
const char* span_name(Sp s);

struct Span {
  i64 t0 = 0, t1 = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer
  std::uint32_t req = 0;     ///< request id
  Sp name = Sp::Request;
};

/// One thread's span buffer: fixed capacity, allocated up front, so the
/// traced pass never allocates per span.  Not thread-safe: one per
/// client thread.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }
  bool full(size_t headroom = 32) const {
    return spans_.size() + headroom > spans_.capacity();
  }
  std::int32_t open(Sp name, std::uint32_t req) {
    Span s;
    s.name = name;
    s.req = req;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.t0 = now_ns();
    spans_.push_back(s);
    const auto id = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void close(std::int32_t id) {
    spans_[static_cast<size_t>(id)].t1 = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: open on construction, close on destruction.  A null
/// buffer records nothing (the untraced configuration).
class Scope {
 public:
  Scope(SpanBuffer* b, Sp name, std::uint32_t req) : b_(b) {
    if (b_) id_ = b_->open(name, req);
  }
  ~Scope() {
    if (b_) b_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanBuffer* b_;
  std::int32_t id_ = -1;
};

/// Per-name totals over a set of buffers.
struct SpanTotals {
  std::vector<i64> count, total_ns, self_ns, child_ns;
};
SpanTotals aggregate(const std::vector<const SpanBuffer*>& bufs);

/// Write every span as TSV (name, request, parent, start, end) — the
/// traced run's raw record, written once at the end.
void write_spans(const std::string& path, const std::vector<const SpanBuffer*>& bufs);

// ------------------------------------------------------------ process

/// Peak resident set size of this process in MB (VmHWM).
double peak_rss_mb();

}  // namespace pb
