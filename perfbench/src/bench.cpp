#include "bench.hpp"

#include <array>
#include <fstream>
#include <stdexcept>

namespace pb {

// ------------------------------------------------------------ nest model

namespace {

std::string render_bound(const INest& n, const Bound& b) {
  std::string s;
  auto term = [&](i64 coef, const std::string& name) {
    if (coef == 0) return;
    const i64 mag = coef < 0 ? -coef : coef;
    if (s.empty())
      s += coef < 0 ? "-" : "";
    else
      s += coef < 0 ? " - " : " + ";
    s += mag == 1 ? name : std::to_string(mag) + "*" + name;
  };
  for (size_t j = 0; j < b.a.size(); ++j) term(b.a[j], n.vars[j]);
  for (size_t q = 0; q < b.p.size(); ++q) term(b.p[q], n.params[q]);
  if (b.c != 0 || s.empty()) {
    const i64 mag = b.c < 0 ? -b.c : b.c;
    if (s.empty())
      s = std::to_string(b.c);
    else
      s += (b.c < 0 ? " - " : " + ") + std::to_string(mag);
  }
  return s;
}

i64 eval_bound(const Bound& b, const i64* idx, const std::vector<i64>& pv) {
  i64 v = b.c;
  for (size_t j = 0; j < b.a.size(); ++j) v += b.a[j] * idx[j];
  for (size_t q = 0; q < b.p.size(); ++q) v += b.p[q] * pv[q];
  return v;
}

}  // namespace

std::string INest::dsl() const {
  std::string s = "name " + name + "\n";
  if (!params.empty()) {
    s += "params";
    for (const auto& p : params) s += " " + p;
    s += "\n";
  }
  for (int k = 0; k < depth(); ++k)
    s += "loop " + vars[static_cast<size_t>(k)] + " = " +
         render_bound(*this, lo[static_cast<size_t>(k)]) + " .. " +
         render_bound(*this, hi[static_cast<size_t>(k)]) + "\n";
  s += "body { sink(";
  for (int k = 0; k < depth(); ++k) s += (k ? ", " : "") + vars[static_cast<size_t>(k)];
  s += "); }\n";
  return s;
}

Walk odometer(const INest& n, const std::vector<i64>& pv, bool checksum, i64 cap) {
  Walk w;
  const int d = n.depth();
  std::array<i64, 8> idx{};
  std::array<i64, 8> hi{};
  // Descend from level k, initializing every level below it.
  auto descend = [&](int k) {
    for (; k < d; ++k) {
      idx[static_cast<size_t>(k)] = eval_bound(n.lo[static_cast<size_t>(k)], idx.data(), pv);
      hi[static_cast<size_t>(k)] = eval_bound(n.hi[static_cast<size_t>(k)], idx.data(), pv);
      if (idx[static_cast<size_t>(k)] >= hi[static_cast<size_t>(k)]) return k;
    }
    return d;
  };
  int k = descend(0);
  for (;;) {
    if (k == d) {
      if (++w.trip > cap) return w;
      if (checksum)
        w.checksum += tuple_mix(std::span<const i64>(idx.data(), static_cast<size_t>(d)));
      k = d - 1;
    } else {
      // Level k's range is empty here.
      w.rows_nonempty = false;
      if (k == 0) return w;
      --k;
    }
    // Advance: increment level k, backing out of exhausted levels.
    for (;;) {
      if (++idx[static_cast<size_t>(k)] < hi[static_cast<size_t>(k)]) {
        k = descend(k + 1);
        break;
      }
      if (k == 0) return w;
      --k;
    }
  }
}

std::string Key::param_text() const {
  std::string s;
  for (size_t q = 0; q < pv.size(); ++q)
    s += (q ? "," : "") + nest.params[q] + "=" + std::to_string(pv[q]);
  return s;
}

void size_for_trip(const INest& n, std::vector<i64>& pv, i64 target, i64 start) {
  auto trip_at = [&](i64 v) {
    pv[0] = v;
    return odometer(n, pv, false, target).trip;
  };
  i64 lo = std::max<i64>(2, start), hi = lo;
  while (trip_at(hi) < target) {
    lo = hi;
    hi *= 2;
  }
  while (lo < hi) {  // smallest v with trip(v) >= target
    const i64 mid = lo + (hi - lo) / 2;
    if (trip_at(mid) >= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  pv[0] = lo;
}

// ------------------------------------------------------------ hot set

namespace {

/// Builder for hand-written nests: bounds as (const, {var coefs},
/// {param coefs}).
struct NB {
  INest n;
  NB(std::string name, std::vector<std::string> params) {
    n.name = std::move(name);
    n.params = std::move(params);
  }
  NB& loop(const std::string& v, Bound lo, Bound hi) {
    const size_t k = n.vars.size();
    lo.a.resize(k);
    hi.a.resize(k);
    lo.p.resize(n.params.size());
    hi.p.resize(n.params.size());
    n.vars.push_back(v);
    n.lo.push_back(lo);
    n.hi.push_back(hi);
    return *this;
  }
};

Bound B(i64 c, std::vector<i64> a = {}, std::vector<i64> p = {}) {
  Bound b;
  b.c = c;
  b.a = std::move(a);
  b.p = std::move(p);
  return b;
}

Key bind_key(const INest& n, std::vector<i64> pv, i64 target) {
  Key k;
  k.nest = n;
  size_for_trip(n, pv, target, 2);
  k.pv = pv;
  k.ref = odometer(n, pv, true);
  k.text = n.dsl();
  return k;
}

}  // namespace

std::vector<Key> hot_set(u64 seed) {
  std::vector<INest> nests;
  // The eleven kernels of paper §VII (the collapsed sub-nests of
  // src/kernels), in registry order.
  nests.push_back(NB("correlation", {"N"})
                      .loop("i", B(0), B(-1, {}, {1}))
                      .loop("j", B(1, {1}), B(0, {0}, {1}))
                      .n);
  nests.push_back(NB("correlation_tiled", {"NT"})
                      .loop("it", B(0), B(0, {}, {1}))
                      .loop("jt", B(0, {1}), B(0, {0}, {1}))
                      .n);
  nests.push_back(NB("covariance", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0, {1}), B(0, {0}, {1}))
                      .n);
  nests.push_back(NB("covariance_tiled", {"NT"})
                      .loop("it", B(0), B(0, {}, {1}))
                      .loop("jt", B(0, {1}), B(0, {0}, {1}))
                      .n);
  for (const char* name : {"symm", "syrk", "syr2k"})
    nests.push_back(NB(name, {"N"})
                        .loop("i", B(0), B(0, {}, {1}))
                        .loop("j", B(0), B(1, {1}))
                        .n);
  nests.push_back(NB("trmm", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0, {1}), B(0, {0}, {1}))
                      .n);
  nests.push_back(NB("skewstencil", {"T", "N"})
                      .loop("i", B(0), B(0, {}, {1, 0}))
                      .loop("j", B(0, {1}), B(0, {2}, {0, 1}))
                      .n);
  nests.push_back(NB("utma", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0, {1}), B(0, {0}, {1}))
                      .n);
  nests.push_back(NB("ltmp", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0), B(1, {1}))
                      .n);
  // Shapes beyond the kernel set: deeper simplices and two-parameter
  // trapezoid/band nests.
  nests.push_back(NB("triangular", {"N"})
                      .loop("i", B(1), B(0, {}, {1}))
                      .loop("j", B(0), B(0, {1}))
                      .n);
  nests.push_back(NB("tetrahedral", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0), B(1, {1}))
                      .loop("k", B(0), B(1, {0, 1}))
                      .n);
  nests.push_back(NB("simplex4", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0, {1}), B(0, {0}, {1}))
                      .loop("k", B(0, {0, 1}), B(0, {0, 0}, {1}))
                      .loop("l", B(0, {0, 0, 1}), B(0, {0, 0, 0}, {1}))
                      .n);
  nests.push_back(NB("trapezoid", {"N", "M"})
                      .loop("i", B(0), B(0, {}, {1, 0}))
                      .loop("j", B(0), B(0, {1}, {0, 1}))
                      .n);
  nests.push_back(NB("skew3", {"N"})
                      .loop("i", B(0), B(0, {}, {1}))
                      .loop("j", B(0, {1}), B(0, {1}, {1}))
                      .loop("k", B(0), B(1, {0, 1}))
                      .n);

  // Each nest keeps its rung of the ladder, so every seed serves the
  // same mix of domain sizes; the seed jitters each size by up to 3%.
  // Rungs interleave depths so that no shape owns the largest domains.
  static const int kRung[16] = {0, 8, 2, 10, 4, 12, 6, 14, 1, 9, 3, 11, 13, 5, 15, 7};
  std::vector<size_t> rung(nests.size());
  for (size_t i = 0; i < rung.size(); ++i) rung[i] = static_cast<size_t>(kRung[i % 16]);
  std::mt19937_64 rng(seed ^ 0x5eed0001ULL);
  std::uniform_real_distribution<double> jitter(0.97, 1.03);

  std::vector<Key> keys;
  const double steps = static_cast<double>(nests.size() - 1);
  for (size_t i = 0; i < nests.size(); ++i) {
    const double base = 20000.0 * std::pow(10.0, static_cast<double>(rung[i]) / steps);
    const i64 target = static_cast<i64>(base * jitter(rng));
    std::vector<i64> pv(nests[i].params.size(), 0);
    // Secondary parameters stay fixed: the stencil's base width and the
    // trapezoid's offset.
    if (nests[i].name == "skewstencil") pv[1] = 64;
    if (nests[i].name == "trapezoid") pv[1] = 16;
    keys.push_back(bind_key(nests[i], pv, target));
  }
  return keys;
}

// ------------------------------------------------------------ cold gen

namespace {

/// One random structure of the given depth (see ColdGen).
INest make_structure(std::mt19937_64& rng, int depth, int serial) {
  static const char* kVars[] = {"i", "j", "k", "l", "m"};
  enum Ty { Simplex, TriDown, Band, Tiled, Skew };
  // Level-type weights (simplex, tridown, band, tiled, skew) of the four
  // families: simplex, trapezoid, tiled, skewed.
  static const double kWeights[4][5] = {{6, 3, 1, 0, 0},
                                        {1, 4, 5, 0, 0},
                                        {3, 2, 0, 5, 0},
                                        {2.5, 0, 2.5, 0, 5}};
  constexpr i64 kInf = INT64_MAX / 4;

  const int fam = static_cast<int>(rng() % 4);
  INest n;
  n.name = "cold" + std::to_string(serial);
  n.params = {"N"};
  std::vector<i64> t(static_cast<size_t>(depth), kInf);  // var < N + t
  int raising = 0;
  auto pick = [&](i64 lo, i64 hi) {
    return lo + static_cast<i64>(rng() % static_cast<u64>(hi - lo + 1));
  };
  for (int k = 0; k < depth; ++k) {
    Bound lo, hi;
    lo.a.assign(static_cast<size_t>(k), 0);
    hi.a.assign(static_cast<size_t>(k), 0);
    lo.p.assign(1, 0);
    hi.p.assign(1, 0);
    if (k == 0) {
      const i64 s = pick(0, 30);
      hi.p[0] = 1;
      hi.c = s;
      t[0] = s;
    } else {
      const int r = rng() % 10 < 6 ? k - 1 : static_cast<int>(rng() % static_cast<u64>(k));
      std::discrete_distribution<int> dist(std::begin(kWeights[fam]), std::end(kWeights[fam]));
      int ty = dist(rng);
      // Keep every level equation at degree <= 4: at most three levels
      // whose extent depends on an outer index.
      const bool raises = ty == Simplex || ty == TriDown || ty == Skew;
      if (raises && raising >= 3) ty = t[static_cast<size_t>(r)] < kInf ? Band : Tiled;
      if (ty == Simplex && t[static_cast<size_t>(r)] >= kInf) ty = TriDown;
      if (ty == Band && t[static_cast<size_t>(r)] >= kInf) ty = Tiled;
      const i64 tr = t[static_cast<size_t>(r)];
      switch (ty) {
        case Simplex: {  // [i_r + s, N + t), t >= t_r + s
          const i64 s = pick(0, 1);
          lo.a[static_cast<size_t>(r)] = 1;
          lo.c = s;
          hi.p[0] = 1;
          hi.c = tr + s + pick(0, 2);
          t[static_cast<size_t>(k)] = hi.c;
          ++raising;
          break;
        }
        case TriDown: {  // [0, i_r + 1 + s)
          const i64 s = pick(0, 2);
          hi.a[static_cast<size_t>(r)] = 1;
          hi.c = 1 + s;
          t[static_cast<size_t>(k)] = tr < kInf ? tr + s : kInf;
          ++raising;
          break;
        }
        case Band: {  // [i_r + s, i_r + s + c)
          const i64 s = pick(0, 2), c = pick(2, 5);
          lo.a[static_cast<size_t>(r)] = 1;
          lo.c = s;
          hi.a[static_cast<size_t>(r)] = 1;
          hi.c = s + c;
          t[static_cast<size_t>(k)] = tr + s + c - 1;
          break;
        }
        case Tiled: {  // [0, c)
          const i64 c = pick(2, 6);
          hi.c = c;
          t[static_cast<size_t>(k)] = c;
          break;
        }
        default: {  // Skew: [i_r, N + 2 i_r + s)
          const i64 s = pick(0, 1);
          lo.a[static_cast<size_t>(r)] = 1;
          hi.a[static_cast<size_t>(r)] = 2;
          hi.p[0] = 1;
          hi.c = s;
          t[static_cast<size_t>(k)] = kInf;
          ++raising;
          break;
        }
      }
    }
    n.vars.push_back(kVars[k]);
    n.lo.push_back(lo);
    n.hi.push_back(hi);
  }
  return n;
}

}  // namespace

ColdGen::ColdGen(u64 seed, int corpus_size) : rng_(seed) {
  // Depths 2..5 in a fixed 4:3:2:1 cycle: deep structures cost orders
  // of magnitude more to collapse, so the mix must not vary.
  static const int kDepthCycle[10] = {2, 3, 2, 4, 2, 3, 5, 2, 3, 4};
  std::mt19937_64 corpus_rng(0xc01dc0de5eedULL);
  std::set<std::string> seen;
  std::map<int, std::vector<size_t>> by_depth;
  while (static_cast<int>(corpus_.size()) < corpus_size) {
    const int depth = kDepthCycle[corpus_.size() % 10];
    INest n = make_structure(corpus_rng, depth, static_cast<int>(corpus_.size()));
    // The name line is not part of the structure: key on the loops.
    INest anon = n;
    anon.name = "x";
    const std::string key = anon.dsl();
    if (seen.count(key)) continue;
    // Serving collapses with the library's default calibration, which
    // needs a uniform parameter value whose domain holds at most 4000
    // points; structures without one are refused by design.  N = 6
    // within that window keeps every structure servable.
    const Walk at6 = odometer(n, {6}, false, 4000);
    if (at6.trip < 4 || at6.trip > 4000) continue;
    seen.insert(key);
    by_depth[depth].push_back(corpus_.size());
    corpus_.push_back(std::move(n));
    target_.push_back(small_trip(corpus_rng));
  }
  // The run seed orders each depth class; the stream keeps the cycle.
  for (auto& [d, v] : by_depth) std::shuffle(v.begin(), v.end(), rng_);
  std::map<int, size_t> taken;
  for (size_t i = 0; i < corpus_.size(); ++i) {
    const int d = kDepthCycle[i % 10];
    order_.push_back(by_depth[d][taken[d]++]);
  }
}

i64 ColdGen::small_trip(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u(std::log(2000.0), std::log(20000.0));
  return static_cast<i64>(std::exp(u(rng)));
}

Key ColdGen::bind_small(const INest& n, i64 trip) {
  Key k;
  k.nest = n;
  k.pv.assign(1, 0);
  size_for_trip(n, k.pv, trip, 2);
  k.ref = odometer(n, k.pv, true);
  if (!k.ref.rows_nonempty || k.ref.trip < 1)
    throw std::logic_error("cold generator produced an empty row: " + n.dsl());
  k.text = n.dsl();
  return k;
}

Key ColdGen::next() {
  const size_t i = order_[next_++];
  return bind_small(corpus_[i], target_[i]);
}

Key ColdGen::rebind() {
  if (next_ == 0) return next();
  return bind_small(corpus_[order_[rng_() % next_]], small_trip(rng_));
}

// ------------------------------------------------------------ windows

namespace {

size_t window_of(i64 t, i64 t0, i64 t1, int n) {
  const double f = static_cast<double>(t - t0) / static_cast<double>(std::max<i64>(1, t1 - t0));
  return static_cast<size_t>(std::clamp(static_cast<int>(f * n), 0, n - 1));
}

}  // namespace

std::vector<double> window_rates(const std::vector<Stamp>& s, i64 t0, i64 t1, int n) {
  std::vector<double> count(static_cast<size_t>(n), 0.0);
  for (const Stamp& x : s) count[window_of(x.t_end, t0, t1, n)] += 1;
  const double width_s = static_cast<double>(t1 - t0) / 1e9 / n;
  for (double& c : count) c /= width_s;
  return count;
}

std::vector<std::vector<double>> window_latencies(const std::vector<Stamp>& s, i64 t0, i64 t1,
                                                  int n) {
  std::vector<std::vector<double>> w(static_cast<size_t>(n));
  for (const Stamp& x : s) w[window_of(x.t_end, t0, t1, n)].push_back(x.ns);
  std::erase_if(w, [](const std::vector<double>& v) { return v.empty(); });
  return w;
}

// ------------------------------------------------------------ metrics

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      o += ' ';
    } else {
      o += ch;
    }
  }
  return o;
}

}  // namespace

std::string Metrics::json(bool with_samples) const {
  std::string s = "{";
  char buf[64];
  bool first = true;
  for (const auto& m : list_) {
    s += first ? "" : ", ";
    first = false;
    if (m.named)
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    else
      std::snprintf(buf, sizeof buf, "null");
    s += "\"" + json_escape(m.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
         json_escape(m.unit) + "\"";
    if (with_samples && m.samples >= 0) s += ", \"n\": " + std::to_string(m.samples);
    s += "}";
  }
  return s + "}";
}

// ------------------------------------------------------------ tracing

const char* span_name(Sp s) {
  static const char* kNames[] = {
      "serve.request",  "serve.frame_in", "serve.frame_out", "serve.handle.describe",
      "serve.handle.emit", "serve.handle.lint", "serve.handle.run", "serve.handle.jitrun",
      "codegen.parse",  "analysis.analyze", "plan_cache.get", "plan.describe",
      "schedule.select", "codegen.emit",   "runtime.run",    "jit.get",
      "jit.run",        "serve.payload"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(Sp::kCount));
  return kNames[static_cast<size_t>(s)];
}

SpanTotals aggregate(const std::vector<const SpanBuffer*>& bufs) {
  const size_t n = static_cast<size_t>(Sp::kCount);
  SpanTotals t;
  t.count.assign(n, 0);
  t.total_ns.assign(n, 0);
  t.self_ns.assign(n, 0);
  t.child_ns.assign(n, 0);
  for (const SpanBuffer* b : bufs) {
    const auto& sp = b->spans();
    std::vector<i64> child(sp.size(), 0);
    for (const Span& s : sp)
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
    for (size_t i = 0; i < sp.size(); ++i) {
      const size_t k = static_cast<size_t>(sp[i].name);
      const i64 d = sp[i].t1 - sp[i].t0;
      ++t.count[k];
      t.total_ns[k] += d;
      t.child_ns[k] += child[i];
      t.self_ns[k] += d - child[i];
    }
  }
  return t;
}

void write_spans(const std::string& path, const std::vector<const SpanBuffer*>& bufs) {
  std::ofstream os(path);
  os << "thread\tname\treq\tparent\tstart_ns\tend_ns\n";
  for (size_t th = 0; th < bufs.size(); ++th)
    for (const Span& s : bufs[th]->spans())
      os << th << '\t' << span_name(s.name) << '\t' << s.req << '\t' << s.parent << '\t'
         << s.t0 << '\t' << s.t1 << '\n';
}

// ------------------------------------------------------------ process

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace pb
