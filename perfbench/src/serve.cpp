// serve-warm and serve-cold: in-process clients driving the nrcd request
// path (framing in, serve::handle_request, framing out) over seeded
// request streams, with every response checked against the odometer
// oracle.  The traced pass replaces handle_request by the same sequence
// of public calls it makes, with a span around each.

#include <omp.h>
#include <sys/stat.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/nest_analyzer.hpp"
#include "nrcollapse.hpp"
#include "workloads.hpp"

namespace pb {

void record_env(Outcome& out, const Options& o) {
  out.env.add("nproc", o.nproc, "count");
  out.notes.push_back(std::string("simd_abi ") + nrc::simd::runtime_abi());
  const std::string cc = nrc::jit::resolve_compiler();
  const bool tc = nrc::jit::toolchain_available();
  out.notes.push_back("compiler " + cc + (tc ? "" : " (unusable)"));
  out.env.add("toolchain", tc ? 1 : 0, "bool");
}

namespace {

enum Verb { VDescribe, VEmit, VLint, VRun, VJitrun, kVerbs };
const char* kVerbName[kVerbs] = {"describe", "emit", "lint", "run", "jitrun"};
const Sp kHandleSpan[kVerbs] = {Sp::HandleDescribe, Sp::HandleEmit, Sp::HandleLint,
                                Sp::HandleRun, Sp::HandleJitrun};

/// Traced-run margins: the child spans of a handle span must cover at
/// least this share of it, and the collapse sub-steps timed on a copy of
/// each cold structure must sum to within this share of the cache's
/// miss time.
constexpr double kVerbMargin = 0.10;
constexpr double kColdMargin = 0.25;

// ------------------------------------------------------------ helpers

void make_dir(const std::string& p) { ::mkdir(p.c_str(), 0700); }

/// Point the JIT disk cache at a fresh directory and drop every
/// in-memory kernel, so each set-up compiles from scratch.
void fresh_jit_state(const std::string& dir) {
  make_dir(dir);
  ::setenv("NRC_JIT_CACHE_DIR", dir.c_str(), 1);
  nrc::kernel_cache().clear();
}

nrc::ParamMap params_of(const Key& k) {
  nrc::ParamMap pm;
  for (size_t q = 0; q < k.pv.size(); ++q) pm[k.nest.params[q]] = k.pv[q];
  return pm;
}

nrc::serve::Request make_request(const Key& k, Verb v) {
  nrc::serve::Request r;
  r.verb = kVerbName[v];
  r.params = params_of(k);
  r.nest_text = k.text;
  return r;
}

/// Per-thread observations of the traced handler.
struct LayerAcc {
  std::vector<double> hit_ns, wait_ns, payload_bytes;
  i64 run_iters = 0, run_ns = 0, jit_iters = 0, jit_run_ns = 0;
  std::vector<double> jit_hit_ns;
  /// Kernels this thread fetched, for the render/load probes.
  std::vector<std::pair<std::shared_ptr<const nrc::CollapsePlan>, nrc::Schedule>> jit_plans;
  /// Cold-structure sub-steps, indexed by depth.
  std::array<std::vector<double>, 6> ranking, levels, calib, bind;
  double sub_sum_ns = 0, miss_sum_ns = 0;
  /// A cold build awaiting its sub-step probe (run after the request).
  std::optional<nrc::NestSpec> pending_nest;
  nrc::ParamMap pending_params;
  i64 pending_build_ns = 0;
  std::vector<std::pair<std::shared_ptr<const nrc::CollapsePlan>, nrc::Schedule>> run_plans;
};

/// handle_request, decomposed into the public calls it makes (see
/// serve/protocol.cpp), with a span around each.  Returns the same
/// response handle_request would.
nrc::serve::Response traced_handle(nrc::PlanCache& cache, const nrc::serve::Request& req,
                                   const nrc::serve::ServeLimits& limits, SpanBuffer* tb,
                                   std::uint32_t rid, LayerAcc& acc, bool probe_cold) {
  int v = 0;
  while (v < kVerbs && req.verb != kVerbName[v]) ++v;
  if (v == kVerbs) return nrc::serve::handle_request(cache, req, limits);
  nrc::serve::Response resp;
  Scope handle(tb, kHandleSpan[v], rid);
  try {
    nrc::NestProgram prog;
    nrc::NestSpec nest;
    {
      Scope s(tb, Sp::Parse, rid);
      prog = nrc::serve::parse_nest_text(req.nest_text);
      nest = prog.collapsed_nest();
    }
    if (v == VLint) {
      nrc::NestCertificate cert;
      {
        Scope s(tb, Sp::Analyze, rid);
        cert = nrc::analyze_nest(nest, req.params);
      }
      Scope s(tb, Sp::Payload, rid);
      if (cert.bind_ok && cert.total_trip > limits.max_run_trip)
        cert.diagnostics.push_back(nrc::Diagnostic{
            "NRC-W005", nrc::LintSeverity::Warn, -1,
            "run would be refused: domain has " + std::to_string(cert.total_trip) +
                " iterations, over the serving limit of " +
                std::to_string(limits.max_run_trip),
            "describe/emit stay available; shrink the domain to run remotely"});
      resp.payload = cert.str();
      acc.payload_bytes.push_back(static_cast<double>(resp.payload.size()));
      return resp;
    }
    nrc::GetResult got;
    {
      const i64 t0 = now_ns();
      {
        Scope s(tb, Sp::CacheGet, rid);
        got = cache.get_with_outcome(nest, req.params);
      }
      const double d = static_cast<double>(now_ns() - t0);
      if (got.outcome == nrc::GetOutcome::Hit) {
        acc.hit_ns.push_back(d);
        acc.wait_ns.push_back(static_cast<double>(got.build_ns));
      }
    }
    resp.outcome = nrc::get_outcome_name(got.outcome);
    resp.build_ns = got.build_ns;
    const nrc::CollapsePlan& plan = *got.plan;

    if (v == VDescribe) {
      Scope s(tb, Sp::Describe, rid);
      resp.payload = plan.describe();
    } else if (v == VEmit) {
      nrc::NestProgram emittable = prog;
      if (emittable.body.empty()) emittable.body = "/* body */;";
      nrc::EmitOptions emit;
      {
        Scope s(tb, Sp::Select, rid);
        emit.schedule = plan.auto_schedule();
      }
      Scope s(tb, Sp::Emit, rid);
      resp.payload = nrc::emit_collapsed_function(emittable, plan.collapsed(), emit);
    } else {
      if (plan.eval().trip_count() > limits.max_run_trip)
        throw nrc::SpecError(req.verb + ": domain over the serving limit");
      nrc::Schedule::Choice choice;
      {
        Scope s(tb, Sp::Select, rid);
        choice = nrc::Schedule::auto_select_with_cost(plan.eval());
      }
      u64 checksum = 0;
      auto body = [&](std::span<const i64> idx) {
        const u64 mix = tuple_mix(idx);
#pragma omp atomic
        checksum += mix;
      };
      std::string jit_line;
      const i64 trip = plan.eval().trip_count();
      if (v == VJitrun || choice.jit_recommended) {
        std::shared_ptr<const nrc::JitKernel> kernel;
        {
          const i64 misses = nrc::kernel_cache().stats().misses;
          const i64 t0 = now_ns();
          {
            Scope s(tb, Sp::JitGet, rid);
            kernel = plan.jit(choice.schedule);
          }
          const i64 t1 = now_ns();
          if (nrc::kernel_cache().stats().misses == misses)
            acc.jit_hit_ns.push_back(static_cast<double>(t1 - t0));
        }
        const i64 t0 = now_ns();
        {
          Scope s(tb, Sp::JitRun, rid);
          kernel->run(body);
        }
        acc.jit_run_ns += now_ns() - t0;
        acc.jit_iters += trip;
        if (acc.jit_plans.size() < 64) acc.jit_plans.emplace_back(got.plan, choice.schedule);
        if (v == VJitrun) jit_line = "jit " + kernel->status() + "\n";
      } else {
        const i64 t0 = now_ns();
        {
          Scope s(tb, Sp::RuntimeRun, rid);
          nrc::run(plan, choice.schedule, body);
        }
        acc.run_ns += now_ns() - t0;
        acc.run_iters += trip;
        if (acc.run_plans.size() < 64) acc.run_plans.emplace_back(got.plan, choice.schedule);
      }
      Scope s(tb, Sp::Payload, rid);
      resp.payload = "checksum " + std::to_string(checksum) + "\ntrip " +
                     std::to_string(trip) + "\n" + jit_line;
    }
    acc.payload_bytes.push_back(static_cast<double>(resp.payload.size()));
    if (probe_cold && got.outcome == nrc::GetOutcome::ColdBuild) {
      acc.pending_nest = nest;
      acc.pending_params = req.params;
      acc.pending_build_ns = got.build_ns;
    }
    return resp;
  } catch (const nrc::Error& e) {
    return nrc::serve::Response{false, std::string(e.what()) + "\n", "-", 0};
  }
}

/// The collapse sub-steps of the cold build recorded by the last
/// traced request, timed on a copy of its structure; their sum
/// reconciles against the cache's own miss time.
void probe_cold_build(LayerAcc& acc) {
  if (!acc.pending_nest) return;
  const nrc::NestSpec nest = *acc.pending_nest;
  acc.pending_nest.reset();
  try {
    const size_t d = static_cast<size_t>(std::min(5, nest.depth()));
    const i64 t0 = now_ns();
    const nrc::RankingSystem rs = nrc::build_ranking_system(nest);
    const i64 t1 = now_ns();
    auto lv = nrc::build_level_formulas(rs, nrc::CollapseOptions{}.max_closed_degree);
    const i64 t2 = now_ns();
    std::vector<std::string> slots = nest.loop_vars();
    for (const auto& p : nest.params()) slots.push_back(p);
    slots.push_back(nrc::kPcVar);
    nrc::select_convenient_branches(lv, rs, nrc::default_calibration(nest), slots);
    const i64 t3 = now_ns();
    const nrc::Collapsed col = nrc::collapse(nest);
    const i64 t4 = now_ns();
    (void)col.bind(acc.pending_params);
    const i64 t5 = now_ns();
    acc.ranking[d].push_back(static_cast<double>(t1 - t0));
    acc.levels[d].push_back(static_cast<double>(t2 - t1));
    acc.calib[d].push_back(static_cast<double>(t3 - t2));
    acc.bind[d].push_back(static_cast<double>(t5 - t4));
    acc.sub_sum_ns += static_cast<double>((t3 - t0) + (t5 - t4));
    acc.miss_sum_ns += static_cast<double>(acc.pending_build_ns);
  } catch (const nrc::Error&) {
    // Not expected: the cache has just built this structure.  The
    // sample is dropped.
  }
}

/// One client request end to end: frame the request, serve it, frame
/// the reply and read it back.  Returns the latency in ns.  A framing
/// error comes back as a failed response.
struct Exchange {
  nrc::serve::Response resp;
  i64 ns = 0;
};
Exchange exchange(nrc::PlanCache& cache, const nrc::serve::Request& req, SpanBuffer* tb,
                  std::uint32_t rid, LayerAcc* acc, bool probe_cold = false) {
  static const nrc::serve::ServeLimits limits{};
  Exchange ex;
  const i64 t0 = now_ns();
  try {
    Scope root(tb, Sp::Request, rid);
    nrc::serve::Request parsed;
    {
      Scope s(tb, Sp::FrameIn, rid);
      std::istringstream is(nrc::serve::format_request(req));
      nrc::serve::read_request(is, parsed);
    }
    const nrc::serve::Response r =
        acc ? traced_handle(cache, parsed, limits, tb, rid, *acc, probe_cold)
            : nrc::serve::handle_request(cache, parsed, limits);
    {
      Scope s(tb, Sp::FrameOut, rid);
      std::istringstream is(nrc::serve::format_response(r));
      nrc::serve::read_response(is, ex.resp);
    }
  } catch (const nrc::Error& e) {
    ex.resp = nrc::serve::Response{false, std::string("framing: ") + e.what(), "-", 0};
  }
  ex.ns = now_ns() - t0;
  return ex;
}

/// Oracle verdict for one response.
enum class Verdict { Ok, Failed, Mismatch };
struct Check {
  Verdict v = Verdict::Ok;
  std::string why;
  bool jit_compiled = false;
};

Check verify(const Key& k, Verb v, const nrc::serve::Response& r) {
  Check c;
  if (!r.ok) {
    c.v = Verdict::Failed;
    c.why = std::string(kVerbName[v]) + " refused: " + r.payload;
    return c;
  }
  const std::string& p = r.payload;
  auto bad = [&](const std::string& what) {
    c.v = Verdict::Mismatch;
    c.why = std::string(kVerbName[v]) + " " + k.nest.name + " " + k.param_text() + ": " + what;
  };
  switch (v) {
    case VDescribe: {
      const size_t at = p.find("(trip count ");
      if (at == std::string::npos) {
        bad("no trip count line");
        break;
      }
      const long long trip = std::atoll(p.c_str() + at + 12);
      if (trip != k.ref.trip)
        bad("trip " + std::to_string(trip) + " != odometer " + std::to_string(k.ref.trip));
      break;
    }
    case VEmit:
      if (p.find(" " + k.nest.name + "_collapsed(") == std::string::npos)
        bad("no collapsed function emitted");
      break;
    case VLint:
      if (p.rfind("lint: ", 0) != 0 || p.find("certificates:") == std::string::npos)
        bad("malformed certificate block");
      break;
    default: {
      const std::string want = "checksum " + std::to_string(k.ref.checksum) + "\ntrip " +
                               std::to_string(k.ref.trip) + "\n";
      if (p.rfind(want, 0) != 0) {
        bad("payload '" + p.substr(0, 80) + "' != oracle '" + want + "'");
        break;
      }
      if (v == VJitrun) {
        const std::string rest = p.substr(want.size());
        if (rest.rfind("jit ", 0) != 0)
          bad("no jit status line");
        else
          c.jit_compiled = rest == "jit jit\n";
      }
    }
  }
  return c;
}

/// Per-client results of a pass.
struct ClientOut {
  std::array<std::vector<double>, kVerbs> lat;  ///< ns, per verb
  std::vector<double> cold_lat;  ///< serve-cold: never-seen structures
  std::vector<Stamp> stamps;     ///< every request
  i64 requests = 0, failed = 0, mismatches = 0;
  i64 exec_iters = 0;
  double exec_ns = 0;
  i64 t_end = 0;
  std::vector<std::string> why;
  /// Reserve (but do not touch) room for a pass of `seconds`, so the
  /// sample buffers never reallocate: peak RSS then grows smoothly with
  /// the request count instead of jumping at each capacity doubling.
  void reserve(double seconds) {
    constexpr double kMaxClientRate = 20000;  // requests per second
    const auto n = static_cast<size_t>(seconds * kMaxClientRate);
    stamps.reserve(n);
    for (auto& l : lat) l.reserve(n);
  }
  void record(const Check& c) {
    if (c.v == Verdict::Failed) ++failed;
    if (c.v == Verdict::Mismatch) ++mismatches;
    if (c.v != Verdict::Ok && why.size() < 8) why.push_back(c.why);
  }
};

void merge_into(Outcome& out, const std::vector<ClientOut>& cs) {
  for (const auto& c : cs) {
    out.attempted += c.requests;
    out.failed += c.failed;
    out.mismatches += c.mismatches;
    for (const auto& w : c.why)
      if (out.notes.size() < 64) out.notes.push_back("FAIL " + w);
  }
}

std::vector<double> pooled(const std::vector<ClientOut>& cs, std::initializer_list<Verb> vs) {
  std::vector<double> all;
  for (const auto& c : cs)
    for (Verb v : vs) all.insert(all.end(), c.lat[v].begin(), c.lat[v].end());
  return all;
}

std::vector<Stamp> stamps_of(const std::vector<ClientOut>& cs) {
  std::vector<Stamp> all;
  for (const auto& c : cs) all.insert(all.end(), c.stamps.begin(), c.stamps.end());
  return all;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Report the p50 and the named tail percentile of `ns` (converted by
/// `scale`); the tail prints as null unless ten samples lie beyond it.
void add_latency(Metrics& m, const std::string& p50_name, const std::string& tail_name,
                 double tail_q, const std::vector<double>& ns, double scale,
                 const std::string& unit) {
  m.add(p50_name, median(ns) / scale, unit, static_cast<long long>(ns.size()));
  m.add(tail_name, percentile(ns, tail_q) / scale, unit, static_cast<long long>(ns.size()),
        tail_ok(ns.size(), tail_q));
}

// ------------------------------------------------------------ layers

/// The traced pass: one span buffer and one accumulator per client.
struct TracedPass {
  std::vector<std::unique_ptr<SpanBuffer>> bufs;
  std::vector<LayerAcc> accs;
  std::vector<ClientOut> outs;
};

/// The per-layer metrics both serving workloads derive from their
/// traced pass, plus the reconciliation checks and tracing overhead.
void layer_metrics_from(Outcome& out, const TracedPass& tp, const Options& o,
                        const std::string& workload, nrc::PlanCacheStats cache_delta,
                        double untraced_mean_ns, double traced_mean_ns) {
  std::vector<const SpanBuffer*> bp;
  for (const auto& b : tp.bufs) bp.push_back(b.get());
  const SpanTotals t = aggregate(bp);
  write_spans(o.work_dir + "/" + workload + ".spans.tsv", bp);
  auto mean_of = [&](Sp s) {
    const size_t k = static_cast<size_t>(s);
    return t.count[k] ? static_cast<double>(t.total_ns[k]) / static_cast<double>(t.count[k])
                      : 0.0;
  };
  Metrics& L = out.layer;
  {
    const size_t in = static_cast<size_t>(Sp::FrameIn), ou = static_cast<size_t>(Sp::FrameOut);
    const size_t rq = static_cast<size_t>(Sp::Request);
    L.add("serve.frame_ns",
          t.count[rq] ? static_cast<double>(t.total_ns[in] + t.total_ns[ou]) /
                            static_cast<double>(t.count[rq])
                      : 0.0,
          "ns", t.count[rq]);
  }
  std::vector<double> payload;
  for (const auto& a : tp.accs) payload.insert(payload.end(), a.payload_bytes.begin(), a.payload_bytes.end());
  L.add("serve.payload_bytes", mean(payload), "bytes", static_cast<long long>(payload.size()));
  double worst_gap = 0;
  for (int v = 0; v < kVerbs; ++v) {
    const size_t k = static_cast<size_t>(kHandleSpan[v]);
    L.add(std::string("serve.handle_ns.") + kVerbName[v], mean_of(kHandleSpan[v]), "ns",
          t.count[k]);
    if (t.count[k] && t.total_ns[k] > 0) {
      const double gap = 1.0 - static_cast<double>(t.child_ns[k]) / static_cast<double>(t.total_ns[k]);
      worst_gap = std::max(worst_gap, gap);
      char buf[160];
      std::snprintf(buf, sizeof buf, "reconcile %s: children cover %.2f%% of handle (margin %.0f%%)",
                    kVerbName[v], 100.0 * (1.0 - gap), 100.0 * kVerbMargin);
      out.notes.push_back(buf);
    }
  }
  L.add("codegen.parse_ns", mean_of(Sp::Parse), "ns", t.count[static_cast<size_t>(Sp::Parse)]);
  L.add("codegen.emit_ns", mean_of(Sp::Emit), "ns", t.count[static_cast<size_t>(Sp::Emit)]);

  std::vector<double> hits, waits, jhits;
  i64 run_iters = 0, run_ns = 0, jit_iters = 0, jit_run_ns = 0;
  double sub_sum = 0, miss_sum = 0;
  std::array<std::vector<double>, 6> rk, lv, ca, bi;
  for (const auto& a : tp.accs) {
    hits.insert(hits.end(), a.hit_ns.begin(), a.hit_ns.end());
    waits.insert(waits.end(), a.wait_ns.begin(), a.wait_ns.end());
    jhits.insert(jhits.end(), a.jit_hit_ns.begin(), a.jit_hit_ns.end());
    run_iters += a.run_iters;
    run_ns += a.run_ns;
    jit_iters += a.jit_iters;
    jit_run_ns += a.jit_run_ns;
    sub_sum += a.sub_sum_ns;
    miss_sum += a.miss_sum_ns;
    for (size_t d = 0; d < 6; ++d) {
      rk[d].insert(rk[d].end(), a.ranking[d].begin(), a.ranking[d].end());
      lv[d].insert(lv[d].end(), a.levels[d].begin(), a.levels[d].end());
      ca[d].insert(ca[d].end(), a.calib[d].begin(), a.calib[d].end());
      bi[d].insert(bi[d].end(), a.bind[d].begin(), a.bind[d].end());
    }
  }
  L.add("plan_cache.hit_ns", median(hits), "ns", static_cast<long long>(hits.size()));
  L.add("plan_cache.hit_p99_ns", tail_ok(hits.size(), 0.99) ? percentile(hits, 0.99) : 0.0,
        "ns", static_cast<long long>(hits.size()));
  L.add("plan_cache.wait_ns", mean(waits), "ns", static_cast<long long>(waits.size()));
  L.add("plan_cache.hit_ratio",
        cache_delta.lookups() ? static_cast<double>(cache_delta.hits) /
                                    static_cast<double>(cache_delta.lookups())
                              : 0.0,
        "ratio");
  L.add("plan_cache.cold_builds", static_cast<double>(cache_delta.misses - cache_delta.symbolic_hits),
        "count");
  L.add("plan_cache.symbolic_hits", static_cast<double>(cache_delta.symbolic_hits), "count");
  L.add("plan_cache.evictions", static_cast<double>(cache_delta.evictions), "count");
  L.add("plan.describe_ns", mean_of(Sp::Describe), "ns", t.count[static_cast<size_t>(Sp::Describe)]);
  L.add("schedule.select_ns", mean_of(Sp::Select), "ns", t.count[static_cast<size_t>(Sp::Select)]);
  for (int d = 2; d <= 5; ++d) {
    const std::string sfx = ".d" + std::to_string(d);
    const size_t du = static_cast<size_t>(d);
    L.add("core.ranking_ns" + sfx, median(rk[du]), "ns", static_cast<long long>(rk[du].size()));
    L.add("core.level_formulas_ns" + sfx, median(lv[du]), "ns", static_cast<long long>(lv[du].size()));
    L.add("core.calibration_ns" + sfx, median(ca[du]), "ns", static_cast<long long>(ca[du].size()));
    L.add("core.bind_ns" + sfx, median(bi[du]), "ns", static_cast<long long>(bi[du].size()));
  }
  L.add("analysis.analyze_ns", mean_of(Sp::Analyze), "ns", t.count[static_cast<size_t>(Sp::Analyze)]);
  L.add("jit.cache_hit_ns", median(jhits), "ns", static_cast<long long>(jhits.size()));
  L.add("jit.run_ns_per_iter",
        jit_iters ? static_cast<double>(jit_run_ns) / static_cast<double>(jit_iters) : 0.0, "ns");
  const double run_per_iter =
      run_iters ? static_cast<double>(run_ns) / static_cast<double>(run_iters) : 0.0;
  L.add("runtime.run_ns_per_iter", run_per_iter, "ns");

  // Self time per layer (span duration minus the part its children cover).
  for (size_t k = 0; k < static_cast<size_t>(Sp::kCount); ++k) {
    if (!t.count[k]) continue;
    char buf[160];
    std::snprintf(buf, sizeof buf, "self %-22s n=%-8lld total %.3f ms  self %.3f ms",
                  span_name(static_cast<Sp>(k)), static_cast<long long>(t.count[k]),
                  static_cast<double>(t.total_ns[k]) / 1e6, static_cast<double>(t.self_ns[k]) / 1e6);
    out.notes.push_back(buf);
  }

  // Reconciliation and tracing overhead.
  L.add("trace.reconcile_verb_gap", worst_gap, "ratio");
  if (worst_gap > kVerbMargin) out.fail("traced spans do not reconcile with handle spans");
  double cold_gap = 0;
  if (miss_sum > 0) {
    cold_gap = std::abs(sub_sum - miss_sum) / miss_sum;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "reconcile cold: collapse sub-steps %.2f ms vs plan-cache misses %.2f ms "
                  "(gap %.1f%%, margin %.0f%%)",
                  sub_sum / 1e6, miss_sum / 1e6, 100.0 * cold_gap, 100.0 * kColdMargin);
    out.notes.push_back(buf);
    if (cold_gap > kColdMargin) out.fail("cold sub-steps do not reconcile with plan-cache misses");
  }
  L.add("trace.reconcile_cold_gap", cold_gap, "ratio");
  L.add("trace.overhead",
        untraced_mean_ns > 0 ? traced_mean_ns / untraced_mean_ns - 1.0 : 0.0, "ratio");
}

/// Probes run once after the traced pass: recovery, walk and schedule
/// candidates on the run plans, render/load on the JIT plans.
void probe_layers(Outcome& out, const TracedPass& tp, u64 seed, const std::vector<Key>* keys) {
  Metrics& L = out.layer;
  std::vector<std::pair<std::shared_ptr<const nrc::CollapsePlan>, nrc::Schedule>> runs, jits;
  std::set<const nrc::CollapsePlan*> seen_run, seen_jit;
  for (const auto& a : tp.accs) {
    for (const auto& p : a.run_plans)
      if (seen_run.insert(p.first.get()).second) runs.push_back(p);
    for (const auto& p : a.jit_plans)
      if (seen_jit.insert(p.first.get()).second) jits.push_back(p);
  }

  // Recovery: scalar recover at seeded pcs, and 256-row blocks.
  std::mt19937_64 rng(seed ^ 0xbeefULL);
  nrc::RecoveryStats st;
  double rec_ns = 0, blk_ns = 0;
  i64 recs = 0, blk_rows = 0;
  std::vector<i64> idx(8), blk(256 * 8);
  for (const auto& [plan, sched] : runs) {
    const auto& ev = plan->eval();
    const i64 total = ev.trip_count();
    std::vector<i64> pcs(1024);
    for (auto& pc : pcs) pc = 1 + static_cast<i64>(rng() % static_cast<u64>(total));
    i64 t0 = now_ns();
    for (i64 pc : pcs) ev.recover(pc, std::span<i64>(idx.data(), static_cast<size_t>(ev.depth())), &st);
    rec_ns += static_cast<double>(now_ns() - t0);
    recs += static_cast<i64>(pcs.size());
    t0 = now_ns();
    for (int b = 0; b < 64; ++b)
      blk_rows += ev.recover_block(pcs[static_cast<size_t>(b)], 256,
                                   std::span<i64>(blk.data(), 256 * static_cast<size_t>(ev.depth())));
    blk_ns += static_cast<double>(now_ns() - t0);
  }
  L.add("core.recover_ns", recs ? rec_ns / static_cast<double>(recs) : 0.0, "ns", recs);
  L.add("core.recover_block_ns_per_iter", blk_rows ? blk_ns / static_cast<double>(blk_rows) : 0.0,
        "ns", blk_rows);
  const double lvls = static_cast<double>(st.levels());
  L.add("core.corrected_per_m", lvls > 0 ? 1e6 * static_cast<double>(st.corrected) / lvls : 0.0,
        "count/M");
  L.add("core.search_per_m", lvls > 0 ? 1e6 * static_cast<double>(st.fallback) / lvls : 0.0,
        "count/M");

  // Walk: the chosen schedule with a trivial per-thread body.  Ratio vs
  // best: the chosen schedule against a fixed candidate list, all with
  // the serve checksum body and the serving thread count.
  double walk_ns = 0;
  i64 walk_iters = 0;
  std::vector<double> ratios;
  for (const auto& [plan, sched] : runs) {
    const i64 total = plan->eval().trip_count();
    std::array<i64, 64 * 8> cnt{};
    auto walk = [&](std::span<const i64>) { ++cnt[static_cast<size_t>(omp_get_thread_num() % 64) * 8]; };
    double best_walk = 1e300;
    for (int r = 0; r < 3; ++r) {
      const i64 t0 = now_ns();
      nrc::run(*plan, sched, walk);
      best_walk = std::min(best_walk, static_cast<double>(now_ns() - t0));
    }
    walk_ns += best_walk;
    walk_iters += total;

    const nrc::RunConfig one{sched.cfg.threads > 0 ? sched.cfg.threads : omp_get_max_threads()};
    const i64 ck = nrc::default_chunk(total, one.threads);
    const nrc::Schedule cands[] = {nrc::Schedule::per_thread(one),
                                   nrc::Schedule::chunked(ck, one),
                                   nrc::Schedule::row_segments(one),
                                   nrc::Schedule::row_segments_chunked(ck, one),
                                   nrc::Schedule::divide_and_conquer(0, one),
                                   nrc::Schedule::serial_sim(1)};
    auto timed = [&](const nrc::Schedule& s) {
      double best = 1e300;
      for (int r = 0; r < 3; ++r) {
        u64 sum = 0;
        auto body = [&](std::span<const i64> ix) {
          const u64 m = tuple_mix(ix);
#pragma omp atomic
          sum += m;
        };
        const i64 t0 = now_ns();
        nrc::run(*plan, s, body);
        best = std::min(best, static_cast<double>(now_ns() - t0));
        if (keys) {
          for (const auto& k : *keys)
            if (k.ref.trip == total && plan->params() == params_of(k) && sum != k.ref.checksum)
              out.fail("schedule " + s.describe() + " checksum on " + k.nest.name);
        }
      }
      return best;
    };
    const double chosen = timed(sched);
    double best = chosen;
    for (const auto& c : cands) best = std::min(best, timed(c));
    ratios.push_back(chosen / best);
  }
  const double walk_per_iter = walk_iters ? walk_ns / static_cast<double>(walk_iters) : 0.0;
  L.add("runtime.walk_ns_per_iter", walk_per_iter, "ns", walk_iters);
  const Metric* run_pi = L.find("runtime.run_ns_per_iter");
  L.add("runtime.body_ns_per_iter",
        run_pi && run_pi->value > 0 ? run_pi->value - walk_per_iter : 0.0, "ns");
  L.add("schedule.ratio_vs_best", ratios.empty() ? 0.0 : geomean(ratios), "ratio",
        static_cast<long long>(ratios.size()));

  // JIT: render (source only), the build's own compile time, and a
  // rebuild served by the on-disk object cache (render + dlopen).
  std::vector<double> render, compile, load;
  i64 compiled = 0;
  for (const auto& [plan, sched] : jits) {
    const auto kernel = plan->jit(sched);
    if (!kernel->compiled()) continue;
    ++compiled;
    compile.push_back(static_cast<double>(kernel->info().compile_ns));
    i64 t0 = now_ns();
    try {
      (void)nrc::JitKernel::render_source(*plan, sched, true);
    } catch (const nrc::Error&) {
      continue;
    }
    const double r = static_cast<double>(now_ns() - t0);
    render.push_back(r);
    t0 = now_ns();
    const auto again = nrc::JitKernel::build(plan, sched);
    const double b = static_cast<double>(now_ns() - t0);
    if (again->compiled() && again->info().from_disk) load.push_back(std::max(0.0, b - r));
  }
  L.add("jit.render_ns", median(render), "ns", static_cast<long long>(render.size()));
  L.add("jit.compile_ns", median(compile), "ns", static_cast<long long>(compile.size()));
  L.add("jit.load_ns", median(load), "ns", static_cast<long long>(load.size()));
  L.add("jit.compiled_ratio",
        jits.empty() ? 0.0 : static_cast<double>(compiled) / static_cast<double>(jits.size()),
        "ratio", static_cast<long long>(jits.size()));
}

// ------------------------------------------------------------ serve-warm

struct WarmState {
  std::vector<Key> keys;
  std::vector<size_t> jit_keys;
  std::unique_ptr<nrc::PlanCache> cache;
  std::string jit_status;
};

/// Build the hot set, prime every key, compile the jitrun kernels.
/// Returns false on an oracle failure (recorded in `out`).
void warm_setup(WarmState& w, const Options& o, int rep, Outcome& out) {
  fresh_jit_state(o.work_dir + "/jit-warm-" + std::to_string(rep));
  w.keys = hot_set(o.seed);
  w.jit_keys.clear();
  for (size_t i = 0; i < w.keys.size(); ++i)
    for (const char* n : {"correlation", "tetrahedral", "simplex4", "trapezoid"})
      if (w.keys[i].nest.name == n) w.jit_keys.push_back(i);
  w.cache = std::make_unique<nrc::PlanCache>(64, 16);
  for (const auto& k : w.keys) {
    const Exchange ex = exchange(*w.cache, make_request(k, VDescribe), nullptr, 0, nullptr);
    const Check c = verify(k, VDescribe, ex.resp);
    if (c.v != Verdict::Ok) out.fail("set-up " + c.why);
  }
  std::vector<Check> jc(w.jit_keys.size());
  {
    std::vector<std::thread> th;
    for (size_t j = 0; j < w.jit_keys.size(); ++j)
      th.emplace_back([&, j] {
        const Key& k = w.keys[w.jit_keys[j]];
        jc[j] = verify(k, VJitrun, exchange(*w.cache, make_request(k, VJitrun), nullptr, 0, nullptr).resp);
      });
    for (auto& t : th) t.join();
  }
  i64 compiled = 0;
  for (const auto& c : jc) {
    if (c.v != Verdict::Ok) out.fail("set-up " + c.why);
    compiled += c.jit_compiled;
  }
  w.jit_status = std::to_string(compiled) + "/" + std::to_string(jc.size()) + " jit kernels compiled";
}

/// The verb mix: describe 35%, emit 15%, lint 10%, run 30%, jitrun 10%.
Verb pick_verb(std::mt19937_64& rng) {
  const int r = static_cast<int>(rng() % 100);
  if (r < 35) return VDescribe;
  if (r < 50) return VEmit;
  if (r < 60) return VLint;
  if (r < 90) return VRun;
  return VJitrun;
}

std::vector<ClientOut> warm_pass(WarmState& w, const Options& o, double seconds, int pass,
                                 TracedPass* tp) {
  const int clients = o.nproc;
  std::vector<ClientOut> outs(static_cast<size_t>(clients));
  const i64 deadline = now_ns() + static_cast<i64>(seconds * 1e9);
  std::vector<std::thread> th;
  for (int c = 0; c < clients; ++c)
    th.emplace_back([&, c] {
      std::mt19937_64 rng(o.seed * 7919 + static_cast<u64>(c) * 104729 + static_cast<u64>(pass));
      ClientOut& me = outs[static_cast<size_t>(c)];
      me.reserve(seconds);
      SpanBuffer* tb = tp ? tp->bufs[static_cast<size_t>(c)].get() : nullptr;
      LayerAcc* acc = tp ? &tp->accs[static_cast<size_t>(c)] : nullptr;
      std::uint32_t rid = static_cast<std::uint32_t>(c) << 24;
      while (now_ns() < deadline && !(tb && tb->full())) {
        const Verb v = pick_verb(rng);
        const Key& k = v == VJitrun ? w.keys[w.jit_keys[rng() % w.jit_keys.size()]]
                                    : w.keys[rng() % w.keys.size()];
        const Exchange ex = exchange(*w.cache, make_request(k, v), tb, ++rid, acc);
        ++me.requests;
        me.record(verify(k, v, ex.resp));
        me.lat[v].push_back(static_cast<double>(ex.ns));
        me.stamps.push_back(Stamp{now_ns(), static_cast<double>(ex.ns)});
        if (v == VRun || v == VJitrun) {
          me.exec_iters += k.ref.trip;
          me.exec_ns += static_cast<double>(ex.ns);
        }
      }
      me.t_end = now_ns();
    });
  for (auto& t : th) t.join();
  return outs;
}

TracedPass make_traced(int clients, size_t spans_total) {
  TracedPass tp;
  for (int c = 0; c < clients; ++c)
    tp.bufs.push_back(std::make_unique<SpanBuffer>(spans_total / static_cast<size_t>(clients)));
  tp.accs.resize(static_cast<size_t>(clients));
  return tp;
}

double mean_request_ns(const std::vector<ClientOut>& cs) {
  return mean(pooled(cs, {VDescribe, VEmit, VLint, VRun, VJitrun}));
}

}  // namespace

Outcome serve_warm(const Options& o) {
  Outcome out;
  record_env(out, o);
  WarmState w;
  std::vector<double> setups;
  const int reps = o.trace ? 1 : kSetupRepsCompiling;
  for (int rep = 0; rep < reps; ++rep) {
    const i64 t0 = now_ns();
    warm_setup(w, o, rep, out);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  out.notes.push_back("jit rung: " + w.jit_status);

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const i64 t0 = now_ns();
  const std::vector<ClientOut> cs = warm_pass(w, o, untraced_s, 0, nullptr);
  i64 t_end = t0;
  for (const auto& c : cs) t_end = std::max(t_end, c.t_end);
  const double elapsed = static_cast<double>(t_end - t0) / 1e9;
  merge_into(out, cs);

  const auto all = pooled(cs, {VDescribe, VEmit, VLint, VRun, VJitrun});
  const auto meta = pooled(cs, {VDescribe, VEmit, VLint});
  const auto exec = pooled(cs, {VRun, VJitrun});
  i64 iters = 0;
  double exec_ns = 0;
  for (const auto& c : cs) {
    iters += c.exec_iters;
    exec_ns += c.exec_ns;
  }
  const double mitems = exec_ns > 0 ? static_cast<double>(iters) / exec_ns * 1e3 : 0.0;

  const double rss = peak_rss_mb();
  out.e2e.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  out.e2e.add("peak_rss_mb", rss, "MB");
  const std::vector<Stamp> st = stamps_of(cs);
  const auto n_all = static_cast<long long>(all.size());
  out.e2e.add("ops_per_s", median(window_rates(st, t0, t_end, kWindows)), "1/s", n_all);
  std::vector<double> typical, tail;
  for (const auto& w : window_latencies(st, t0, t_end, kWindows)) {
    typical.push_back(geomean(w));
    tail.push_back(percentile(w, 0.9));
  }
  out.e2e.add("typical_ms", median(typical) / 1e6, "ms", n_all);
  out.e2e.add("tail_ms", median(tail) / 1e6, "ms", n_all);

  Metrics& I = out.issue;
  I.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  I.add("error_rate",
        out.attempted ? static_cast<double>(out.failed + out.mismatches) /
                            static_cast<double>(out.attempted)
                      : 0.0,
        "ratio", out.attempted);
  I.add("peak_rss_mb", rss, "MB");
  I.add("req_per_s", static_cast<double>(all.size()) / elapsed, "1/s",
        static_cast<long long>(all.size()));
  add_latency(I, "meta_p50_us", "meta_p99_us", 0.99, meta, 1e3, "us");
  add_latency(I, "exec_p50_ms", "exec_p99_ms", 0.99, exec, 1e6, "ms");
  I.add("exec_mitems_per_s", mitems, "Mitems/s", static_cast<long long>(exec.size()));

  if (o.trace) {
    TracedPass tp = make_traced(o.nproc, o.tiny ? 1 << 15 : 1 << 18);
    const nrc::PlanCacheStats before = w.cache->stats();
    tp.outs = warm_pass(w, o, o.seconds / 2, 1, &tp);
    merge_into(out, tp.outs);
    nrc::PlanCacheStats delta = w.cache->stats();
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.symbolic_hits -= before.symbolic_hits;
    delta.evictions -= before.evictions;
    layer_metrics_from(out, tp, o, "serve-warm", delta, mean_request_ns(cs),
                       mean_request_ns(tp.outs));
    probe_layers(out, tp, o.seed, &w.keys);
  }
  return out;
}

// ------------------------------------------------------------ serve-cold

namespace {

/// The cold client's verb for request (or corpus structure) i:
/// describe/emit/lint/run in turn, jitrun on one in 30.  A fixed cycle,
/// so every run sends the same verb mix.
Verb cold_verb(i64 i) { return i % 30 == 12 ? VJitrun : static_cast<Verb>(i % 4); }

/// Corpus structures per pass: about 3 s of cold requests on a 4-core
/// AVX-512 host at the parent commit, so a 30-second run replays the
/// stream about nine times and each structure's latency is its best.
constexpr int kColdCorpus = 120;

/// One request of the cold client's stream.
struct ColdReq {
  Key key;
  Verb verb = VDescribe;
  int cold_idx = -1;  ///< >= 0: the first request on corpus structure #idx
};

struct ColdState {
  Key hot;
  std::unique_ptr<nrc::PlanCache> cache;
  std::vector<ColdReq> stream;
  std::string jit_dir;
};

/// Forget every plan and kernel, on disk too, so the stream's
/// structures are cold again; re-prime the hot key.
void reset_cold(ColdState& s, Outcome& out) {
  s.cache->clear();
  nrc::kernel_cache().clear();
  std::error_code ec;  // hot clients are running: never throw here
  std::filesystem::remove_all(s.jit_dir, ec);
  std::filesystem::create_directories(s.jit_dir, ec);
  const Exchange ex = exchange(*s.cache, make_request(s.hot, VDescribe), nullptr, 0, nullptr);
  const Check c = verify(s.hot, VDescribe, ex.resp);
  if (c.v != Verdict::Ok) out.fail("set-up " + c.why);
}

void cold_setup(ColdState& s, const Options& o, int rep, Outcome& out) {
  s.jit_dir = o.work_dir + "/jit-cold-" + std::to_string(rep);
  fresh_jit_state(s.jit_dir);
  for (auto& k : hot_set(o.seed))
    if (k.nest.name == "simplex4") s.hot = k;
  // A small cache (8 plans x 16 shards): the cold stream overflows it
  // within seconds, so evictions are exercised and memory plateaus.
  s.cache = std::make_unique<nrc::PlanCache>(8, 16);
  reset_cold(s, out);
  // The cold stream: every corpus structure once, one request in five
  // a re-bind of an earlier structure with new parameters.
  ColdGen gen(o.seed, kColdCorpus);
  s.stream.clear();
  // A corpus structure's verb follows from its corpus index, so the same
  // structures take the jitrun path whatever the seed.
  for (i64 i = 0; !gen.exhausted(); ++i) {
    const bool reuse = i % 5 == 4;
    ColdReq r;
    if (reuse) {
      r.key = gen.rebind();
      r.verb = cold_verb(i);
    } else {
      r.cold_idx = static_cast<int>(gen.next_index());
      r.key = gen.next();
      r.verb = cold_verb(r.cold_idx);
    }
    s.stream.push_back(std::move(r));
  }
}

/// Client 0 replays the cold stream, on fresh state each time round,
/// until the deadline; the others send describe hits on the hot key.
std::vector<ClientOut> cold_pass(ColdState& s, const Options& o, double seconds,
                                 TracedPass* tp, Outcome& out) {
  const int clients = std::max(2, o.nproc);
  std::vector<ClientOut> outs(static_cast<size_t>(clients));
  std::atomic<bool> stop{false};
  std::vector<std::thread> th;
  for (int c = 1; c < clients; ++c)
    th.emplace_back([&, c] {
      ClientOut& me = outs[static_cast<size_t>(c)];
      me.reserve(seconds);
      SpanBuffer* tb = tp ? tp->bufs[static_cast<size_t>(c)].get() : nullptr;
      LayerAcc* acc = tp ? &tp->accs[static_cast<size_t>(c)] : nullptr;
      std::uint32_t rid = static_cast<std::uint32_t>(c) << 24;
      const nrc::serve::Request req = make_request(s.hot, VDescribe);
      while (!stop.load(std::memory_order_relaxed) && !(tb && tb->full())) {
        const Exchange ex = exchange(*s.cache, req, tb, ++rid, acc);
        ++me.requests;
        me.record(verify(s.hot, VDescribe, ex.resp));
        me.lat[VDescribe].push_back(static_cast<double>(ex.ns));
        me.stamps.push_back(Stamp{now_ns(), static_cast<double>(ex.ns)});
      }
      me.t_end = now_ns();
    });
  {
    ClientOut& me = outs[0];
    me.reserve(seconds);
    SpanBuffer* tb = tp ? tp->bufs[0].get() : nullptr;
    LayerAcc* acc = tp ? &tp->accs[0] : nullptr;
    std::uint32_t rid = 0;
    std::vector<std::vector<double>> by_idx(static_cast<size_t>(kColdCorpus));
    const i64 deadline = now_ns() + static_cast<i64>(seconds * 1e9);
    for (size_t j = 0; now_ns() < deadline && !(tb && tb->full()); ++j) {
      if (j == s.stream.size()) {
        reset_cold(s, out);
        j = 0;
      }
      const ColdReq& r = s.stream[j];
      const Exchange ex = exchange(*s.cache, make_request(r.key, r.verb), tb, ++rid, acc, true);
      ++me.requests;
      me.record(verify(r.key, r.verb, ex.resp));
      me.lat[r.verb].push_back(static_cast<double>(ex.ns));
      me.stamps.push_back(Stamp{now_ns(), static_cast<double>(ex.ns)});
      if (r.cold_idx >= 0) by_idx[static_cast<size_t>(r.cold_idx)].push_back(static_cast<double>(ex.ns));
      if (acc) probe_cold_build(*acc);
    }
    // Each structure's cold latency is its best over the replays:
    // interference from other processes only ever adds time.
    for (const auto& v : by_idx)
      if (!v.empty()) me.cold_lat.push_back(*std::min_element(v.begin(), v.end()));
    me.t_end = now_ns();
    stop = true;
  }
  for (auto& t : th) t.join();
  return outs;
}

}  // namespace

Outcome serve_cold(const Options& o) {
  Outcome out;
  record_env(out, o);
  ColdState s;
  std::vector<double> setups;
  const int reps = o.trace ? 1 : kSetupRepsCheap;
  for (int rep = 0; rep < reps; ++rep) {
    const i64 t0 = now_ns();
    cold_setup(s, o, rep, out);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
  const i64 t0 = now_ns();
  const std::vector<ClientOut> cs = cold_pass(s, o, untraced_s, nullptr, out);
  i64 t_end = t0;
  for (const auto& c : cs) t_end = std::max(t_end, c.t_end);
  const double elapsed = static_cast<double>(t_end - t0) / 1e9;
  merge_into(out, cs);

  i64 reqs = 0;
  for (const auto& c : cs) reqs += c.requests;
  std::vector<double> hot;
  for (size_t c = 1; c < cs.size(); ++c)
    hot.insert(hot.end(), cs[c].lat[VDescribe].begin(), cs[c].lat[VDescribe].end());
  const std::vector<double>& cold = cs[0].cold_lat;

  const double rss = peak_rss_mb();
  out.e2e.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  out.e2e.add("peak_rss_mb", rss, "MB");
  // JIT compiles compete with the hot clients in bursts, so the windows
  // here are long enough (5 per run) to span a replay of the stream.
  out.e2e.add("ops_per_s", median(window_rates(stamps_of(cs), t0, t_end, 5)), "1/s", reqs);
  out.e2e.add("typical_ms", geomean(cold) / 1e6, "ms", static_cast<long long>(cold.size()));
  out.e2e.add("tail_ms", percentile(cold, 0.90) / 1e6, "ms", static_cast<long long>(cold.size()));

  Metrics& I = out.issue;
  I.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  I.add("error_rate",
        out.attempted ? static_cast<double>(out.failed + out.mismatches) /
                            static_cast<double>(out.attempted)
                      : 0.0,
        "ratio", out.attempted);
  I.add("peak_rss_mb", rss, "MB");
  I.add("req_per_s", static_cast<double>(reqs) / elapsed, "1/s", reqs);
  add_latency(I, "meta_p50_us", "meta_p99_us", 0.99, hot, 1e3, "us");
  add_latency(I, "cold_p50_ms", "cold_p90_ms", 0.90, cold, 1e6, "ms");

  if (o.trace) {
    // The traced pass replays the same stream on fresh state, so its
    // structures are cold again.
    reset_cold(s, out);
    const int clients = std::max(2, o.nproc);
    TracedPass tp = make_traced(clients, o.tiny ? 1 << 15 : 1 << 18);
    const nrc::PlanCacheStats before = s.cache->stats();
    tp.outs = cold_pass(s, o, o.seconds / 2, &tp, out);
    merge_into(out, tp.outs);
    nrc::PlanCacheStats delta = s.cache->stats();
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.symbolic_hits -= before.symbolic_hits;
    delta.evictions -= before.evictions;
    std::vector<double> hot_t;
    for (size_t c = 1; c < tp.outs.size(); ++c)
      hot_t.insert(hot_t.end(), tp.outs[c].lat[VDescribe].begin(), tp.outs[c].lat[VDescribe].end());
    layer_metrics_from(out, tp, o, "serve-cold", delta, mean(hot), mean(hot_t));
    probe_layers(out, tp, o.seed, nullptr);
  }
  return out;
}

}  // namespace pb
