// paper-kernels: the eleven §VII kernels under the Fig. 9 and Fig. 10
// variants, driven through IKernel::run with nproc OpenMP threads.
// Every variant's checksum is compared with SerialOriginal's.

#include <omp.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "kernels/registry.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

/// One fixed problem scale for every run (IKernel::prepare's factor over
/// the default sizes); the self-test uses a smaller one.
constexpr double kScale = 0.12;
constexpr double kTinyScale = 0.03;
/// Recoveries simulated by SerialCollapsedSim (paper Fig. 10 uses 12).
constexpr int kSims = 12;

const nrc::Variant kVariants[] = {nrc::Variant::OuterStatic, nrc::Variant::OuterDynamic,
                                  nrc::Variant::CollapsedStatic,
                                  nrc::Variant::SerialOriginal,
                                  nrc::Variant::SerialCollapsedSim};
constexpr int kNV = 5;
enum { VStatic, VDynamic, VCollapsed, VSerialOrig, VSerialSim };

struct KernelRun {
  std::unique_ptr<nrc::IKernel> k;
  double ref = 0;  ///< SerialOriginal checksum
  std::vector<double> ms[kNV];
};

bool same_checksum(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace

std::vector<std::string> paper_kernel_names() { return nrc::kernel_names(); }

Outcome paper_kernels(const Options& o) {
  Outcome out;
  record_env(out, o);
  const int threads = o.nproc;
  // The driver's own team size; every variant also passes it explicitly.
  omp_set_num_threads(threads);
  const double scale = o.tiny ? kTinyScale : kScale;
  out.env.add("scale", scale, "factor");

  // Set-up: allocate and initialize every kernel and collapse its nest;
  // the reference checksum comes from one SerialOriginal run.
  std::vector<KernelRun> ks;
  std::vector<double> setups;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupRepsCheap); ++rep) {
    const i64 t0 = now_ns();
    ks.clear();
    for (const auto& name : nrc::kernel_names()) {
      KernelRun r;
      r.k = nrc::make_kernel(name);
      r.k->prepare(scale);
      r.k->run(nrc::Variant::SerialOriginal, 1, 0);
      r.ref = r.k->checksum();
      ks.push_back(std::move(r));
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Rounds until the deadline; the seed orders kernels and variants.
  std::mt19937_64 rng(o.seed ^ 0x9a9e7ULL);
  std::vector<Stamp> stamps;  // untraced pass
  auto pass = [&](double seconds, SpanBuffer* tb, std::vector<double>* per_run) {
    const i64 t0 = now_ns();
    const i64 deadline = t0 + static_cast<i64>(seconds * 1e9);
    i64 runs = 0;
    std::uint32_t rid = 0;
    std::vector<size_t> order(ks.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    int vorder[kNV] = {0, 1, 2, 3, 4};
    while (now_ns() < deadline && !(tb && tb->full())) {
      std::shuffle(order.begin(), order.end(), rng);
      for (size_t i : order) {
        KernelRun& r = ks[i];
        std::shuffle(std::begin(vorder), std::end(vorder), rng);
        for (int v : vorder) {
          const i64 a = now_ns();
          {
            Scope s(tb, Sp::Request, ++rid);
            r.k->run(kVariants[v], threads, kSims);
          }
          const double ms = static_cast<double>(now_ns() - a) / 1e6;
          r.ms[v].push_back(ms);
          if (per_run) per_run->push_back(ms);
          if (!tb) stamps.push_back(Stamp{now_ns(), ms * 1e6});
          ++out.attempted;
          if (!same_checksum(r.k->checksum(), r.ref))
            out.fail(r.k->info().name + " " + nrc::variant_name(kVariants[v]) +
                     " checksum differs from serial-original");
        }
      }
      ++runs;
    }
    return std::make_tuple(runs, t0, now_ns());
  };

  std::vector<double> all_untraced;
  const auto [rounds, t_begin, t_end] = pass(o.trace ? o.seconds / 2 : o.seconds, nullptr, &all_untraced);
  std::vector<double> coll, coll_p75, gain, over;
  auto summarize = [&](bool emit_layers) {
    coll.clear();
    coll_p75.clear();
    gain.clear();
    over.clear();
    for (auto& r : ks) {
      const double c = median(r.ms[VCollapsed]);
      const double d = median(r.ms[VDynamic]);
      const double ov = median(r.ms[VSerialSim]) / median(r.ms[VSerialOrig]);
      coll.push_back(c);
      coll_p75.push_back(percentile(r.ms[VCollapsed], 0.75));
      gain.push_back(d / c);
      over.push_back(ov);
      if (emit_layers) {
        const std::string p = "kernels." + r.k->info().name;
        const auto n = static_cast<long long>(r.ms[VCollapsed].size());
        out.layer.add(p + ".collapsed_ms", c, "ms", n);
        out.layer.add(p + ".dynamic_ms", d, "ms", n);
        out.layer.add(p + ".serial_overhead", ov, "ratio", n);
      }
    }
  };
  summarize(false);

  const double rss = peak_rss_mb();
  out.e2e.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  out.e2e.add("peak_rss_mb", rss, "MB");
  out.e2e.add("ops_per_s", median(window_rates(stamps, t_begin, t_end, kWindows)), "1/s",
              static_cast<long long>(all_untraced.size()));
  out.e2e.add("typical_ms", geomean(coll), "ms", rounds);
  out.e2e.add("tail_ms", geomean(coll_p75), "ms", rounds);

  Metrics& I = out.issue;
  I.add("setup_s", median(setups), "s", static_cast<long long>(setups.size()));
  I.add("error_rate",
        out.attempted ? static_cast<double>(out.failed + out.mismatches) /
                            static_cast<double>(out.attempted)
                      : 0.0,
        "ratio", out.attempted);
  I.add("peak_rss_mb", rss, "MB");
  I.add("kernel_ms_geomean", geomean(coll), "ms", rounds);
  I.add("gain_vs_dynamic", geomean(gain), "ratio", rounds);
  I.add("serial_overhead", geomean(over), "ratio", rounds);

  if (o.trace) {
    // Traced pass: a span around every IKernel::run call; the kernel
    // figures come from it, the overhead from comparing it with the
    // untraced pass.
    for (auto& r : ks)
      for (auto& v : r.ms) v.clear();
    SpanBuffer tb(o.tiny ? 1 << 12 : 1 << 16);
    std::vector<double> all_traced;
    pass(o.seconds / 2, &tb, &all_traced);
    summarize(true);
    std::vector<const SpanBuffer*> bp{&tb};
    write_spans(o.work_dir + "/paper-kernels.spans.tsv", bp);
    const double mu = [&] {
      double s = 0;
      for (double x : all_untraced) s += x;
      return all_untraced.empty() ? 0.0 : s / static_cast<double>(all_untraced.size());
    }();
    double mt = 0;
    for (double x : all_traced) mt += x;
    mt = all_traced.empty() ? 0.0 : mt / static_cast<double>(all_traced.size());
    out.layer.add("trace.overhead", mu > 0 ? mt / mu - 1.0 : 0.0, "ratio");
  }
  return out;
}

}  // namespace pb
