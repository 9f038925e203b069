// nrcbench — the end-to-end benchmark binary (perfbench/run.py builds
// and drives it; see perfbench/DESIGN.md).
//
//   nrcbench --workload <serve-warm|serve-cold|paper-kernels> --seed <n>
//            --seconds <s> --trace <0|1> --work-dir <dir> [--tiny]
//
// Prints "# ..." record lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the gated end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
// 1 when any output disagrees with the oracle, 2 on bad arguments.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace pb {

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> m = {
      {"serve.frame_ns", "ns"},
      {"serve.payload_bytes", "bytes"},
      {"serve.handle_ns.describe", "ns"},
      {"serve.handle_ns.emit", "ns"},
      {"serve.handle_ns.lint", "ns"},
      {"serve.handle_ns.run", "ns"},
      {"serve.handle_ns.jitrun", "ns"},
      {"codegen.parse_ns", "ns"},
      {"codegen.emit_ns", "ns"},
      {"plan_cache.hit_ns", "ns"},
      {"plan_cache.hit_p99_ns", "ns"},
      {"plan_cache.wait_ns", "ns"},
      {"plan_cache.hit_ratio", "ratio"},
      {"plan_cache.cold_builds", "count"},
      {"plan_cache.symbolic_hits", "count"},
      {"plan_cache.evictions", "count"},
      {"plan.describe_ns", "ns"},
      {"schedule.select_ns", "ns"},
      {"schedule.ratio_vs_best", "ratio"},
  };
  for (const char* step : {"ranking", "level_formulas", "calibration", "bind"})
    for (int d = 2; d <= 5; ++d)
      m.push_back({std::string("core.") + step + "_ns.d" + std::to_string(d), "ns"});
  for (const LayerMetric& x : std::vector<LayerMetric>{
           {"core.recover_ns", "ns"},
           {"core.recover_block_ns_per_iter", "ns"},
           {"core.corrected_per_m", "count/M"},
           {"core.search_per_m", "count/M"},
           {"analysis.analyze_ns", "ns"},
           {"runtime.run_ns_per_iter", "ns"},
           {"runtime.walk_ns_per_iter", "ns"},
           {"runtime.body_ns_per_iter", "ns"},
           {"jit.render_ns", "ns"},
           {"jit.compile_ns", "ns"},
           {"jit.load_ns", "ns"},
           {"jit.cache_hit_ns", "ns"},
           {"jit.run_ns_per_iter", "ns"},
           {"jit.compiled_ratio", "ratio"}})
    m.push_back(x);
  for (const auto& k : paper_kernel_names()) {
    m.push_back({"kernels." + k + ".collapsed_ms", "ms"});
    m.push_back({"kernels." + k + ".dynamic_ms", "ms"});
    m.push_back({"kernels." + k + ".serial_overhead", "ratio"});
  }
  m.push_back({"trace.overhead", "ratio"});
  m.push_back({"trace.reconcile_verb_gap", "ratio"});
  m.push_back({"trace.reconcile_cold_gap", "ratio"});
  return m;
}

void complete_layers(Outcome& out) {
  Metrics ordered;
  for (const auto& lm : layer_metrics()) {
    const Metric* have = out.layer.find(lm.name);
    ordered.add(lm.name, have ? have->value : 0.0, lm.unit, have ? have->samples : -1);
  }
  out.layer = ordered;
}

}  // namespace pb

namespace {

/// CPUs this process may run on (its affinity mask, not the machine's
/// core count): the serve client count and the paper-kernels team size.
int affinity_nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nrcbench: %s\nusage: nrcbench --workload <serve-warm|serve-cold|paper-kernels> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--tiny]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  o.nproc = affinity_nproc();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::strtoull(val().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(val().c_str());
    else if (a == "--trace") o.trace = val() == "1";
    else if (a == "--work-dir") o.work_dir = val();
    else if (a == "--tiny") o.tiny = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (o.seconds <= 0) usage("--seconds must be positive");

  pb::Outcome out;
  try {
    if (o.workload == "serve-warm") out = pb::serve_warm(o);
    else if (o.workload == "serve-cold") out = pb::serve_cold(o);
    else if (o.workload == "paper-kernels") out = pb::paper_kernels(o);
    else usage(("unknown workload '" + o.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nrcbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (o.trace) pb::complete_layers(out);

  std::printf("# workload %s seed %llu seconds %g trace %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("# config %s\n", out.env.json(false).c_str());
  for (const auto& n : out.notes) std::printf("# %s\n", n.c_str());
  std::printf("# metrics %s\n", out.issue.json(true).c_str());
  if (o.trace) std::printf("# layers %s\n", out.layer.json(true).c_str());
  // A run that attempted nothing has checked nothing: it is not correct.
  const bool correct = out.attempted > 0 && out.mismatches == 0 && out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed + out.mismatches),
              (o.trace ? out.layer : out.e2e).json(false).c_str());
  return correct ? 0 : 1;
}
