#pragma once
// The three workloads of the end-to-end benchmark (see DESIGN.md).

#include <string>
#include <vector>

#include "bench.hpp"

namespace pb {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
  std::string work_dir;  ///< private scratch (JIT object caches, spans)
  bool tiny = false;     ///< self-test configuration: small and short
};

/// Set-ups per untraced run; `setup_s` is their median.  serve-warm's
/// set-up compiles four kernels (~0.8 s); the others take 0.05-0.2 s and
/// repeat more, so every workload times a second or more of set-up.
constexpr int kSetupRepsCompiling = 5;
constexpr int kSetupRepsCheap = 15;

struct Outcome {
  Metrics e2e;    ///< the gated end-to-end metrics (untraced run)
  Metrics issue;  ///< every named end-to-end metric of the design
  Metrics layer;  ///< per-layer metrics (traced run)
  Metrics env;    ///< configuration record (numbers only)
  std::vector<std::string> notes;  ///< configuration strings, self times
  i64 attempted = 0;
  i64 failed = 0;      ///< failed or refused operations
  i64 mismatches = 0;  ///< oracle disagreements
  void fail(const std::string& what) {
    ++mismatches;
    if (notes.size() < 64) notes.push_back("MISMATCH " + what);
  }
};

/// Record nproc, the SIMD ABI and the resolved compiler.
void record_env(Outcome& out, const Options& o);

Outcome serve_warm(const Options& o);
Outcome serve_cold(const Options& o);
Outcome paper_kernels(const Options& o);

struct LayerMetric {
  std::string name, unit;
};
/// Per-layer metrics with their units, in print order; every workload
/// reports each (zero where the workload does not exercise the layer).
std::vector<LayerMetric> layer_metrics();
/// Kernel names of paper §VII, in registry order.
std::vector<std::string> paper_kernel_names();
/// Fill every per-layer metric the workload left unset with 0.
void complete_layers(Outcome& out);

}  // namespace pb
