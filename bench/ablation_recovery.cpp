// Ablation: cost of one index recovery, by strategy and nest shape.
//
// Compares the paper's closed-form root evaluation (guarded and raw)
// against the library's exact binary-search fallback and against the
// odometer increment that replaces recovery within a chunk (§V) — the
// numbers behind the design rule "recover once per chunk, increment
// inside".

#include <benchmark/benchmark.h>

#include "core/collapse.hpp"
#include "core/validate.hpp"
#include "polyhedral/nest.hpp"

using namespace nrc;

namespace {

NestSpec shape_nest(int shape) {
  NestSpec nest;
  switch (shape) {
    case 0:
      nest.param("N")
          .loop("i", aff::c(0), aff::v("N") - 1)
          .loop("j", aff::v("i") + 1, aff::v("N"));
      break;
    case 1:
      nest.param("N")
          .loop("i", aff::c(0), aff::v("N") - 1)
          .loop("j", aff::c(0), aff::v("i") + 1)
          .loop("k", aff::v("j"), aff::v("i") + 1);
      break;
    default:
      nest.param("N")
          .loop("i", aff::c(0), aff::v("N"))
          .loop("j", aff::v("i"), aff::v("N"))
          .loop("k", aff::v("j"), aff::v("N"))
          .loop("l", aff::v("k"), aff::v("N"));
      break;
  }
  return nest;
}

i64 shape_size(int shape) { return shape == 0 ? 100000 : shape == 1 ? 2000 : 300; }

/// shape 0: triangular (deg 2), 1: tetrahedral (deg 3), 2: 4-D simplex (deg 4).
CollapsedEval make_eval(int shape) {
  return collapse(shape_nest(shape)).bind({{"N", shape_size(shape)}});
}

const char* shape_label(int shape) {
  switch (shape) {
    case 0:
      return "triangular_deg2";
    case 1:
      return "tetrahedral_deg3";
    default:
      return "simplex4_deg4";
  }
}

void BM_RecoverClosedGuarded(benchmark::State& state) {
  const CollapsedEval cn = make_eval(static_cast<int>(state.range(0)));
  const i64 total = cn.trip_count();
  i64 idx[kMaxDepth];
  i64 pc = 1;
  for (auto _ : state) {
    cn.recover(pc, {idx, static_cast<size_t>(cn.depth())});
    benchmark::DoNotOptimize(idx[0]);
    pc = pc % total + 997;  // stride through the domain
    if (pc > total) pc -= total;
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}

void BM_RecoverClosedRaw(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const Collapsed col = collapse(shape_nest(shape));
  const CollapsedEval cn = col.bind({{"N", shape_size(shape)}});
  RawClosedForm raw(col, {{"N", shape_size(shape)}});
  const i64 total = cn.trip_count();
  i64 idx[kMaxDepth];
  i64 pc = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(raw.recover(cn, pc, {idx, static_cast<size_t>(cn.depth())}));
    pc = pc % total + 997;
    if (pc > total) pc -= total;
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}

void BM_RecoverSearch(benchmark::State& state) {
  const CollapsedEval cn = make_eval(static_cast<int>(state.range(0)));
  const i64 total = cn.trip_count();
  i64 idx[kMaxDepth];
  i64 pc = 1;
  for (auto _ : state) {
    cn.recover_search(pc, {idx, static_cast<size_t>(cn.depth())});
    benchmark::DoNotOptimize(idx[0]);
    pc = pc % total + 997;
    if (pc > total) pc -= total;
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}

void BM_Increment(benchmark::State& state) {
  const CollapsedEval cn = make_eval(static_cast<int>(state.range(0)));
  i64 idx[kMaxDepth];
  cn.first({idx, static_cast<size_t>(cn.depth())});
  for (auto _ : state) {
    if (!cn.increment({idx, static_cast<size_t>(cn.depth())}))
      cn.first({idx, static_cast<size_t>(cn.depth())});
    benchmark::DoNotOptimize(idx[0]);
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}

void BM_Rank(benchmark::State& state) {
  const CollapsedEval cn = make_eval(static_cast<int>(state.range(0)));
  i64 idx[kMaxDepth];
  cn.first({idx, static_cast<size_t>(cn.depth())});
  for (auto _ : state) {
    benchmark::DoNotOptimize(cn.rank({idx, static_cast<size_t>(cn.depth())}));
    if (!cn.increment({idx, static_cast<size_t>(cn.depth())}))
      cn.first({idx, static_cast<size_t>(cn.depth())});
  }
  state.SetLabel(shape_label(static_cast<int>(state.range(0))));
}

}  // namespace

BENCHMARK(BM_RecoverClosedGuarded)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_RecoverClosedRaw)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_RecoverSearch)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Increment)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_Rank)->Arg(0)->Arg(1)->Arg(2);

BENCHMARK_MAIN();
