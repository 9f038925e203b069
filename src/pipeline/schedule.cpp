#include "pipeline/schedule.hpp"

#include <omp.h>

#include "core/collapse.hpp"
#include "pipeline/cost_model.hpp"
#include "runtime/simd_abi.hpp"
#include "support/error.hpp"

namespace nrc {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::PerIteration:
      return "per_iteration";
    case Scheme::PerThread:
      return "per_thread";
    case Scheme::Chunked:
      return "chunked";
    case Scheme::Taskloop:
      return "taskloop";
    case Scheme::RowSegments:
      return "row_segments";
    case Scheme::RowSegmentsChunked:
      return "row_segments_chunked";
    case Scheme::SimdBlocks:
      return "simd_blocks";
    case Scheme::SimdBlocksChunked:
      return "simd_blocks_chunked";
    case Scheme::WarpSim:
      return "warp_sim";
    case Scheme::SerialSim:
      return "serial_sim";
    case Scheme::DivideAndConquer:
      return "divide_and_conquer";
    case Scheme::TiledTwoLevel:
      return "tiled_two_level";
  }
  return "?";
}

Schedule Schedule::per_iteration(OmpSchedule o, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::PerIteration;
  s.omp = o;
  s.cfg = c;
  return s;
}

Schedule Schedule::per_thread(RunConfig c) {
  Schedule s;
  s.scheme = Scheme::PerThread;
  s.cfg = c;
  return s;
}

Schedule Schedule::chunked(i64 chunk, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::Chunked;
  s.chunk = chunk;
  s.cfg = c;
  return s;
}

Schedule Schedule::taskloop(i64 grain, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::Taskloop;
  s.grain = grain;
  s.cfg = c;
  return s;
}

Schedule Schedule::row_segments(RunConfig c) {
  Schedule s;
  s.scheme = Scheme::RowSegments;
  s.cfg = c;
  return s;
}

Schedule Schedule::row_segments_chunked(i64 chunk, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::RowSegmentsChunked;
  s.chunk = chunk;
  s.cfg = c;
  return s;
}

Schedule Schedule::simd_blocks(int vlen, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::SimdBlocks;
  s.vlen = vlen;
  s.cfg = c;
  return s;
}

Schedule Schedule::simd_blocks_chunked(int vlen, i64 chunk, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::SimdBlocksChunked;
  s.vlen = vlen;
  s.chunk = chunk;
  s.cfg = c;
  return s;
}

Schedule Schedule::warp_sim(int warp_size, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::WarpSim;
  s.warp_size = warp_size;
  s.cfg = c;
  return s;
}

Schedule Schedule::serial_sim(int n_chunks) {
  Schedule s;
  s.scheme = Scheme::SerialSim;
  s.serial_chunks = n_chunks;
  return s;
}

Schedule Schedule::divide_and_conquer(i64 grain, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::DivideAndConquer;
  s.grain = grain;
  s.cfg = c;
  return s;
}

Schedule Schedule::tiled_two_level(i64 tile, int vlen, RunConfig c) {
  Schedule s;
  s.scheme = Scheme::TiledTwoLevel;
  s.chunk = tile;
  s.vlen = vlen;
  s.cfg = c;
  return s;
}

void Schedule::validate() const {
  switch (scheme) {
    case Scheme::SimdBlocks:
    case Scheme::SimdBlocksChunked:
    case Scheme::TiledTwoLevel:
      if (vlen < 1 || vlen > kMaxSimdLanes)
        throw SpecError(std::string(scheme_name(scheme)) + ": vlen out of range");
      break;
    case Scheme::WarpSim:
      if (warp_size < 1)
        throw SpecError("warp_sim: warp_size must be >= 1");
      break;
    default:
      break;
  }
}

std::string Schedule::describe() const {
  std::string s = scheme_name(scheme);
  s += "(";
  bool first = true;
  auto field = [&](const std::string& name, const std::string& val) {
    if (!first) s += ", ";
    s += name + "=" + val;
    first = false;
  };
  switch (scheme) {
    case Scheme::PerIteration:
      field("omp", omp == OmpSchedule::Static ? "static" : "dynamic");
      break;
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked:
      field("chunk", std::to_string(chunk));
      break;
    case Scheme::Taskloop:
      field("grain", std::to_string(grain));
      break;
    case Scheme::SimdBlocks:
      field("vlen", std::to_string(vlen));
      field("abi", simd::runtime_abi());
      break;
    case Scheme::SimdBlocksChunked:
      field("vlen", std::to_string(vlen));
      field("chunk", std::to_string(chunk));
      field("abi", simd::runtime_abi());
      break;
    case Scheme::WarpSim:
      field("warp_size", std::to_string(warp_size));
      break;
    case Scheme::SerialSim:
      field("n_chunks", std::to_string(serial_chunks));
      break;
    case Scheme::DivideAndConquer:
      field("grain", std::to_string(grain));
      break;
    case Scheme::TiledTwoLevel:
      field("tile", std::to_string(chunk));
      field("vlen", std::to_string(vlen));
      field("abi", simd::runtime_abi());
      break;
    default:
      break;
  }
  if (cfg.threads > 0 && scheme != Scheme::SerialSim)
    field("threads", std::to_string(cfg.threads));
  s += ")";
  return s;
}

Schedule Schedule::auto_select(const CollapsedEval& cn, const AutoSelectHints& h) {
  return auto_select_with_cost(cn, h).schedule;
}

Schedule::Choice Schedule::auto_select_with_cost(const CollapsedEval& cn,
                                                 const AutoSelectHints& h) {
  const i64 total = cn.trip_count();
  const int nt = h.threads > 0 ? h.threads : omp_get_max_threads();

  Choice ch;
  Schedule& s = ch.schedule;
  s.cfg.threads = h.threads;

  // Degenerate-domain guards stay ahead of the table: a fork/join can
  // never pay for itself on a tiny domain, measured or not.
  if (total <= 1 || nt <= 1) {
    s = serial_sim(1);
    return ch;
  }
  if (total < 4 * static_cast<i64>(nt)) {
    s.scheme = Scheme::PerThread;
    return ch;
  }

  // Calibrated cost table first (pipeline/cost_model.hpp); the static
  // heuristic below is the no-table fallback.
  if (auto sel = CostModel::global().select(cn, h)) {
    ch.schedule = sel->schedule;
    ch.est_ns_per_iter = sel->ns_per_iter;
    ch.from_cost_model = true;
    ch.profile = std::string(solver_profile_name(sel->profile)) + "/d" +
                 std::to_string(cn.depth());
    ch.jit_recommended = sel->jit;
    ch.jit_ns_per_iter = sel->jit_ns_per_iter;
    return ch;
  }

  bool costly_recovery = false;   // a level with no usable formula
  bool high_degree = false;       // degree >= 3 closed forms
  for (int k = 0; k < cn.depth(); ++k) {
    switch (cn.solver_kind(k)) {
      case LevelSolverKind::Search:
        costly_recovery = true;
        break;
      case LevelSolverKind::Cubic:
      case LevelSolverKind::Quartic:
        high_degree = true;
        break;
      default:
        break;
    }
  }

  if (costly_recovery) {
    // Recovery dominates: the per-thread schemes pay exactly one per
    // thread, and segment bodies cost nothing extra.
    s.scheme = Scheme::RowSegments;
    return ch;
  }

  const i64 chunk = default_chunk(total, nt);
  if (h.block_body && !high_degree && cn.depth() >= 2) {
    // Cheap recoveries + a SIMD-shaped body: lane blocks straight out of
    // the recovery row walk, chunk starts solved one lane group per
    // batched solve.  The default block width comes from the compiled
    // simd abi's group width (8 on the AVX-512 leg, 4 elsewhere) — two
    // groups per block amortize the row-walk bookkeeping over the lane
    // stores.
    s.scheme = Scheme::SimdBlocksChunked;
    s.vlen = h.vlen > 0 ? h.vlen : 2 * simd::kGroupLanes;
    s.chunk = chunk;
    return ch;
  }
  // Production default (§V chunked, segment bodies): round-robin chunks
  // keep threads co-located, one recovery per chunk amortizes the
  // degree >= 3 solves, and the innermost range reaches the body whole.
  s.scheme = Scheme::RowSegmentsChunked;
  s.chunk = chunk;
  return ch;
}

}  // namespace nrc
