#include "pipeline/cost_model.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/collapse.hpp"
#include "runtime/simd_abi.hpp"
#include "support/error.hpp"

namespace nrc {

namespace {

/// Fixed overhead constants the estimates charge where a scheme pays
/// per-task dispatch or a fork/join.  Calibrating these per machine
/// buys little: they only matter when a scheme's amortized recovery
/// terms are already close, and the selection-accuracy gate holds with
/// generous margins at these values.
constexpr double kTaskNs = 300.0;      // one OpenMP task dispatch/steal
constexpr double kForkJoinNs = 4000.0; // one parallel region fork+join

// Indexed by SolverProfile.  A table naming a retired profile (the
// bytecode "program" row) is malformed: parse_text refuses it.
constexpr const char* profile_names[] = {"division", "quadratic", "cubic", "quartic",
                                         "costly"};
constexpr size_t kProfiles = sizeof(profile_names) / sizeof(profile_names[0]);

bool profile_from_name(const std::string& s, SolverProfile* out) {
  for (size_t i = 0; i < kProfiles; ++i) {
    if (s == profile_names[i]) {
      *out = static_cast<SolverProfile>(i);
      return true;
    }
  }
  return false;
}

}  // namespace

const char* solver_profile_name(SolverProfile p) {
  const size_t i = static_cast<size_t>(p);
  return i < kProfiles ? profile_names[i] : "?";
}

SolverProfile classify_solver_profile(const CollapsedEval& cn) {
  // Rank by per-recovery cost; the domain's profile is its worst level.
  auto rank = [](LevelSolverKind k) {
    switch (k) {
      case LevelSolverKind::Search:
        return 4;
      case LevelSolverKind::Quartic:
        return 3;
      case LevelSolverKind::Cubic:
        return 2;
      case LevelSolverKind::Quadratic:
        return 1;
      default:  // ExactDivision / InnermostLinear
        return 0;
    }
  };
  int worst = 0;
  for (int k = 0; k < cn.depth(); ++k) worst = std::max(worst, rank(cn.solver_kind(k)));
  return static_cast<SolverProfile>(worst);
}

CostModel::CostModel() : abi_(simd::runtime_abi()) {}

void CostModel::add(const CostEntry& e) {
  // One entry per (profile, depth): later calibrations replace earlier.
  for (CostEntry& it : entries_) {
    if (it.profile == e.profile && it.depth == e.depth) {
      it = e;
      return;
    }
  }
  entries_.push_back(e);
}

const CostEntry* CostModel::lookup(SolverProfile profile, int depth) const {
  const CostEntry* best = nullptr;
  int best_gap = 0;
  for (const CostEntry& e : entries_) {
    if (e.profile != profile) continue;
    const int gap = std::abs(e.depth - depth);
    if (!best || gap < best_gap) {
      best = &e;
      best_gap = gap;
    }
  }
  return best;
}

// ------------------------------------------------------------ persistence

std::string CostModel::save_text() const {
  std::string s = "nrc-cost-table v1\n";
  s += "abi " + abi_ + "\n";
  char buf[320];
  for (const CostEntry& e : entries_) {
    std::snprintf(buf, sizeof(buf),
                  "entry profile=%s depth=%d lanes=%d engine=%.4f block=%.4f "
                  "simd4=%.4f simd8=%.4f jit=%.4f jitc=%.4f\n",
                  solver_profile_name(e.profile), e.depth, e.lanes, e.engine_ns,
                  e.block_ns, e.simd4_ns, e.simd8_ns, e.jit_ns, e.jit_compile_ms);
    s += buf;
  }
  return s;
}

CostModel CostModel::parse_text(const std::string& text) {
  CostModel m;
  m.abi_.clear();
  size_t pos = 0;
  int lineno = 0;
  bool saw_magic = false;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_magic) {
      if (line != "nrc-cost-table v1")
        throw ParseError("cost table: bad magic line '" + line + "'");
      saw_magic = true;
      continue;
    }
    if (line.rfind("abi ", 0) == 0) {
      m.abi_ = line.substr(4);
      continue;
    }
    if (line.rfind("entry ", 0) == 0) {
      char prof[32] = {0};
      CostEntry e;
      // The jit columns are optional so tables written before PR 10
      // still load (they select as if no jit figure was measured).
      const int got = std::sscanf(
          line.c_str(),
          "entry profile=%31s depth=%d lanes=%d engine=%lf block=%lf "
          "simd4=%lf simd8=%lf jit=%lf jitc=%lf",
          prof, &e.depth, &e.lanes, &e.engine_ns, &e.block_ns, &e.simd4_ns,
          &e.simd8_ns, &e.jit_ns, &e.jit_compile_ms);
      if ((got != 7 && got != 9) || !profile_from_name(prof, &e.profile))
        throw ParseError("cost table: malformed entry at line " +
                         std::to_string(lineno) + ": '" + line + "'");
      m.add(e);
      continue;
    }
    throw ParseError("cost table: unknown line " + std::to_string(lineno) + ": '" +
                     line + "'");
  }
  if (!saw_magic) throw ParseError("cost table: empty input");
  return m;
}

bool CostModel::save_file(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string s = save_text();
  const bool ok = std::fwrite(s.data(), 1, s.size(), f) == s.size();
  std::fclose(f);
  return ok;
}

CostModel CostModel::load_file(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (!f) throw ParseError("cost table: cannot open '" + path + "'");
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_text(text);
}

// ------------------------------------------------------------ calibration

CostEntry CostModel::calibrate(const CollapsedEval& cn, int probes) {
  CostEntry e;
  e.profile = classify_solver_profile(cn);
  e.depth = cn.depth();
  e.lanes = simd::kGroupLanes;

  const size_t d = static_cast<size_t>(cn.depth());
  const i64 total = cn.trip_count();
  const size_t np = static_cast<size_t>(std::max(probes, 16));
  std::vector<i64> pcs(np);
  u64 state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < np; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    pcs[i] = static_cast<i64>(1 + (state >> 17) % static_cast<u64>(total));
  }

  auto time_ns_per = [&](i64 elements, auto&& fn) {
    double best = 1e300;
    for (int t = 0; t < 3; ++t) {
      const double t0 = omp_get_wtime();
      fn();
      const double dt = omp_get_wtime() - t0;
      best = std::min(best, dt);
    }
    return best * 1e9 / static_cast<double>(elements);
  };

  i64 idx[kMaxDepth];
  i64 sink = 0;
  e.engine_ns = time_ns_per(static_cast<i64>(np), [&] {
    for (const i64 pc : pcs) {
      cn.recover(pc, {idx, d});
      sink += idx[0];
    }
  });
  constexpr i64 kBlock = 64;
  i64 block_buf[kBlock * kMaxDepth];
  e.block_ns = time_ns_per(static_cast<i64>(np) * kBlock, [&] {
    for (const i64 pc : pcs) {
      const i64 lo = std::min<i64>(pc, std::max<i64>(1, total - kBlock + 1));
      const i64 got = cn.recover_block(lo, kBlock, {block_buf, kBlock * d});
      sink += block_buf[static_cast<size_t>(got - 1) * d];
    }
  });
  i64 simd_buf[4 * kBlock * kMaxDepth];
  i64 rows4[4];
  e.simd4_ns = time_ns_per(static_cast<i64>(np) * 4 * kBlock, [&] {
    for (const i64 pc : pcs) {
      const i64 lo = std::min<i64>(pc, std::max<i64>(1, total - 4 * kBlock + 1));
      const i64 pcs4[4] = {lo, lo + kBlock, lo + 2 * kBlock, lo + 3 * kBlock};
      cn.recover_blocks4(pcs4, kBlock, {simd_buf, 4 * kBlock * d}, kBlock, rows4);
      sink += simd_buf[static_cast<size_t>(rows4[0] - 1)];
    }
  });
  i64 simd_buf8[8 * kBlock * kMaxDepth];
  i64 rows8[8];
  e.simd8_ns = time_ns_per(static_cast<i64>(np) * 8 * kBlock, [&] {
    for (const i64 pc : pcs) {
      const i64 lo = std::min<i64>(pc, std::max<i64>(1, total - 8 * kBlock + 1));
      i64 pcs8[8];
      for (int b = 0; b < 8; ++b) pcs8[b] = lo + b * kBlock;
      cn.recover_blocks8(pcs8, kBlock, {simd_buf8, 8 * kBlock * d}, kBlock, rows8);
      sink += simd_buf8[static_cast<size_t>(rows8[0] - 1)];
    }
  });
  // Defeat dead-code elimination of the probe loops.
  static volatile i64 g_calibrate_sink;
  g_calibrate_sink = sink;
  return e;
}

// ------------------------------------------------------------- estimation

i64 CostModel::pick_dnc_grain(const CostEntry* e, i64 total, int nt) {
  const int np = std::max(nt, 1);
  i64 grain;
  if (e && e->block_ns > 0.0) {
    // Leaf where the per-leaf overhead (one recovery + one task) is
    // ~1/8 of the leaf's walk cost.
    const double g = 8.0 * (e->engine_ns + kTaskNs) / std::max(e->block_ns, 0.01);
    grain = static_cast<i64>(g) + 1;
  } else {
    grain = default_chunk(total, nt);
  }
  if (grain < 32) grain = 32;
  // Leave ~8 leaves per thread for stealing when the domain allows it.
  const i64 cap = std::max<i64>(32, total / (8 * static_cast<i64>(np)));
  if (grain > cap) grain = cap;
  if (grain > total) grain = total;
  return grain;
}

i64 CostModel::pick_tile(i64 total, int nt) {
  const int np = std::max(nt, 1);
  i64 tile = total / (8 * static_cast<i64>(np));
  if (tile < 1024) tile = 1024;
  if (tile > 65536) tile = 65536;
  if (tile > total) tile = total;
  return tile;
}

double CostModel::estimate_ns_per_iter(const CostEntry& e, i64 total, const Schedule& s,
                                       int nt) {
  const double T = static_cast<double>(std::max<i64>(total, 1));
  const double eng = e.engine_ns;
  const double blk = e.block_ns;
  const double lane = e.lanes >= 8 ? e.simd8_ns : e.simd4_ns;
  const int np = std::max(nt, 1);
  auto nchunks = [&](i64 c) {
    c = std::max<i64>(c, 1);
    return static_cast<double>(total / c + (total % c != 0 ? 1 : 0));
  };

  double work = 0;  // summed-over-threads ns per iteration
  bool parallel = true;
  switch (s.scheme) {
    case Scheme::PerIteration:
      work = eng;
      break;
    case Scheme::PerThread:
    case Scheme::RowSegments:
      work = blk + eng * np / T;
      break;
    case Scheme::Chunked:
    case Scheme::RowSegmentsChunked: {
      const i64 c = s.chunk > 0 ? s.chunk : (total + np - 1) / np;
      work = blk + eng * nchunks(c) / T;
      break;
    }
    case Scheme::Taskloop: {
      const i64 g = s.grain > 0 ? s.grain : default_chunk(total, nt);
      work = blk + (eng + kTaskNs) * nchunks(g) / T;
      break;
    }
    case Scheme::SimdBlocks:
      work = lane + eng * np / T;
      break;
    case Scheme::SimdBlocksChunked: {
      // Chunk-start recoveries run lane-batched (recover4/recover8).
      const i64 c = s.chunk > 0 ? s.chunk : (total + np - 1) / np;
      work = lane + eng * nchunks(c) / (std::max(e.lanes, 1) * T);
      break;
    }
    case Scheme::WarpSim: {
      const double L =
          static_cast<double>(std::min<i64>(std::max(s.warp_size, 1), total));
      work = blk + eng * L / T;
      break;
    }
    case Scheme::SerialSim:
      parallel = false;
      work = blk + eng * std::max(s.serial_chunks, 1) / T;
      break;
    case Scheme::DivideAndConquer: {
      const i64 g = s.grain > 0 ? s.grain : default_chunk(total, nt);
      work = blk + (eng + kTaskNs) * nchunks(g) / T;
      break;
    }
    case Scheme::TiledTwoLevel: {
      const i64 tl = s.chunk > 0 ? s.chunk : pick_tile(total, nt);
      work = lane + eng * nchunks(tl) / T;
      break;
    }
  }
  if (!parallel) return work;
  return work / np + kForkJoinNs / T;
}

double CostModel::estimate_jit_ns_per_iter(const CostEntry& e, i64 total) {
  const double T = static_cast<double>(std::max<i64>(total, 1));
  return e.jit_ns + e.jit_compile_ms * 1e6 / T;
}

std::vector<Schedule> CostModel::candidate_schedules(const CostEntry* e, i64 total,
                                                     const AutoSelectHints& h, int nt) {
  RunConfig c{h.threads};
  std::vector<Schedule> v;
  v.push_back(Schedule::serial_sim(1));
  v.push_back(Schedule::per_thread(c));
  v.push_back(Schedule::row_segments(c));
  v.push_back(Schedule::row_segments_chunked(default_chunk(total, nt), c));
  v.push_back(Schedule::divide_and_conquer(pick_dnc_grain(e, total, nt), c));
  if (h.block_body) {
    const int vlen = h.vlen > 0 ? h.vlen : 2 * simd::kGroupLanes;
    v.push_back(Schedule::simd_blocks_chunked(vlen, default_chunk(total, nt), c));
    v.push_back(Schedule::tiled_two_level(pick_tile(total, nt), vlen, c));
  }
  return v;
}

std::optional<CostModel::Selection> CostModel::select(const CollapsedEval& cn,
                                                      const AutoSelectHints& h) const {
  if (entries_.empty()) return std::nullopt;
  // A table calibrated on a different runtime leg mis-prices the lane
  // columns; refuse rather than mislead.
  if (abi_ != simd::runtime_abi()) return std::nullopt;
  const i64 total = cn.trip_count();
  if (total < 1) return std::nullopt;
  const SolverProfile profile = classify_solver_profile(cn);
  const CostEntry* e = lookup(profile, cn.depth());
  if (!e) return std::nullopt;

  const int nt = h.threads > 0 ? h.threads : omp_get_max_threads();
  Selection best;
  best.profile = profile;
  bool have = false;
  for (const Schedule& s : candidate_schedules(e, total, h, nt)) {
    const double ns = estimate_ns_per_iter(*e, total, s, nt);
    if (!have || ns < best.ns_per_iter) {
      best.schedule = s;
      best.ns_per_iter = ns;
      have = true;
    }
  }
  if (!have) return std::nullopt;
  // JIT column: recommend the compiled kernel when its measured
  // per-iteration cost beats the best library schedule even with the
  // compile amortized over a single full run of the domain.  The
  // schedule selection stands either way — it is both the kernel's
  // emission shape and the fallback path when no toolchain shows up.
  if (e->jit_ns > 0) {
    const double jns = estimate_jit_ns_per_iter(*e, total);
    if (jns < best.ns_per_iter) {
      best.jit = true;
      best.jit_ns_per_iter = jns;
    }
  }
  return best;
}

// ---------------------------------------------------------- process-global

namespace {

CostModel load_global_from_env() {
  if (const char* path = std::getenv("NRC_COST_TABLE")) {
    try {
      return CostModel::load_file(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "nrc: ignoring NRC_COST_TABLE: %s\n", e.what());
    }
  }
  return CostModel();
}

CostModel& mutable_global() {
  static CostModel g = load_global_from_env();
  return g;
}

}  // namespace

const CostModel& CostModel::global() { return mutable_global(); }

void CostModel::set_global(CostModel m) { mutable_global() = std::move(m); }

void CostModel::clear_global() { mutable_global() = CostModel(); }

}  // namespace nrc
