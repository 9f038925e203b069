#pragma once
// Measured per-scheme cost model for Schedule::auto_select.
//
// bench_recovery_ns already measures exactly the per-iteration costs a
// schedule choice trades off — one full closed-form recovery (engine),
// the scalar block walk (block64), and the 4-/8-lane batched walks —
// per nest.  This module turns those measurements into a persisted
// table keyed by
//
//   (solver-kind profile, collapse depth, lane-group width, runtime
//    SIMD ABI)
//
// and answers "predicted ns per collapsed iteration" for any Schedule
// on any bound domain matching an entry.  Schedule::auto_select
// consults the process-global table (CostModel::global(), loaded once
// from the NRC_COST_TABLE environment variable at first use, or
// installed programmatically with set_global()) and falls back to its
// static heuristic when no usable entry exists — an empty table, an
// unknown profile, or a table calibrated on a different runtime ABI.
//
// Calibration has two producers: bench_recovery_ns --cost-table=PATH
// persists its measured rows, and CostModel::calibrate() measures one
// bound domain in-process (the selection-accuracy tests calibrate on
// the machine they then measure on, so the assertion is self-
// consistent).  The persistence format is a line-oriented text file
// (`nrc-cost-table v1`), deliberately trivial to parse and diff.

#include <optional>
#include <string>
#include <vector>

#include "pipeline/schedule.hpp"
#include "support/int128.hpp"

namespace nrc {

class CollapsedEval;

/// The cost-relevant recovery class of a bound domain: its most
/// expensive per-level solver.  Two domains with the same profile and
/// depth recover at near-identical cost regardless of their bounds'
/// particular coefficients, which is what makes a small table general.
enum class SolverProfile {
  Division,   ///< all levels exact-division / innermost-linear
  Quadratic,  ///< worst level: guarded quadratic closed form
  Cubic,      ///< worst level: guarded real Cardano
  Quartic,    ///< worst level: guarded real Ferrari
  Costly,     ///< worst level: Search (no usable formula)
};

const char* solver_profile_name(SolverProfile p);

/// Classify a bound domain by its per-level solver kinds.
SolverProfile classify_solver_profile(const CollapsedEval& eval);

/// One calibrated table row: measured ns figures for a (profile, depth)
/// class on the lane width the measuring build ran.
struct CostEntry {
  SolverProfile profile = SolverProfile::Division;
  int depth = 0;
  int lanes = 4;         ///< simd::kGroupLanes of the calibrating run
  double engine_ns = 0;  ///< one full closed-form recovery (recover())
  double block_ns = 0;   ///< per-iteration scalar block walk (block64)
  double simd4_ns = 0;   ///< per-iteration 4-lane batched walk
  double simd8_ns = 0;   ///< per-iteration 8-lane batched walk
  // JIT columns (PR 10), measured by bench_recovery_ns on machines
  // with a toolchain; 0 = not measured, which keeps selection on the
  // library schemes.  Tables written before these columns existed
  // parse fine (the fields are optional in the v1 row format).
  double jit_ns = 0;          ///< per-iteration cost through a compiled kernel
  double jit_compile_ms = 0;  ///< one-time out-of-process compile cost
};

class CostModel {
 public:
  CostModel();  ///< empty table stamped with the current runtime ABI

  void add(const CostEntry& e);
  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::string& abi() const { return abi_; }
  void set_abi(std::string a) { abi_ = std::move(a); }

  /// Best entry for (profile, depth): exact depth match first, then the
  /// nearest depth within the same profile, else nullptr.
  const CostEntry* lookup(SolverProfile profile, int depth) const;

  // -------------------------------------------------------- persistence
  /// `nrc-cost-table v1` text rendering (stable, line-oriented).
  std::string save_text() const;
  /// Parse a save_text() rendering; throws ParseError on malformed input.
  static CostModel parse_text(const std::string& text);
  /// Write save_text() to `path`; returns false on I/O failure.
  bool save_file(const std::string& path) const;
  /// Load a table from `path`; throws ParseError (also on a missing file).
  static CostModel load_file(const std::string& path);

  // -------------------------------------------------------- calibration
  /// Measure one bound domain's engine/block/simd columns in-process
  /// (fixed-seed probe pcs, best-of-3 timing) and return the entry.
  static CostEntry calibrate(const CollapsedEval& eval, int probes = 2000);

  // ---------------------------------------------------------- estimation
  /// Predicted wall-clock ns per collapsed iteration for running
  /// `total` iterations under `s` with `nt` threads, per entry `e`.
  /// Work terms per scheme: the body-walk cost (scalar block walk or
  /// lane walk) plus the recovery count the scheme pays amortized over
  /// the domain, plus per-task / fork-join overhead constants; parallel
  /// schemes divide by the team size.
  static double estimate_ns_per_iter(const CostEntry& e, i64 total, const Schedule& s,
                                     int nt);

  /// The candidate schedules select() minimizes over (also the set the
  /// bench's selection-accuracy report measures).  `e` may be null —
  /// grain/tile picks then fall back to defaults.
  static std::vector<Schedule> candidate_schedules(const CostEntry* e, i64 total,
                                                   const AutoSelectHints& hints, int nt);

  /// Cost-model-chosen DivideAndConquer grain: large enough that one
  /// recovery + task dispatch stays a small fraction of a leaf's walk,
  /// small enough to leave ~8 stealable leaves per thread.
  static i64 pick_dnc_grain(const CostEntry* e, i64 total, int nt);
  /// Default TiledTwoLevel tile: a contiguous span per thread split ~8
  /// ways for tail balance, clamped to a cache-friendly range.
  static i64 pick_tile(i64 total, int nt);

  /// Amortized per-iteration cost of JIT-compiling then running the
  /// whole domain once: the kernel's per-iteration cost plus the
  /// compile paid across `total` iterations.  Callers that run a
  /// domain repeatedly amortize further; this single-run figure is the
  /// conservative bound selection uses.
  static double estimate_jit_ns_per_iter(const CostEntry& e, i64 total);

  struct Selection {
    Schedule schedule;
    double ns_per_iter = 0;
    SolverProfile profile = SolverProfile::Division;
    /// True when the entry's measured jit column beats every library
    /// schedule even after amortizing the compile over one full run —
    /// the signal auto_select/serve surface as a jit recommendation.
    /// `schedule` stays the best library schedule either way (it is
    /// both the jit kernel's emission shape and the fallback path).
    bool jit = false;
    double jit_ns_per_iter = 0;  ///< valid when jit is true
  };
  /// Minimum-estimated-cost schedule for the domain, or nullopt when
  /// this table cannot answer (empty, ABI mismatch with the running
  /// process, or no entry for the domain's profile).
  std::optional<Selection> select(const CollapsedEval& eval,
                                  const AutoSelectHints& hints) const;

  // ------------------------------------------------------ process-global
  /// The table auto_select consults.  First access loads NRC_COST_TABLE
  /// when the variable is set (a malformed/missing file leaves the
  /// table empty and auto_select on the heuristic).  Install/replace
  /// before spawning concurrent work; reads are unsynchronized.
  static const CostModel& global();
  static void set_global(CostModel m);
  static void clear_global();

 private:
  std::string abi_;
  std::vector<CostEntry> entries_;
};

}  // namespace nrc
