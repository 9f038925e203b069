#include "core/validate.hpp"

#include <cmath>
#include <optional>
#include <sstream>

namespace nrc {
namespace {

std::string tuple_str(std::span<const i64> t) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < t.size(); ++i) os << (i ? "," : "") << t[i];
  os << ")";
  return os.str();
}

}  // namespace

RawClosedForm::RawClosedForm(const Collapsed& col, const ParamMap& params)
    : slots_(col.slot_order().size(), 0) {
  for (const LevelFormula& lf : col.levels())
    roots_.push_back(lf.branch >= 0 ? CompiledExpr(lf.root, col.slot_order())
                                    : CompiledExpr());
  for (size_t s = 0; s < slots_.size(); ++s) {
    const auto it = params.find(col.slot_order()[s]);
    if (it != params.end()) slots_[s] = it->second;
  }
}

bool RawClosedForm::recover(const CollapsedEval& ev, i64 pc, std::span<i64> idx) {
  const int c = ev.depth();
  slots_.back() = pc;
  for (int k = 0; k + 1 < c; ++k) {
    const CompiledExpr& ce = roots_[static_cast<size_t>(k)];
    if (ce.empty()) return false;
    const cld z = ce.eval(slots_);
    if (!std::isfinite(z.real()) || !std::isfinite(z.imag())) return false;
    const i64 x = static_cast<i64>(std::floor(z.real() + 1e-9L));
    slots_[static_cast<size_t>(k)] = x;
    idx[static_cast<size_t>(k)] = x;
  }
  const i64 lb = ev.lower_bound(c - 1, idx);
  idx[static_cast<size_t>(c - 1)] = lb;
  idx[static_cast<size_t>(c - 1)] = lb + (pc - ev.rank(idx));
  return true;
}

ValidationReport validate_collapsed(const Collapsed& col, const ParamMap& params,
                                    const ValidateOptions& opts) {
  ValidationReport rep;
  const CollapsedEval ev = col.bind(params);
  const int c = ev.depth();

  // Compiled only when asked for: the roots go through CompiledExpr.
  std::optional<RawClosedForm> raw;
  if (opts.check_closed_raw) raw.emplace(col, params);

  std::vector<i64> odo(static_cast<size_t>(c));
  bool odo_alive = true;
  ev.first(odo);

  i64 pos = 0;
  auto fail = [&](const std::string& what) {
    ++rep.mismatches;
    rep.ok = false;
    if (rep.first_error.empty()) rep.first_error = what;
  };

  walk_domain(col.nest(), params, [&](std::span<const i64> point) {
    if (opts.max_points >= 0 && pos >= opts.max_points) return;
    ++pos;
    ++rep.points_checked;

    if (opts.check_rank) {
      try {
        const i64 r = ev.rank(point);
        if (r != pos)
          fail("rank" + tuple_str(point) + " = " + std::to_string(r) + ", expected " +
               std::to_string(pos));
      } catch (const Error& e) {
        fail("rank threw at pc=" + std::to_string(pos) + ": " + e.what());
      }
    }

    std::vector<i64> got(static_cast<size_t>(c));
    auto check_tuple = [&](const char* name, std::span<const i64> t) {
      for (int k = 0; k < c; ++k) {
        if (t[static_cast<size_t>(k)] != point[static_cast<size_t>(k)]) {
          fail(std::string(name) + " at pc=" + std::to_string(pos) + ": got " +
               tuple_str(t) + ", expected " + tuple_str(point));
          return;
        }
      }
    };

    // A model-violating nest can make recovery *throw* (the exact guards
    // notice the inconsistency); the validator records that as a detected
    // mismatch rather than aborting the sweep.
    auto guarded = [&](const char* name, auto&& fn) {
      try {
        fn();
      } catch (const Error& e) {
        fail(std::string(name) + " threw at pc=" + std::to_string(pos) + ": " + e.what());
      }
    };

    if (opts.check_recover) {
      guarded("recover", [&] {
        ev.recover(pos, got);
        check_tuple("recover", got);
      });
    }
    if (opts.check_recover_search) {
      guarded("recover_search", [&] {
        ev.recover_search(pos, got);
        check_tuple("recover_search", got);
      });
    }
    if (opts.check_closed_raw) {
      guarded("recover_closed_raw", [&] {
        if (raw->recover(ev, pos, got)) {
          check_tuple("recover_closed_raw", got);
        } else {
          fail("recover_closed_raw unavailable/non-finite at pc=" + std::to_string(pos));
        }
      });
    }
    if (opts.check_increment) {
      if (!odo_alive) {
        fail("odometer ended before the walk did, at pc=" + std::to_string(pos));
      } else {
        check_tuple("increment", odo);
        guarded("increment", [&] { odo_alive = ev.increment(odo); });
      }
    }
  });

  if (opts.check_increment && odo_alive && (opts.max_points < 0) && rep.ok)
    fail("odometer did not end with the walk");

  if (opts.check_rank && opts.max_points < 0 && pos != ev.trip_count())
    fail("trip_count() = " + std::to_string(ev.trip_count()) + " but the walk visited " +
         std::to_string(pos) + " points");

  return rep;
}

}  // namespace nrc
