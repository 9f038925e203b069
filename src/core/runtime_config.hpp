#pragma once
// Process-wide runtime configuration.
//
// The engine toggles live in one struct: the lane trig switch (read by
// the Cardano/Ferrari lane solvers) and the guard policy bind()
// installs.  bind() consults it exactly once: the evaluator it returns
// starts from these defaults, and CollapsedEval::set_f64_guards()
// remains available to diverge a single evaluator afterwards (tests,
// ablations).
//
// The config is intentionally a plain struct behind a function-local
// static — not thread-safe to mutate.  Flip it only around
// single-threaded sections, or use ScopedRuntimeConfig, whose
// constructor/destructor pair keeps test overrides exception-safe and
// impossible to leak into the next test.

namespace nrc {

struct RuntimeConfig {
  /// Polynomial lane trig (vcos/vatan2/vcbrt) in the Cardano/Ferrari
  /// lane solvers; false routes every lane through per-lane libm (the
  /// exact-equivalence reference path).
  bool vector_trig = true;
  /// Default guard policy bind() installs: proven-exact f64 guard fast
  /// paths where the slot-magnitude proof holds.  false forces the
  /// checked-__int128 reference arithmetic everywhere.
  bool f64_guards = true;
};

/// The mutable process-global configuration consulted by bind() and the
/// lane trig dispatch.  Not thread-safe to mutate; see the header
/// comment.
inline RuntimeConfig& runtime_config() {
  static RuntimeConfig cfg;
  return cfg;
}

/// RAII override for tests/ablations: installs `next` on construction
/// and restores the previous configuration on destruction, so an
/// ASSERT/throw inside the scope cannot leak the override.
class ScopedRuntimeConfig {
 public:
  /// Save the current configuration without changing it — mutate
  /// runtime_config() freely inside the scope.
  ScopedRuntimeConfig() : saved_(runtime_config()) {}
  explicit ScopedRuntimeConfig(const RuntimeConfig& next) : saved_(runtime_config()) {
    runtime_config() = next;
  }
  ~ScopedRuntimeConfig() { runtime_config() = saved_; }
  ScopedRuntimeConfig(const ScopedRuntimeConfig&) = delete;
  ScopedRuntimeConfig& operator=(const ScopedRuntimeConfig&) = delete;

 private:
  RuntimeConfig saved_;
};

}  // namespace nrc
