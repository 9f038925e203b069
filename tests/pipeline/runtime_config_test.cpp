// nrc::RuntimeConfig: the process-global engine toggles, the scoped
// override guard, the legacy simd:: forwarders, and the contract that
// Collapsed::bind() applies the CURRENT config even when the bind is
// served from the memo.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "core/collapse.hpp"
#include "core/runtime_config.hpp"
#include "runtime/simd_abi.hpp"

namespace nrc {
namespace {

TEST(RuntimeConfig, DefaultsMatchTheHistoricalToggles) {
  const RuntimeConfig def;
  EXPECT_TRUE(def.vector_trig);
  EXPECT_TRUE(def.f64_guards);
}

TEST(RuntimeConfig, ScopedOverrideRestoresOnExit) {
  const RuntimeConfig before = runtime_config();
  {
    ScopedRuntimeConfig scope;
    runtime_config().f64_guards = false;
    runtime_config().vector_trig = false;
    EXPECT_FALSE(runtime_config().f64_guards);
  }
  EXPECT_EQ(runtime_config().f64_guards, before.f64_guards);
  EXPECT_EQ(runtime_config().vector_trig, before.vector_trig);
}

TEST(RuntimeConfig, LegacySimdForwardersShareTheConfigField) {
  ScopedRuntimeConfig scope;
  simd::set_vector_trig(false);
  EXPECT_FALSE(runtime_config().vector_trig);
  EXPECT_FALSE(simd::vector_trig_enabled());
  runtime_config().vector_trig = true;
  EXPECT_TRUE(simd::vector_trig_enabled());
}

TEST(RuntimeConfig, BindAppliesTheConfigToTheReturnedEval) {
  const Collapsed col = collapse(testutil::simplex_4d());
  {
    ScopedRuntimeConfig scope;
    runtime_config().f64_guards = false;
    const CollapsedEval ev = col.bind({{"N", 12}});
    EXPECT_FALSE(ev.f64_guards());
  }
  const CollapsedEval ev = col.bind({{"N", 12}});
  EXPECT_TRUE(ev.f64_guards());
}

TEST(RuntimeConfig, MemoizedRebindHonorsTheCurrentConfig) {
  // The memo stores the PRISTINE eval; the config is applied to the
  // returned copy — so flipping f64_guards between two binds of the
  // same parameters changes the guard policy even on a memo hit.
  const Collapsed col = collapse(testutil::simplex_4d());
  const CollapsedEval plain = col.bind({{"N", 12}});
  EXPECT_TRUE(plain.f64_guards());

  ScopedRuntimeConfig scope;
  runtime_config().f64_guards = false;
  const size_t reuses_before = col.bind_reuses();
  const CollapsedEval checked = col.bind({{"N", 12}});
  EXPECT_GT(col.bind_reuses(), reuses_before);  // served from the memo
  EXPECT_FALSE(checked.f64_guards());

  // And both guard policies recover the same tuples.
  ASSERT_EQ(plain.trip_count(), checked.trip_count());
  i64 a[8], b[8];
  const size_t d = static_cast<size_t>(plain.depth());
  for (i64 pc = 1; pc <= plain.trip_count(); pc += 7) {
    plain.recover(pc, {a, d});
    checked.recover(pc, {b, d});
    for (size_t k = 0; k < d; ++k) ASSERT_EQ(a[k], b[k]) << "pc=" << pc;
  }
}

}  // namespace
}  // namespace nrc
