#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/resource_health.h"
#include "policies/baselines.h"
#include "policies/health_aware.h"
#include "policies/m_edf.h"
#include "policies/mrsf.h"
#include "policies/policy_factory.h"
#include "policies/s_edf.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Builds the candidate t-interval of the paper's Example 1 (Figure 2):
/// four EIs, two captured, one active at T = 3, one not yet active.
struct Example1 {
  TInterval eta{{
      ExecutionInterval(0, 0, 2),   // captured
      ExecutionInterval(1, 1, 5),   // captured
      ExecutionInterval(2, 3, 6),   // active at T=3
      ExecutionInterval(0, 8, 11),  // future
  }};
  TIntervalRuntime runtime;

  Example1() {
    runtime.profile = 0;
    runtime.profile_rank = 4;
    runtime.source = &eta;
    runtime.ei_captured = {1, 1, 0, 0};
    runtime.num_captured = 2;
  }
};

TEST(SEdfPolicyTest, ValueIsRemainingChronons) {
  Example1 ex;
  SEdfPolicy policy;
  // Active EI r2:[3,6] at T=3: 6 - 3 = 3 chronons remain.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 3.0);
  // At T=6 (deadline): 0 remains.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 6), 0.0);
}

TEST(SEdfPolicyTest, InactiveEiEvaluatedAtTZero) {
  Example1 ex;
  // Not-yet-active EI r0:[8,11] "with T = 0": value 11.
  EXPECT_DOUBLE_EQ(SingleEdfValue(ex.eta.eis()[3], 3), 11.0);
}

TEST(MEdfPolicyTest, SumsUncapturedSiblings) {
  Example1 ex;
  MEdfPolicy policy;
  // Uncaptured: active r2:[3,6] -> 3, future r0:[8,11] -> 11. Total 14.
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 14.0);
  EXPECT_DOUBLE_EQ(MEdfPolicy::Value(ex.runtime, 3), 14.0);
}

TEST(MEdfPolicyTest, CapturedSiblingsExcluded) {
  Example1 ex;
  ex.runtime.ei_captured = {1, 1, 1, 0};
  ex.runtime.num_captured = 3;
  EXPECT_DOUBLE_EQ(MEdfPolicy::Value(ex.runtime, 3), 11.0);
}

TEST(MrsfPolicyTest, ValueIsRankMinusCaptured) {
  Example1 ex;
  MrsfPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3), 2.0);
  EXPECT_DOUBLE_EQ(MrsfPolicy::Value(ex.runtime), 2.0);
}

TEST(MrsfPolicyTest, UsesProfileRankNotTIntervalSize) {
  // A 1-EI t-interval inside a rank-3 profile has residual 3, not 1 —
  // the formula of Section 4.2.2 uses rank(p).
  TInterval eta{{ExecutionInterval(0, 0, 4)}};
  TIntervalRuntime runtime;
  runtime.profile_rank = 3;
  runtime.source = &eta;
  runtime.ei_captured = {0};
  runtime.num_captured = 0;
  MrsfPolicy policy;
  EXPECT_DOUBLE_EQ(policy.Score(eta.eis()[0], runtime, 0, 0), 3.0);
}

TEST(PolicyLevelsTest, ClassificationMatchesPaper) {
  EXPECT_EQ(SEdfPolicy().level(), PolicyLevel::kSingleEi);
  EXPECT_EQ(MrsfPolicy().level(), PolicyLevel::kRank);
  EXPECT_EQ(MEdfPolicy().level(), PolicyLevel::kMultiEi);
  EXPECT_EQ(RandomPolicy().level(), PolicyLevel::kBaseline);
  EXPECT_EQ(FcfsPolicy().level(), PolicyLevel::kBaseline);
}

TEST(PolicyNamesTest, AsPublished) {
  EXPECT_EQ(SEdfPolicy().name(), "S-EDF");
  EXPECT_EQ(MEdfPolicy().name(), "M-EDF");
  EXPECT_EQ(MrsfPolicy().name(), "MRSF");
}

TEST(RandomPolicyTest, ResetRestartsStream) {
  Example1 ex;
  RandomPolicy policy(7);
  std::vector<double> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3));
  }
  policy.Reset();
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(policy.Score(ex.eta.eis()[2], ex.runtime, 2, 3),
                     first[static_cast<std::size_t>(i)]);
  }
}

TEST(FcfsPolicyTest, PrefersEarlierStart) {
  Example1 ex;
  FcfsPolicy policy;
  ExecutionInterval early(0, 1, 9), late(1, 5, 9);
  EXPECT_LT(policy.Score(early, ex.runtime, 0, 6),
            policy.Score(late, ex.runtime, 0, 6));
}

TEST(RoundRobinPolicyTest, CursorRotates) {
  Example1 ex;
  RoundRobinPolicy policy(4);
  ExecutionInterval on_r2(2, 0, 9);
  // At now=2 the cursor sits on resource 2: distance 0.
  EXPECT_DOUBLE_EQ(policy.Score(on_r2, ex.runtime, 0, 2), 0.0);
  // At now=3 the cursor is on 3; distance to 2 is 3 (wraps).
  EXPECT_DOUBLE_EQ(policy.Score(on_r2, ex.runtime, 0, 3), 3.0);
}

TEST(PolicyFactoryTest, KnownNamesConstruct) {
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions options;
    options.num_resources = 4;
    auto policy = MakePolicy(name, options);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_FALSE((*policy)->name().empty());
  }
}

TEST(PolicyFactoryTest, SpellingVariants) {
  EXPECT_TRUE(MakePolicy("S-EDF").ok());
  EXPECT_TRUE(MakePolicy("sedf").ok());
  EXPECT_TRUE(MakePolicy("s_edf").ok());
  EXPECT_TRUE(MakePolicy("MRSF").ok());
}

TEST(PolicyFactoryTest, UnknownNameFails) {
  auto policy = MakePolicy("quantum-oracle");
  ASSERT_FALSE(policy.ok());
  EXPECT_EQ(policy.status().code(), StatusCode::kNotFound);
}

TEST(PolicyLevelToStringTest, AllNamed) {
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kSingleEi), "single-EI");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kRank), "rank");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kMultiEi), "multi-EIs");
  EXPECT_STREQ(PolicyLevelToString(PolicyLevel::kBaseline), "baseline");
}

// Policy contract behind the candidate index's key cache: a policy that
// declares ScoreIgnoresNow() must score a fixed (EI, parent state) the
// same at every chronon and whatever the health tracker has seen. A
// mis-declaring policy would make the cached executors silently diverge
// from the reference path; this catches it at the policy.
TEST(PolicyContractTest, NowIndependentPoliciesIgnoreNowAndHealth) {
  constexpr int kResources = 4;
  constexpr Chronon kEpoch = 40;
  BreakerOptions breaker;
  breaker.enabled = true;
  int declaring = 0;
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions options;
    options.num_resources = kResources;
    auto made = MakePolicy(name, options);
    ASSERT_TRUE(made.ok()) << name;
    Policy& policy = **made;
    if (!policy.ScoreIgnoresNow()) continue;
    ++declaring;
    ResourceHealthTracker health(kResources, breaker);
    policy.Reset();
    policy.AttachHealth(&health);
    Rng rng(0xC0FFEE);
    for (int trial = 0; trial < 200; ++trial) {
      TInterval eta;
      const int rank = static_cast<int>(rng.NextInt(1, 4));
      for (int i = 0; i < rank; ++i) {
        const Chronon start =
            static_cast<Chronon>(rng.NextInt(0, kEpoch - 1));
        const Chronon finish = static_cast<Chronon>(
            rng.NextInt(start, std::min<Chronon>(start + 9, kEpoch - 1)));
        eta.AddEi(ExecutionInterval(
            static_cast<ResourceId>(rng.NextInt(0, kResources - 1)), start,
            finish));
      }
      eta.set_weight(0.25 * static_cast<double>(rng.NextInt(1, 16)));
      TIntervalRuntime runtime;
      runtime.profile = static_cast<ProfileId>(rng.NextInt(0, 3));
      runtime.profile_rank = rank + static_cast<int>(rng.NextInt(0, 2));
      runtime.source = &eta;
      runtime.weight = eta.weight();
      runtime.required = rank;
      runtime.ei_captured.assign(eta.size(), 0);
      for (std::size_t i = 0; i + 1 < eta.size(); ++i) {
        if (rng.NextBool(0.4)) {
          runtime.ei_captured[i] = 1;
          ++runtime.num_captured;
        }
      }
      runtime.selected = runtime.num_captured > 0;
      const int idx = static_cast<int>(eta.size()) - 1;
      const ExecutionInterval& ei = eta.eis()[static_cast<std::size_t>(idx)];
      const double at_start = policy.Score(ei, runtime, idx, ei.start);
      for (Chronon now : {Chronon{0}, ei.start, (ei.start + ei.finish) / 2,
                          ei.finish, kEpoch - 1}) {
        // Health moves between calls; a declaring policy must not see it.
        health.RecordProbe(ei.resource, now, rng.NextBool(0.3));
        health.BeginChronon(now);
        EXPECT_EQ(policy.Score(ei, runtime, idx, now), at_start)
            << name << " trial " << trial << " now " << now;
      }
    }
  }
  EXPECT_GE(declaring, 4);
}

TEST(PolicyContractTest, HealthWrapperNeverDeclaresNowIndependence) {
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions options;
    options.num_resources = 4;
    const std::string wrapped =
        name.rfind("health:", 0) == 0 ? name : "health:" + name;
    auto policy = MakePolicy(wrapped, options);
    ASSERT_TRUE(policy.ok()) << wrapped;
    EXPECT_FALSE((*policy)->ScoreIgnoresNow()) << wrapped;
  }
  HealthAwarePolicy over_mrsf(std::make_unique<MrsfPolicy>());
  EXPECT_TRUE(MrsfPolicy().ScoreIgnoresNow());
  EXPECT_FALSE(over_mrsf.ScoreIgnoresNow());
}

}  // namespace
}  // namespace pullmon
