#include "core/schedule.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/completeness.h"
#include "util/random.h"

namespace pullmon {
namespace {

TEST(BudgetVectorTest, UniformBudget) {
  BudgetVector b = BudgetVector::Uniform(2, 10);
  EXPECT_EQ(b.at(0), 2);
  EXPECT_EQ(b.at(9), 2);
  EXPECT_EQ(b.at(10), 0);
  EXPECT_EQ(b.at(-1), 0);
  EXPECT_EQ(b.max(), 2);
  EXPECT_EQ(b.Total(), 20);
  EXPECT_EQ(b.epoch_length(), 10);
}

TEST(BudgetVectorTest, PerChrononBudget) {
  BudgetVector b = BudgetVector::FromVector({1, 0, 3});
  EXPECT_EQ(b.at(0), 1);
  EXPECT_EQ(b.at(1), 0);
  EXPECT_EQ(b.at(2), 3);
  EXPECT_EQ(b.max(), 3);
  EXPECT_EQ(b.Total(), 4);
  EXPECT_EQ(b.epoch_length(), 3);
}

TEST(ScheduleTest, AddAndQueryProbes) {
  Schedule s(10);
  EXPECT_TRUE(s.AddProbe(3, 5).ok());
  EXPECT_TRUE(s.HasProbe(3, 5));
  EXPECT_FALSE(s.HasProbe(3, 4));
  EXPECT_FALSE(s.HasProbe(2, 5));
  EXPECT_EQ(s.TotalProbes(), 1u);
}

TEST(ScheduleTest, DuplicateProbesAreIdempotent) {
  Schedule s(10);
  EXPECT_TRUE(s.AddProbe(1, 1).ok());
  EXPECT_TRUE(s.AddProbe(1, 1).ok());
  EXPECT_EQ(s.TotalProbes(), 1u);
}

TEST(ScheduleTest, ProbesAtIsSorted) {
  Schedule s(10);
  ASSERT_TRUE(s.AddProbe(5, 2).ok());
  ASSERT_TRUE(s.AddProbe(1, 2).ok());
  ASSERT_TRUE(s.AddProbe(3, 2).ok());
  EXPECT_EQ(s.ProbesAt(2), (std::vector<ResourceId>{1, 3, 5}));
  EXPECT_TRUE(s.ProbesAt(0).empty());
  EXPECT_TRUE(s.ProbesAt(99).empty());
}

TEST(ScheduleTest, RejectsOutOfEpochAndNegativeResource) {
  Schedule s(10);
  EXPECT_EQ(s.AddProbe(0, 10).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.AddProbe(0, -1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.AddProbe(-2, 0).code(), StatusCode::kInvalidArgument);
}

TEST(ScheduleTest, SatisfiesBudget) {
  Schedule s(5);
  ASSERT_TRUE(s.AddProbe(0, 0).ok());
  ASSERT_TRUE(s.AddProbe(1, 0).ok());
  EXPECT_TRUE(s.SatisfiesBudget(BudgetVector::Uniform(2, 5)));
  EXPECT_FALSE(s.SatisfiesBudget(BudgetVector::Uniform(1, 5)));
  EXPECT_TRUE(s.SatisfiesBudget(BudgetVector::FromVector({2, 0, 0, 0, 0})));
}

TEST(ScheduleTest, ToStringShowsNonEmptyChronons) {
  Schedule s(5);
  ASSERT_TRUE(s.AddProbe(2, 1).ok());
  ASSERT_TRUE(s.AddProbe(0, 1).ok());
  EXPECT_EQ(s.ToString(), "t=1: r0 r2\n");
}

// The per-resource probe index against the per-chronon definition of
// Section 3.2, kept here as the oracle: an EI is captured iff some
// chronon in [start, finish] probes its resource, and a t-interval iff
// at least required() of its EIs are.
bool OracleEiCaptured(const ExecutionInterval& ei, const Schedule& s) {
  for (Chronon t = ei.start; t <= ei.finish; ++t) {
    if (s.HasProbe(ei.resource, t)) return true;
  }
  return false;
}

bool OracleCaptured(const TInterval& eta, const Schedule& s) {
  if (eta.empty()) return false;
  std::size_t captured = 0;
  for (const auto& ei : eta.eis()) captured += OracleEiCaptured(ei, s);
  return captured >= eta.required();
}

TEST(ScheduleIndexPropertyTest, MatchesPerChrononDefinition) {
  constexpr int kResources = 7;
  constexpr Chronon kEpoch = 30;
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed * 131 + 7);
    Schedule schedule(kEpoch);
    std::set<std::pair<ResourceId, Chronon>> oracle;
    // Out-of-order and duplicate probes, as the offline solvers add
    // them; chronons 0 and K-1 are drawn often.
    const int probes = static_cast<int>(rng.NextInt(0, 60));
    for (int i = 0; i < probes; ++i) {
      const ResourceId r =
          static_cast<ResourceId>(rng.NextInt(0, kResources - 1));
      Chronon t = static_cast<Chronon>(rng.NextInt(0, kEpoch - 1));
      if (rng.NextBool(0.15)) t = rng.NextBool() ? 0 : kEpoch - 1;
      ASSERT_TRUE(schedule.AddProbe(r, t).ok());
      oracle.insert({r, t});
      if (rng.NextBool(0.2)) {
        ASSERT_TRUE(schedule.AddProbe(r, t).ok());  // duplicate
      }
    }
    ASSERT_EQ(schedule.TotalProbes(), oracle.size());
    for (ResourceId r = -1; r <= kResources; ++r) {
      std::vector<Chronon> expected;
      for (const auto& [pr, pt] : oracle) {
        if (pr == r) expected.push_back(pt);
      }
      EXPECT_EQ(schedule.ProbeChrononsOf(r), expected) << "resource " << r;
    }
    std::vector<Profile> profiles(3);
    std::size_t oracle_captured = 0;
    for (int k = 0; k < 40; ++k) {
      TInterval eta;
      const int rank = static_cast<int>(rng.NextInt(1, 4));
      for (int i = 0; i < rank; ++i) {
        Chronon start = static_cast<Chronon>(rng.NextInt(0, kEpoch - 1));
        Chronon finish = static_cast<Chronon>(rng.NextInt(start, kEpoch - 1));
        if (rng.NextBool(0.2)) start = 0;
        if (rng.NextBool(0.2)) finish = kEpoch - 1;
        ExecutionInterval ei(
            static_cast<ResourceId>(rng.NextInt(0, kResources - 1)), start,
            finish);
        EXPECT_EQ(IsCaptured(ei, schedule), OracleEiCaptured(ei, schedule))
            << "seed " << seed << " EI " << ei.resource << ":[" << start
            << "," << finish << "]";
        EXPECT_EQ(schedule.HasProbeWithin(ei.resource, start, finish),
                  OracleEiCaptured(ei, schedule));
        eta.AddEi(ei);
      }
      if (eta.size() >= 2 && rng.NextBool(0.5)) {
        eta.set_required(static_cast<std::size_t>(
            rng.NextInt(1, static_cast<int64_t>(eta.size()) - 1)));
      }
      const bool expected = OracleCaptured(eta, schedule);
      EXPECT_EQ(IsCaptured(eta, schedule), expected) << "seed " << seed;
      oracle_captured += expected;
      profiles[static_cast<std::size_t>(k % 3)].AddTInterval(std::move(eta));
    }
    EXPECT_EQ(EvaluateCompleteness(profiles, schedule).captured_t_intervals,
              oracle_captured)
        << "seed " << seed;
  }
}

TEST(ScheduleIndexPropertyTest, EmptyWindowAndUnknownResource) {
  Schedule schedule(5);
  ASSERT_TRUE(schedule.AddProbe(2, 3).ok());
  EXPECT_TRUE(schedule.HasProbeWithin(2, 3, 3));
  EXPECT_FALSE(schedule.HasProbeWithin(2, 4, 2));  // first > last
  EXPECT_FALSE(schedule.HasProbeWithin(2, 0, 2));
  EXPECT_FALSE(schedule.HasProbeWithin(9, 0, 4));
  EXPECT_FALSE(schedule.HasProbeWithin(-1, 0, 4));
  EXPECT_TRUE(schedule.ProbeChrononsOf(0).empty());
}

}  // namespace
}  // namespace pullmon
