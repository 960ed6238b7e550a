// Key-cache differential suite: the candidate index keeps each
// resource's minimal selection key across chronons for policies that
// declare Policy::ScoreIgnoresNow(), and must stay decision-identical to
// rescoring every live candidate each chronon. Every scenario runs the
// cached policy against a twin that forwards each Score() call to the
// same policy but declares itself `now`-dependent, which forces the
// full-rescan path without any production switch. Covered: every
// cache-eligible policy x P/NP x {clean, faults+retries+breaker} x
// churn streams (submit/cancel/edit/unregister, including cancels that
// lower a profile's rank) x a mid-epoch Capture/Restore, compared step
// by step, plus the static OnlineExecutor path.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidate_index.h"
#include "core/dynamic_monitor.h"
#include "core/online_executor.h"
#include "policies/policy_factory.h"
#include "test_instances.h"
#include "util/random.h"

namespace pullmon {
namespace {

/// Forwards every call to `base` and counts Score() calls, declaring
/// `now`-independence only when told to. With `cache` false it is the
/// rescan twin of the same policy.
class ForwardingPolicy : public Policy {
 public:
  ForwardingPolicy(std::unique_ptr<Policy> base, bool cache)
      : base_(std::move(base)), cache_(cache) {}

  std::string name() const override { return base_->name(); }
  PolicyLevel level() const override { return base_->level(); }
  bool ScoreIgnoresNow() const override {
    return cache_ && base_->ScoreIgnoresNow();
  }
  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override {
    ++calls_;
    return base_->Score(ei, parent, ei_index, now);
  }
  void Reset() override { base_->Reset(); }
  void AttachHealth(const ResourceHealthTracker* health) override {
    base_->AttachHealth(health);
  }

  std::size_t calls() const { return calls_; }

 private:
  std::unique_ptr<Policy> base_;
  bool cache_;
  std::size_t calls_ = 0;
};

/// Test-only `now`-independent policy whose score reads every parent
/// field a stale trigger covers — rank, captures, expiries, selection
/// and utility — so that a missed trigger for any of them shows, even
/// those no shipped policy reads (MRSF ignores expiries).
class ParentStatePolicy : public Policy {
 public:
  static constexpr const char* kName = "parent-state";
  std::string name() const override { return kName; }
  PolicyLevel level() const override { return PolicyLevel::kRank; }
  bool ScoreIgnoresNow() const override { return true; }
  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override {
    (void)ei;
    (void)ei_index;
    (void)now;
    // Captures and expiries both make a parent *more* urgent, so a
    // missed trigger lets a non-best EI undercut the cached key.
    return 7.0 * parent.profile_rank - 3.0 * parent.num_captured -
           30.0 * parent.num_expired + (parent.selected ? 0.5 : 0.0) +
           1.0 / parent.weight;
  }
};

std::unique_ptr<ForwardingPolicy> MakeTwin(const std::string& name,
                                           int num_resources, bool cache) {
  if (name == ParentStatePolicy::kName) {
    return std::make_unique<ForwardingPolicy>(
        std::make_unique<ParentStatePolicy>(), cache);
  }
  PolicyOptions po;
  po.num_resources = num_resources;
  auto base = MakePolicy(name, po);
  PULLMON_CHECK(base.ok());
  return std::make_unique<ForwardingPolicy>(std::move(*base), cache);
}

/// The factory policies that declare `now`-independence — the ones the
/// cache serves. Derived from the factory so a newly declaring policy is
/// covered without editing this file.
std::vector<std::string> CacheEligiblePolicies() {
  std::vector<std::string> names;
  for (const std::string& name : KnownPolicyNames()) {
    PolicyOptions po;
    po.num_resources = 4;
    auto policy = MakePolicy(name, po);
    PULLMON_CHECK(policy.ok());
    if ((*policy)->ScoreIgnoresNow()) names.push_back(name);
  }
  return names;
}

/// The policies every differential below runs: the eligible factory
/// policies plus the test-only parent-state reader.
std::vector<std::string> DifferentialPolicies() {
  std::vector<std::string> names = CacheEligiblePolicies();
  names.push_back(ParentStatePolicy::kName);
  return names;
}

TEST(CandidateKeyCacheTest, EligiblePoliciesAreTheNowFreeOnes) {
  const std::vector<std::string> names = CacheEligiblePolicies();
  EXPECT_EQ(names, (std::vector<std::string>{"mrsf", "u-mrsf", "lrsf",
                                             "fcfs"}));
}

// --- Direct index checks. ------------------------------------------------

TEST(CandidateKeyCacheTest, InvalidateRangeRefreshesAChangedKey) {
  // One resource, three EIs of three parents; the scorer reads a
  // per-flat-id table the test mutates, standing in for parent state.
  CandidateIndex index(1, 10);
  index.set_cache_keys(true);
  for (int t = 0; t < 3; ++t) index.AddEi(ExecutionInterval(0, 0, 9), t, 0);
  std::vector<double> score = {5.0, 3.0, 4.0};
  auto scorer = [&](const IndexedEi& flat) {
    return std::make_pair(0, score[static_cast<std::size_t>(flat.t_id)]);
  };
  std::vector<ResourceCandidate> out;
  index.ActivateArrivals(0, [](int) { return true; });
  EXPECT_EQ(index.CollectResourceCandidates(0, scorer, &out), 3u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flat_id, 1);
  ASSERT_TRUE(index.CheckInvariants(scorer).ok());

  // A parent change nobody reports: the audit must catch the stale key.
  score[0] = 1.0;
  EXPECT_FALSE(index.CheckInvariants(scorer).ok());
  // Reported: the next collection rescans and picks the new best.
  index.InvalidateRange(0, 1);
  ASSERT_TRUE(index.CheckInvariants(scorer).ok());
  EXPECT_EQ(index.CollectResourceCandidates(1, scorer, &out), 3u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flat_id, 0);

  // The cached best dying makes the key stale without any report.
  index.Deactivate(0);
  ASSERT_TRUE(index.CheckInvariants(scorer).ok());
  EXPECT_EQ(index.CollectResourceCandidates(2, scorer, &out), 2u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flat_id, 1);
  ASSERT_TRUE(index.CheckInvariants(scorer).ok());
}

TEST(CandidateKeyCacheTest, FreshResourcesScoreOnlyArrivals) {
  CandidateIndex index(2, 10);
  index.set_cache_keys(true);
  for (int t = 0; t < 4; ++t) index.AddEi(ExecutionInterval(0, 0, 9), t, 0);
  index.AddEi(ExecutionInterval(0, 3, 9), 4, 0);
  auto key = [](const IndexedEi& flat) {
    return std::make_pair(0, static_cast<double>(10 - flat.t_id));
  };
  std::size_t calls = 0;
  auto scorer = [&](const IndexedEi& flat) {
    ++calls;
    return key(flat);
  };
  std::vector<ResourceCandidate> out;
  for (Chronon now = 0; now < 5; ++now) {
    index.ActivateArrivals(now, [](int) { return true; });
    index.CollectResourceCandidates(now, scorer, &out);
    ASSERT_TRUE(index.CheckInvariants(key).ok());
  }
  // Four EIs scored once at chronon 0, the arrival once at chronon 3;
  // the arrival holds the smallest score.
  EXPECT_EQ(calls, 5u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flat_id, 4);
}

// --- Churn differential over DynamicMonitor. ----------------------------

constexpr int kResources = 6;
constexpr Chronon kEpoch = 24;
constexpr int kProfiles = 3;

struct FaultConfig {
  int fail_permille = 0;
  RetryPolicy retry;
  BreakerOptions breaker;
};

FaultConfig Faults(bool faulty) {
  FaultConfig faults;
  if (!faulty) return faults;
  faults.fail_permille = 300;
  faults.retry.max_retries = 2;
  faults.retry.backoff_base = 0.125;
  faults.breaker.enabled = true;
  faults.breaker.failure_threshold = 2;
  faults.breaker.cooldown_base = 2;
  faults.breaker.max_cooldown = 8;
  return faults;
}

bool ProbeFails(uint64_t seed, ResourceId r, Chronon t, int attempt,
                int fail_permille) {
  uint64_t state = seed ^ (static_cast<uint64_t>(r) * 0x9E3779B97F4A7C15ULL) ^
                   (static_cast<uint64_t>(t) << 24) ^
                   (static_cast<uint64_t>(attempt) << 48);
  return SplitMix64(&state) % 1000 < static_cast<uint64_t>(fail_permille);
}

TInterval RandomTInterval(Rng* rng, Chronon earliest, int rank = 0) {
  TInterval eta;
  if (rank == 0) rank = static_cast<int>(rng->NextInt(1, 3));
  // Staggered windows: an alternatives t-interval often loses an early
  // EI to expiry while a later sibling is still live.
  Chronon start = static_cast<Chronon>(
      rng->NextInt(earliest, std::max(earliest, kEpoch - 2)));
  for (int i = 0; i < rank; ++i) {
    ExecutionInterval ei;
    ei.resource = static_cast<ResourceId>(rng->NextInt(0, kResources - 1));
    ei.start = start;
    ei.finish = static_cast<Chronon>(
        rng->NextInt(ei.start, std::min<Chronon>(ei.start + 6, kEpoch - 1)));
    eta.AddEi(ei);
    start = std::min<Chronon>(
        start + static_cast<Chronon>(rng->NextInt(0, 3)), kEpoch - 1);
  }
  eta.set_weight(0.5 + rng->NextDouble());
  if (eta.size() >= 2 && rng->NextBool(0.5)) {
    eta.set_required(static_cast<std::size_t>(
        rng->NextInt(1, static_cast<int64_t>(eta.size()) - 1)));
  }
  return eta;
}

/// One side of the differential: a policy, its monitor, and the probe
/// attempt counters its failure stream keys on.
struct Side {
  std::unique_ptr<ForwardingPolicy> policy;
  std::unique_ptr<DynamicMonitor> monitor;
  std::vector<int> attempts;
  /// Score() calls made by invariant audits, not by selection.
  std::size_t audit_calls = 0;

  Status Audit() {
    const std::size_t before = policy->calls();
    Status audit = monitor->CheckInvariants();
    audit_calls += policy->calls() - before;
    return audit;
  }

  void Build(const FaultConfig& faults, ExecutionMode mode, uint64_t seed) {
    MonitorOptions options;
    options.retry = faults.retry;
    options.breaker = faults.breaker;
    monitor = std::make_unique<DynamicMonitor>(
        kResources, kEpoch, BudgetVector::Uniform(2, kEpoch), policy.get(),
        mode, options);
    attempts.assign(static_cast<std::size_t>(kResources * kEpoch), 0);
    const int fail_permille = faults.fail_permille;
    monitor->set_probe_callback([this, seed, fail_permille](ResourceId r,
                                                            Chronon t) {
      const int attempt =
          attempts[static_cast<std::size_t>(t) * kResources +
                   static_cast<std::size_t>(r)]++;
      return !ProbeFails(seed, r, t, attempt, fail_permille);
    });
  }
};

void ExpectStatsEqual(const MonitorStats& a, const MonitorStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.probes_used, b.probes_used) << label;
  EXPECT_EQ(a.probes_failed, b.probes_failed) << label;
  EXPECT_EQ(a.retries_issued, b.retries_issued) << label;
  EXPECT_EQ(a.retry_probes_spent, b.retry_probes_spent) << label;
  EXPECT_EQ(a.candidates_scored, b.candidates_scored) << label;
  EXPECT_EQ(a.max_concurrent_candidates, b.max_concurrent_candidates)
      << label;
  EXPECT_EQ(a.t_intervals_lost_to_faults, b.t_intervals_lost_to_faults)
      << label;
  EXPECT_EQ(a.submitted, b.submitted) << label;
  EXPECT_EQ(a.cancelled, b.cancelled) << label;
  EXPECT_EQ(a.edited, b.edited) << label;
  EXPECT_EQ(a.unregistered_profiles, b.unregistered_profiles) << label;
  EXPECT_EQ(a.orphaned_probes, b.orphaned_probes) << label;
}

#define ASSERT_SAME_RESULT(cached_expr, twin_expr)                     \
  do {                                                                 \
    auto cached_result = (cached_expr);                                \
    auto twin_result = (twin_expr);                                    \
    ASSERT_EQ(cached_result.ok(), twin_result.ok()) << label;          \
    if (cached_result.ok()) {                                          \
      ASSERT_EQ(cached_result.value(), twin_result.value()) << label;  \
    }                                                                  \
  } while (0)

#define AUDIT(side)                                             \
  do {                                                          \
    Status audit = (side).Audit();                              \
    ASSERT_TRUE(audit.ok()) << label << ": " << audit.ToString(); \
  } while (0)

/// Runs one seeded churn scenario on both sides in lockstep and adds
/// each side's Score() calls to `cached_calls` / `twin_calls`.
void RunChurnScenario(const std::string& name, ExecutionMode mode,
                      bool faulty, uint64_t seed, std::size_t* cached_calls,
                      std::size_t* twin_calls) {
  const std::string label = name + "(" + ExecutionModeToString(mode) +
                            ")" + (faulty ? " faulty" : " clean") +
                            " seed " + std::to_string(seed);
  const FaultConfig faults = Faults(faulty);
  Side cached;
  Side twin;
  cached.policy = MakeTwin(name, kResources, /*cache=*/true);
  twin.policy = MakeTwin(name, kResources, /*cache=*/false);
  cached.Build(faults, mode, seed);
  twin.Build(faults, mode, seed);

  std::vector<ProfileId> profiles;
  for (int p = 0; p < kProfiles; ++p) {
    const std::string client = "client-" + std::to_string(p);
    profiles.push_back(cached.monitor->RegisterProfile(client));
    EXPECT_EQ(twin.monitor->RegisterProfile(client), profiles.back());
  }
  // Rank spikes: a t-interval larger than any other raises its
  // profile's rank on arrival, and cancelling it a few chronons later
  // lowers the rank again. (profile, submission id, cancel chronon).
  struct Spike {
    int profile;
    int submission;
    Chronon cancel_at;
  };
  std::vector<Spike> spikes;

  Rng ops(seed * 0x2545F4914F6CDD1DULL + 29);
  for (Chronon t = 0; t < kEpoch; ++t) {
    [&] {
      if (ops.NextBool(t < kEpoch / 2 ? 0.9 : 0.4)) {
        const int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
        TInterval eta = RandomTInterval(&ops, t);
        ASSERT_SAME_RESULT(cached.monitor->Submit(profiles[p], eta),
                           twin.monitor->Submit(profiles[p], eta));
      }
      if (ops.NextBool(0.2)) {
        const int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
        TInterval eta = RandomTInterval(&ops, t, /*rank=*/4);
        auto a = cached.monitor->Submit(profiles[p], eta);
        auto b = twin.monitor->Submit(profiles[p], eta);
        ASSERT_EQ(a.ok(), b.ok()) << label;
        if (a.ok()) {
          ASSERT_EQ(*a, *b) << label;
          spikes.push_back(
              {p, *a, t + static_cast<Chronon>(ops.NextInt(0, 3))});
        }
      }
      for (const Spike& spike : spikes) {
        if (spike.cancel_at != t) continue;
        ASSERT_EQ(
            cached.monitor->Cancel(profiles[spike.profile], spike.submission)
                .code(),
            twin.monitor->Cancel(profiles[spike.profile], spike.submission)
                .code())
            << label;
      }
      if (ops.NextBool(0.3)) {
        const int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
        const int sub = static_cast<int>(ops.NextInt(0, 6));
        ASSERT_EQ(cached.monitor->Cancel(profiles[p], sub).code(),
                  twin.monitor->Cancel(profiles[p], sub).code())
            << label;
      }
      if (ops.NextBool(0.25)) {
        const int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
        const int sub = static_cast<int>(ops.NextInt(0, 6));
        TInterval replacement = RandomTInterval(&ops, t);
        ASSERT_SAME_RESULT(
            cached.monitor->Edit(profiles[p], sub, replacement),
            twin.monitor->Edit(profiles[p], sub, replacement));
      }
      if (ops.NextBool(0.02)) {
        const int p = static_cast<int>(ops.NextInt(0, kProfiles - 1));
        ASSERT_SAME_RESULT(cached.monitor->Unregister(profiles[p]),
                           twin.monitor->Unregister(profiles[p]));
      }
    }();
    if (::testing::Test::HasFatalFailure()) return;
    AUDIT(cached);
    AUDIT(twin);

    if (t == kEpoch / 2) {
      // Checkpoint both sides mid-epoch and resume on fresh monitors:
      // the cached side restarts with every key stale.
      for (Side* side : {&cached, &twin}) {
        const MonitorImage image = side->monitor->Capture();
        const std::vector<int> attempts = side->attempts;
        side->Build(faults, mode, seed);
        side->attempts = attempts;
        Status restored = side->monitor->Restore(image);
        ASSERT_TRUE(restored.ok()) << label << ": " << restored.ToString();
      }
    }

    auto a = cached.monitor->Step();
    auto b = twin.monitor->Step();
    EXPECT_TRUE(a.ok() && b.ok()) << label;
    if (!a.ok() || !b.ok()) return;
    EXPECT_EQ(a->probed, b->probed) << label << " chronon " << t;
    EXPECT_EQ(a->captured, b->captured) << label << " chronon " << t;
    EXPECT_EQ(a->failed, b->failed) << label << " chronon " << t;
    AUDIT(cached);
    AUDIT(twin);
  }
  ExpectStatsEqual(cached.monitor->stats(), twin.monitor->stats(), label);
  EXPECT_EQ(cached.monitor->t_intervals_completed(),
            twin.monitor->t_intervals_completed())
      << label;
  EXPECT_EQ(cached.monitor->t_intervals_failed(),
            twin.monitor->t_intervals_failed())
      << label;
  const CompletenessReport ca = cached.monitor->Completeness();
  const CompletenessReport cb = twin.monitor->Completeness();
  EXPECT_EQ(ca.captured_t_intervals, cb.captured_t_intervals) << label;
  EXPECT_EQ(ca.total_t_intervals, cb.total_t_intervals) << label;
  EXPECT_DOUBLE_EQ(ca.captured_weight, cb.captured_weight) << label;
  *cached_calls += cached.policy->calls() - cached.audit_calls;
  *twin_calls += twin.policy->calls() - twin.audit_calls;
}

TEST(CandidateKeyCacheTest, ChurnMatchesRescanTwinStepByStep) {
  std::size_t cached_calls = 0;
  std::size_t twin_calls = 0;
  for (const std::string& name : DifferentialPolicies()) {
    for (ExecutionMode mode :
         {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
      for (bool faulty : {false, true}) {
        for (uint64_t seed = 1; seed <= 12; ++seed) {
          RunChurnScenario(name, mode, faulty, seed, &cached_calls,
                           &twin_calls);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // The cache must actually spare work, not just agree.
  EXPECT_LT(cached_calls, twin_calls);
}

// --- Static problems: OnlineExecutor. ------------------------------------

struct StaticOutcome {
  std::vector<std::vector<ResourceId>> probes_by_chronon;
  std::size_t probes_used = 0;
  std::size_t probes_failed = 0;
  std::size_t retries_issued = 0;
  std::size_t candidates_scored = 0;
  std::size_t max_concurrent_candidates = 0;
  std::size_t t_intervals_completed = 0;
  std::size_t t_intervals_failed = 0;
  std::size_t t_intervals_lost_to_faults = 0;
  std::size_t probes_suppressed = 0;
  std::size_t score_calls = 0;

  bool operator==(const StaticOutcome& other) const {
    // Score calls are the one intended difference.
    return probes_by_chronon == other.probes_by_chronon &&
           probes_used == other.probes_used &&
           probes_failed == other.probes_failed &&
           retries_issued == other.retries_issued &&
           candidates_scored == other.candidates_scored &&
           max_concurrent_candidates == other.max_concurrent_candidates &&
           t_intervals_completed == other.t_intervals_completed &&
           t_intervals_failed == other.t_intervals_failed &&
           t_intervals_lost_to_faults == other.t_intervals_lost_to_faults &&
           probes_suppressed == other.probes_suppressed;
  }
};

StaticOutcome RunStatic(const MonitoringProblem& problem,
                        const std::string& name, ExecutionMode mode,
                        bool faulty, bool cache, uint64_t seed) {
  auto policy = MakeTwin(name, problem.num_resources, cache);
  OnlineExecutor executor(&problem, policy.get(), mode);
  const FaultConfig faults = Faults(faulty);
  if (faulty) {
    auto attempts = std::make_shared<std::map<std::pair<int, int>, int>>();
    executor.set_probe_callback([=](ResourceId r, Chronon t) {
      const int attempt = (*attempts)[{r, t}]++;
      return !ProbeFails(seed, r, t, attempt, faults.fail_permille);
    });
    executor.set_retry_policy(faults.retry);
    executor.set_breaker_options(faults.breaker);
  }
  auto run = executor.Run();
  PULLMON_CHECK_OK(run.status());
  StaticOutcome outcome;
  for (Chronon t = 0; t < problem.epoch.length; ++t) {
    outcome.probes_by_chronon.push_back(run->schedule.ProbesAt(t));
  }
  outcome.probes_used = run->probes_used;
  outcome.probes_failed = run->probes_failed;
  outcome.retries_issued = run->retries_issued;
  outcome.candidates_scored = run->candidates_scored;
  outcome.max_concurrent_candidates = run->max_concurrent_candidates;
  outcome.t_intervals_completed = run->t_intervals_completed;
  outcome.t_intervals_failed = run->t_intervals_failed;
  outcome.t_intervals_lost_to_faults = run->t_intervals_lost_to_faults;
  outcome.probes_suppressed = run->probes_suppressed;
  outcome.score_calls = policy->calls();
  return outcome;
}

TEST(CandidateKeyCacheTest, ExecutorsMatchRescanTwin) {
  std::size_t cached_calls = 0;
  std::size_t twin_calls = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed * 977 + 5);
    RandomInstanceOptions options;
    options.num_resources = 8;
    options.epoch_length = 30;
    options.num_t_intervals = 40;
    options.max_rank = 3;
    options.max_width = 8;
    options.budget = 2;
    options.random_weights = true;
    options.random_alternatives = true;
    const MonitoringProblem problem =
        MakeRandomInstance(options, &rng, /*t_intervals_per_profile=*/3);
    for (const std::string& name : DifferentialPolicies()) {
      for (ExecutionMode mode :
           {ExecutionMode::kPreemptive, ExecutionMode::kNonPreemptive}) {
        for (bool faulty : {false, true}) {
          const std::string label = name + "(" +
                                    ExecutionModeToString(mode) + ") " +
                                    (faulty ? "faulty" : "clean") +
                                    " seed " + std::to_string(seed);
          const StaticOutcome cached =
              RunStatic(problem, name, mode, faulty, true, seed);
          const StaticOutcome twin =
              RunStatic(problem, name, mode, faulty, false, seed);
          EXPECT_TRUE(cached == twin) << label;
          cached_calls += cached.score_calls;
          twin_calls += twin.score_calls;
        }
      }
    }
  }
  EXPECT_LT(cached_calls, twin_calls);
}

}  // namespace
}  // namespace pullmon
