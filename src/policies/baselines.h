#ifndef PULLMON_POLICIES_BASELINES_H_
#define PULLMON_POLICIES_BASELINES_H_

#include <string>

#include "core/policy.h"
#include "util/random.h"

namespace pullmon {

/// Values every candidate by an independent uniform draw: a pure control
/// baseline (not in the paper's classification) that quantifies how much
/// of the heuristics' completeness is informed rather than incidental.
///
/// The draw is a stateless keyed hash of (seed, candidate identity,
/// chronon) rather than a shared stream: the score of a candidate
/// depends only on the Score() arguments, never on how many candidates
/// were scored before it. This keeps the policy a pure function — the
/// requirement every policy must meet for the indexed and reference
/// executors to be decision-identical (they enumerate candidates in
/// different orders).
class RandomPolicy : public Policy {
 public:
  explicit RandomPolicy(uint64_t seed = 42) : seed_(seed) {}

  std::string name() const override { return "Random"; }
  PolicyLevel level() const override { return PolicyLevel::kBaseline; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;

 private:
  uint64_t seed_;
};

/// First-Come-First-Served: prefers the EI that became active earliest
/// (ties by the executor's deterministic ordering). Models a naive proxy
/// that serves monitoring requests in arrival order.
class FcfsPolicy : public Policy {
 public:
  std::string name() const override { return "FCFS"; }
  PolicyLevel level() const override { return PolicyLevel::kBaseline; }
  bool ScoreIgnoresNow() const override { return true; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;
};

/// Static round-robin over resources: probes resources cyclically with no
/// regard to EI structure; the weakest informed baseline.
class RoundRobinPolicy : public Policy {
 public:
  explicit RoundRobinPolicy(int num_resources)
      : num_resources_(num_resources) {}

  std::string name() const override { return "RoundRobin"; }
  PolicyLevel level() const override { return PolicyLevel::kBaseline; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;

 private:
  int num_resources_;
};

}  // namespace pullmon

#endif  // PULLMON_POLICIES_BASELINES_H_
