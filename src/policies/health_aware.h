#ifndef PULLMON_POLICIES_HEALTH_AWARE_H_
#define PULLMON_POLICIES_HEALTH_AWARE_H_

#include <memory>
#include <string>
#include <utility>

#include "core/policy.h"
#include "core/resource_health.h"

namespace pullmon {

/// Expected-gain discount wrapper (DESIGN.md section 10): combines any
/// base policy's score with the health tracker's estimated probe-success
/// probability p of the candidate's resource, so a flaky resource must
/// earn its probe against the expected waste of a failure. Selectable
/// via policy_factory as "health:<base>", e.g. "health:mrsf".
///
/// Scores here are lower-is-better, so the expected-gain form "multiply
/// the gain by p" becomes: divide a non-negative score by p (a flaky
/// resource's candidate looks further from its deadline), and multiply a
/// negative score by p (it looks less valuable). p is floored at
/// kMinSuccess so a fully dark resource degrades smoothly instead of
/// dropping out of the ordering.
///
/// Purity: the transform is a deterministic function of (base score,
/// tracker state), and the tracker evolves identically under both
/// executor backends, so the wrapper preserves decision-identity.
class HealthAwarePolicy : public Policy {
 public:
  /// Floor on the estimated success probability used in the transform.
  static constexpr double kMinSuccess = 0.05;

  explicit HealthAwarePolicy(std::unique_ptr<Policy> base)
      : base_(std::move(base)) {}

  std::string name() const override { return "health:" + base_->name(); }
  PolicyLevel level() const override { return base_->level(); }
  /// Never `now`-independent, whatever the base: the discount reads the
  /// health tracker, which moves every chronon.
  bool ScoreIgnoresNow() const override { return false; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;

  void Reset() override { base_->Reset(); }

  /// Keeps the tracker for its own discount and forwards it, so a base
  /// policy that is itself health-aware still sees it.
  void AttachHealth(const ResourceHealthTracker* health) override {
    health_ = health;
    base_->AttachHealth(health);
  }

  const Policy* base() const { return base_.get(); }

 private:
  std::unique_ptr<Policy> base_;
  const ResourceHealthTracker* health_ = nullptr;
};

}  // namespace pullmon

#endif  // PULLMON_POLICIES_HEALTH_AWARE_H_
