#ifndef PULLMON_POLICIES_MRSF_H_
#define PULLMON_POLICIES_MRSF_H_

#include <string>

#include "core/policy.h"

namespace pullmon {

/// Minimal Residual Stub First (Section 4.2.2, rank level): prefers EIs
/// whose parent t-interval has the fewest EIs left to capture,
///
///   MRSF(I) = rank(p) - #captured EIs of eta,
///
/// the intuition being that a t-interval with a smaller residual stub has
/// a higher probability of being fully captured. Proposition 4: without
/// intra-resource overlap and rank(P) = k, MRSF is k-competitive.
class MrsfPolicy : public Policy {
 public:
  std::string name() const override { return "MRSF"; }
  PolicyLevel level() const override { return PolicyLevel::kRank; }
  bool ScoreIgnoresNow() const override { return true; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;

  /// The raw MRSF value of a t-interval (for tests on Example 1).
  static double Value(const TIntervalRuntime& parent);
};

}  // namespace pullmon

#endif  // PULLMON_POLICIES_MRSF_H_
