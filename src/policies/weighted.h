#ifndef PULLMON_POLICIES_WEIGHTED_H_
#define PULLMON_POLICIES_WEIGHTED_H_

#include <string>

#include "core/policy.h"

namespace pullmon {

/// Utility-aware MRSF — the "prioritized policies" the paper's future
/// work (Section 6) calls for: the residual stub is discounted by the
/// client utility of the parent t-interval, so a high-utility t-interval
/// outranks an equally complete low-utility one.
///
///   U-MRSF(I) = (rank(p) - #captured) / weight(eta)
class UtilityMrsfPolicy : public Policy {
 public:
  std::string name() const override { return "U-MRSF"; }
  PolicyLevel level() const override { return PolicyLevel::kRank; }
  bool ScoreIgnoresNow() const override { return true; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;
};

/// Utility-aware EDF: remaining chronons discounted by utility,
///   U-EDF(I, T) = (I.T_f - T) / weight(eta).
class UtilityEdfPolicy : public Policy {
 public:
  std::string name() const override { return "U-EDF"; }
  PolicyLevel level() const override { return PolicyLevel::kSingleEi; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;
};

/// Largest Residual Stub First — the deliberate inversion of MRSF, kept
/// as an ablation control: if MRSF's intuition (near-complete t-intervals
/// first) is right, LRSF must underperform it.
class LrsfPolicy : public Policy {
 public:
  std::string name() const override { return "LRSF"; }
  PolicyLevel level() const override { return PolicyLevel::kRank; }
  bool ScoreIgnoresNow() const override { return true; }

  double Score(const ExecutionInterval& ei, const TIntervalRuntime& parent,
               int ei_index, Chronon now) override;
};

}  // namespace pullmon

#endif  // PULLMON_POLICIES_WEIGHTED_H_
