#ifndef PULLMON_CORE_SCHEDULE_H_
#define PULLMON_CORE_SCHEDULE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/chronon.h"
#include "util/status.h"

namespace pullmon {

/// The per-chronon probe budget C = (C_1, ..., C_K) (Section 3.3). Most
/// experiments use a uniform budget; a fully general per-chronon vector is
/// also supported.
class BudgetVector {
 public:
  /// Uniform budget c (>= 0) over an epoch of length `epoch_length`.
  static BudgetVector Uniform(int c, Chronon epoch_length);

  /// Arbitrary per-chronon budgets; the epoch length is the vector size.
  static BudgetVector FromVector(std::vector<int> budgets);

  /// Budget at chronon t; 0 outside the epoch.
  int at(Chronon t) const;

  /// C_max = max_j C_j.
  int max() const { return max_; }

  Chronon epoch_length() const { return epoch_length_; }

  /// Sum of budgets over the epoch (total probes available).
  long long Total() const;

 private:
  BudgetVector() = default;

  bool uniform_ = true;
  int uniform_value_ = 0;
  int max_ = 0;
  Chronon epoch_length_ = 0;
  std::vector<int> values_;  // used when !uniform_
};

/// A data delivery schedule S: the set of (resource, chronon) probes the
/// proxy performs (Section 3.2). Stored sparsely, twice: per-chronon
/// sorted resource lists and per-resource sorted chronon lists, so
/// "was r probed anywhere in [a, b]" is one binary search.
class Schedule {
 public:
  /// An empty schedule over an epoch of `epoch_length` chronons.
  explicit Schedule(Chronon epoch_length);

  Chronon epoch_length() const { return epoch_length_; }

  /// Records a probe of `resource` at chronon `t`. Duplicate probes are
  /// idempotent (the schedule matrix is 0/1). OutOfRange if t is outside
  /// the epoch, InvalidArgument on a negative resource.
  Status AddProbe(ResourceId resource, Chronon t);

  /// s_{i,j} == 1?
  bool HasProbe(ResourceId resource, Chronon t) const;

  /// True iff `resource` is probed at some chronon in [first, last].
  /// O(log probes of the resource).
  bool HasProbeWithin(ResourceId resource, Chronon first,
                      Chronon last) const;

  /// Sorted chronons at which `resource` is probed (empty when never).
  const std::vector<Chronon>& ProbeChrononsOf(ResourceId resource) const;

  /// Sorted resources probed at chronon t (empty outside the epoch).
  const std::vector<ResourceId>& ProbesAt(Chronon t) const;

  /// Total number of distinct (resource, chronon) probes.
  std::size_t TotalProbes() const { return total_probes_; }

  /// True if every chronon respects its budget C_j.
  bool SatisfiesBudget(const BudgetVector& budget) const;

  /// Multi-line "t=3: r0 r4" rendering of the non-empty chronons.
  std::string ToString() const;

 private:
  Chronon epoch_length_;
  std::size_t total_probes_ = 0;
  std::vector<std::vector<ResourceId>> probes_by_chronon_;
  /// Grown on demand to the largest probed resource id + 1.
  std::vector<std::vector<Chronon>> chronons_by_resource_;
  static const std::vector<ResourceId> kEmpty;
  static const std::vector<Chronon> kNoChronons;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_SCHEDULE_H_
