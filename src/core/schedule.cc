#include "core/schedule.h"

#include <algorithm>

#include "util/string_util.h"

namespace pullmon {

const std::vector<ResourceId> Schedule::kEmpty = {};
const std::vector<Chronon> Schedule::kNoChronons = {};

BudgetVector BudgetVector::Uniform(int c, Chronon epoch_length) {
  BudgetVector b;
  b.uniform_ = true;
  b.uniform_value_ = c;
  b.max_ = c;
  b.epoch_length_ = epoch_length;
  return b;
}

BudgetVector BudgetVector::FromVector(std::vector<int> budgets) {
  BudgetVector b;
  b.uniform_ = false;
  b.epoch_length_ = static_cast<Chronon>(budgets.size());
  b.max_ = 0;
  for (int v : budgets) b.max_ = std::max(b.max_, v);
  b.values_ = std::move(budgets);
  return b;
}

int BudgetVector::at(Chronon t) const {
  if (t < 0 || t >= epoch_length_) return 0;
  return uniform_ ? uniform_value_ : values_[static_cast<std::size_t>(t)];
}

long long BudgetVector::Total() const {
  if (uniform_) {
    return static_cast<long long>(uniform_value_) * epoch_length_;
  }
  long long total = 0;
  for (int v : values_) total += v;
  return total;
}

Schedule::Schedule(Chronon epoch_length)
    : epoch_length_(epoch_length),
      probes_by_chronon_(static_cast<std::size_t>(
          epoch_length < 0 ? 0 : epoch_length)) {}

Status Schedule::AddProbe(ResourceId resource, Chronon t) {
  if (resource < 0) {
    return Status::InvalidArgument("negative resource id in probe");
  }
  if (t < 0 || t >= epoch_length_) {
    return Status::OutOfRange(
        StringFormat("probe chronon %d outside epoch [0,%d)", t,
                     epoch_length_));
  }
  auto& probes = probes_by_chronon_[static_cast<std::size_t>(t)];
  auto it = std::lower_bound(probes.begin(), probes.end(), resource);
  if (it != probes.end() && *it == resource) return Status::OK();
  probes.insert(it, resource);
  ++total_probes_;
  if (static_cast<std::size_t>(resource) >= chronons_by_resource_.size()) {
    chronons_by_resource_.resize(static_cast<std::size_t>(resource) + 1);
  }
  // Online executors probe in chronon order (an append); the offline
  // solvers may add out of order.
  auto& chronons = chronons_by_resource_[static_cast<std::size_t>(resource)];
  chronons.insert(std::upper_bound(chronons.begin(), chronons.end(), t), t);
  return Status::OK();
}

bool Schedule::HasProbe(ResourceId resource, Chronon t) const {
  if (t < 0 || t >= epoch_length_) return false;
  const auto& probes = probes_by_chronon_[static_cast<std::size_t>(t)];
  return std::binary_search(probes.begin(), probes.end(), resource);
}

bool Schedule::HasProbeWithin(ResourceId resource, Chronon first,
                              Chronon last) const {
  const auto& chronons = ProbeChrononsOf(resource);
  auto it = std::lower_bound(chronons.begin(), chronons.end(), first);
  return it != chronons.end() && *it <= last;
}

const std::vector<Chronon>& Schedule::ProbeChrononsOf(
    ResourceId resource) const {
  if (resource < 0 ||
      static_cast<std::size_t>(resource) >= chronons_by_resource_.size()) {
    return kNoChronons;
  }
  return chronons_by_resource_[static_cast<std::size_t>(resource)];
}

const std::vector<ResourceId>& Schedule::ProbesAt(Chronon t) const {
  if (t < 0 || t >= epoch_length_) return kEmpty;
  return probes_by_chronon_[static_cast<std::size_t>(t)];
}

bool Schedule::SatisfiesBudget(const BudgetVector& budget) const {
  for (Chronon t = 0; t < epoch_length_; ++t) {
    if (static_cast<int>(probes_by_chronon_[static_cast<std::size_t>(t)]
                             .size()) > budget.at(t)) {
      return false;
    }
  }
  return true;
}

std::string Schedule::ToString() const {
  std::string out;
  for (Chronon t = 0; t < epoch_length_; ++t) {
    const auto& probes = probes_by_chronon_[static_cast<std::size_t>(t)];
    if (probes.empty()) continue;
    out += StringFormat("t=%d:", t);
    for (ResourceId r : probes) out += StringFormat(" r%d", r);
    out += "\n";
  }
  return out;
}

}  // namespace pullmon
