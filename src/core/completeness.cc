#include "core/completeness.h"

namespace pullmon {

bool IsCaptured(const ExecutionInterval& ei, const Schedule& schedule) {
  return schedule.HasProbeWithin(ei.resource, ei.start, ei.finish);
}

bool IsCaptured(const TInterval& eta, const Schedule& schedule) {
  if (eta.empty()) return false;
  std::size_t captured = 0;
  const std::size_t required = eta.required();
  std::size_t unseen = eta.size();
  for (const auto& ei : eta.eis()) {
    --unseen;
    if (IsCaptured(ei, schedule)) {
      if (++captured >= required) return true;
    } else if (captured + unseen < required) {
      return false;  // too few EIs left to reach `required`
    }
  }
  return false;
}

CompletenessReport EvaluateCompleteness(const std::vector<Profile>& profiles,
                                        const Schedule& schedule) {
  CompletenessReport report;
  report.per_profile.reserve(profiles.size());
  for (const auto& p : profiles) {
    ProfileCompleteness pc;
    pc.total = p.size();
    for (const auto& eta : p.t_intervals()) {
      report.total_weight += eta.weight();
      if (IsCaptured(eta, schedule)) {
        ++pc.captured;
        report.captured_weight += eta.weight();
      }
    }
    report.captured_t_intervals += pc.captured;
    report.total_t_intervals += pc.total;
    report.per_profile.push_back(pc);
  }
  return report;
}

double GainedCompleteness(const std::vector<Profile>& profiles,
                          const Schedule& schedule) {
  return EvaluateCompleteness(profiles, schedule).GainedCompleteness();
}

}  // namespace pullmon
