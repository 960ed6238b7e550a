#include "sim/churn.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <utility>

#include "core/dynamic_monitor.h"
#include "policies/policy_factory.h"
#include "sim/experiment.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/zipf.h"

namespace pullmon {

Status ChurnOptions::Validate() const {
  if (ops_per_chronon < 0.0) {
    return Status::InvalidArgument("churn ops_per_chronon must be >= 0");
  }
  if (cancel_fraction < 0.0 || edit_fraction < 0.0 ||
      unregister_fraction < 0.0) {
    return Status::InvalidArgument("churn mix fractions must be >= 0");
  }
  const double sum =
      cancel_fraction + edit_fraction + unregister_fraction;
  if (std::abs(sum - 1.0) > 1e-6) {
    return Status::InvalidArgument(StringFormat(
        "churn mix fractions must sum to 1 (got %.6f)", sum));
  }
  if (zipf_theta < 0.0) {
    return Status::InvalidArgument("churn zipf_theta must be >= 0");
  }
  return Status::OK();
}

const char* ChurnEventKindToString(ChurnEvent::Kind kind) {
  switch (kind) {
    case ChurnEvent::Kind::kCancel:
      return "cancel";
    case ChurnEvent::Kind::kEdit:
      return "edit";
    case ChurnEvent::Kind::kUnregister:
      return "unregister";
  }
  return "?";
}

ChurnWorkload GenerateChurnWorkload(const ChurnOptions& options,
                                    int num_profiles, Chronon epoch_length,
                                    uint64_t seed) {
  ChurnWorkload workload;
  if (!options.enabled || options.ops_per_chronon <= 0.0 ||
      num_profiles <= 0) {
    return workload;
  }
  Rng rng(seed);
  ZipfDistribution activity(options.zipf_theta,
                            static_cast<uint64_t>(num_profiles));
  for (Chronon t = 0; t < epoch_length; ++t) {
    int64_t count = rng.NextPoisson(options.ops_per_chronon);
    for (int64_t i = 0; i < count; ++i) {
      ChurnEvent event;
      event.chronon = t;
      double mix = rng.NextDouble();
      if (mix < options.cancel_fraction) {
        event.kind = ChurnEvent::Kind::kCancel;
        ++workload.cancels;
      } else if (mix < options.cancel_fraction + options.edit_fraction) {
        event.kind = ChurnEvent::Kind::kEdit;
        ++workload.edits;
      } else {
        event.kind = ChurnEvent::Kind::kUnregister;
        ++workload.unregisters;
      }
      event.profile = static_cast<int>(activity.Sample(&rng)) - 1;
      event.pick = rng.Next();
      event.deadline_delta = static_cast<Chronon>(rng.NextInt(1, 12));
      event.weight_factor = 0.5 + rng.NextDouble();
      workload.events.push_back(event);
    }
  }
  return workload;
}

TInterval BuildEditReplacement(const TInterval& current, Chronon now,
                               Chronon epoch_length, Chronon delta,
                               double weight_factor) {
  TInterval replacement;
  for (const ExecutionInterval& ei : current.eis()) {
    if (ei.start < now) continue;
    ExecutionInterval moved = ei;
    moved.finish = std::min<Chronon>(ei.finish + delta, epoch_length - 1);
    replacement.AddEi(moved);
  }
  replacement.set_weight(current.weight() * weight_factor);
  return replacement;
}

namespace {

/// Registers every profile, buckets arrivals, generates the churn
/// stream, and drives the monitor chronon by chronon. Churn operations apply
/// synchronously: the workload's pick-resolution (`pick % live
/// submission count`) depends on every earlier operation of the same
/// chronon having landed.
Status DriveChurnEpoch(DynamicMonitor* monitor,
                       const MonitoringProblem& problem,
                       const SimulationConfig& config, uint64_t seed,
                       ProxyRunReport* report) {
  const Chronon epoch_length = problem.epoch.length;
  std::vector<std::vector<std::pair<ProfileId, const TInterval*>>>
      arrivals(static_cast<std::size_t>(epoch_length));
  std::vector<ProfileId> handle;
  handle.reserve(problem.profiles.size());
  for (const Profile& p : problem.profiles) {
    handle.push_back(monitor->RegisterProfile(p.name()));
    for (const TInterval& eta : p.t_intervals()) {
      if (eta.empty()) continue;
      Chronon at = eta.EarliestStart();
      if (at < 0 || at >= epoch_length) continue;
      arrivals[static_cast<std::size_t>(at)].emplace_back(handle.back(),
                                                          &eta);
    }
  }

  // The churn stream draws from its own generator, so enabling churn
  // perturbs no trace/profile/fault/policy randomness.
  ChurnWorkload workload = GenerateChurnWorkload(
      config.churn, static_cast<int>(problem.profiles.size()),
      epoch_length, config.churn.seed ^ (seed * 0x9E3779B97F4A7C15ULL));

  // Local shadow of each profile's submissions (the definition currently
  // live under each submission id), used to resolve churn targets and to
  // build edit replacements.
  std::vector<std::vector<TInterval>> defs(problem.profiles.size());

  std::size_t next_event = 0;
  for (Chronon now = 0; now < epoch_length; ++now) {
    for (const auto& [pid, eta] : arrivals[static_cast<std::size_t>(now)]) {
      auto submitted = monitor->Submit(pid, *eta);
      if (submitted.ok()) {
        defs[static_cast<std::size_t>(pid)].push_back(*eta);
      } else {
        // Arrivals for unregistered clients bounce — expected churn.
        ++report->churn_rejected_ops;
      }
    }
    while (next_event < workload.events.size() &&
           workload.events[next_event].chronon == now) {
      const ChurnEvent& event = workload.events[next_event++];
      auto pid = static_cast<std::size_t>(event.profile);
      int count = static_cast<int>(defs[pid].size());
      // An inactive client's op targets submission 0 (or a bogus id) on
      // purpose: rejected operations are part of the workload and keep
      // the error paths hot.
      int sub = count > 0
                    ? static_cast<int>(event.pick %
                                       static_cast<uint64_t>(count))
                    : 0;
      switch (event.kind) {
        case ChurnEvent::Kind::kCancel: {
          if (!monitor->Cancel(event.profile, sub).ok()) {
            ++report->churn_rejected_ops;
          }
          break;
        }
        case ChurnEvent::Kind::kEdit: {
          TInterval replacement;
          if (count > 0) {
            replacement = BuildEditReplacement(
                defs[pid][static_cast<std::size_t>(sub)], now,
                epoch_length, event.deadline_delta, event.weight_factor);
          }
          auto edited = monitor->Edit(event.profile, sub, replacement);
          if (edited.ok()) {
            defs[pid].push_back(std::move(replacement));
          } else {
            ++report->churn_rejected_ops;
          }
          break;
        }
        case ChurnEvent::Kind::kUnregister: {
          if (!monitor->Unregister(event.profile).ok()) {
            ++report->churn_rejected_ops;
          }
          break;
        }
      }
    }
    StepResult step;
    PULLMON_ASSIGN_OR_RETURN(step, monitor->Step());
    report->notifications_delivered += step.captured.size();
  }
  return Status::OK();
}

}  // namespace

void FinalizeChurnReport(const DynamicMonitor& monitor,
                         FeedPullSession* session, ProxyRunReport* report) {
  CollectRunCounters(monitor, &report->run);
  report->run.completeness = monitor.Completeness();
  // The monitor's own capture accounting must agree with the
  // schedule-based evaluation (cancelled submissions excluded).
  PULLMON_CHECK(report->run.completeness.captured_t_intervals ==
                monitor.t_intervals_completed());
  MirrorRunCounters(report);
  const MonitorStats& ms = monitor.stats();
  report->churn_submitted = ms.submitted;
  report->churn_cancelled = ms.cancelled;
  report->churn_edited = ms.edited;
  report->churn_unregistered_profiles = ms.unregistered_profiles;
  report->orphaned_probes = ms.orphaned_probes;
  session->FinishReport();
}

Result<ProxyRunReport> RunChurnOnce(const SimulationConfig& config,
                                    const PolicySpec& spec, uint64_t seed) {
  PULLMON_RETURN_NOT_OK(config.churn.Validate());
  PULLMON_RETURN_NOT_OK(config.faults.Validate());
  PULLMON_RETURN_NOT_OK(config.retry.Validate());
  PULLMON_RETURN_NOT_OK(config.breaker.Validate());

  UpdateTrace trace(0, 0);
  std::optional<TraceStore> store;
  PULLMON_ASSIGN_OR_RETURN(MonitoringProblem problem,
                           BuildProblem(config, seed, &trace, &store));
  const auto buffer_capacity = static_cast<std::size_t>(
      config.feed_buffer_capacity < 1 ? 1 : config.feed_buffer_capacity);
  std::optional<FeedNetwork> network_holder;
  if (store.has_value()) {
    network_holder.emplace(&*store, buffer_capacity);
  } else {
    network_holder.emplace(&trace, buffer_capacity);
  }
  FeedNetwork& network = *network_holder;
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = problem.num_resources;
  PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                           MakePolicy(spec.policy, po));

  ProxyRunReport report;
  ProxyOptions popts;
  popts.faults = config.faults;
  popts.fault_seed = config.fault_seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  popts.retry = config.retry;
  popts.breaker = config.breaker;
  popts.parse_cache = config.parse_cache;
  FeedPullSession session(&network, problem.num_resources, popts, &report);

  const auto run_start = std::chrono::steady_clock::now();
  MonitorOptions mo;
  mo.retry = config.retry;
  mo.breaker = config.breaker;
  // The backend switch maps onto the monitor's maintenance mode: the
  // reference backend runs the from-scratch rebuild oracle, so backend
  // differential tests cover churn too.
  mo.maintenance = config.executor_backend == ExecutorBackend::kReference
                       ? MonitorIndexMode::kRebuild
                       : MonitorIndexMode::kIncremental;
  DynamicMonitor monitor(problem.num_resources, problem.epoch.length,
                         problem.budget, policy.get(), spec.mode, mo);
  monitor.set_probe_callback([&](ResourceId resource, Chronon now) {
    return session.Probe(resource, now);
  });
  PULLMON_RETURN_NOT_OK(
      DriveChurnEpoch(&monitor, problem, config, seed, &report));
  report.run.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();
  // Mirror the scheduling/fault/health/churn telemetry the way
  // MonitoringProxy::Run does, so churn and proxy reports compare
  // field-for-field.
  FinalizeChurnReport(monitor, &session, &report);
  return report;
}

}  // namespace pullmon
