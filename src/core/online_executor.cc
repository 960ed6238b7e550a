#include "core/online_executor.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/candidate_index.h"
#include "core/parallel_executor.h"
#include "core/reference_executor.h"
#include "util/logging.h"

namespace pullmon {

const char* ExecutorBackendToString(ExecutorBackend backend) {
  switch (backend) {
    case ExecutorBackend::kIndexed:
      return "indexed";
    case ExecutorBackend::kReference:
      return "reference";
    case ExecutorBackend::kParallel:
      return "parallel";
  }
  return "?";
}

Status RetryPolicy::Validate() const {
  if (max_retries < 0) {
    return Status::InvalidArgument("max_retries must be >= 0");
  }
  if (backoff_base < 0.0) {
    return Status::InvalidArgument("backoff_base must be >= 0");
  }
  if (backoff_multiplier < 1.0) {
    return Status::InvalidArgument("backoff_multiplier must be >= 1");
  }
  if (backoff_budget <= 0.0) {
    return Status::InvalidArgument("backoff_budget must be > 0");
  }
  return Status::OK();
}

OnlineExecutor::OnlineExecutor(const MonitoringProblem* problem,
                               Policy* policy, ExecutionMode mode)
    : problem_(problem), policy_(policy), mode_(mode) {}

OnlineExecutor::~OnlineExecutor() = default;

void OnlineExecutor::set_parallel_hooks(ParallelProbeHooks hooks) {
  parallel_hooks_ = std::make_shared<ParallelProbeHooks>(std::move(hooks));
}

Result<OnlineRunResult> OnlineExecutor::Run() {
  if (backend_ == ExecutorBackend::kReference) {
    ReferenceExecutor reference(problem_, policy_, mode_);
    if (capture_callback_) reference.set_capture_callback(capture_callback_);
    if (probe_callback_) reference.set_probe_callback(probe_callback_);
    reference.set_retry_policy(retry_);
    reference.set_breaker_options(breaker_);
    return reference.Run();
  }
  if (backend_ == ExecutorBackend::kParallel) {
    return RunParallel();
  }
  return RunIndexed();
}

Result<OnlineRunResult> OnlineExecutor::RunParallel() {
  PULLMON_RETURN_NOT_OK(problem_->Validate());
  PULLMON_RETURN_NOT_OK(retry_.Validate());
  PULLMON_RETURN_NOT_OK(breaker_.Validate());

  ParallelOptions options;
  options.retry = retry_;
  options.breaker = breaker_;
  options.threads = threads_;
  ParallelExecutor executor(problem_->num_resources, problem_->epoch.length,
                            problem_->budget, policy_, mode_, options);

  // Register every profile and submit its t-intervals in flattening
  // order, so the executor sees exactly the workload RunIndexed flattens
  // up front. Submission ids are per-profile and empty t-intervals are
  // unsubmittable, so an explicit submission -> t-interval-index map
  // keeps capture callbacks addressed like RunIndexed's.
  std::vector<std::vector<std::size_t>> t_index_of_submission(
      problem_->profiles.size());
  for (ProfileId pid = 0;
       pid < static_cast<ProfileId>(problem_->profiles.size()); ++pid) {
    const Profile& p = problem_->profiles[static_cast<std::size_t>(pid)];
    ProfileId handle = executor.RegisterProfile(p.name());
    PULLMON_CHECK(handle == pid);
    for (std::size_t ti = 0; ti < p.t_intervals().size(); ++ti) {
      const TInterval& eta = p.t_intervals()[ti];
      if (eta.empty()) continue;
      auto submitted = executor.Submit(pid, eta);
      PULLMON_RETURN_NOT_OK(submitted.status());
      PULLMON_CHECK(static_cast<std::size_t>(*submitted) ==
                    t_index_of_submission[static_cast<std::size_t>(pid)]
                        .size());
      t_index_of_submission[static_cast<std::size_t>(pid)].push_back(ti);
    }
  }

  if (probe_callback_) executor.set_probe_callback(probe_callback_);
  if (parallel_hooks_) executor.set_probe_hooks(*parallel_hooks_);
  if (capture_callback_) {
    executor.set_capture_callback(
        [this, &t_index_of_submission](ProfileId profile, int submission,
                                       Chronon now) {
          capture_callback_(
              profile,
              t_index_of_submission[static_cast<std::size_t>(profile)]
                                   [static_cast<std::size_t>(submission)],
              now);
        });
  }

  const auto run_start = std::chrono::steady_clock::now();
  for (Chronon now = 0; now < problem_->epoch.length; ++now) {
    PULLMON_RETURN_NOT_OK(executor.Step().status());
  }
  const auto run_end = std::chrono::steady_clock::now();

  OnlineRunResult result;
  result.schedule = executor.schedule();
  result.elapsed_seconds =
      std::chrono::duration<double>(run_end - run_start).count();
  const MonitorStats& ms = executor.stats();
  result.probes_used = ms.probes_used;
  result.t_intervals_completed = executor.t_intervals_completed();
  result.t_intervals_failed = executor.t_intervals_failed();
  result.candidates_scored = ms.candidates_scored;
  result.max_concurrent_candidates = ms.max_concurrent_candidates;
  result.probes_failed = ms.probes_failed;
  result.retries_issued = ms.retries_issued;
  result.retry_probes_spent = ms.retry_probes_spent;
  result.t_intervals_lost_to_faults = ms.t_intervals_lost_to_faults;

  const HealthStats& hs = executor.health().stats();
  result.circuits_opened = hs.circuits_opened;
  result.circuits_reopened = hs.circuits_reopened;
  result.probation_probes = hs.probation_probes;
  result.probation_successes = hs.probation_successes;
  result.probes_suppressed = hs.probes_suppressed;
  result.budget_reclaimed = hs.budget_reclaimed;
  result.open_chronons_total = hs.open_chronons_total;
  if (breaker_.enabled) {
    result.open_chronons_by_resource =
        executor.health().OpenChrononsByResource();
  }

  const ShardRunStats& ss = executor.shard_stats();
  result.shard_count = static_cast<std::size_t>(ss.shard_count);
  result.shard_candidates_scored = ss.candidates_scored;
  result.shard_probes_executed = ss.probes_executed;
  result.shard_merge_entries = ss.merge_entries;

  result.completeness =
      EvaluateCompleteness(problem_->profiles, result.schedule);
  PULLMON_CHECK(result.completeness.captured_t_intervals ==
                result.t_intervals_completed);
  return result;
}

Result<OnlineRunResult> OnlineExecutor::RunIndexed() {
  PULLMON_RETURN_NOT_OK(problem_->Validate());
  PULLMON_RETURN_NOT_OK(retry_.Validate());
  PULLMON_RETURN_NOT_OK(breaker_.Validate());
  policy_->Reset();

  // Health is tracked even with the breaker disabled (so health-aware
  // policies see EWMA failure rates), but only an enabled breaker ever
  // suppresses a resource or abandons a retry.
  ResourceHealthTracker health(problem_->num_resources, breaker_);
  policy_->AttachHealth(&health);

  const Chronon epoch_len = problem_->epoch.length;

  // --- Flatten the profile hierarchy into runtime arrays. ---------------
  std::vector<TIntervalRuntime> runtimes;
  std::vector<std::size_t> t_index_in_profile;  // parallel to runtimes
  std::vector<int> first_flat;  // first flat EI id of each runtime
  CandidateIndex index(problem_->num_resources, epoch_len);
  index.set_cache_keys(policy_->ScoreIgnoresNow());
  for (ProfileId pid = 0;
       pid < static_cast<ProfileId>(problem_->profiles.size()); ++pid) {
    const Profile& p = problem_->profiles[static_cast<std::size_t>(pid)];
    int rank = static_cast<int>(p.rank());
    for (std::size_t ti = 0; ti < p.t_intervals().size(); ++ti) {
      const TInterval& eta = p.t_intervals()[ti];
      TIntervalRuntime rt;
      rt.profile = pid;
      rt.profile_rank = rank;
      rt.source = &eta;
      rt.weight = eta.weight();
      rt.required = static_cast<int>(eta.required());
      rt.ei_captured.assign(eta.size(), 0);
      int t_id = static_cast<int>(runtimes.size());
      runtimes.push_back(std::move(rt));
      t_index_in_profile.push_back(ti);
      first_flat.push_back(static_cast<int>(index.size()));
      for (std::size_t ei_idx = 0; ei_idx < eta.eis().size(); ++ei_idx) {
        index.AddEi(eta.eis()[ei_idx], t_id, static_cast<int>(ei_idx));
      }
    }
  }

  OnlineRunResult result;
  result.schedule = Schedule(epoch_len);

  // Parents that had a live candidate EI hit by a failed probe — failure
  // attribution for t_intervals_lost_to_faults.
  std::vector<uint8_t> fault_touched(runtimes.size(), 0);

  // Removes a dead parent's remaining EIs from the index; flat ids of a
  // runtime are contiguous from first_flat.
  auto retire_parent = [&](int t_id) {
    const TIntervalRuntime& parent =
        runtimes[static_cast<std::size_t>(t_id)];
    index.RetireRange(first_flat[static_cast<std::size_t>(t_id)],
                      parent.NumEis());
  };
  // A live parent's capture/expiry counters moved: the cached keys of
  // the resources its EIs sit on may have changed.
  auto invalidate_parent = [&](int t_id) {
    const TIntervalRuntime& parent =
        runtimes[static_cast<std::size_t>(t_id)];
    index.InvalidateRange(first_flat[static_cast<std::size_t>(t_id)],
                          parent.NumEis());
  };

  std::vector<ResourceCandidate> entries;

  const auto run_start = std::chrono::steady_clock::now();

  for (Chronon now = 0; now < epoch_len; ++now) {
    // 1. Reveal EIs that start now. Dead parents were retired eagerly,
    //    so arrivals only need the index's own dead-flag check.
    index.ActivateArrivals(now, [](int) { return true; });

    // Expired cool-downs move to probation before scoring, so a
    // half-open resource competes in this chronon's selection.
    health.BeginChronon(now);

    // 2. Score the live candidates, reduced to one minimal selection
    //    key per resource (candidate keys and resource keys select
    //    identically; see CandidateIndex); with a `now`-independent
    //    policy only stale resources and arrivals are rescored.
    //    Open-circuit resources are skipped, so their would-be budget
    //    flows to the next-ranked candidates automatically.
    std::size_t scored = index.CollectResourceCandidates(
        now,
        [&](const IndexedEi& flat) {
          const TIntervalRuntime& parent =
              runtimes[static_cast<std::size_t>(flat.t_id)];
          int np_class = (mode_ == ExecutionMode::kNonPreemptive &&
                          !parent.selected)
                             ? 1
                             : 0;
          return std::make_pair(
              np_class,
              policy_->Score(flat.ei, parent, flat.ei_index, now));
        },
        [&](ResourceId r) { return health.IsSuppressed(r); },
        [&](ResourceId r, int live) { health.NoteSuppressed(r, live); },
        &entries);
    result.candidates_scored += scored;
    result.max_concurrent_candidates =
        std::max(result.max_concurrent_candidates, scored);

    // 3. Partial selection: only the best C_now resources are ordered.
    int budget = problem_->budget.at(now);
    if (budget > 0 && !entries.empty()) {
      std::size_t take = CandidateIndex::SelectTopResources(&entries, budget);
      int probes_this_chronon = 0;
      for (std::size_t e = 0; e < take; ++e) {
        if (probes_this_chronon >= budget) break;
        ResourceId r = entries[e].resource;
        ++probes_this_chronon;
        ++result.probes_used;
        bool success = probe_callback_ ? probe_callback_(r, now) : true;
        health.RecordProbe(r, now, success);
        if (!success) {
          ++result.probes_failed;
          // Same-chronon retries with exponential backoff, each charged
          // one budget unit; abandoned when the accumulated wait would
          // cross the chronon boundary, the budget runs dry, or the
          // breaker opens the resource's circuit mid-loop (retrying a
          // resource the breaker just gave up on wastes budget).
          double waited = 0.0;
          double backoff = retry_.backoff_base;
          for (int attempt = 0; attempt < retry_.max_retries &&
                                probes_this_chronon < budget &&
                                !health.CircuitOpen(r);
               ++attempt) {
            waited += backoff;
            if (waited > retry_.backoff_budget) break;
            backoff *= retry_.backoff_multiplier;
            ++probes_this_chronon;
            ++result.probes_used;
            ++result.retries_issued;
            ++result.retry_probes_spent;
            success = probe_callback_(r, now);
            health.RecordProbe(r, now, success);
            if (success) break;
            ++result.probes_failed;
          }
        }
        if (!success) {
          // The probe never delivered: nothing is captured, candidates
          // on r stay candidates for later chronons. Record which
          // parents the failure touched for loss attribution.
          index.ForEachLiveOnResource(
              r, [&](int, const IndexedEi& miss) {
                fault_touched[static_cast<std::size_t>(miss.t_id)] = 1;
              });
          continue;
        }
        PULLMON_CHECK_OK(result.schedule.AddProbe(r, now));

        // 4. The probe captures every live candidate EI on resource r;
        //    a completed parent's other EIs leave the index at once.
        index.CaptureResource(r, [&](int, const IndexedEi& hit) {
          TIntervalRuntime& parent =
              runtimes[static_cast<std::size_t>(hit.t_id)];
          parent.ei_captured[static_cast<std::size_t>(hit.ei_index)] = 1;
          ++parent.num_captured;
          parent.selected = true;
          if (parent.num_captured >= parent.required) {
            parent.completed = true;
            ++result.t_intervals_completed;
            retire_parent(hit.t_id);
            if (capture_callback_) {
              capture_callback_(
                  parent.profile,
                  t_index_in_profile[static_cast<std::size_t>(hit.t_id)],
                  now);
            }
          } else {
            invalidate_parent(hit.t_id);
          }
        });
      }
      // Reclaim accounting: at most probes_this_chronon of the budget
      // units a suppressed resource would have taken actually flowed to
      // other resources this chronon (an upper bound; see HealthStats).
      health.NoteBudgetReclaimed(
          std::min(health.SuppressedThisChronon(),
                   static_cast<std::size_t>(probes_this_chronon)));
    }

    // 5. Expire EIs whose window ends now; the parent fails once too few
    //    EIs remain alive to reach its required capture count (with the
    //    all-required default, any uncaptured expiry fails it).
    index.ExpireEnding(now, [&](int, const IndexedEi& flat) {
      TIntervalRuntime& parent =
          runtimes[static_cast<std::size_t>(flat.t_id)];
      if (parent.failed || parent.completed) return;
      ++parent.num_expired;
      if (parent.num_captured + parent.NumAlive() < parent.required) {
        parent.failed = true;
        ++result.t_intervals_failed;
        retire_parent(flat.t_id);
        if (fault_touched[static_cast<std::size_t>(flat.t_id)]) {
          ++result.t_intervals_lost_to_faults;
        }
      } else {
        invalidate_parent(flat.t_id);
      }
    });
  }

  const auto run_end = std::chrono::steady_clock::now();
  result.elapsed_seconds =
      std::chrono::duration<double>(run_end - run_start).count();

  const HealthStats& hs = health.stats();
  result.circuits_opened = hs.circuits_opened;
  result.circuits_reopened = hs.circuits_reopened;
  result.probation_probes = hs.probation_probes;
  result.probation_successes = hs.probation_successes;
  result.probes_suppressed = hs.probes_suppressed;
  result.budget_reclaimed = hs.budget_reclaimed;
  result.open_chronons_total = hs.open_chronons_total;
  if (breaker_.enabled) {
    result.open_chronons_by_resource = health.OpenChrononsByResource();
  }

  result.completeness =
      EvaluateCompleteness(problem_->profiles, result.schedule);
  // Internal consistency: the executor's own capture accounting must agree
  // with the schedule-based evaluation.
  PULLMON_CHECK(result.completeness.captured_t_intervals ==
                result.t_intervals_completed);
  return result;
}

}  // namespace pullmon
