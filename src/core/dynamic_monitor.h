#ifndef PULLMON_CORE_DYNAMIC_MONITOR_H_
#define PULLMON_CORE_DYNAMIC_MONITOR_H_

#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/completeness.h"
#include "core/online_executor.h"
#include "core/policy.h"
#include "core/problem.h"
#include "core/resource_health.h"
#include "util/status.h"

namespace pullmon {

/// Outcome of one DynamicMonitor::Step() (one chronon).
struct StepResult {
  Chronon chronon = 0;
  /// Resources probed this chronon (<= budget).
  std::vector<ResourceId> probed;
  /// t-intervals fully captured this chronon: (profile, submission id).
  std::vector<std::pair<ProfileId, int>> captured;
  /// t-intervals that became impossible this chronon.
  std::vector<std::pair<ProfileId, int>> failed;
};

/// How the monitor maintains its candidate structures across churn
/// operations (Cancel / Edit / Unregister).
enum class MonitorIndexMode {
  /// Production path: every churn operation retires the affected EIs in
  /// place (CandidateIndex::Deactivate) — O(rank) per operation, no
  /// rebuild ever.
  kIncremental,
  /// Differential oracle: after every churn removal the candidate index
  /// is reconstructed from scratch from the monitor's parent bookkeeping
  /// (O(total EIs) per operation), mirroring the original "event lists
  /// are built once" design. Decision-identical to kIncremental — the
  /// churn differential suite and bench_churn enforce schedule-for-
  /// schedule equality.
  kRebuild,
};

/// "incremental" / "rebuild".
const char* MonitorIndexModeToString(MonitorIndexMode mode);

/// Behavioral knobs of the monitor's probe path and index maintenance.
/// Defaults reproduce the pre-churn monitor exactly: no retries, no
/// breaker, incremental maintenance.
struct MonitorOptions {
  /// Same-chronon retry/backoff for failed probes (needs a probe
  /// callback to ever fail).
  RetryPolicy retry;
  /// Circuit-breaker behavior of the resource-health tracking; disabled
  /// by default (byte-identical to no breaker).
  BreakerOptions breaker;
  /// Candidate-structure maintenance under churn.
  MonitorIndexMode maintenance = MonitorIndexMode::kIncremental;
};

/// Deterministic counters of one monitor lifetime (mirrors the
/// scheduling/fault/churn portions of OnlineRunResult/ProxyRunReport).
struct MonitorStats {
  // --- Probe path (identical meaning to OnlineRunResult). -------------
  std::size_t probes_used = 0;
  std::size_t probes_failed = 0;
  std::size_t retries_issued = 0;
  std::size_t retry_probes_spent = 0;
  std::size_t candidates_scored = 0;
  std::size_t max_concurrent_candidates = 0;
  std::size_t t_intervals_lost_to_faults = 0;
  // --- Churn telemetry. ------------------------------------------------
  /// Accepted Submit() calls (edit replacements are counted under
  /// `edited`, not here).
  std::size_t submitted = 0;
  /// Accepted Cancel() calls plus per-submission cancellations performed
  /// by Unregister().
  std::size_t cancelled = 0;
  /// Accepted Edit() calls.
  std::size_t edited = 0;
  /// Accepted Unregister() calls.
  std::size_t unregistered_profiles = 0;
  /// Probe work orphaned by churn: EI captures whose parent t-interval
  /// was cancelled or edited away before completing — pulls whose data
  /// no client ever received.
  std::size_t orphaned_probes = 0;
};

/// One submission of a MonitorImage, in flat t_id (arrival) order. The
/// runtime's derived fields (num_captured, weight, required, rank) are
/// reconstructed from the definition and the capture flags on restore.
struct MonitorSubmissionImage {
  ProfileId profile = 0;
  TInterval definition;
  std::vector<uint8_t> ei_captured;
  int num_expired = 0;
  uint8_t cancelled = 0;
  uint8_t fault_touched = 0;
  uint8_t failed = 0;
  uint8_t completed = 0;
  uint8_t selected = 0;
};

/// Resumable state of one DynamicMonitor at a chronon boundary, produced
/// by Capture() and consumed by Restore() on a freshly constructed
/// monitor with the same constructor parameters. The candidate index is
/// intentionally absent: Restore() reconstructs it from the parent
/// bookkeeping via the rebuild oracle, which the churn differential
/// suite proves decision-identical to the incrementally maintained
/// index (DESIGN.md sections 13 and 15).
struct MonitorImage {
  Chronon now = 0;
  std::vector<std::string> profile_names;
  std::vector<uint8_t> profile_unregistered;
  std::vector<MonitorSubmissionImage> submissions;
  /// Probes of the schedule so far, per chronon in [0, now).
  std::vector<std::vector<ResourceId>> probes_by_chronon;
  MonitorStats stats;
  HealthImage health;
};

/// The serial implementation of the online semantics (Section 4.2.1):
/// Step() is the one place the chronon step — reveal arrivals, score,
/// probe the top C_j resources (retries, breaker), capture, expire — is
/// written. Clients subscribe, submit, cancel, and edit t-intervals
/// *while the epoch runs*; a static workload is the special case where
/// everything is loaded up front (LoadProblem), which is how
/// OnlineExecutor's default backend drives it.
///
/// The executor differential suite asserts schedule-for-schedule
/// equality with the scan-based ReferenceExecutor oracle, and the churn
/// differential suite asserts equality between the incremental index
/// and the from-scratch rebuild oracle (MonitorIndexMode::kRebuild)
/// under arbitrary churn.
///
/// Churn semantics (DESIGN.md section 13):
///  * Cancel(profile, submission) withdraws a live submission; its
///    remaining EIs stop competing immediately (this chronon's budget
///    flows to other candidates). Cancelling an unknown, completed,
///    failed, or already-cancelled submission is InvalidArgument.
///  * Edit(profile, submission, replacement) atomically cancels the old
///    submission and resubmits the replacement (new deadline/weight/
///    alternatives), returning the replacement's submission id. The
///    replacement must not start before now() (InvalidArgument).
///  * Unregister(profile) cancels every live submission of the profile
///    and refuses future submissions to it.
///  * Cancelled submissions leave the completeness denominator — they
///    were withdrawn, not missed. Captures they already consumed are
///    surfaced as MonitorStats::orphaned_probes.
///  * A profile's rank is exact: it is the maximum t-interval size over
///    the profile's non-withdrawn submissions, so cancelling or editing
///    away the submission that carried the maximum lowers it (rank-level
///    policies — including the explore/exploit scorer — see the current
///    complexity, not a stale high-water mark).
class DynamicMonitor {
 public:
  /// Invoked for every probe attempt: (resource, chronon) -> success.
  /// Without a callback every probe succeeds (the logical setting).
  using ProbeCallback = std::function<bool(ResourceId, Chronon)>;

  /// Invoked the moment a t-interval completes, inside the capturing
  /// probe's bookkeeping: (profile, submission id, chronon). It fires in
  /// StepResult::captured order, before the chronon's later probes run,
  /// so a proxy reads the payload pulled so far.
  using CaptureCallback = std::function<void(ProfileId, int, Chronon)>;

  /// `policy` must outlive the monitor; it is Reset() on construction.
  DynamicMonitor(int num_resources, Chronon epoch_length,
                 BudgetVector budget, Policy* policy, ExecutionMode mode,
                 MonitorOptions options = MonitorOptions{});

  void set_probe_callback(ProbeCallback callback) {
    probe_callback_ = std::move(callback);
  }

  void set_capture_callback(CaptureCallback callback) {
    capture_callback_ = std::move(callback);
  }

  /// Loads a whole static workload on a *fresh* monitor: registers every
  /// profile and submits every t-interval in flattening order, so profile
  /// ids and submission ids equal the problem's profile and t-interval
  /// indices. The t-intervals are borrowed, not copied: `problem` must
  /// outlive the monitor and must already have passed Validate().
  /// FailedPrecondition on a monitor that has registered, submitted, or
  /// stepped; InvalidArgument when the problem's shape disagrees with the
  /// constructor parameters.
  Status LoadProblem(const MonitoringProblem& problem);

  /// Registers a client profile; its rank grows as t-intervals are
  /// submitted (rank-level policies see the current rank).
  ProfileId RegisterProfile(std::string name);

  /// Submits a t-interval for a registered profile. The t-interval must
  /// be valid, lie within the epoch, and must not start before the
  /// current chronon (no retroactive arrivals). Returns a submission id
  /// unique within the profile, echoed in StepResult.
  Result<int> Submit(ProfileId profile, TInterval t_interval);

  /// Withdraws a live submission mid-epoch; see the churn semantics
  /// above. O(rank) incremental delete — no rebuild.
  Status Cancel(ProfileId profile, int submission_id);

  /// Cancels every live submission of `profile` and bars future ones.
  /// Unknown or already-unregistered profiles are InvalidArgument.
  /// Returns the number of submissions cancelled.
  Result<int> Unregister(ProfileId profile);

  /// Cancel + resubmit in one atomic operation: validation failures
  /// (dead target, invalid or retroactive replacement) leave the old
  /// submission untouched. Returns the replacement's submission id.
  Result<int> Edit(ProfileId profile, int submission_id,
                   TInterval replacement);

  /// Executes the current chronon (probe selection, captures, expiry)
  /// and advances time. FailedPrecondition once the epoch is over.
  Result<StepResult> Step();

  /// Runs the remaining chronons; returns the final completeness.
  Result<CompletenessReport> RunToEnd();

  /// The next chronon Step() will execute (== number of steps so far).
  Chronon now() const { return now_; }
  Chronon epoch_length() const { return epoch_length_; }

  /// Probes issued so far.
  const Schedule& schedule() const { return schedule_; }

  std::size_t t_intervals_submitted() const { return runtimes_.size(); }
  std::size_t t_intervals_completed() const { return completed_; }
  std::size_t t_intervals_failed() const { return failed_; }
  std::size_t t_intervals_cancelled() const { return stats_.cancelled; }

  const MonitorStats& stats() const { return stats_; }
  const ResourceHealthTracker& health() const { return health_; }
  MonitorIndexMode maintenance() const { return options_.maintenance; }

  /// Completeness of the schedule so far against everything submitted
  /// and not withdrawn (cancelled submissions are excluded).
  CompletenessReport Completeness() const;

  /// Audits the candidate index's lazy structures plus the monitor's
  /// parent bookkeeping (dead parents hold no live EIs, capture counts
  /// consistent) — the churn fuzz suite runs this after every op.
  Status CheckInvariants() const;

  /// Checkpoint support. Capture() freezes everything a resumed run
  /// needs at a chronon boundary (call between Step()s, never inside
  /// one). Restore() resumes the image on a *fresh* monitor built with
  /// the same constructor parameters — FailedPrecondition if this
  /// monitor has already registered, submitted, or stepped.
  MonitorImage Capture() const;
  Status Restore(const MonitorImage& image);

 private:
  /// True when the submission can still be mutated (not completed,
  /// failed, or cancelled).
  bool IsLive(int t_id) const {
    const TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    return !rt.completed && !rt.failed &&
           !cancelled_[static_cast<std::size_t>(t_id)];
  }

  /// Resolves (profile, submission) to a flat t_id, or InvalidArgument.
  Result<int> ResolveSubmission(ProfileId profile, int submission_id) const;

  /// True until anything is registered, submitted, or stepped.
  bool IsFresh() const {
    return now_ == 0 && runtimes_.empty() && profile_names_.empty();
  }

  /// Records a pre-validated t-interval that outlives the monitor
  /// (owned by `submitted_` or borrowed from a loaded problem); returns
  /// the submission id within the profile.
  int AppendSubmission(ProfileId profile, const TInterval* t_interval);

  /// Removes a dead (completed/failed/cancelled) parent's remaining EIs
  /// from the candidate index.
  void RetireParent(int t_id);

  /// Reports a change to a live parent's score inputs (captures,
  /// expiries, rank) to the candidate index's key cache.
  void InvalidateParent(int t_id);

  /// (np_class, score) of a live candidate — the selection key the
  /// index reduces per resource.
  std::pair<int, double> SelectionKey(const IndexedEi& flat) const;

  /// Marks a live submission cancelled: orphan accounting, retire, rank
  /// recompute when the withdrawn submission carried the profile's
  /// maximum, and — under MonitorIndexMode::kRebuild — the from-scratch
  /// rebuild.
  void CancelLive(int t_id);

  /// Recomputes `profile`'s rank as the maximum t-interval size over its
  /// non-cancelled submissions and refreshes every sibling runtime's
  /// cached profile_rank when the value changed.
  void RecomputeProfileRank(ProfileId profile);

  /// The rebuild oracle: reconstructs `index_` from the monitor's parent
  /// bookkeeping (flat ids, live/dead state, activation replay), exactly
  /// as if every surviving EI had been registered into a fresh index.
  void RebuildIndex();

  int num_resources_;
  Chronon epoch_length_;
  BudgetVector budget_;
  Policy* policy_;
  ExecutionMode mode_;
  MonitorOptions options_;
  ProbeCallback probe_callback_;
  CaptureCallback capture_callback_;
  ResourceHealthTracker health_;
  bool validated_options_ = false;

  Chronon now_ = 0;
  Schedule schedule_;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  MonitorStats stats_;

  /// Owned copies of t-intervals submitted one by one (Submit, Edit,
  /// Restore); TIntervalRuntime::source points into this deque or into
  /// a loaded problem.
  std::deque<TInterval> submitted_;
  std::vector<TIntervalRuntime> runtimes_;
  std::vector<uint8_t> cancelled_;   // per runtime: withdrawn by client
  std::vector<uint8_t> fault_touched_;  // per runtime: failed probe seen
  std::vector<int> submission_id_;   // per runtime, unique in profile
  std::vector<int> rank_of_profile_;  // current rank per profile
  std::vector<uint8_t> profile_unregistered_;
  std::vector<std::vector<int>> runtimes_of_profile_;
  std::vector<std::string> profile_names_;

  CandidateIndex index_;
  std::vector<int> first_flat_;  // first flat EI id per runtime
  std::vector<ResourceCandidate> entries_;  // per-chronon scratch
};

/// Copies a monitor's schedule and its capture, probe-path and health
/// counters into `run`: the one place MonitorStats/HealthStats become
/// OnlineRunResult fields. Completeness and elapsed time are left to the
/// caller, since they depend on what the run is scored against.
void CollectRunCounters(const DynamicMonitor& monitor, OnlineRunResult* run);

}  // namespace pullmon

#endif  // PULLMON_CORE_DYNAMIC_MONITOR_H_
