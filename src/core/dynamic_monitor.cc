#include "core/dynamic_monitor.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace pullmon {

const char* MonitorIndexModeToString(MonitorIndexMode mode) {
  switch (mode) {
    case MonitorIndexMode::kIncremental:
      return "incremental";
    case MonitorIndexMode::kRebuild:
      return "rebuild";
  }
  return "?";
}

DynamicMonitor::DynamicMonitor(int num_resources, Chronon epoch_length,
                               BudgetVector budget, Policy* policy,
                               ExecutionMode mode, MonitorOptions options)
    : num_resources_(num_resources),
      epoch_length_(epoch_length),
      budget_(std::move(budget)),
      policy_(policy),
      mode_(mode),
      options_(options),
      health_(num_resources, options.breaker),
      schedule_(epoch_length),
      index_(num_resources, epoch_length) {
  policy_->Reset();
  policy_->AttachHealth(&health_);
  index_.set_cache_keys(policy_->ScoreIgnoresNow());
}

ProfileId DynamicMonitor::RegisterProfile(std::string name) {
  profile_names_.push_back(std::move(name));
  rank_of_profile_.push_back(0);
  profile_unregistered_.push_back(0);
  runtimes_of_profile_.emplace_back();
  return static_cast<ProfileId>(profile_names_.size()) - 1;
}

Result<int> DynamicMonitor::ResolveSubmission(ProfileId profile,
                                              int submission_id) const {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  const auto& subs =
      runtimes_of_profile_[static_cast<std::size_t>(profile)];
  if (submission_id < 0 ||
      submission_id >= static_cast<int>(subs.size())) {
    return Status::InvalidArgument(
        StringFormat("profile %d has no submission %d", profile,
                     submission_id));
  }
  return subs[static_cast<std::size_t>(submission_id)];
}

Result<int> DynamicMonitor::Submit(ProfileId profile,
                                   TInterval t_interval) {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is unregistered", profile));
  }
  PULLMON_RETURN_NOT_OK(t_interval.Validate(Epoch{epoch_length_}));
  for (const auto& ei : t_interval.eis()) {
    if (ei.resource >= num_resources_) {
      return Status::OutOfRange(
          StringFormat("EI resource %d outside [0,%d)", ei.resource,
                       num_resources_));
    }
    if (ei.start < now_) {
      return Status::FailedPrecondition(StringFormat(
          "EI starts at %d but the monitor is already at chronon %d",
          ei.start, now_));
    }
  }
  ++stats_.submitted;
  submitted_.push_back(std::move(t_interval));
  return AppendSubmission(profile, &submitted_.back());
}

Status DynamicMonitor::LoadProblem(const MonitoringProblem& problem) {
  if (!IsFresh()) {
    return Status::FailedPrecondition(
        "LoadProblem() requires a freshly constructed monitor");
  }
  if (problem.num_resources != num_resources_ ||
      problem.epoch.length != epoch_length_) {
    return Status::InvalidArgument(
        "problem shape does not match the monitor's resources and epoch");
  }
  for (const Profile& p : problem.profiles) {
    const ProfileId pid = RegisterProfile(p.name());
    // The final rank up front, so no submission has to raise it and
    // refresh its siblings.
    rank_of_profile_[static_cast<std::size_t>(pid)] =
        static_cast<int>(p.rank());
    for (const TInterval& eta : p.t_intervals()) {
      ++stats_.submitted;
      AppendSubmission(pid, &eta);
    }
  }
  return Status::OK();
}

int DynamicMonitor::AppendSubmission(ProfileId profile,
                                     const TInterval* t_interval) {
  const TInterval& stored = *t_interval;
  int t_id = static_cast<int>(runtimes_.size());

  // Grow the profile's rank and refresh its existing runtimes so
  // rank-level policies see the new complexity.
  auto& rank = rank_of_profile_[static_cast<std::size_t>(profile)];
  if (static_cast<int>(stored.size()) > rank) {
    rank = static_cast<int>(stored.size());
    for (int other :
         runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
      runtimes_[static_cast<std::size_t>(other)].profile_rank = rank;
      InvalidateParent(other);
    }
  }
  runtimes_of_profile_[static_cast<std::size_t>(profile)].push_back(t_id);

  TIntervalRuntime rt;
  rt.profile = profile;
  rt.profile_rank = rank;
  rt.source = &stored;
  rt.weight = stored.weight();
  rt.required = static_cast<int>(stored.required());
  rt.ei_captured.assign(stored.size(), 0);
  runtimes_.push_back(std::move(rt));
  cancelled_.push_back(0);
  fault_touched_.push_back(0);
  int submission = static_cast<int>(
      runtimes_of_profile_[static_cast<std::size_t>(profile)].size()) -
      1;
  submission_id_.push_back(submission);

  first_flat_.push_back(static_cast<int>(index_.size()));
  for (std::size_t i = 0; i < stored.eis().size(); ++i) {
    index_.AddEi(stored.eis()[i], t_id, static_cast<int>(i));
  }
  return submission;
}

void DynamicMonitor::RetireParent(int t_id) {
  const TIntervalRuntime& parent =
      runtimes_[static_cast<std::size_t>(t_id)];
  index_.RetireRange(first_flat_[static_cast<std::size_t>(t_id)],
                     parent.NumEis());
}

void DynamicMonitor::InvalidateParent(int t_id) {
  const TIntervalRuntime& parent =
      runtimes_[static_cast<std::size_t>(t_id)];
  index_.InvalidateRange(first_flat_[static_cast<std::size_t>(t_id)],
                         parent.NumEis());
}

std::pair<int, double> DynamicMonitor::SelectionKey(
    const IndexedEi& flat) const {
  const TIntervalRuntime& parent =
      runtimes_[static_cast<std::size_t>(flat.t_id)];
  const int np_class =
      (mode_ == ExecutionMode::kNonPreemptive && !parent.selected) ? 1 : 0;
  return {np_class, policy_->Score(flat.ei, parent, flat.ei_index, now_)};
}

void DynamicMonitor::RecomputeProfileRank(ProfileId profile) {
  auto& rank = rank_of_profile_[static_cast<std::size_t>(profile)];
  int exact = 0;
  for (int other :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    if (cancelled_[static_cast<std::size_t>(other)]) continue;
    exact = std::max(
        exact,
        static_cast<int>(
            runtimes_[static_cast<std::size_t>(other)].source->size()));
  }
  if (exact == rank) return;
  rank = exact;
  for (int other :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    runtimes_[static_cast<std::size_t>(other)].profile_rank = rank;
    InvalidateParent(other);
  }
}

void DynamicMonitor::CancelLive(int t_id) {
  TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
  // Captures already spent on a submission the client is withdrawing
  // served nobody: account them as orphaned probe work.
  stats_.orphaned_probes += static_cast<std::size_t>(rt.num_captured);
  cancelled_[static_cast<std::size_t>(t_id)] = 1;
  RetireParent(t_id);
  // Rank is exact, not a high-water mark: withdrawing the submission
  // that carried the profile's maximum size may lower it.
  if (static_cast<int>(rt.source->size()) >=
      rank_of_profile_[static_cast<std::size_t>(rt.profile)]) {
    RecomputeProfileRank(rt.profile);
  }
  if (options_.maintenance == MonitorIndexMode::kRebuild) RebuildIndex();
}

Status DynamicMonitor::Cancel(ProfileId profile, int submission_id) {
  PULLMON_ASSIGN_OR_RETURN(int t_id,
                           ResolveSubmission(profile, submission_id));
  if (!IsLive(t_id)) {
    const TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    const char* state = cancelled_[static_cast<std::size_t>(t_id)]
                            ? "already cancelled"
                            : (rt.completed ? "already completed"
                                            : "already failed");
    return Status::InvalidArgument(
        StringFormat("submission %d of profile %d is %s", submission_id,
                     profile, state));
  }
  CancelLive(t_id);
  ++stats_.cancelled;
  return Status::OK();
}

Result<int> DynamicMonitor::Unregister(ProfileId profile) {
  if (profile < 0 ||
      profile >= static_cast<ProfileId>(profile_names_.size())) {
    return Status::InvalidArgument(
        StringFormat("unknown profile id %d", profile));
  }
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is already unregistered", profile));
  }
  profile_unregistered_[static_cast<std::size_t>(profile)] = 1;
  int cancelled = 0;
  for (int t_id :
       runtimes_of_profile_[static_cast<std::size_t>(profile)]) {
    if (!IsLive(t_id)) continue;
    CancelLive(t_id);
    ++stats_.cancelled;
    ++cancelled;
  }
  ++stats_.unregistered_profiles;
  return cancelled;
}

Result<int> DynamicMonitor::Edit(ProfileId profile, int submission_id,
                                 TInterval replacement) {
  PULLMON_ASSIGN_OR_RETURN(int t_id,
                           ResolveSubmission(profile, submission_id));
  if (profile_unregistered_[static_cast<std::size_t>(profile)]) {
    return Status::InvalidArgument(
        StringFormat("profile %d is unregistered", profile));
  }
  if (!IsLive(t_id)) {
    return Status::InvalidArgument(StringFormat(
        "submission %d of profile %d is no longer live", submission_id,
        profile));
  }
  // Validate the replacement in full *before* touching the old
  // submission, so a rejected edit is a no-op.
  PULLMON_RETURN_NOT_OK(replacement.Validate(Epoch{epoch_length_}));
  for (const auto& ei : replacement.eis()) {
    if (ei.resource >= num_resources_) {
      return Status::OutOfRange(
          StringFormat("EI resource %d outside [0,%d)", ei.resource,
                       num_resources_));
    }
    if (ei.start < now_) {
      return Status::InvalidArgument(StringFormat(
          "edited EI starts at %d but the monitor is already at chronon "
          "%d (edits cannot reach into the past)",
          ei.start, now_));
    }
  }
  CancelLive(t_id);
  ++stats_.edited;
  submitted_.push_back(std::move(replacement));
  return AppendSubmission(profile, &submitted_.back());
}

void DynamicMonitor::RebuildIndex() {
  // The from-scratch oracle: re-register every EI in original flat-id
  // order (selection tie-breaks depend on flat ids), mark everything
  // that has left play dead — captured EIs, expired windows, and whole
  // parents that completed, failed, or were withdrawn — then replay the
  // activations of already-opened windows. Dead EIs are skipped by the
  // replay, so the rebuilt live lists hold exactly the surviving
  // candidates in activation order, matching the incremental index's
  // observable state (its lists may additionally carry dead entries
  // awaiting lazy compaction, which nothing observes).
  CandidateIndex fresh(num_resources_, epoch_length_);
  fresh.set_cache_keys(index_.cache_keys());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    const bool parent_dead =
        rt.completed || rt.failed || cancelled_[t] != 0;
    const auto& eis = rt.source->eis();
    for (std::size_t i = 0; i < eis.size(); ++i) {
      int fid =
          fresh.AddEi(eis[i], static_cast<int>(t), static_cast<int>(i));
      if (parent_dead || rt.ei_captured[i] != 0 ||
          eis[i].finish < now_) {
        fresh.Deactivate(fid);
      }
    }
  }
  for (Chronon t = 0; t < now_; ++t) {
    fresh.ActivateArrivals(t, [](int) { return true; });
  }
  index_ = std::move(fresh);
}

Result<StepResult> DynamicMonitor::Step() {
  if (!validated_options_) {
    PULLMON_RETURN_NOT_OK(options_.retry.Validate());
    PULLMON_RETURN_NOT_OK(options_.breaker.Validate());
    validated_options_ = true;
  }
  if (now_ >= epoch_length_) {
    return Status::FailedPrecondition("the epoch is over");
  }
  StepResult step;
  step.chronon = now_;

  // 1. Reveal EIs starting now (dead parents were retired eagerly).
  index_.ActivateArrivals(now_, [](int) { return true; });

  // Expired cool-downs move to probation before scoring, so a half-open
  // resource competes in this chronon's selection.
  health_.BeginChronon(now_);

  // 2. Score the live candidates, reduced to one minimal selection key
  //    per resource (candidate keys and resource keys select
  //    identically; see CandidateIndex); with a `now`-independent policy
  //    only stale resources and arrivals are rescored. Open-circuit
  //    resources are skipped, so their budget flows to the next-ranked
  //    candidates.
  std::size_t scored = index_.CollectResourceCandidates(
      now_, [&](const IndexedEi& flat) { return SelectionKey(flat); },
      [&](ResourceId r) { return health_.IsSuppressed(r); },
      [&](ResourceId r, int live) { health_.NoteSuppressed(r, live); },
      &entries_);
  stats_.candidates_scored += scored;
  stats_.max_concurrent_candidates =
      std::max(stats_.max_concurrent_candidates, scored);

  // 3. Partial top-C_now selection over resources, best first.
  int budget = budget_.at(now_);
  if (budget > 0 && !entries_.empty()) {
    std::size_t take =
        CandidateIndex::SelectTopResources(&entries_, budget);
    int probes_this_chronon = 0;
    for (std::size_t e = 0; e < take; ++e) {
      if (probes_this_chronon >= budget) break;
      ResourceId r = entries_[e].resource;
      ++probes_this_chronon;
      ++stats_.probes_used;
      bool success = probe_callback_ ? probe_callback_(r, now_) : true;
      health_.RecordProbe(r, now_, success);
      if (!success) {
        ++stats_.probes_failed;
        // Same-chronon retries with exponential backoff, each charged
        // one budget unit; abandoned when the accumulated wait would
        // cross the chronon boundary, the budget runs dry, or the
        // breaker opens the resource's circuit mid-loop (retrying a
        // resource the breaker just gave up on wastes budget).
        double waited = 0.0;
        double backoff = options_.retry.backoff_base;
        for (int attempt = 0; attempt < options_.retry.max_retries &&
                              probes_this_chronon < budget &&
                              !health_.CircuitOpen(r);
             ++attempt) {
          waited += backoff;
          if (waited > options_.retry.backoff_budget) break;
          backoff *= options_.retry.backoff_multiplier;
          ++probes_this_chronon;
          ++stats_.probes_used;
          ++stats_.retries_issued;
          ++stats_.retry_probes_spent;
          success = probe_callback_(r, now_);
          health_.RecordProbe(r, now_, success);
          if (success) break;
          ++stats_.probes_failed;
        }
      }
      if (!success) {
        // Nothing was delivered: candidates on r stay candidates.
        // Record which parents the failure touched for attribution.
        index_.ForEachLiveOnResource(r, [&](int, const IndexedEi& miss) {
          fault_touched_[static_cast<std::size_t>(miss.t_id)] = 1;
        });
        continue;
      }
      step.probed.push_back(r);
      PULLMON_CHECK_OK(schedule_.AddProbe(r, now_));

      // 4. The probe captures every live candidate on this resource; a
      //    completed parent's other EIs leave the index at once.
      index_.CaptureResource(r, [&](int, const IndexedEi& hit) {
        TIntervalRuntime& parent =
            runtimes_[static_cast<std::size_t>(hit.t_id)];
        parent.ei_captured[static_cast<std::size_t>(hit.ei_index)] = 1;
        ++parent.num_captured;
        parent.selected = true;
        if (parent.num_captured >= parent.required) {
          parent.completed = true;
          ++completed_;
          RetireParent(hit.t_id);
          const int submission =
              submission_id_[static_cast<std::size_t>(hit.t_id)];
          step.captured.emplace_back(parent.profile, submission);
          if (capture_callback_) {
            capture_callback_(parent.profile, submission, now_);
          }
        } else {
          InvalidateParent(hit.t_id);
        }
      });
    }
    // Reclaim accounting: at most probes_this_chronon of the budget units
    // a suppressed resource would have taken actually flowed to other
    // resources this chronon (an upper bound; see HealthStats).
    health_.NoteBudgetReclaimed(
        std::min(health_.SuppressedThisChronon(),
                 static_cast<std::size_t>(probes_this_chronon)));
  }

  // 5. Expire EIs whose window ends now; the parent fails once too few
  //    EIs remain alive to reach its required capture count (with the
  //    all-required default, any uncaptured expiry fails it).
  index_.ExpireEnding(now_, [&](int, const IndexedEi& flat) {
    TIntervalRuntime& parent =
        runtimes_[static_cast<std::size_t>(flat.t_id)];
    if (parent.failed || parent.completed ||
        cancelled_[static_cast<std::size_t>(flat.t_id)]) {
      return;
    }
    ++parent.num_expired;
    if (parent.num_captured + parent.NumAlive() < parent.required) {
      parent.failed = true;
      ++failed_;
      RetireParent(flat.t_id);
      if (fault_touched_[static_cast<std::size_t>(flat.t_id)]) {
        ++stats_.t_intervals_lost_to_faults;
      }
      step.failed.emplace_back(
          parent.profile,
          submission_id_[static_cast<std::size_t>(flat.t_id)]);
    } else {
      InvalidateParent(flat.t_id);
    }
  });

  ++now_;
  return step;
}

Result<CompletenessReport> DynamicMonitor::RunToEnd() {
  while (now_ < epoch_length_) {
    PULLMON_ASSIGN_OR_RETURN(StepResult step, Step());
    (void)step;
  }
  return Completeness();
}

CompletenessReport DynamicMonitor::Completeness() const {
  CompletenessReport report;
  report.per_profile.resize(profile_names_.size());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    // Withdrawn submissions leave the denominator: the client no longer
    // wants them, so they are neither captured nor missed.
    if (cancelled_[t]) continue;
    const TIntervalRuntime& rt = runtimes_[t];
    auto& pc = report.per_profile[static_cast<std::size_t>(rt.profile)];
    ++pc.total;
    ++report.total_t_intervals;
    report.total_weight += rt.weight;
    if (IsCaptured(*rt.source, schedule_)) {
      ++pc.captured;
      ++report.captured_t_intervals;
      report.captured_weight += rt.weight;
    }
  }
  return report;
}

MonitorImage DynamicMonitor::Capture() const {
  MonitorImage image;
  image.now = now_;
  image.profile_names = profile_names_;
  image.profile_unregistered = profile_unregistered_;
  image.submissions.reserve(runtimes_.size());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    MonitorSubmissionImage sub;
    sub.profile = rt.profile;
    sub.definition = *rt.source;
    sub.ei_captured = rt.ei_captured;
    sub.num_expired = rt.num_expired;
    sub.cancelled = cancelled_[t];
    sub.fault_touched = fault_touched_[t];
    sub.failed = rt.failed ? 1 : 0;
    sub.completed = rt.completed ? 1 : 0;
    sub.selected = rt.selected ? 1 : 0;
    image.submissions.push_back(std::move(sub));
  }
  image.probes_by_chronon.reserve(static_cast<std::size_t>(now_));
  for (Chronon t = 0; t < now_; ++t) {
    image.probes_by_chronon.push_back(schedule_.ProbesAt(t));
  }
  image.stats = stats_;
  image.health = health_.Capture();
  return image;
}

Status DynamicMonitor::Restore(const MonitorImage& image) {
  if (!IsFresh()) {
    return Status::FailedPrecondition(
        "Restore() requires a freshly constructed monitor");
  }
  if (image.now < 0 || image.now > epoch_length_) {
    return Status::InvalidArgument(StringFormat(
        "image chronon %d outside epoch of length %d", image.now,
        epoch_length_));
  }
  if (image.profile_unregistered.size() != image.profile_names.size()) {
    return Status::InvalidArgument(
        "image profile arrays disagree on the profile count");
  }
  if (image.probes_by_chronon.size() !=
      static_cast<std::size_t>(image.now)) {
    return Status::InvalidArgument(
        "image schedule does not cover exactly the chronons before now");
  }
  // The profile registry first, so submissions can validate against it.
  for (const std::string& name : image.profile_names) {
    RegisterProfile(name);
  }
  profile_unregistered_ = image.profile_unregistered;

  // Replay every submission through the AppendSubmission bookkeeping
  // (rank high-water marks, per-profile submission ids, flat EI ids come
  // out exactly as the original run produced them), then lay the
  // captured/expired/terminal state of the image over the runtimes.
  for (const MonitorSubmissionImage& sub : image.submissions) {
    if (sub.profile < 0 ||
        sub.profile >= static_cast<ProfileId>(profile_names_.size())) {
      return Status::InvalidArgument(StringFormat(
          "image submission names unknown profile %d", sub.profile));
    }
    PULLMON_RETURN_NOT_OK(sub.definition.Validate(Epoch{epoch_length_}));
    if (sub.ei_captured.size() != sub.definition.size()) {
      return Status::InvalidArgument(
          "image capture flags do not match the definition's EI count");
    }
    int t_id = static_cast<int>(runtimes_.size());
    submitted_.push_back(sub.definition);
    AppendSubmission(sub.profile, &submitted_.back());
    TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    rt.ei_captured = sub.ei_captured;
    rt.num_captured = 0;
    for (uint8_t flag : sub.ei_captured) rt.num_captured += flag != 0;
    rt.num_expired = sub.num_expired;
    rt.failed = sub.failed != 0;
    rt.completed = sub.completed != 0;
    rt.selected = sub.selected != 0;
    cancelled_[static_cast<std::size_t>(t_id)] = sub.cancelled;
    fault_touched_[static_cast<std::size_t>(t_id)] = sub.fault_touched;
    if (rt.completed) ++completed_;
    if (rt.failed) ++failed_;
  }
  // The replay lays cancelled flags after AppendSubmission's high-water
  // growth already ran, so bring every profile's rank back to the exact
  // (non-cancelled) value the interrupted run was carrying.
  for (ProfileId p = 0;
       p < static_cast<ProfileId>(profile_names_.size()); ++p) {
    RecomputeProfileRank(p);
  }

  now_ = image.now;
  for (Chronon t = 0; t < image.now; ++t) {
    for (ResourceId r :
         image.probes_by_chronon[static_cast<std::size_t>(t)]) {
      PULLMON_RETURN_NOT_OK(schedule_.AddProbe(r, t));
    }
  }
  stats_ = image.stats;
  PULLMON_RETURN_NOT_OK(health_.Restore(image.health));

  // The candidate structures come back through the rebuild oracle:
  // decision-identical to the incrementally maintained index (the churn
  // differential suite enforces it), so a restored run schedules exactly
  // what the uninterrupted run would have.
  RebuildIndex();
  return CheckInvariants();
}

Status DynamicMonitor::CheckInvariants() const {
  PULLMON_RETURN_NOT_OK(index_.CheckInvariants(
      [&](const IndexedEi& flat) { return SelectionKey(flat); }));
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
    const TIntervalRuntime& rt = runtimes_[t];
    int captured = 0;
    for (uint8_t flag : rt.ei_captured) captured += flag != 0;
    if (captured != rt.num_captured) {
      return Status::InvalidArgument(StringFormat(
          "t-interval %zu capture counter %d != %d flagged EIs", t,
          rt.num_captured, captured));
    }
    if (rt.completed && rt.num_captured < rt.required) {
      return Status::InvalidArgument(StringFormat(
          "t-interval %zu completed with %d of %d required captures", t,
          rt.num_captured, rt.required));
    }
    const bool dead = rt.completed || rt.failed || cancelled_[t] != 0;
    if (!dead) continue;
    int begin = first_flat_[t];
    int end = begin + rt.NumEis();
    for (int fid = begin; fid < end; ++fid) {
      const IndexedEi& flat = index_.at(fid);
      if (flat.active && !flat.dead) {
        return Status::InvalidArgument(StringFormat(
            "dead t-interval %zu still holds live EI (flat id %d)", t,
            fid));
      }
    }
  }
  return Status::OK();
}

void CollectRunCounters(const DynamicMonitor& monitor, OnlineRunResult* run) {
  const MonitorStats& ms = monitor.stats();
  run->schedule = monitor.schedule();
  run->probes_used = ms.probes_used;
  run->t_intervals_completed = monitor.t_intervals_completed();
  run->t_intervals_failed = monitor.t_intervals_failed();
  run->candidates_scored = ms.candidates_scored;
  run->max_concurrent_candidates = ms.max_concurrent_candidates;
  run->probes_failed = ms.probes_failed;
  run->retries_issued = ms.retries_issued;
  run->retry_probes_spent = ms.retry_probes_spent;
  run->t_intervals_lost_to_faults = ms.t_intervals_lost_to_faults;
  const ResourceHealthTracker& health = monitor.health();
  const HealthStats& hs = health.stats();
  run->circuits_opened = hs.circuits_opened;
  run->circuits_reopened = hs.circuits_reopened;
  run->probation_probes = hs.probation_probes;
  run->probation_successes = hs.probation_successes;
  run->probes_suppressed = hs.probes_suppressed;
  run->budget_reclaimed = hs.budget_reclaimed;
  run->open_chronons_total = hs.open_chronons_total;
  if (health.breaker_enabled()) {
    run->open_chronons_by_resource = health.OpenChrononsByResource();
  }
}

}  // namespace pullmon
