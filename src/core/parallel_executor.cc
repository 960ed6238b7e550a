#include "core/parallel_executor.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace pullmon {

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

WorkerPool::WorkerPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  if (threads_ <= 1) return;
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::Run(int num_jobs, const std::function<void(int)>& fn) {
  if (num_jobs <= 0) return;
  if (workers_.empty()) {
    for (int job = 0; job < num_jobs; ++job) fn(job);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_jobs_ = num_jobs;
    next_job_ = 0;
    jobs_done_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return jobs_done_ == num_jobs_; });
  fn_ = nullptr;
}

void WorkerPool::WorkerLoop() {
  int seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return shutdown_ || (generation_ != seen_generation &&
                           next_job_ < num_jobs_);
    });
    if (shutdown_) return;
    const int generation = generation_;
    while (generation_ == generation && next_job_ < num_jobs_) {
      const int job = next_job_++;
      const std::function<void(int)>* fn = fn_;
      lock.unlock();
      (*fn)(job);
      lock.lock();
      ++jobs_done_;
      if (jobs_done_ == num_jobs_) done_cv_.notify_all();
    }
    seen_generation = generation;
  }
}

// ---------------------------------------------------------------------
// ParallelExecutor
// ---------------------------------------------------------------------

ParallelExecutor::ParallelExecutor(int num_resources, Chronon epoch_length,
                                   BudgetVector budget, Policy* policy,
                                   ExecutionMode mode,
                                   ParallelOptions options)
    : num_resources_(num_resources),
      epoch_length_(epoch_length),
      budget_(std::move(budget)),
      policy_(policy),
      mode_(mode),
      options_(options),
      health_(num_resources, options.breaker),
      shard_map_(options.shards),
      shard_of_resource_(shard_map_.AssignResources(num_resources)),
      pool_(options.threads),
      schedule_(epoch_length) {
  const std::size_t shards = static_cast<std::size_t>(options_.shards);
  partitions_.reserve(shards);
  for (int s = 0; s < options_.shards; ++s) {
    partitions_.emplace_back(num_resources, epoch_length);
    partitions_.back().set_cache_keys(policy_->ScoreIgnoresNow());
  }
  global_of_local_.resize(shards);
  shard_entries_.resize(shards);
  shard_take_.assign(shards, 0);
  shard_suppressed_.resize(shards);
  shard_scored_.assign(shards, 0);
  merge_pos_.assign(shards, 0);
  expiry_pos_.assign(shards, 0);
  shard_stats_.shard_count = options_.shards;
  shard_stats_.candidates_scored.assign(shards, 0);
  shard_stats_.probes_executed.assign(shards, 0);
  tokens_by_worker_.resize(static_cast<std::size_t>(pool_.threads()));
  policy_->Reset();
  policy_->AttachHealth(&health_);
}

ProfileId ParallelExecutor::RegisterProfile(std::string name) {
  profile_names_.push_back(std::move(name));
  rank_of_profile_.push_back(0);
  profile_unregistered_.push_back(0);
  runtimes_of_profile_.emplace_back();
  return static_cast<ProfileId>(profile_names_.size()) - 1;
}

Result<int> ParallelExecutor::ResolveSubmission(ProfileId profile,
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

Result<int> ParallelExecutor::Submit(ProfileId profile,
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

Status ParallelExecutor::LoadProblem(const MonitoringProblem& problem) {
  if (now_ != 0 || !runtimes_.empty() || !profile_names_.empty()) {
    return Status::FailedPrecondition(
        "LoadProblem() requires a freshly constructed executor");
  }
  if (problem.num_resources != num_resources_ ||
      problem.epoch.length != epoch_length_) {
    return Status::InvalidArgument(
        "problem shape does not match the executor's resources and epoch");
  }
  for (const Profile& p : problem.profiles) {
    const ProfileId pid = RegisterProfile(p.name());
    rank_of_profile_[static_cast<std::size_t>(pid)] =
        static_cast<int>(p.rank());
    for (const TInterval& eta : p.t_intervals()) {
      ++stats_.submitted;
      AppendSubmission(pid, &eta);
    }
  }
  return Status::OK();
}

int ParallelExecutor::AppendSubmission(ProfileId profile,
                                       const TInterval* t_interval) {
  const TInterval& stored = *t_interval;
  int t_id = static_cast<int>(runtimes_.size());

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

  // Register the EIs into their owning shard partitions; local flat ids
  // are handed out in global registration order, so within any one
  // shard they sort exactly like the serial executor's global ids.
  handles_of_runtime_.emplace_back();
  auto& handles = handles_of_runtime_.back();
  handles.reserve(stored.eis().size());
  for (std::size_t i = 0; i < stored.eis().size(); ++i) {
    const ExecutionInterval& ei = stored.eis()[i];
    const int shard =
        shard_of_resource_[static_cast<std::size_t>(ei.resource)];
    const int local =
        partitions_[static_cast<std::size_t>(shard)].AddEi(
            ei, t_id, static_cast<int>(i));
    const int global = static_cast<int>(handle_of_global_.size());
    PULLMON_CHECK(
        local ==
        static_cast<int>(global_of_local_[static_cast<std::size_t>(shard)]
                             .size()));
    global_of_local_[static_cast<std::size_t>(shard)].push_back(global);
    EiHandle handle{shard, local};
    handle_of_global_.push_back(handle);
    handles.push_back(handle);
  }
  return submission;
}

void ParallelExecutor::RetireParent(int t_id) {
  for (const EiHandle& h :
       handles_of_runtime_[static_cast<std::size_t>(t_id)]) {
    partitions_[static_cast<std::size_t>(h.shard)].Deactivate(h.local_id);
  }
}

void ParallelExecutor::InvalidateParent(int t_id) {
  for (const EiHandle& h :
       handles_of_runtime_[static_cast<std::size_t>(t_id)]) {
    partitions_[static_cast<std::size_t>(h.shard)].InvalidateRange(
        h.local_id, 1);
  }
}

std::pair<int, double> ParallelExecutor::SelectionKey(
    const IndexedEi& flat) const {
  const TIntervalRuntime& parent =
      runtimes_[static_cast<std::size_t>(flat.t_id)];
  const int np_class =
      (mode_ == ExecutionMode::kNonPreemptive && !parent.selected) ? 1 : 0;
  return {np_class, policy_->Score(flat.ei, parent, flat.ei_index, now_)};
}

void ParallelExecutor::RecomputeProfileRank(ProfileId profile) {
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

void ParallelExecutor::CancelLive(int t_id) {
  TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
  stats_.orphaned_probes += static_cast<std::size_t>(rt.num_captured);
  cancelled_[static_cast<std::size_t>(t_id)] = 1;
  RetireParent(t_id);
  // Rank is exact (see DynamicMonitor's churn semantics): withdrawing
  // the submission that carried the profile's maximum may lower it.
  if (static_cast<int>(rt.source->size()) >=
      rank_of_profile_[static_cast<std::size_t>(rt.profile)]) {
    RecomputeProfileRank(rt.profile);
  }
}

Status ParallelExecutor::Cancel(ProfileId profile, int submission_id) {
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

Result<int> ParallelExecutor::Unregister(ProfileId profile) {
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

Result<int> ParallelExecutor::Edit(ProfileId profile, int submission_id,
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

void ParallelExecutor::CaptureOnProbe(ResourceId resource,
                                      StepResult* step) {
  const int shard =
      shard_of_resource_[static_cast<std::size_t>(resource)];
  partitions_[static_cast<std::size_t>(shard)].CaptureResource(
      resource, [&](int, const IndexedEi& hit) {
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
          step->captured.emplace_back(parent.profile, submission);
          if (capture_callback_) {
            if (hooks_.decide) {
              // Defer past the execute phase: the callback reads probe
              // payloads that exist only after commit.
              PendingOp op;
              op.kind = PendingOp::Kind::kCapture;
              op.profile = parent.profile;
              op.submission_id = submission;
              ops_.push_back(op);
            } else {
              capture_callback_(parent.profile, submission, now_);
            }
          }
        } else {
          InvalidateParent(hit.t_id);
        }
      });
}

void ParallelExecutor::MergeShardSelections(int budget) {
  merged_entries_.clear();
  const int S = options_.shards;
  std::fill(merge_pos_.begin(), merge_pos_.end(), 0);
  // S-way merge of sorted shard prefixes under the serial executor's
  // total order: (np_class, score, deadline, global flat id) ascending.
  // The shard prefixes each hold their shard's best min(budget, ·)
  // resources, so the union covers the global top-budget set.
  while (static_cast<int>(merged_entries_.size()) < budget) {
    int best_shard = -1;
    int best_global = 0;
    for (int s = 0; s < S; ++s) {
      const std::size_t p = merge_pos_[static_cast<std::size_t>(s)];
      if (p >= shard_take_[static_cast<std::size_t>(s)]) continue;
      const ResourceCandidate& c =
          shard_entries_[static_cast<std::size_t>(s)][p];
      const int global =
          global_of_local_[static_cast<std::size_t>(s)]
                          [static_cast<std::size_t>(c.flat_id)];
      if (best_shard < 0) {
        best_shard = s;
        best_global = global;
        continue;
      }
      const ResourceCandidate& b =
          shard_entries_[static_cast<std::size_t>(best_shard)]
                        [merge_pos_[static_cast<std::size_t>(best_shard)]];
      bool better;
      if (c.np_class != b.np_class) {
        better = c.np_class < b.np_class;
      } else if (c.score != b.score) {
        better = c.score < b.score;
      } else if (c.deadline != b.deadline) {
        better = c.deadline < b.deadline;
      } else {
        better = global < best_global;
      }
      if (better) {
        best_shard = s;
        best_global = global;
      }
    }
    if (best_shard < 0) break;
    ResourceCandidate chosen =
        shard_entries_[static_cast<std::size_t>(best_shard)]
                      [merge_pos_[static_cast<std::size_t>(best_shard)]];
    chosen.flat_id = best_global;  // expose the global id downstream
    merged_entries_.push_back(chosen);
    ++merge_pos_[static_cast<std::size_t>(best_shard)];
  }
  shard_stats_.merge_entries += merged_entries_.size();
}

Result<StepResult> ParallelExecutor::Step() {
  if (!validated_options_) {
    PULLMON_RETURN_NOT_OK(options_.retry.Validate());
    PULLMON_RETURN_NOT_OK(options_.breaker.Validate());
    if (options_.shards < 1) {
      return Status::InvalidArgument("shards must be >= 1");
    }
    validated_options_ = true;
  }
  if (now_ >= epoch_length_) {
    return Status::FailedPrecondition("the epoch is over");
  }
  StepResult step;
  step.chronon = now_;
  const int S = options_.shards;

  if (hooks_.begin_chronon) hooks_.begin_chronon(now_, pool_.threads());

  // 1. Reveal EIs starting now, per shard in parallel (each shard's
  // starting list touches only that shard's partition).
  pool_.Run(S, [&](int s) {
    partitions_[static_cast<std::size_t>(s)].ActivateArrivals(
        now_, [](int) { return true; });
  });

  health_.BeginChronon(now_);

  // 2. Score per shard in parallel and select each shard's local top-k
  // against the budget slice. The health tracker is only *read* here
  // (IsSuppressed); suppression telemetry is deferred and applied
  // serially below so the tracker never sees concurrent writes.
  const int budget = budget_.at(now_);
  pool_.Run(S, [&](int s) {
    const std::size_t si = static_cast<std::size_t>(s);
    shard_suppressed_[si].clear();
    shard_scored_[si] =
        partitions_[si].CollectResourceCandidates(
            now_, [&](const IndexedEi& flat) { return SelectionKey(flat); },
            [&](ResourceId r) { return health_.IsSuppressed(r); },
            [&](ResourceId r, int live) {
              shard_suppressed_[si].emplace_back(r, live);
            },
            &shard_entries_[si]);
    shard_take_[si] =
        budget > 0 ? CandidateIndex::SelectTopResources(
                         &shard_entries_[si], budget)
                   : 0;
  });

  // Serial post-barrier bookkeeping: suppression telemetry in shard
  // order (the recorded values are order-independent counters) and the
  // scored-work counters.
  std::size_t scored = 0;
  for (int s = 0; s < S; ++s) {
    const std::size_t si = static_cast<std::size_t>(s);
    for (const auto& [r, live] : shard_suppressed_[si]) {
      health_.NoteSuppressed(r, live);
    }
    scored += shard_scored_[si];
    shard_stats_.candidates_scored[si] += shard_scored_[si];
  }
  stats_.candidates_scored += scored;
  stats_.max_concurrent_candidates =
      std::max(stats_.max_concurrent_candidates, scored);

  // 3. Control pass: merge the shard selections into the global order,
  // then run the serial executor's exact budget/retry/breaker loop. In
  // hook mode every attempt's fate is *decided* here (serially, in
  // canonical order) and its data-plane work is deferred to phase 4.
  ops_.clear();
  for (auto& lane : tokens_by_worker_) lane.clear();
  int tokens_issued = 0;
  const int num_workers = pool_.threads();
  auto decide_attempt = [&](ResourceId r) {
    if (hooks_.decide) {
      const int token = tokens_issued++;
      const bool success = hooks_.decide(r, now_, token);
      PendingOp op;
      op.kind = PendingOp::Kind::kAttempt;
      op.token = token;
      ops_.push_back(op);
      const int worker =
          shard_of_resource_[static_cast<std::size_t>(r)] % num_workers;
      tokens_by_worker_[static_cast<std::size_t>(worker)].push_back(token);
      return success;
    }
    return probe_callback_ ? probe_callback_(r, now_) : true;
  };

  if (budget > 0) {
    MergeShardSelections(budget);
    int probes_this_chronon = 0;
    for (const ResourceCandidate& entry : merged_entries_) {
      if (probes_this_chronon >= budget) break;
      ResourceId r = entry.resource;
      const std::size_t shard =
          static_cast<std::size_t>(shard_of_resource_[
              static_cast<std::size_t>(r)]);
      ++probes_this_chronon;
      ++stats_.probes_used;
      ++shard_stats_.probes_executed[shard];
      bool success = decide_attempt(r);
      health_.RecordProbe(r, now_, success);
      if (!success) {
        ++stats_.probes_failed;
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
          ++shard_stats_.probes_executed[shard];
          ++stats_.retries_issued;
          ++stats_.retry_probes_spent;
          success = decide_attempt(r);
          health_.RecordProbe(r, now_, success);
          if (success) break;
          ++stats_.probes_failed;
        }
      }
      if (!success) {
        partitions_[shard].ForEachLiveOnResource(
            r, [&](int, const IndexedEi& miss) {
              fault_touched_[static_cast<std::size_t>(miss.t_id)] = 1;
            });
        continue;
      }
      step.probed.push_back(r);
      PULLMON_CHECK_OK(schedule_.AddProbe(r, now_));
      CaptureOnProbe(r, &step);
    }
    health_.NoteBudgetReclaimed(
        std::min(health_.SuppressedThisChronon(),
                 static_cast<std::size_t>(probes_this_chronon)));
  }

  // 4. Execute phase: the decided attempts' fetch/parse/cache work runs
  // concurrently, one lane per worker, each lane in canonical order.
  // All attempts of one shard go to one worker, so per-resource session
  // state (etags, cache entries, server-side lazy caches) is
  // single-writer within the phase.
  if (hooks_.execute && tokens_issued > 0) {
    pool_.Run(num_workers, [&](int w) {
      const auto& lane = tokens_by_worker_[static_cast<std::size_t>(w)];
      if (!lane.empty()) hooks_.execute(lane, w);
    });
  }

  // 5. Commit replay: apply attempt payloads and fire capture
  // notifications in exactly the order the serial executor interleaves
  // them.
  for (const PendingOp& op : ops_) {
    if (op.kind == PendingOp::Kind::kAttempt) {
      if (hooks_.commit) hooks_.commit(op.token);
    } else {
      capture_callback_(op.profile, op.submission_id, now_);
    }
  }

  // 6. Expiry: S-way merge of the per-shard ending lists back into the
  // global registration order (the serial executor's expiry order).
  std::fill(expiry_pos_.begin(), expiry_pos_.end(), 0);
  auto expire_fn = [&](int, const IndexedEi& flat) {
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
  };
  while (true) {
    int best_shard = -1;
    int best_global = std::numeric_limits<int>::max();
    for (int s = 0; s < S; ++s) {
      const std::size_t si = static_cast<std::size_t>(s);
      const auto& list = partitions_[si].EndingAt(now_);
      if (expiry_pos_[si] >= list.size()) continue;
      const int global =
          global_of_local_[si]
                          [static_cast<std::size_t>(list[expiry_pos_[si]])];
      if (best_shard < 0 || global < best_global) {
        best_shard = s;
        best_global = global;
      }
    }
    if (best_shard < 0) break;
    const std::size_t si = static_cast<std::size_t>(best_shard);
    const int local = partitions_[si].EndingAt(now_)[expiry_pos_[si]];
    partitions_[si].ExpireOne(local, expire_fn);
    ++expiry_pos_[si];
  }

  ++now_;
  return step;
}

Result<CompletenessReport> ParallelExecutor::RunToEnd() {
  while (now_ < epoch_length_) {
    PULLMON_ASSIGN_OR_RETURN(StepResult step, Step());
    (void)step;
  }
  return Completeness();
}

CompletenessReport ParallelExecutor::Completeness() const {
  CompletenessReport report;
  report.per_profile.resize(profile_names_.size());
  for (std::size_t t = 0; t < runtimes_.size(); ++t) {
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

Status ParallelExecutor::CheckInvariants() const {
  for (const CandidateIndex& partition : partitions_) {
    PULLMON_RETURN_NOT_OK(partition.CheckInvariants(
        [&](const IndexedEi& flat) { return SelectionKey(flat); }));
  }
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
    for (const EiHandle& h : handles_of_runtime_[t]) {
      const IndexedEi& flat =
          partitions_[static_cast<std::size_t>(h.shard)].at(h.local_id);
      if (flat.active && !flat.dead) {
        return Status::InvalidArgument(StringFormat(
            "dead t-interval %zu still holds live EI (shard %d local %d)",
            t, h.shard, h.local_id));
      }
    }
  }
  return Status::OK();
}

}  // namespace pullmon
