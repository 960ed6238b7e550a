#ifndef PULLMON_CORE_PARALLEL_EXECUTOR_H_
#define PULLMON_CORE_PARALLEL_EXECUTOR_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/candidate_index.h"
#include "core/completeness.h"
#include "core/dynamic_monitor.h"
#include "core/online_executor.h"
#include "core/policy.h"
#include "core/problem.h"
#include "core/resource_health.h"
#include "core/shard_map.h"
#include "util/status.h"

namespace pullmon {

/// Fixed-size pool of worker threads for the parallel executor's
/// fork/join phases. Run() hands jobs 0..num_jobs-1 to the pool and
/// blocks until all complete; workers grab jobs dynamically (coarse
/// work stealing — jobs are per-shard, so there are at most a few
/// dozen). With `threads` <= 1 the pool spawns nothing and Run()
/// executes inline, making the single-threaded configuration literally
/// the serial code path.
///
/// Memory-ordering contract (DESIGN.md section 16): every job pickup
/// and completion is sequenced through the pool mutex, so all writes a
/// worker makes inside fn(job) happen-before Run()'s return on the
/// calling thread — phases need no atomics on the data they hand over.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  /// Executes fn(0) .. fn(num_jobs - 1), each exactly once, on the pool
  /// (inline when the pool is serial). Blocks until every job is done.
  /// fn must not call Run() reentrantly.
  void Run(int num_jobs, const std::function<void(int)>& fn);

 private:
  void WorkerLoop();

  const int threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a generation
  std::condition_variable done_cv_;   // Run() waits for completion
  const std::function<void(int)>* fn_ = nullptr;
  int generation_ = 0;
  int num_jobs_ = 0;
  int next_job_ = 0;
  int jobs_done_ = 0;
  bool shutdown_ = false;
};

/// Externalized probe execution of the parallel pipeline (DESIGN.md
/// section 16). The executor splits each probe attempt into three
/// phases so the data-plane work (network fetch, parse, cache) runs
/// concurrently while every order-sensitive decision stays serial:
///
///  * decide(resource, chronon, token): serial, in canonical attempt
///    order — draws the attempt's fate (fault stream, validator
///    prediction) and returns success/failure so the control pass can
///    run retries/breaker exactly like the serial executor. Tokens are
///    dense per chronon, issued in decide order.
///  * execute(tokens, worker): parallel — performs the fetch/parse/
///    cache work of the given tokens, in token order, on the given
///    worker lane. All tokens of one resource shard go to one worker.
///  * commit(token): serial, in canonical order — applies the attempt's
///    counters and payload to the report/session state.
///  * begin_chronon(now, num_workers): serial, before the first decide
///    of each chronon.
///
/// When no hooks are installed the executor falls back to the plain
/// probe callback (decided serially, nothing to execute or commit).
struct ParallelProbeHooks {
  std::function<void(Chronon, int)> begin_chronon;
  std::function<bool(ResourceId, Chronon, int)> decide;
  std::function<void(const std::vector<int>&, int)> execute;
  std::function<void(int)> commit;
};

/// Behavioral knobs of the parallel executor. Defaults mirror
/// MonitorOptions plus the parallelism controls.
struct ParallelOptions {
  RetryPolicy retry;
  BreakerOptions breaker;
  /// Worker threads for the parallel phases; <= 1 runs every phase
  /// inline (still sharded, so telemetry is thread-count invariant).
  int threads = 1;
  /// Resource shards (consistent hashing via ShardMap). Fixed
  /// independently of `threads`: per-shard state and telemetry are
  /// identical across thread counts, which is what makes the full
  /// report bit-identical at 1/2/4/8 threads.
  int shards = kDefaultShards;

  static constexpr int kDefaultShards = 16;
};

/// Per-shard telemetry of one parallel run (mirrored into
/// ProxyRunReport's shard_* block). Depends on the shard map and the
/// workload only — never on the thread count.
struct ShardRunStats {
  int shard_count = 0;
  /// Candidate EIs scored per shard, summed over chronons.
  std::vector<std::size_t> candidates_scored;
  /// Probe attempts whose resource belonged to the shard.
  std::vector<std::size_t> probes_executed;
  /// Total entries that went through the two-phase merge.
  std::size_t merge_entries = 0;

  bool operator==(const ShardRunStats& other) const = default;
};

/// Multi-threaded implementation of the online monitoring semantics
/// (DESIGN.md section 16): resources are sharded by consistent hashing
/// (ShardMap — the same map a multi-proxy tier would use), each shard
/// owns a CandidateIndex partition, and each chronon runs as
///
///   [parallel] per-shard activation -> health begin
///   -> [parallel] per-shard scoring + shard-local top-k selection
///   -> serial ordered merge (two-phase: shard top-k, then an S-way
///      reduction under the global (np_class, score, deadline, flat id)
///      order) -> serial control pass (budget, retries, breaker,
///      capture bookkeeping — decision order identical to the serial
///      executor) -> [parallel] probe execution via ParallelProbeHooks
///   -> serial commit replay -> serial merged expiry.
///
/// The probe set, schedule, stats, and health trajectory are
/// bit-identical to DynamicMonitor/OnlineExecutor on the same workload
/// (the thread-invariance and differential suites enforce it); the
/// parallel phases only touch shard-disjoint state, and every phase
/// boundary synchronizes through the WorkerPool mutex.
///
/// Requirements: the policy's Score() must be a pure function of its
/// arguments and attached health state (true of every shipped policy —
/// documented on Policy), because shards score concurrently.
///
/// Checkpoint/restore is not offered on this executor; durable runs use
/// the serial monitor (config validation enforces it).
class ParallelExecutor {
 public:
  using CaptureCallback =
      std::function<void(ProfileId, int /*submission id*/, Chronon)>;
  using ProbeCallback = std::function<bool(ResourceId, Chronon)>;

  /// `policy` must outlive the executor; it is Reset() on construction.
  ParallelExecutor(int num_resources, Chronon epoch_length,
                   BudgetVector budget, Policy* policy, ExecutionMode mode,
                   ParallelOptions options = ParallelOptions{});

  /// Serial fallback probe path (same contract as DynamicMonitor's).
  void set_probe_callback(ProbeCallback callback) {
    probe_callback_ = std::move(callback);
  }

  /// Three-phase probe pipeline; overrides the plain probe callback.
  void set_probe_hooks(ParallelProbeHooks hooks) {
    hooks_ = std::move(hooks);
  }

  /// Invoked when a t-interval completes, during the commit replay (so
  /// a proxy layer reads fully committed payloads), in the exact order
  /// the serial executor would have fired it.
  void set_capture_callback(CaptureCallback callback) {
    capture_callback_ = std::move(callback);
  }

  // --- Churn surface (identical contract to DynamicMonitor). ----------
  ProfileId RegisterProfile(std::string name);
  Result<int> Submit(ProfileId profile, TInterval t_interval);
  Status Cancel(ProfileId profile, int submission_id);
  Result<int> Unregister(ProfileId profile);
  Result<int> Edit(ProfileId profile, int submission_id,
                   TInterval replacement);
  /// Borrowing bulk load (identical contract to DynamicMonitor's).
  Status LoadProblem(const MonitoringProblem& problem);

  /// Executes the current chronon through the sharded pipeline.
  Result<StepResult> Step();
  Result<CompletenessReport> RunToEnd();

  Chronon now() const { return now_; }
  Chronon epoch_length() const { return epoch_length_; }
  const Schedule& schedule() const { return schedule_; }
  std::size_t t_intervals_submitted() const { return runtimes_.size(); }
  std::size_t t_intervals_completed() const { return completed_; }
  std::size_t t_intervals_failed() const { return failed_; }
  std::size_t t_intervals_cancelled() const { return stats_.cancelled; }
  const MonitorStats& stats() const { return stats_; }
  const ShardRunStats& shard_stats() const { return shard_stats_; }
  const ResourceHealthTracker& health() const { return health_; }
  const ShardMap& shard_map() const { return shard_map_; }
  int num_workers() const { return pool_.threads(); }

  CompletenessReport Completeness() const;

  /// Per-partition index audit plus parent bookkeeping checks (the
  /// parallel fuzz/differential suites run this between steps).
  Status CheckInvariants() const;

 private:
  /// Where one EI of a runtime lives: its shard partition and its dense
  /// index *within* that partition (partition-local flat id).
  struct EiHandle {
    int shard = 0;
    int local_id = 0;
  };

  bool IsLive(int t_id) const {
    const TIntervalRuntime& rt = runtimes_[static_cast<std::size_t>(t_id)];
    return !rt.completed && !rt.failed &&
           !cancelled_[static_cast<std::size_t>(t_id)];
  }

  Result<int> ResolveSubmission(ProfileId profile, int submission_id) const;
  /// `t_interval` must outlive the executor (see DynamicMonitor).
  int AppendSubmission(ProfileId profile, const TInterval* t_interval);
  void RetireParent(int t_id);
  /// Reports a change to a live parent's score inputs to the key cache
  /// of every partition holding one of its EIs.
  void InvalidateParent(int t_id);
  /// (np_class, score) of a live candidate (partition-independent).
  std::pair<int, double> SelectionKey(const IndexedEi& flat) const;
  void CancelLive(int t_id);
  /// Recomputes `profile`'s rank as the maximum t-interval size over its
  /// non-cancelled submissions (same exact-rank contract as
  /// DynamicMonitor::RecomputeProfileRank).
  void RecomputeProfileRank(ProfileId profile);

  /// Serial capture bookkeeping of a successful probe of `resource`
  /// (parent accounting + retire + capture-event recording); capture
  /// callbacks are deferred into `ops_` when hooks are active.
  void CaptureOnProbe(ResourceId resource, StepResult* step);

  /// S-way merge of the per-shard sorted prefixes into the global
  /// best-first order (ties by translated global flat id).
  void MergeShardSelections(int budget);

  int num_resources_;
  Chronon epoch_length_;
  BudgetVector budget_;
  Policy* policy_;
  ExecutionMode mode_;
  ParallelOptions options_;
  ProbeCallback probe_callback_;
  ParallelProbeHooks hooks_;
  CaptureCallback capture_callback_;
  ResourceHealthTracker health_;
  bool validated_options_ = false;

  ShardMap shard_map_;
  /// Dense resource -> shard (precomputed from the ring).
  std::vector<int> shard_of_resource_;
  /// One CandidateIndex per shard, holding only the shard's EIs under
  /// partition-local flat ids.
  std::vector<CandidateIndex> partitions_;
  /// Partition-local flat id -> global flat id, per shard. Local ids
  /// are assigned in global registration order, so within one shard
  /// local-id comparisons agree with global-id comparisons (the
  /// within-shard tiebreak stays correct without translation).
  std::vector<std::vector<int>> global_of_local_;
  /// Global flat id -> owning EI handle.
  std::vector<EiHandle> handle_of_global_;
  /// Per runtime: handles of its EIs, in EI order.
  std::vector<std::vector<EiHandle>> handles_of_runtime_;

  WorkerPool pool_;

  Chronon now_ = 0;
  Schedule schedule_;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  MonitorStats stats_;
  ShardRunStats shard_stats_;

  /// Owned copies of Submit/Edit t-intervals (loaded ones are borrowed).
  std::deque<TInterval> submitted_;
  std::vector<TIntervalRuntime> runtimes_;
  std::vector<uint8_t> cancelled_;
  std::vector<uint8_t> fault_touched_;
  std::vector<int> submission_id_;
  std::vector<int> rank_of_profile_;
  std::vector<uint8_t> profile_unregistered_;
  std::vector<std::vector<int>> runtimes_of_profile_;
  std::vector<std::string> profile_names_;

  // --- Per-chronon scratch (sized once, reused). ----------------------
  /// Per-shard candidate entries (flat ids are partition-local).
  std::vector<std::vector<ResourceCandidate>> shard_entries_;
  /// Usable sorted prefix of each shard's entries after top-k.
  std::vector<std::size_t> shard_take_;
  /// Per-shard (resource, live count) pairs deferred from the scoring
  /// phase to the serial NoteSuppressed application.
  std::vector<std::vector<std::pair<ResourceId, int>>> shard_suppressed_;
  /// Per-shard candidates scored this chronon.
  std::vector<std::size_t> shard_scored_;
  /// Globally merged selection, best first (flat ids are global).
  std::vector<ResourceCandidate> merged_entries_;
  /// Merge/expiry cursors, one per shard (reused across chronons).
  std::vector<std::size_t> merge_pos_;
  std::vector<std::size_t> expiry_pos_;

  /// One replayable operation of the commit phase.
  struct PendingOp {
    enum class Kind { kAttempt, kCapture };
    Kind kind = Kind::kAttempt;
    int token = -1;             // kAttempt
    ProfileId profile = 0;      // kCapture
    int submission_id = 0;      // kCapture
  };
  std::vector<PendingOp> ops_;
  /// Tokens grouped by worker lane (worker = shard % threads), each
  /// lane's tokens in canonical decide order.
  std::vector<std::vector<int>> tokens_by_worker_;
};

}  // namespace pullmon

#endif  // PULLMON_CORE_PARALLEL_EXECUTOR_H_
