// The end-to-end benchmark of the monitoring proxy (see README.md).
//
// Runs one named workload through the entry points `pullmon_cli run`
// calls, checks every report against the entry point's report field for
// field, and prints one JSON line: the end-to-end metrics with tracing
// off, or (--trace=1) a per-layer split of the epoch timed from calls
// into each layer's public functions.
//
//   pullmon_perfbench --workload=select_heavy --seed=1 --seconds=10
//   pullmon_perfbench --workload=fetch_heavy --seed=1 --seconds=10 --trace=1
//
// Exit status: 0 when every run succeeded and every report matched, 1
// when a check failed (the JSON line then says "correct": false), 2 on
// bad flags.

#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest-spi.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/online_executor.h"
#include "policies/policy_factory.h"
#include "profilegen/profile_generator.h"
#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "tests/report_equality.h"
#include "trace/feed_workload.h"
#include "trace/poisson_generator.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pullmon {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread. Every workload runs on one thread, so
/// this is the run's own work without the time the thread waited: for a
/// core of the shared host (steal time) or for the disk.
double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- Workloads. ------------------------------------------------------------

/// Which entry point of the CLI a workload runs through.
enum class EntryPoint {
  /// MonitoringProxy::Run, as RunProxyOnce wires it.
  kProxy,
  /// RunDurableOnce over a DirectoryStorage (--checkpoint-dir).
  kDurable,
  /// RunAdaptiveOnce (--proxy --knowledge=estimated).
  kAdaptive,
};

struct Workload {
  EntryPoint entry = EntryPoint::kProxy;
  SimulationConfig config;
  /// Instances a run averages over, each built from its own seed
  /// derived from the workload seed (see PanelSeed).
  int panel = 4;
};

/// Every workload schedules with MRSF(P) on one thread.
const PolicySpec& MrsfP() {
  static const PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  return spec;
}

/// The epoch length K of every workload: the run-length knob.
constexpr Chronon kEpochLength = 1500;

/// The four workloads of README.md.
Result<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  SimulationConfig& c = w.config;
  c = BaselineConfig();
  c.epoch_length = kEpochLength;
  c.executor_backend = ExecutorBackend::kIndexed;
  c.threads = 1;
  if (name == "select_heavy") {
    c.dataset = DatasetKind::kPoisson;
    c.num_resources = 2000;
    c.num_profiles = 20000;
    c.max_rank = 3;
    c.window = 20;
    c.budget = 1;
    w.panel = 8;
  } else if (name == "fetch_heavy") {
    c.dataset = DatasetKind::kFeedWorkload;
    c.num_resources = 2000;
    c.num_profiles = 2000;
    c.budget = 8;
    c.faults.timeout_rate = 0.02;
    c.faults.corruption_rate = 0.01;
    c.faults.etag_storm_rate = 0.01;
    c.retry.max_retries = 1;
    c.breaker.enabled = true;
    c.parse_cache = true;
    c.trace_backend = TraceBackend::kPaged;
    w.panel = 8;
  } else if (name == "churn_durable") {
    c.dataset = DatasetKind::kPoisson;
    c.num_resources = 2000;
    c.num_profiles = 5000;
    c.budget = 2;
    c.churn.enabled = true;
    c.churn.ops_per_chronon = 32.0;
    c.churn.cancel_fraction = 0.60;
    c.churn.edit_fraction = 0.39;
    c.churn.unregister_fraction = 0.01;
    c.churn.zipf_theta = 0.5;
    w.entry = EntryPoint::kDurable;
  } else if (name == "adaptive_feeds") {
    c.dataset = DatasetKind::kFeedWorkload;
    c.num_resources = 1000;
    c.num_profiles = 2000;
    c.budget = 4;
    c.knowledge = KnowledgeModel::kEstimated;
    w.entry = EntryPoint::kAdaptive;
    w.panel = 32;
  } else {
    return Status::InvalidArgument(
        "unknown workload '" + name +
        "' (expected: select_heavy | fetch_heavy | churn_durable | "
        "adaptive_feeds)");
  }
  return w;
}

// --- One built problem and the proxy wiring of RunProxyOnce. ----------------

/// What BuildProblem produces: the problem plus the trace the feed
/// network replays (in memory or paged). Held by pointer because the
/// network keeps pointers into it.
struct Instance {
  UpdateTrace trace{0, 0};
  std::optional<TraceStore> store;
  MonitoringProblem problem;
};

Result<std::unique_ptr<Instance>> BuildInstance(const SimulationConfig& config,
                                                uint64_t seed) {
  auto instance = std::make_unique<Instance>();
  PULLMON_ASSIGN_OR_RETURN(
      instance->problem,
      BuildProblem(config, seed, &instance->trace, &instance->store));
  return instance;
}

/// The set-up layers: BuildProblem replayed from its public pieces so
/// trace generation and profile generation are timed apart.
struct SetupLayers {
  double trace_s = 0.0;
  double profiles_s = 0.0;
};

Result<std::unique_ptr<Instance>> ReplayBuildProblem(
    const SimulationConfig& config, uint64_t seed, SetupLayers* layers) {
  auto instance = std::make_unique<Instance>();
  Rng rng(seed);
  ProfileGeneratorOptions pg;
  pg.num_profiles = config.num_profiles;
  pg.max_rank = config.max_rank;
  pg.alpha = config.alpha;
  pg.beta = config.beta;
  pg.ei_options.restriction = config.restriction;
  pg.ei_options.window = config.window;
  pg.max_t_intervals_per_profile = config.max_t_intervals_per_profile;
  const bool paged = config.trace_backend == TraceBackend::kPaged;

  auto start = Clock::now();
  if (config.dataset == DatasetKind::kPoisson) {
    PoissonTraceOptions options;
    options.num_resources = config.num_resources;
    options.epoch_length = config.epoch_length;
    options.lambda = config.lambda;
    if (paged) {
      PULLMON_ASSIGN_OR_RETURN(
          TraceStore store,
          GeneratePoissonTraceStore(options, &rng, config.trace_store));
      instance->store.emplace(std::move(store));
    } else {
      PULLMON_ASSIGN_OR_RETURN(instance->trace,
                               GeneratePoissonTrace(options, &rng));
    }
  } else if (config.dataset == DatasetKind::kFeedWorkload) {
    FeedWorkloadOptions options = config.feed_workload;
    options.num_feeds = config.num_resources;
    options.epoch_length = config.epoch_length;
    if (paged) {
      PULLMON_ASSIGN_OR_RETURN(
          TraceStore store,
          GenerateFeedWorkloadStore(options, &rng, config.trace_store));
      instance->store.emplace(std::move(store));
    } else {
      PULLMON_ASSIGN_OR_RETURN(instance->trace,
                               GenerateFeedWorkload(options, &rng));
    }
  } else {
    return Status::InvalidArgument("no workload uses this dataset");
  }
  layers->trace_s = SecondsSince(start);

  start = Clock::now();
  if (paged) {
    PULLMON_ASSIGN_OR_RETURN(instance->problem.profiles,
                             GenerateProfiles(*instance->store, pg, &rng));
  } else {
    PULLMON_ASSIGN_OR_RETURN(instance->problem.profiles,
                             GenerateProfiles(instance->trace, pg, &rng));
  }
  layers->profiles_s = SecondsSince(start);

  instance->problem.num_resources = config.num_resources;
  instance->problem.epoch.length = config.epoch_length;
  instance->problem.budget =
      BudgetVector::Uniform(config.budget, config.epoch_length);
  return instance;
}

/// A fresh feed network over the instance's trace (network state is
/// consumed by a run, so every epoch gets its own).
std::unique_ptr<FeedNetwork> MakeNetwork(const Instance& instance,
                                         const SimulationConfig& config) {
  const auto capacity = static_cast<std::size_t>(
      config.feed_buffer_capacity < 1 ? 1 : config.feed_buffer_capacity);
  if (instance.store.has_value()) {
    return std::make_unique<FeedNetwork>(&*instance.store, capacity);
  }
  return std::make_unique<FeedNetwork>(&instance.trace, capacity);
}

/// The policy RunProxyOnce makes for a seed.
Result<std::unique_ptr<Policy>> MakeRunPolicy(
    const MonitoringProblem& problem, uint64_t seed) {
  PolicyOptions po;
  po.random_seed = seed ^ 0x5bf03635ULL;
  po.num_resources = problem.num_resources;
  return MakePolicy(MrsfP().policy, po);
}

/// The proxy options RunProxyOnce derives from a config and seed.
ProxyOptions MakeProxyOptions(const SimulationConfig& config, uint64_t seed) {
  ProxyOptions options;
  options.faults = config.faults;
  options.fault_seed = config.fault_seed ^ (seed * 0x9E3779B97F4A7C15ULL);
  options.retry = config.retry;
  options.breaker = config.breaker;
  options.backend = config.executor_backend;
  options.parse_cache = config.parse_cache;
  options.trace_backend = config.trace_backend;
  options.threads = config.threads;
  return options;
}

struct Epoch {
  ProxyRunReport report;
  /// Wall time of the epoch; set-up included for RunWholeEpoch.
  double seconds = 0.0;
  /// Thread CPU time of the same span; RunEpoch takes set-up out of it.
  double cpu_seconds = 0.0;
};

/// One untraced epoch: MonitoringProxy::Run, timed directly.
Result<Epoch> RunProxyEpoch(const Instance& instance,
                            const SimulationConfig& config, uint64_t seed) {
  std::unique_ptr<FeedNetwork> network = MakeNetwork(instance, config);
  PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                           MakeRunPolicy(instance.problem, seed));
  MonitoringProxy proxy(&instance.problem, network.get(), policy.get(),
                        MrsfP().mode, MakeProxyOptions(config, seed));
  Epoch epoch;
  const double cpu_start = ThreadCpuSeconds();
  const auto start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(epoch.report, proxy.Run());
  epoch.seconds = SecondsSince(start);
  epoch.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  return epoch;
}

/// Where one traced epoch spent its wall time. The self times plus
/// residual_s add up to epoch_s; layers the workload does not run stay 0.
struct TracedEpoch {
  double epoch_s = 0.0;
  /// FeedNetwork::AdvanceTo before each chronon's first probe.
  double replay_s = 0.0;
  /// FeedServer::FetchView just before each probe (harness cost).
  double render_s = 0.0;
  /// FeedPullSession::Probe: transport, fault plan, parse, parse cache.
  double probe_s = 0.0;
  /// OnlineExecutor::Run minus the time spent in its callbacks.
  double select_s = 0.0;
  /// The capture callback: building and storing the notification.
  double notify_s = 0.0;
  /// StableStorage::AppendFile: WAL group flushes, fdatasync included.
  double append_s = 0.0;
  /// StableStorage::WriteFile: snapshot writes.
  double snapshot_write_s = 0.0;
  /// What no layer above accounts for: on the proxy workloads timer
  /// reads, callback dispatch and the report copy after Run().
  double residual_s = 0.0;
  std::size_t events_published = 0;
  std::size_t probes = 0;
  std::size_t renders = 0;
  std::size_t render_bytes = 0;
  std::size_t items_copied = 0;
  /// Wall time of each chronon: from the first probe of one chronon to
  /// the first probe of the next (a gap of g chronons gives g samples),
  /// or between WAL group flushes.
  std::vector<double> chronon_us;
};

/// One traced epoch: MonitoringProxy::Run composed from OnlineExecutor
/// and FeedPullSession with the benchmark's own callbacks, wired the way
/// Run() wires them, so the report must equal the untraced one.
Result<ProxyRunReport> RunTracedProxyEpoch(const Instance& instance,
                                           const SimulationConfig& config,
                                           uint64_t seed,
                                           TracedEpoch* layers) {
  std::unique_ptr<FeedNetwork> network = MakeNetwork(instance, config);
  PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Policy> policy,
                           MakeRunPolicy(instance.problem, seed));
  const ProxyOptions options = MakeProxyOptions(config, seed);
  *layers = TracedEpoch{};
  const auto epoch_start = Clock::now();

  ProxyRunReport report;
  OnlineExecutor executor(&instance.problem, policy.get(), MrsfP().mode);
  executor.set_retry_policy(options.retry);
  executor.set_breaker_options(options.breaker);
  executor.set_backend(options.backend);
  FeedPullSession session(network.get(), instance.problem.num_resources,
                          options, &report);
  std::vector<ProxyNotification> notifications;
  // Publish count of each server when its body was last rendered: a
  // FetchView renders only when the server published since.
  std::vector<std::size_t> rendered_at(network->num_servers(),
                                       std::numeric_limits<std::size_t>::max());
  double callback_s = 0.0;
  Chronon current = -1;
  Clock::time_point chronon_start;

  executor.set_probe_callback([&](ResourceId resource, Chronon now) {
    const auto entered = Clock::now();
    if (now != current) {
      if (current >= 0) {
        const double us =
            std::chrono::duration<double, std::micro>(entered - chronon_start)
                .count() /
            static_cast<double>(now - current);
        layers->chronon_us.insert(layers->chronon_us.end(),
                                  static_cast<std::size_t>(now - current), us);
      }
      current = now;
      chronon_start = entered;
      network->AdvanceTo(now);
      layers->replay_s += SecondsSince(entered);
    }
    const auto render_start = Clock::now();
    if (FeedServer* server = network->server(resource); server != nullptr) {
      std::size_t& last = rendered_at[static_cast<std::size_t>(resource)];
      const std::size_t body_bytes = server->FetchView().size();
      if (last != server->publish_count()) {
        last = server->publish_count();
        ++layers->renders;
        layers->render_bytes += body_bytes;
      }
    }
    const auto probe_start = Clock::now();
    layers->render_s +=
        std::chrono::duration<double>(probe_start - render_start).count();
    const bool ok = session.Probe(resource, now);
    layers->probe_s += SecondsSince(probe_start);
    ++layers->probes;
    callback_s += SecondsSince(entered);
    return ok;
  });

  executor.set_capture_callback(
      [&](ProfileId profile, std::size_t t_interval_index, Chronon now) {
        const auto entered = Clock::now();
        ProxyNotification notification;
        notification.profile = profile;
        notification.t_interval_index = t_interval_index;
        notification.chronon = now;
        if (now == session.fetch_chronon()) {
          notification.items = session.current_items();
        }
        layers->items_copied += notification.items.size();
        notifications.push_back(std::move(notification));
        ++report.notifications_delivered;
        const double spent = SecondsSince(entered);
        layers->notify_s += spent;
        callback_s += spent;
      });

  const auto run_start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(report.run, executor.Run());
  layers->select_s = SecondsSince(run_start) - callback_s;
  // The report fields MonitoringProxy::Run mirrors from the run.
  report.probes_failed = report.run.probes_failed;
  report.retries_issued = report.run.retries_issued;
  report.retry_probes_spent = report.run.retry_probes_spent;
  report.circuits_opened = report.run.circuits_opened;
  report.circuits_reopened = report.run.circuits_reopened;
  report.probation_probes = report.run.probation_probes;
  report.probation_successes = report.run.probation_successes;
  report.probes_suppressed = report.run.probes_suppressed;
  report.budget_reclaimed = report.run.budget_reclaimed;
  report.open_chronons_total = report.run.open_chronons_total;
  report.open_chronons_by_resource = report.run.open_chronons_by_resource;
  report.shard_count = report.run.shard_count;
  report.shard_candidates_scored = report.run.shard_candidates_scored;
  report.shard_probes_executed = report.run.shard_probes_executed;
  report.shard_merge_entries = report.run.shard_merge_entries;
  const std::size_t total = instance.problem.TotalTIntervalCount();
  report.gc_lost_to_faults =
      total == 0 ? 0.0
                 : static_cast<double>(report.run.t_intervals_lost_to_faults) /
                       static_cast<double>(total);
  session.FinishReport();
  layers->epoch_s = SecondsSince(epoch_start);

  layers->residual_s = layers->epoch_s - layers->replay_s - layers->render_s -
                       layers->probe_s - layers->select_s - layers->notify_s;
  for (std::size_t r = 0; r < network->num_servers(); ++r) {
    layers->events_published +=
        network->server(static_cast<ResourceId>(r))->publish_count();
  }
  return report;
}

// --- The durable and adaptive entry points. --------------------------------

/// StableStorage decorator that times the WAL group flushes (AppendFile,
/// fdatasync included) and snapshot writes (WriteFile) of the wrapped
/// storage.
class TimingStorage : public StableStorage {
 public:
  explicit TimingStorage(StableStorage* inner) : inner_(inner) {}

  Status WriteFile(const std::string& name, std::string_view bytes) override {
    const auto start = Clock::now();
    Status status = inner_->WriteFile(name, bytes);
    snapshot_write_s += SecondsSince(start);
    snapshot_bytes += bytes.size();
    return status;
  }
  Status AppendFile(const std::string& name, std::string_view bytes) override {
    const auto start = Clock::now();
    Status status = inner_->AppendFile(name, bytes);
    const auto end = Clock::now();
    append_s += std::chrono::duration<double>(end - start).count();
    ++appends;
    append_bytes += bytes.size();
    append_ends.push_back(end);
    return status;
  }
  Result<std::string> ReadFile(const std::string& name) const override {
    return inner_->ReadFile(name);
  }
  Status TruncateFile(const std::string& name, std::size_t size) override {
    return inner_->TruncateFile(name, size);
  }
  Status RemoveFile(const std::string& name) override {
    return inner_->RemoveFile(name);
  }
  Result<std::vector<std::string>> ListFiles() const override {
    return inner_->ListFiles();
  }

  double append_s = 0.0;
  std::size_t appends = 0;
  std::size_t append_bytes = 0;
  /// End of every group flush: one per chronon, so successive gaps are
  /// per-chronon wall times.
  std::vector<Clock::time_point> append_ends;
  double snapshot_write_s = 0.0;
  std::size_t snapshot_bytes = 0;

 private:
  StableStorage* inner_;
};

/// An entry point that builds its own problem, timed as a whole
/// (set-up included; callers subtract the set-up time).
template <typename Call>
Result<Epoch> RunWholeEpoch(Call entry) {
  Epoch epoch;
  const double cpu_start = ThreadCpuSeconds();
  const auto start = Clock::now();
  PULLMON_ASSIGN_OR_RETURN(epoch.report, entry());
  epoch.seconds = SecondsSince(start);
  epoch.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  return epoch;
}

/// RunDurableOnce as `pullmon_cli run --checkpoint-dir` calls it.
Result<Epoch> RunDurableEpoch(const SimulationConfig& config, uint64_t seed,
                              StableStorage* storage) {
  DurableOptions options;
  options.storage = storage;
  options.checkpoint_every = config.checkpoint_every;
  return RunWholeEpoch(
      [&] { return RunDurableOnce(config, MrsfP(), seed, options); });
}

// --- Checks. ----------------------------------------------------------------

/// Collects the outcome of every check of one benchmark run.
class Checker {
 public:
  explicit Checker(Chronon epoch_length) : epoch_length_(epoch_length) {}

  /// Field-for-field report equality (tests/report_equality.h), with its
  /// gtest failures captured instead of aborting the process.
  void ReportsEqual(const ProxyRunReport& expected,
                    const ProxyRunReport& actual, const std::string& label) {
    testing::TestPartResultArray failures;
    {
      testing::ScopedFakeTestPartResultReporter reporter(
          testing::ScopedFakeTestPartResultReporter::
              INTERCEPT_ONLY_CURRENT_THREAD,
          &failures);
      ExpectProxyReportsEqual(expected, actual, epoch_length_, label);
    }
    for (int i = 0; i < failures.size(); ++i) {
      Fail(failures.GetTestPartResult(i).message());
    }
  }

  void Expect(bool condition, const std::string& what) {
    if (!condition) Fail(what);
  }

  void Fail(const std::string& what) {
    ok_ = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }

  bool ok() const { return ok_; }

 private:
  Chronon epoch_length_;
  bool ok_ = true;
};

// --- Output. ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The deterministic outcome of one epoch: equal for equal (workload,
/// seed) in every process, which run.py checks across runs.
std::string Fingerprint(const ProxyRunReport& r) {
  std::uint64_t schedule_hash = 0xcbf29ce484222325ULL;
  for (Chronon t = 0; t < r.run.schedule.epoch_length(); ++t) {
    for (ResourceId probe : r.run.schedule.ProbesAt(t)) {
      schedule_hash ^= static_cast<std::uint64_t>(probe) + 1 +
                       (static_cast<std::uint64_t>(t) << 32);
      schedule_hash *= 0x100000001b3ULL;
    }
  }
  return StringFormat(
      "gc=%.17g probes_used=%zu notifications=%zu items_parsed=%zu "
      "feeds_fetched=%zu probes_failed=%zu churn=%zu/%zu/%zu/%zu/%zu "
      "orphaned=%zu estimation=%zu/%zu/%zu/%zu/%zu schedule=%016" PRIx64,
      r.run.completeness.GainedCompleteness(), r.run.probes_used,
      r.notifications_delivered, r.items_parsed, r.feeds_fetched,
      r.probes_failed, r.churn_submitted, r.churn_cancelled, r.churn_edited,
      r.churn_unregistered_profiles, r.churn_rejected_ops, r.orphaned_probes,
      r.estimation_forecast_refreshes, r.estimation_predicted_eis,
      r.estimation_explore_probes, r.estimation_update_events,
      r.estimation_not_modified, schedule_hash);
}

/// An epoch's seed and its report, for the fingerprints.
using Outcome = std::pair<uint64_t, const ProxyRunReport*>;

/// Prints the result line. An epoch that fails ends the run without a
/// result line, so "failed" is 0 whenever one is printed.
void PrintResult(const Checker& checker, std::size_t attempted,
                 const std::vector<Metric>& metrics,
                 const std::vector<Outcome>& outcomes) {
  std::string out = StringFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": 0, "
      "\"metrics\": {",
      checker.ok() ? "true" : "false", attempted);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += StringFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", metrics[i].name.c_str(),
                        metrics[i].value, metrics[i].unit.c_str());
  }
  out += "}, \"fingerprints\": {";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    out += StringFormat("%s\"%" PRIu64 "\": \"%s\"", i == 0 ? "" : ", ",
                        outcomes[i].first,
                        Fingerprint(*outcomes[i].second).c_str());
  }
  out += "}}";
  std::cout << out << std::endl;
}

// --- The two kinds of run. --------------------------------------------------

struct RunArgs {
  Workload workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  std::string checkpoint_dir;
};

/// The seed of panel instance `i`; instance 0 runs at the workload seed
/// itself, so it is the run `pullmon_cli run --seed=<seed>` makes.
uint64_t PanelSeed(uint64_t seed, int i) {
  return seed + static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ULL;
}

/// One epoch of the workload at `seed`, as its entry point runs it: the
/// problem is built first and its thread CPU time is returned alone in
/// `setup_cpu_s`; the epoch's `cpu_seconds` excludes it. `storage` backs
/// the durable workload.
Result<Epoch> RunEpoch(const Workload& workload, uint64_t seed,
                       StableStorage* storage, double* setup_cpu_s) {
  const SimulationConfig& config = workload.config;
  const double start = ThreadCpuSeconds();
  PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Instance> instance,
                           BuildInstance(config, seed));
  *setup_cpu_s = ThreadCpuSeconds() - start;
  Epoch epoch;
  switch (workload.entry) {
    case EntryPoint::kProxy:
      return RunProxyEpoch(*instance, config, seed);
    case EntryPoint::kDurable: {
      // The entry point builds its own problem: subtract the set-up.
      instance.reset();
      PULLMON_ASSIGN_OR_RETURN(epoch, RunDurableEpoch(config, seed, storage));
      break;
    }
    case EntryPoint::kAdaptive: {
      instance.reset();
      PULLMON_ASSIGN_OR_RETURN(epoch, RunWholeEpoch([&] {
                                 return RunAdaptiveOnce(config, MrsfP(),
                                                        seed);
                               }));
      break;
    }
  }
  epoch.cpu_seconds -= *setup_cpu_s;
  return epoch;
}

/// Panel instances the peak-RSS measurement runs, all at once. The peak
/// depends on the inputs alone and hardly varies between instances.
constexpr int kRssInstances = 4;

/// peak_rss_mb: ru_maxrss of a fresh process per panel instance, each
/// forked before the run allocates anything and running one epoch,
/// averaged over the first kRssInstances of the panel. Durable instances
/// get their own checkpoint directories beside `checkpoint_dir`.
Result<double> MeasurePeakRssMb(const Workload& workload, uint64_t seed,
                                const std::string& checkpoint_dir) {
  const int instances = std::min(workload.panel, kRssInstances);
  std::vector<pid_t> children;
  bool ok = true;
  for (int i = 0; i < instances && ok; ++i) {
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid == 0) {
      DirectoryStorage storage(
          StringFormat("%s-rss-%d", checkpoint_dir.c_str(), i));
      double setup_s = 0.0;
      const bool run_ok =
          (workload.entry != EntryPoint::kDurable || storage.Prepare().ok()) &&
          RunEpoch(workload, PanelSeed(seed, i), &storage, &setup_s).ok();
      std::_Exit(run_ok ? 0 : 1);
    }
    if (pid < 0) {
      ok = false;
    } else {
      children.push_back(pid);
    }
  }
  double total_mb = 0.0;
  for (pid_t pid : children) {
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ok = false;
    } else {
      total_mb += static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
    }
  }
  if (!ok) return Status::Internal("a peak-RSS process failed");
  return total_mb / instances;
}

/// --trace=0: the end-to-end metrics. After one untimed warm-up epoch,
/// epochs cycle through the panel until `seconds` have passed (at least
/// one full cycle).
Status RunEndToEnd(const RunArgs& args) {
  const Workload& workload = args.workload;
  const Chronon k = workload.config.epoch_length;
  const int panel = workload.panel;
  Checker checker(k);
  std::size_t attempted = 0;
  DirectoryStorage storage(args.checkpoint_dir);
  if (workload.entry == EntryPoint::kDurable) {
    PULLMON_RETURN_NOT_OK(storage.Prepare());
  }
  attempted += static_cast<std::size_t>(std::min(panel, kRssInstances));
  PULLMON_ASSIGN_OR_RETURN(
      const double peak_rss_mb,
      MeasurePeakRssMb(workload, args.seed, args.checkpoint_dir));

  std::vector<std::optional<ProxyRunReport>> reports(
      static_cast<std::size_t>(panel));
  // Times are thread CPU seconds: on the shared host, steal time and the
  // durable workload's disk waits would otherwise swamp the program's
  // own cost (see README.md). The first epoch warms the heap and the
  // caches and is not timed.
  std::vector<double> setups, epochs;
  double epoch_cpu_s = 0.0;
  double timed_probes = 0.0;
  const auto window = Clock::now();
  for (int e = -1; e < panel || SecondsSince(window) < args.seconds; ++e) {
    const int i = std::max(e, 0) % panel;
    double setup_s = 0.0;
    ++attempted;
    PULLMON_ASSIGN_OR_RETURN(
        Epoch epoch,
        RunEpoch(workload, PanelSeed(args.seed, i), &storage, &setup_s));
    if (e >= 0) {
      setups.push_back(setup_s);
      epochs.push_back(epoch.cpu_seconds);
      epoch_cpu_s += epoch.cpu_seconds;
      timed_probes += static_cast<double>(epoch.report.run.probes_used);
    }
    std::optional<ProxyRunReport>& first = reports[static_cast<std::size_t>(i)];
    if (!first.has_value()) {
      first = std::move(epoch.report);
    } else {
      checker.ReportsEqual(*first, epoch.report,
                           StringFormat("panel %d, epoch %d", i, e));
    }
  }
  if (workload.entry == EntryPoint::kProxy) {
    // The output check: the CLI's entry point on the same config/seed.
    ++attempted;
    PULLMON_ASSIGN_OR_RETURN(
        ProxyRunReport entry,
        RunProxyOnce(workload.config, MrsfP(), args.seed));
    checker.ReportsEqual(entry, *reports[0], "RunProxyOnce vs timed run");
  }

  double gc = 0.0, probes = 0.0, failed = 0.0;
  std::vector<Outcome> outcomes;
  for (int i = 0; i < panel; ++i) {
    const ProxyRunReport& r = *reports[static_cast<std::size_t>(i)];
    gc += r.run.completeness.GainedCompleteness();
    probes += static_cast<double>(r.run.probes_used);
    failed += static_cast<double>(r.probes_failed);
    outcomes.emplace_back(PanelSeed(args.seed, i), &r);
  }
  checker.Expect(*std::min_element(epochs.begin(), epochs.end()) > 0.0,
                 "epoch CPU time must exceed set-up time");
  // Throughput over the whole timed window: work done / CPU time spent.
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s"},
      {"chronons_per_s",
       Ratio(static_cast<double>(k) * static_cast<double>(epochs.size()),
             epoch_cpu_s),
       "1/s"},
      {"probes_per_s", Ratio(timed_probes, epoch_cpu_s), "1/s"},
      {"gc", gc / panel, "ratio"},
      {"probe_ok_ratio", 1.0 - Ratio(failed, probes), "ratio"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  std::cerr << "perfbench: K=" << k << ", panel " << panel << ", "
            << epochs.size() << " timed epochs, CPU s (set-up/epoch):";
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    std::cerr << " " << setups[e] << "/" << epochs[e];
  }
  std::cerr << "\n";
  PrintResult(checker, attempted, metrics, outcomes);
  return checker.ok() ? Status::OK() : Status::Internal("check failed");
}

constexpr int kSetupReplays = 3;

/// --trace=1: the per-layer split, on the workload seed's instance:
/// after one warm-up epoch, untraced and traced epochs alternate until
/// `seconds` have passed.
Status RunTraced(const RunArgs& args) {
  const SimulationConfig& config = args.workload.config;
  const Chronon k = config.epoch_length;
  Checker checker(k);
  std::size_t attempted = 0;

  // Set-up: BuildProblem replayed from its pieces, its counts checked
  // against BuildProblem itself.
  std::vector<double> trace_s, profiles_s, setup_s;
  std::unique_ptr<Instance> replayed;
  for (int i = 0; i < kSetupReplays; ++i) {
    SetupLayers setup;
    PULLMON_ASSIGN_OR_RETURN(replayed,
                             ReplayBuildProblem(config, args.seed, &setup));
    trace_s.push_back(setup.trace_s);
    profiles_s.push_back(setup.profiles_s);
    setup_s.push_back(setup.trace_s + setup.profiles_s);
  }
  const double setup_median = Median(setup_s);
  const std::size_t t_intervals = replayed->problem.TotalTIntervalCount();
  const std::size_t eis = replayed->problem.TotalEiCount();
  {
    PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Instance> built,
                             BuildInstance(config, args.seed));
    checker.Expect(built->problem.TotalTIntervalCount() == t_intervals,
                   "replayed set-up: t-interval count differs");
    checker.Expect(built->problem.TotalEiCount() == eis,
                   "replayed set-up: EI count differs");
  }

  // Epoch layers: every traced epoch's split, and the untraced and twin
  // epoch times they are compared with.
  std::vector<TracedEpoch> traced;
  std::vector<double> untraced_s, twin_s;  // twin: RunChurnOnce or oracle
  std::vector<double> chronon_us;
  std::optional<ProxyRunReport> first;
  std::optional<ProxyRunReport> twin;
  std::size_t appends = 0, append_bytes = 0, snapshot_bytes = 0;
  const auto window = Clock::now();

  switch (args.workload.entry) {
    case EntryPoint::kProxy: {
      PULLMON_ASSIGN_OR_RETURN(std::unique_ptr<Instance> built,
                               BuildInstance(config, args.seed));
      ++attempted;
      PULLMON_ASSIGN_OR_RETURN(Epoch warm_up,
                               RunProxyEpoch(*built, config, args.seed));
      first = std::move(warm_up.report);
      do {
        ++attempted;
        PULLMON_ASSIGN_OR_RETURN(Epoch plain,
                                 RunProxyEpoch(*built, config, args.seed));
        untraced_s.push_back(plain.seconds);
        checker.ReportsEqual(*first, plain.report, "untraced repeat");
        ++attempted;
        TracedEpoch& split = traced.emplace_back();
        PULLMON_ASSIGN_OR_RETURN(
            ProxyRunReport report,
            RunTracedProxyEpoch(*replayed, config, args.seed, &split));
        checker.ReportsEqual(*first, report, "traced vs untraced");
        checker.Expect(split.probes == report.run.probes_used,
                       "probe callbacks differ from probes_used");
      } while (SecondsSince(window) < args.seconds);
      ++attempted;
      PULLMON_ASSIGN_OR_RETURN(ProxyRunReport entry,
                               RunProxyOnce(config, MrsfP(), args.seed));
      checker.ReportsEqual(entry, *first, "RunProxyOnce vs untraced");
      break;
    }
    case EntryPoint::kDurable: {
      DirectoryStorage directory(args.checkpoint_dir);
      PULLMON_RETURN_NOT_OK(directory.Prepare());
      SimulationConfig churn_config = config;
      churn_config.checkpoint_dir.clear();
      ++attempted;
      PULLMON_ASSIGN_OR_RETURN(Epoch warm_up,
                               RunDurableEpoch(config, args.seed, &directory));
      first = std::move(warm_up.report);
      do {
        ++attempted;
        PULLMON_ASSIGN_OR_RETURN(
            Epoch plain, RunDurableEpoch(config, args.seed, &directory));
        untraced_s.push_back(plain.seconds - setup_median);
        checker.ReportsEqual(*first, plain.report, "durable repeat");
        ++attempted;
        TimingStorage timing(&directory);
        PULLMON_ASSIGN_OR_RETURN(Epoch epoch,
                                 RunDurableEpoch(config, args.seed, &timing));
        checker.ReportsEqual(*first, epoch.report, "traced vs untraced");
        TracedEpoch& split = traced.emplace_back();
        split.epoch_s = epoch.seconds - setup_median;
        split.append_s = timing.append_s;
        split.snapshot_write_s = timing.snapshot_write_s;
        split.residual_s = split.epoch_s - split.append_s -
                           split.snapshot_write_s;
        for (std::size_t i = 1; i < timing.append_ends.size(); ++i) {
          split.chronon_us.push_back(
              std::chrono::duration<double, std::micro>(
                  timing.append_ends[i] - timing.append_ends[i - 1])
                  .count());
        }
        appends = timing.appends;
        append_bytes = timing.append_bytes;
        snapshot_bytes = timing.snapshot_bytes;
        // The durable twin: the same simulation without durability, which
        // must report the same on every non-recovery field.
        ++attempted;
        PULLMON_ASSIGN_OR_RETURN(Epoch churn, RunWholeEpoch([&] {
                                   return RunChurnOnce(churn_config, MrsfP(),
                                                       args.seed);
                                 }));
        checker.ReportsEqual(churn.report, *first, "RunChurnOnce vs durable");
        twin_s.push_back(churn.seconds - setup_median);
      } while (SecondsSince(window) < args.seconds);
      break;
    }
    case EntryPoint::kAdaptive: {
      // Timed only as a whole: nothing inside the adaptive epoch is
      // reachable from outside, so the untraced run is the traced one.
      SimulationConfig oracle_config = config;
      oracle_config.knowledge = KnowledgeModel::kOracle;
      auto run_adaptive = [&] {
        return RunWholeEpoch(
            [&] { return RunAdaptiveOnce(config, MrsfP(), args.seed); });
      };
      ++attempted;
      PULLMON_ASSIGN_OR_RETURN(Epoch warm_up, run_adaptive());
      first = std::move(warm_up.report);
      do {
        ++attempted;
        PULLMON_ASSIGN_OR_RETURN(Epoch adaptive, run_adaptive());
        TracedEpoch& split = traced.emplace_back();
        split.epoch_s = adaptive.seconds - setup_median;
        split.residual_s = split.epoch_s;
        untraced_s.push_back(split.epoch_s);
        checker.ReportsEqual(*first, adaptive.report, "adaptive repeat");
        // The oracle twin: the same inputs with FPN(1) knowledge.
        ++attempted;
        PULLMON_ASSIGN_OR_RETURN(Epoch oracle, RunWholeEpoch([&] {
                                   return RunProxyOnce(oracle_config, MrsfP(),
                                                       args.seed);
                                 }));
        twin_s.push_back(oracle.seconds - setup_median);
        if (!twin.has_value()) {
          twin = std::move(oracle.report);
        } else {
          checker.ReportsEqual(*twin, oracle.report, "oracle twin repeat");
        }
      } while (SecondsSince(window) < args.seconds);
      break;
    }
  }
  for (const TracedEpoch& split : traced) {
    chronon_us.insert(chronon_us.end(), split.chronon_us.begin(),
                      split.chronon_us.end());
  }
  // The layer times all come from the traced epoch of median wall time,
  // so they add up to its sim.epoch_s.
  std::sort(traced.begin(), traced.end(),
            [](const TracedEpoch& a, const TracedEpoch& b) {
              return a.epoch_s < b.epoch_s;
            });
  const TracedEpoch& mid = traced[(traced.size() - 1) / 2];
  const double untraced_median = Median(untraced_s);

  const ProxyRunReport& r = *first;
  const double fetched = static_cast<double>(r.feeds_fetched);
  const double probes = static_cast<double>(r.run.probes_used);
  const std::size_t churn_accepted =
      r.churn_cancelled + r.churn_edited + r.churn_unregistered_profiles;
  const double gc = r.run.completeness.GainedCompleteness();
  const double twin_gc =
      twin.has_value() ? twin->run.completeness.GainedCompleteness() : 0.0;
  const bool adaptive = args.workload.entry == EntryPoint::kAdaptive;
  const bool durable = args.workload.entry == EntryPoint::kDurable;
  auto count = [](std::size_t n) { return static_cast<double>(n); };

  std::vector<Metric> metrics = {
      // Set-up.
      {"trace.generate_s", Median(trace_s), "s"},
      {"profilegen.generate_s", Median(profiles_s), "s"},
      {"profilegen.t_intervals", count(t_intervals), "count"},
      {"profilegen.eis", count(eis), "count"},
      // Epoch layers.
      {"sim.epoch_s", mid.epoch_s, "s"},
      {"sim.residual_s", mid.residual_s, "s"},
      {"trace.replay_s", mid.replay_s, "s"},
      {"trace.events_published", count(mid.events_published), "count"},
      {"feeds.server_render_s", mid.render_s, "s"},
      {"feeds.server_renders", count(mid.renders), "count"},
      {"feeds.server_render_bytes", count(mid.render_bytes), "bytes"},
      {"feeds.probe_s", mid.probe_s, "s"},
      {"feeds.probes", probes, "count"},
      {"feeds.bytes", count(r.feed_bytes), "bytes"},
      {"feeds.items_parsed", count(r.items_parsed), "count"},
      {"feeds.fail_ratio", Ratio(count(r.probes_failed), probes), "ratio"},
      {"feeds.not_modified_ratio", Ratio(count(r.not_modified), fetched),
       "ratio"},
      {"feeds.parse_cache_hit_ratio",
       Ratio(count(r.parse_cache_hits),
             count(r.parse_cache_hits + r.parse_cache_misses)),
       "ratio"},
      {"core.select_s", mid.select_s, "s"},
      {"core.candidates_scored", count(r.run.candidates_scored), "count"},
      {"core.candidates_per_chronon",
       Ratio(count(r.run.candidates_scored), static_cast<double>(k)),
       "count"},
      {"core.max_concurrent_candidates",
       count(r.run.max_concurrent_candidates), "count"},
      {"sim.notify_s", mid.notify_s, "s"},
      {"sim.notifications", count(r.notifications_delivered), "count"},
      {"sim.notify_items_copied", count(mid.items_copied), "count"},
      {"sim.chronon_p50_us", Percentile(chronon_us, 0.50), "us"},
      {"sim.chronon_p99_us", Percentile(chronon_us, 0.99), "us"},
      {"sim.trace_overhead",
       adaptive ? 1.0 : Ratio(mid.epoch_s, untraced_median), "ratio"},
      // Durability.
      {"recovery.append_s", mid.append_s, "s"},
      {"recovery.appends", count(appends), "count"},
      {"recovery.append_bytes", count(append_bytes), "bytes"},
      {"recovery.snapshot_write_s", mid.snapshot_write_s, "s"},
      {"recovery.snapshot_bytes", count(snapshot_bytes), "bytes"},
      {"recovery.overhead",
       durable ? Ratio(untraced_median, Median(twin_s)) : 0.0, "ratio"},
      {"core.churn_accepted", count(churn_accepted), "count"},
      {"core.churn_reject_ratio",
       Ratio(count(r.churn_rejected_ops),
             count(churn_accepted + r.churn_rejected_ops)),
       "ratio"},
      {"core.orphaned_probes", count(r.orphaned_probes), "count"},
      // Estimation.
      {"estimation.gc_ratio", adaptive ? Ratio(gc, twin_gc) : 0.0, "ratio"},
      {"estimation.overhead",
       adaptive ? Ratio(untraced_median, Median(twin_s)) : 0.0, "ratio"},
      {"estimation.forecast_refreshes",
       count(r.estimation_forecast_refreshes), "count"},
      {"estimation.predicted_eis", count(r.estimation_predicted_eis),
       "count"},
      {"estimation.explore_probes", count(r.estimation_explore_probes),
       "count"},
      {"estimation.update_events", count(r.estimation_update_events),
       "count"},
      {"estimation.not_modified", count(r.estimation_not_modified), "count"},
  };
  PrintResult(checker, attempted, metrics, {{args.seed, &r}});
  return checker.ok() ? Status::OK() : Status::Internal("check failed");
}

int Main(int argc, char** argv) {
  FlagParser flags("pullmon_perfbench",
                   "End-to-end benchmark of the monitoring proxy.");
  flags.AddString("workload", "",
                  "select_heavy | fetch_heavy | churn_durable | "
                  "adaptive_feeds");
  flags.AddInt64("seed", 1, "workload seed");
  flags.AddDouble("seconds", 10.0, "how long the epochs are measured");
  flags.AddInt64("trace", 0, "1 = per-layer split instead of end to end");
  flags.AddString("checkpoint-dir", ".bench_build/perfbench-checkpoints",
                  "snapshot/WAL directory of churn_durable");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    return 2;
  }
  auto workload = MakeWorkload(flags.GetString("workload"));
  if (!workload.ok()) {
    std::cerr << workload.status().ToString() << "\n";
    return 2;
  }
  RunArgs args;
  args.workload = std::move(*workload);
  args.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  args.seconds = flags.GetDouble("seconds");
  args.checkpoint_dir = flags.GetString("checkpoint-dir");
  args.workload.config.checkpoint_dir =
      args.workload.entry == EntryPoint::kDurable ? args.checkpoint_dir : "";
  if (Status valid = args.workload.config.Validate(); !valid.ok()) {
    std::cerr << valid.ToString() << "\n";
    return 2;
  }
  Status run = flags.GetInt64("trace") != 0 ? RunTraced(args)
                                            : RunEndToEnd(args);
  if (!run.ok()) {
    std::cerr << "perfbench: " << run.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace pullmon

int main(int argc, char** argv) { return pullmon::perfbench::Main(argc, argv); }
