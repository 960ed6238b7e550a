// Durability bench: what checkpoint + WAL cost the monitoring service,
// and how fast a crashed epoch comes back. One Figure-5-scale churn arm
// (n=400, K=1000, lambda=50, W=20, C=1, m=500, 8 churn ops/chronon)
// runs four ways:
//
//   volatile — RunChurnOnce, no durability (the baseline);
//   durable  — RunDurableOnce with the default discipline: WAL
//       group-flushed at every chronon boundary, snapshots only when a
//       generation's WAL outgrows snapshot_wal_bytes (MemoryStorage, so
//       the gate measures codec + bookkeeping cost, not disk);
//   periodic — the same run snapshotting every 100 chronons, the dense
//       cadence an operator buys when recovery time matters more than
//       throughput (reported, not gated — each snapshot serializes and
//       checksums the full ~0.5 MB proxy image);
//   crashed  — the periodic run killed mid-epoch at K/2, then recovered
//       and finished (the recovery-time metric).
//
// Gate (disable with --gate=false, e.g. under asan): the durable run's
// GC throughput (gained completeness per CPU second) must stay within
// 5% of the volatile run's, on the min-time run of each variant. Each
// rep times every variant twice in ABC CBA order (volatile -> durable
// -> periodic -> periodic -> durable -> volatile), so a quiet or noisy
// phase of the host does not always land on the same variant. Every
// variant is timed in thread CPU time (CLOCK_THREAD_CPUTIME_ID): the
// runs are single-threaded and write to MemoryStorage, so there is no
// I/O wait for CPU time to miss, and time the host hands to other
// processes does not count against whichever variant it hit. CPU time
// cannot remove slowdowns that happen while the thread runs (cache or
// memory-bandwidth contention from neighbours), so wall time is
// printed next to it, ungated, to show which kind of noise a run saw.
//
// Correctness is never gated off: every durable and recovered report
// must equal the volatile run's on every deterministic field compared
// here; any divergence fails the binary regardless of --gate.
//
// Results land in BENCH_recovery.json by default; CI diffs the JSON
// against the committed baseline at the repo root (snapshot bytes, WAL
// record counts and the reports-equal flag are deterministic in
// (seed, reps)).

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "recovery/checkpoint.h"
#include "recovery/durable_runner.h"
#include "recovery/stable_storage.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace pullmon {
namespace {

using Clock = std::chrono::steady_clock;

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// Thread CPU (gated) and wall (reported) seconds of one timed span.
struct Span {
  double cpu = 0.0;
  double wall = 0.0;
};

/// Each field's minimum: the best-of-runs of both clocks.
Span Min(const Span& a, const Span& b) {
  return {std::min(a.cpu, b.cpu), std::min(a.wall, b.wall)};
}

class Stopwatch {
 public:
  Stopwatch() : cpu_(ThreadCpuSeconds()), wall_(Clock::now()) {}
  Span Elapsed() const {
    return {ThreadCpuSeconds() - cpu_,
            std::chrono::duration<double>(Clock::now() - wall_).count()};
  }

 private:
  double cpu_;
  Clock::time_point wall_;
};

struct RecoveryBenchOptions {
  bench::BenchOptions common;
  bool gate = true;
};

RecoveryBenchOptions ParseRecoveryFlags(int argc, char** argv) {
  FlagParser flags("bench_recovery",
                   "Durability layer: checkpoint/WAL overhead on the "
                   "Figure-5 churn arm and crash-recovery latency");
  flags.AddInt64("seed", 3141, "base random seed of the repetitions");
  flags.AddInt64("reps", 3, "repetitions (min time per variant gates)");
  flags.AddString("json", "BENCH_recovery.json",
                  "write machine-readable results (BENCH_pullmon.json "
                  "schema; empty = disabled)");
  flags.AddBool("gate", true,
                "fail (exit 1) when the durable run's GC throughput "
                "drops more than 5% below the volatile run's");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    std::exit(2);
  }
  RecoveryBenchOptions options;
  options.common.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.common.reps = static_cast<int>(flags.GetInt64("reps"));
  if (options.common.reps < 1) {
    std::cerr << "--reps must be >= 1\n";
    std::exit(2);
  }
  options.common.json_path = flags.GetString("json");
  options.gate = flags.GetBool("gate");
  return options;
}

SimulationConfig Figure5ChurnConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 400;
  config.epoch_length = 1000;
  config.lambda = 50.0;
  config.window = 20;
  config.budget = 1;
  config.num_profiles = 500;
  config.churn.enabled = true;
  config.churn.ops_per_chronon = 8.0;
  return config;
}

constexpr Chronon kPeriodicEvery = 100;

/// The deterministic fields a durable or recovered run must reproduce
/// exactly. Mirrors tests/report_equality.h on the counters that exist
/// outside gtest.
Status CheckReportsEqual(const ProxyRunReport& got,
                         const ProxyRunReport& want, const char* label) {
#define PULLMON_BENCH_FIELD_EQ(field)                                   \
  do {                                                                  \
    if (got.field != want.field) {                                      \
      return Status::Internal(StringFormat(                             \
          "%s diverged on " #field " (run is not replay-exact)",        \
          label));                                                      \
    }                                                                   \
  } while (0)
  if (got.run.completeness.GainedCompleteness() !=
      want.run.completeness.GainedCompleteness()) {
    return Status::Internal(
        StringFormat("%s diverged on gained completeness", label));
  }
  PULLMON_BENCH_FIELD_EQ(run.schedule.TotalProbes());
  PULLMON_BENCH_FIELD_EQ(run.probes_used);
  PULLMON_BENCH_FIELD_EQ(run.probes_failed);
  PULLMON_BENCH_FIELD_EQ(run.t_intervals_completed);
  PULLMON_BENCH_FIELD_EQ(feeds_fetched);
  PULLMON_BENCH_FIELD_EQ(not_modified);
  PULLMON_BENCH_FIELD_EQ(feed_bytes);
  PULLMON_BENCH_FIELD_EQ(items_parsed);
  PULLMON_BENCH_FIELD_EQ(notifications_delivered);
  PULLMON_BENCH_FIELD_EQ(churn_submitted);
  PULLMON_BENCH_FIELD_EQ(churn_cancelled);
  PULLMON_BENCH_FIELD_EQ(churn_edited);
  PULLMON_BENCH_FIELD_EQ(churn_unregistered_profiles);
  PULLMON_BENCH_FIELD_EQ(churn_rejected_ops);
  PULLMON_BENCH_FIELD_EQ(orphaned_probes);
#undef PULLMON_BENCH_FIELD_EQ
  return Status::OK();
}

/// What one durable variant measured in one repetition.
struct VariantResult {
  Span time;
  std::size_t snapshots_written = 0;
  std::size_t wal_records_logged = 0;
  std::size_t snapshot_bytes = 0;  // newest snapshot file
};

Result<VariantResult> RunDurableVariant(const SimulationConfig& config,
                                        const PolicySpec& spec,
                                        uint64_t seed,
                                        Chronon checkpoint_every,
                                        ProxyRunReport* report) {
  VariantResult out;
  MemoryStorage storage;
  DurableOptions durable;
  durable.storage = &storage;
  durable.checkpoint_every = checkpoint_every;
  const Stopwatch watch;
  PULLMON_ASSIGN_OR_RETURN(*report,
                           RunDurableOnce(config, spec, seed, durable));
  out.time = watch.Elapsed();
  out.snapshots_written = report->recovery_snapshots_written;
  out.wal_records_logged = report->recovery_wal_records_logged;
  PULLMON_ASSIGN_OR_RETURN(std::vector<std::string> files,
                           storage.ListFiles());
  for (const std::string& name : files) {
    if (ParseSnapshotFileName(name) >= 0) {
      PULLMON_ASSIGN_OR_RETURN(std::string bytes, storage.ReadFile(name));
      out.snapshot_bytes = bytes.size();
    }
  }
  return out;
}

/// What one repetition measured.
struct RepResult {
  Span volatile_time;
  double recovery_seconds = 0.0;  // wall time of the post-crash resume
  double gc = 0.0;
  std::size_t probes = 0;
  VariantResult durable;   // default WAL-size-triggered snapshots
  VariantResult periodic;  // snapshots every kPeriodicEvery chronons
  std::size_t wal_records_replayed = 0;
};

/// Times the three variants of one repetition twice each, in ABC CBA
/// order (volatile, durable, periodic, then back), keeping each
/// variant's faster run: a host that speeds up or slows down over the
/// rep hits every variant alike instead of whichever ran last. Then
/// checks every durable report against the volatile one.
Result<RepResult> RunRep(const SimulationConfig& config,
                         const PolicySpec& spec, uint64_t seed) {
  RepResult out;
  ProxyRunReport baseline;
  std::vector<std::pair<const char*, ProxyRunReport>> durable_reports;
  for (int slot = 0; slot < 6; ++slot) {
    const int variant = slot < 3 ? slot : 5 - slot;
    const bool first = slot < 3;
    if (variant == 0) {
      const Stopwatch watch;
      PULLMON_ASSIGN_OR_RETURN(baseline, RunChurnOnce(config, spec, seed));
      const Span time = watch.Elapsed();
      out.volatile_time = first ? time : Min(out.volatile_time, time);
      continue;
    }
    VariantResult& kept = variant == 1 ? out.durable : out.periodic;
    ProxyRunReport report;
    PULLMON_ASSIGN_OR_RETURN(
        VariantResult run,
        RunDurableVariant(config, spec, seed,
                          variant == 1 ? 0 : kPeriodicEvery, &report));
    if (!first) run.time = Min(run.time, kept.time);
    kept = run;
    durable_reports.emplace_back(
        variant == 1 ? "durable run" : "periodic run", std::move(report));
  }
  out.gc = baseline.run.completeness.GainedCompleteness();
  out.probes = baseline.run.probes_used;
  for (const auto& [label, report] : durable_reports) {
    PULLMON_RETURN_NOT_OK(CheckReportsEqual(report, baseline, label));
  }

  // Crash the periodic run at mid-epoch (its replay window is bounded
  // by the snapshot period), then time the resume-and-finish run.
  MemoryStorage crashed;
  DurableOptions crashing;
  crashing.storage = &crashed;
  crashing.checkpoint_every = kPeriodicEvery;
  crashing.crash.chronon = config.epoch_length / 2;
  crashing.crash.write_offset = 1000;
  auto killed = RunDurableOnce(config, spec, seed, crashing);
  if (killed.ok()) {
    return Status::Internal("planned mid-epoch crash did not fire");
  }
  DurableOptions recovering;
  recovering.storage = &crashed;
  recovering.checkpoint_every = kPeriodicEvery;
  recovering.recover = true;
  const Stopwatch watch;
  PULLMON_ASSIGN_OR_RETURN(
      ProxyRunReport recovered,
      RunDurableOnce(config, spec, seed, recovering));
  out.recovery_seconds = watch.Elapsed().wall;
  PULLMON_RETURN_NOT_OK(
      CheckReportsEqual(recovered, baseline, "recovered run"));
  out.wal_records_replayed = recovered.recovery_wal_records_replayed;
  return out;
}

int RunBench(const RecoveryBenchOptions& options) {
  bench::PrintHeader(
      "Durable proxy state: checkpoint + WAL vs the volatile runner",
      "the per-boundary WAL with WAL-size-triggered snapshots must cost "
      "<= 5% GC throughput at the Figure-5 churn arm, and a mid-epoch "
      "crash must recover to the identical report");
  std::printf("%d rep(s), base seed %llu\n\n", options.common.reps,
              static_cast<unsigned long long>(options.common.seed));

  SimulationConfig config = Figure5ChurnConfig();
  PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};

  Span volatile_min, durable_min, periodic_min;
  RunningStats recovery_seconds;
  RepResult last;
  for (int rep = 0; rep < options.common.reps; ++rep) {
    uint64_t seed =
        options.common.seed + static_cast<uint64_t>(rep) * 7919;
    auto result = RunRep(config, spec, seed);
    if (!result.ok()) {
      std::cerr << "FAIL: " << result.status().ToString() << "\n";
      return 1;
    }
    volatile_min = rep == 0 ? result->volatile_time
                            : Min(volatile_min, result->volatile_time);
    durable_min = rep == 0 ? result->durable.time
                           : Min(durable_min, result->durable.time);
    periodic_min = rep == 0 ? result->periodic.time
                            : Min(periodic_min, result->periodic.time);
    recovery_seconds.Add(result->recovery_seconds);
    last = *result;
  }

  // GC is identical across variants (enforced above), so the
  // GC-throughput ratio reduces to the min-time ratio.
  auto ratio = [&](double variant, double baseline) {
    return baseline > 0.0 ? variant / baseline - 1.0 : 0.0;
  };
  const double overhead = ratio(durable_min.cpu, volatile_min.cpu);
  const double periodic_overhead = ratio(periodic_min.cpu, volatile_min.cpu);
  const double wall_overhead = ratio(durable_min.wall, volatile_min.wall);

  TablePrinter table({"variant", "cpu s (min)", "wall s (min)", "GC/cpu s",
                      "snapshots", "wal records"});
  auto add_row = [&](const std::string& name, const Span& time,
                     const std::string& snapshots, const std::string& wal) {
    table.AddRow({name, TablePrinter::FormatDouble(time.cpu, 3),
                  TablePrinter::FormatDouble(time.wall, 3),
                  TablePrinter::FormatDouble(
                      time.cpu > 0.0 ? last.gc / time.cpu : 0.0, 1),
                  snapshots, wal});
  };
  add_row("volatile", volatile_min, "-", "-");
  add_row("durable (WAL-size)", durable_min,
          StringFormat("%zu", last.durable.snapshots_written),
          StringFormat("%zu", last.durable.wal_records_logged));
  add_row(StringFormat("periodic (every %lld)",
                       static_cast<long long>(kPeriodicEvery)),
          periodic_min, StringFormat("%zu", last.periodic.snapshots_written),
          StringFormat("%zu", last.periodic.wal_records_logged));
  table.Print(std::cout);
  std::printf(
      "\nCheckpoint overhead: %+.2f%% CPU (gate: <= 5%%), %+.2f%% wall "
      "(reported only); periodic cadence %+.2f%% CPU (reported only)\n"
      "Recovery (crash at K/2): %.3f s wall mean, %zu WAL records "
      "replayed, newest snapshot %zu B\n",
      overhead * 100.0, wall_overhead * 100.0, periodic_overhead * 100.0,
      recovery_seconds.mean(), last.wal_records_replayed,
      last.periodic.snapshot_bytes);

  bench::JsonBenchWriter json("bench_recovery", options.common);
  json.Add({"fig5_churn_durability",
            {{"resources", std::to_string(config.num_resources)},
             {"epoch", std::to_string(config.epoch_length)},
             {"profiles", std::to_string(config.num_profiles)},
             {"churn_ops", StringFormat("%.0f", config.churn.ops_per_chronon)},
             {"checkpoint_every", "wal-size"}},
            {{"gc", last.gc},
             {"probes", static_cast<double>(last.probes)},
             {"reports_equal", 1.0},
             {"snapshots_written",
              static_cast<double>(last.durable.snapshots_written)},
             {"snapshot_bytes",
              static_cast<double>(last.durable.snapshot_bytes)},
             {"wal_records",
              static_cast<double>(last.durable.wal_records_logged)},
             {"volatile_seconds", volatile_min.cpu},
             {"durable_seconds", durable_min.cpu},
             {"volatile_wall_seconds", volatile_min.wall},
             {"durable_wall_seconds", durable_min.wall},
             {"overhead_ratio", overhead},
             {"wall_overhead_ratio", wall_overhead}}});
  json.Add({"fig5_churn_durability_periodic",
            {{"resources", std::to_string(config.num_resources)},
             {"epoch", std::to_string(config.epoch_length)},
             {"profiles", std::to_string(config.num_profiles)},
             {"churn_ops", StringFormat("%.0f", config.churn.ops_per_chronon)},
             {"checkpoint_every", std::to_string(kPeriodicEvery)}},
            {{"gc", last.gc},
             {"probes", static_cast<double>(last.probes)},
             {"reports_equal", 1.0},
             {"snapshots_written",
              static_cast<double>(last.periodic.snapshots_written)},
             {"snapshot_bytes",
              static_cast<double>(last.periodic.snapshot_bytes)},
             {"wal_records",
              static_cast<double>(last.periodic.wal_records_logged)},
             {"wal_records_replayed",
              static_cast<double>(last.wal_records_replayed)},
             {"durable_seconds", periodic_min.cpu},
             {"durable_wall_seconds", periodic_min.wall},
             {"overhead_ratio", periodic_overhead},
             {"recovery_seconds", recovery_seconds.mean()}}});
  if (!json.WriteIfRequested(options.common)) return 1;

  if (options.gate && overhead > 0.05) {
    std::cerr << "FAIL: durable run costs "
              << TablePrinter::FormatDouble(overhead * 100.0, 2)
              << "% GC throughput per CPU second (bar: 5%)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::RecoveryBenchOptions options =
      pullmon::ParseRecoveryFlags(argc, argv);
  return pullmon::RunBench(options);
}
