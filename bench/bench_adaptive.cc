// Closed-loop estimation vs FPN(1) hindsight (DESIGN.md section 17):
// the adaptive proxy derives execution intervals from its own
// (schedule-censored) probe observations instead of reading the update
// trace ahead of time, spending epsilon explore probes plus leftover
// monitor budget on cold resources. This harness measures the price of
// giving up the oracle across three regimes:
//
//   steady       the periodic Web-feed workload ([10] statistics) the
//                estimator is designed to learn. GATED: the estimated
//                arm must recover >= 0.5x the oracle's gained
//                completeness (disable with --gate=false).
//   bursty       the auction workload: non-stationary sniping ramps
//                where most updates arrive in a closing burst the
//                censored observer has little time to learn. Reported,
//                ungated.
//   regime_shift the feed workload with drifting, heavily jittered
//                periods (period_jitter=8, period_spread=0.8) and a
//                short estimator half-life, so learned structure keeps
//                going stale. Reported, ungated.
//
// Every regime also cross-checks that the estimated arm's report is
// identical on the indexed backend and the reference backend (whose
// monitor rebuilds its candidate index from scratch every chronon) —
// always fatal, gate or no gate.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/config.h"
#include "sim/experiment.h"
#include "sim/proxy.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace pullmon {
namespace {

struct AdaptiveOptions {
  bench::BenchOptions common;
  bool gate = true;
};

AdaptiveOptions ParseAdaptiveFlags(int argc, char** argv) {
  FlagParser flags("bench_adaptive",
                   "Closed-loop estimated EIs vs FPN(1) oracle EIs "
                   "across steady / bursty / regime-shift workloads");
  flags.AddInt64("seed", 181818, "base random seed of the repetitions");
  flags.AddInt64("reps", 3, "repetitions per regime");
  flags.AddString("json", "BENCH_adaptive.json",
                  "write machine-readable results (BENCH_pullmon.json "
                  "schema; empty = disabled)");
  flags.AddBool("gate", true,
                "fail (exit 1) when the steady-regime GC ratio falls "
                "below 0.5");
  Status status = flags.Parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    std::exit(0);
  }
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n" << flags.Usage();
    std::exit(2);
  }
  AdaptiveOptions options;
  options.common.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  options.common.reps = static_cast<int>(flags.GetInt64("reps"));
  options.common.json_path = flags.GetString("json");
  options.gate = flags.GetBool("gate");
  if (options.common.reps < 1) {
    std::cerr << "--reps must be >= 1\n";
    std::exit(2);
  }
  return options;
}

SimulationConfig BaseConfig() {
  SimulationConfig config = BaselineConfig();
  config.num_resources = 50;
  config.num_profiles = 50;
  config.epoch_length = 1000;
  config.budget = 2;
  return config;
}

struct Regime {
  std::string name;
  bool gated;
  SimulationConfig config;
};

std::vector<Regime> Regimes() {
  std::vector<Regime> regimes;

  Regime steady{"steady", true, BaseConfig()};
  steady.config.dataset = DatasetKind::kFeedWorkload;
  regimes.push_back(steady);

  Regime bursty{"bursty", false, BaseConfig()};
  bursty.config.dataset = DatasetKind::kAuction;
  regimes.push_back(bursty);

  Regime shift{"regime_shift", false, BaseConfig()};
  shift.config.dataset = DatasetKind::kFeedWorkload;
  shift.config.feed_workload.period_jitter = 8.0;
  shift.config.feed_workload.period_spread = 0.8;
  shift.config.estimator_half_life = 16.0;
  regimes.push_back(shift);

  return regimes;
}

int RunBench(const AdaptiveOptions& options,
             bench::JsonBenchWriter* json) {
  bench::PrintHeader(
      "Adaptive probing without perfect knowledge (closed loop)",
      "how much gained completeness survives when the proxy must learn "
      "the update\nmodel from its own probe diffs instead of the FPN(1) "
      "oracle");

  const PolicySpec spec{"MRSF", ExecutionMode::kPreemptive};
  TablePrinter table({"regime", "oracle GC", "estimated GC", "ratio",
                      "explore probes", "periodic resources", "gate"});
  double steady_ratio = -1.0;

  for (const Regime& regime : Regimes()) {
    RunningStats oracle_gc, estimated_gc, explore, periodic;
    for (int rep = 0; rep < options.common.reps; ++rep) {
      const uint64_t seed =
          options.common.seed + static_cast<uint64_t>(rep) * 7919;
      SimulationConfig config = regime.config;
      config.knowledge = KnowledgeModel::kOracle;
      auto oracle = RunProxyOnce(config, spec, seed);
      config.knowledge = KnowledgeModel::kEstimated;
      auto estimated = RunProxyOnce(config, spec, seed);
      if (!oracle.ok() || !estimated.ok()) {
        std::cerr << (oracle.ok() ? estimated.status() : oracle.status())
                         .ToString()
                  << "\n";
        return 1;
      }
      oracle_gc.Add(oracle->run.completeness.GainedCompleteness());
      estimated_gc.Add(estimated->run.completeness.GainedCompleteness());
      explore.Add(static_cast<double>(estimated->estimation_explore_probes));
      periodic.Add(
          static_cast<double>(estimated->estimation_periodic_resources));

      if (rep == 0) {
        // Cross-backend equality of the estimated arm: the closed loop
        // must not depend on which executor runs it. Always fatal.
        config.executor_backend = ExecutorBackend::kReference;
        auto reference = RunProxyOnce(config, spec, seed);
        if (!reference.ok()) {
          std::cerr << reference.status().ToString() << "\n";
          return 1;
        }
        if (reference->run.probes_used != estimated->run.probes_used ||
            reference->run.completeness.GainedCompleteness() !=
                estimated->run.completeness.GainedCompleteness() ||
            reference->estimation_update_events !=
                estimated->estimation_update_events) {
          std::cerr << "FATAL: estimated-knowledge reports diverge "
                       "between the indexed and reference backends (regime "
                    << regime.name << ")\n";
          return 1;
        }
      }
    }

    const double ratio =
        oracle_gc.mean() > 0.0 ? estimated_gc.mean() / oracle_gc.mean()
                               : 0.0;
    if (regime.gated) steady_ratio = ratio;
    json->Add({"adaptive",
               {{"regime", regime.name},
                {"gated", regime.gated ? "true" : "false"}},
               {{"oracle_gc", oracle_gc.mean()},
                {"estimated_gc", estimated_gc.mean()},
                {"gc_ratio", ratio},
                {"explore_probes", explore.mean()},
                {"periodic_resources", periodic.mean()}}});
    table.AddRow({regime.name, bench::MeanCi(oracle_gc),
                  bench::MeanCi(estimated_gc),
                  TablePrinter::FormatDouble(ratio, 3),
                  TablePrinter::FormatDouble(explore.mean(), 0),
                  TablePrinter::FormatDouble(periodic.mean(), 0),
                  regime.gated ? ">= 0.5" : "-"});
  }
  table.Print(std::cout);
  std::cout
      << "\nReading: the loop recovers a substantial fraction of "
         "hindsight in every regime,\nbut different mechanisms carry "
         "it. On the steady feed workload the periodic\ndetector locks "
         "onto real grids (around half the feeds) and the monitor "
         "schedules\nagainst them. The auction regime shows no "
         "periodicity at all — there the decaying\nrate tracker plus "
         "work-conserving exploration chase the sniping ramps, and\n"
         "because a burst packs many updates into few chronons, the "
         "probes that land\nduring one capture whole windows at once. "
         "Drifting periods defeat most grid\nlocks, so the tracker "
         "again carries the load. Only the steady regime is gated:\n"
         "it is the stationary workload the estimator is designed for, "
         "while the burst-\ndriven ratios ride on workload luck and "
         "stay informational.\n";

  std::cout << "\nAcceptance gate (steady regime): estimated/oracle GC "
            << TablePrinter::FormatDouble(steady_ratio, 3)
            << " (required >= 0.5)\n";
  if (options.gate && steady_ratio < 0.5) {
    std::cout << "GATE FAILED\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pullmon

int main(int argc, char** argv) {
  pullmon::AdaptiveOptions options =
      pullmon::ParseAdaptiveFlags(argc, argv);
  pullmon::bench::JsonBenchWriter json("bench_adaptive", options.common);
  int rc = pullmon::RunBench(options, &json);
  if (rc != 0) return rc;
  return json.WriteIfRequested(options.common) ? 0 : 1;
}
