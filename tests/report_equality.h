#ifndef PULLMON_TESTS_REPORT_EQUALITY_H_
#define PULLMON_TESTS_REPORT_EQUALITY_H_

#include <gtest/gtest.h>

#include <string>

#include "sim/proxy.h"

namespace pullmon {

/// Which telemetry blocks a comparison may legitimately skip. Each
/// subsystem documents that its counters describe the *mechanism* (the
/// cache, the store, the checkpointer), not the run, so passthrough
/// suites exclude exactly their own block and nothing else.
///
/// Wall-clock timing (`run.elapsed_seconds`) and the recovery_* block
/// are never compared: timing is nondeterministic, and recovery
/// telemetry is the one documented difference between an uninterrupted
/// run and a crash-recovered one.
struct ReportEqualityOptions {
  /// Compare parse_cache_* (off for cache-on vs cache-off suites).
  bool parse_cache_stats = true;
  /// Compare trace_* (off for in-memory vs paged suites).
  bool trace_stats = true;
};

/// Field-level full equality of two ProxyRunReports: the probe
/// schedule chronon by chronon, completeness, every scheduler /
/// transport / fault / health / cache / churn / trace counter. Every
/// failure message names the field and carries `label`.
inline void ExpectProxyReportsEqual(const ProxyRunReport& a,
                                    const ProxyRunReport& b,
                                    Chronon epoch_length,
                                    const std::string& label = "",
                                    const ReportEqualityOptions& options =
                                        ReportEqualityOptions{}) {
#define PULLMON_REPORT_FIELD_EQ(field) \
  EXPECT_EQ(a.field, b.field) << label << " [field: " #field "]"
#define PULLMON_REPORT_FIELD_DOUBLE_EQ(field) \
  EXPECT_DOUBLE_EQ(a.field, b.field) << label << " [field: " #field "]"

  // The scheduling outcome, probe by probe.
  for (Chronon t = 0; t < epoch_length; ++t) {
    ASSERT_EQ(a.run.schedule.ProbesAt(t), b.run.schedule.ProbesAt(t))
        << label << " [field: run.schedule, chronon " << t << "]";
  }
  PULLMON_REPORT_FIELD_EQ(run.schedule.TotalProbes());
  PULLMON_REPORT_FIELD_DOUBLE_EQ(run.completeness.GainedCompleteness());
  PULLMON_REPORT_FIELD_EQ(run.probes_used);
  PULLMON_REPORT_FIELD_EQ(run.t_intervals_completed);
  PULLMON_REPORT_FIELD_EQ(run.t_intervals_failed);
  PULLMON_REPORT_FIELD_EQ(run.candidates_scored);
  PULLMON_REPORT_FIELD_EQ(run.max_concurrent_candidates);
  PULLMON_REPORT_FIELD_EQ(run.probes_failed);
  PULLMON_REPORT_FIELD_EQ(run.retries_issued);
  PULLMON_REPORT_FIELD_EQ(run.retry_probes_spent);
  PULLMON_REPORT_FIELD_EQ(run.t_intervals_lost_to_faults);
  PULLMON_REPORT_FIELD_EQ(run.circuits_opened);
  PULLMON_REPORT_FIELD_EQ(run.circuits_reopened);
  PULLMON_REPORT_FIELD_EQ(run.probation_probes);
  PULLMON_REPORT_FIELD_EQ(run.probation_successes);
  PULLMON_REPORT_FIELD_EQ(run.probes_suppressed);
  PULLMON_REPORT_FIELD_EQ(run.budget_reclaimed);
  PULLMON_REPORT_FIELD_EQ(run.open_chronons_total);
  PULLMON_REPORT_FIELD_EQ(run.open_chronons_by_resource);

  // The physical feed path.
  PULLMON_REPORT_FIELD_EQ(feeds_fetched);
  PULLMON_REPORT_FIELD_EQ(not_modified);
  PULLMON_REPORT_FIELD_EQ(feed_bytes);
  PULLMON_REPORT_FIELD_EQ(items_parsed);
  PULLMON_REPORT_FIELD_EQ(parse_failures);
  PULLMON_REPORT_FIELD_EQ(notifications_delivered);

  // The fault telemetry.
  PULLMON_REPORT_FIELD_EQ(probes_failed);
  PULLMON_REPORT_FIELD_EQ(retries_issued);
  PULLMON_REPORT_FIELD_EQ(retry_probes_spent);
  PULLMON_REPORT_FIELD_EQ(corrupt_bodies);
  PULLMON_REPORT_FIELD_EQ(timeouts);
  PULLMON_REPORT_FIELD_EQ(server_errors);
  PULLMON_REPORT_FIELD_EQ(etag_invalidations);
  PULLMON_REPORT_FIELD_EQ(outage_probes);
  PULLMON_REPORT_FIELD_DOUBLE_EQ(latency_chronons);
  PULLMON_REPORT_FIELD_DOUBLE_EQ(gc_lost_to_faults);
  EXPECT_TRUE(a.fault_stats == b.fault_stats)
      << label << " [field: fault_stats]";

  // The resource-health telemetry.
  PULLMON_REPORT_FIELD_EQ(circuits_opened);
  PULLMON_REPORT_FIELD_EQ(circuits_reopened);
  PULLMON_REPORT_FIELD_EQ(probation_probes);
  PULLMON_REPORT_FIELD_EQ(probation_successes);
  PULLMON_REPORT_FIELD_EQ(probes_suppressed);
  PULLMON_REPORT_FIELD_EQ(budget_reclaimed);
  PULLMON_REPORT_FIELD_EQ(open_chronons_total);
  PULLMON_REPORT_FIELD_EQ(open_chronons_by_resource);

  // The parse-cache telemetry.
  if (options.parse_cache_stats) {
    PULLMON_REPORT_FIELD_EQ(parse_cache_hits);
    PULLMON_REPORT_FIELD_EQ(parse_cache_misses);
    PULLMON_REPORT_FIELD_EQ(parse_cache_invalidations);
    PULLMON_REPORT_FIELD_EQ(parse_cache_bytes_saved);
  }

  // The churn telemetry (all zero on churn-free runs).
  PULLMON_REPORT_FIELD_EQ(churn_submitted);
  PULLMON_REPORT_FIELD_EQ(churn_cancelled);
  PULLMON_REPORT_FIELD_EQ(churn_edited);
  PULLMON_REPORT_FIELD_EQ(churn_unregistered_profiles);
  PULLMON_REPORT_FIELD_EQ(churn_rejected_ops);
  PULLMON_REPORT_FIELD_EQ(orphaned_probes);

  // The estimation telemetry (all zero under the oracle knowledge
  // model).
  PULLMON_REPORT_FIELD_EQ(estimation_probes_observed);
  PULLMON_REPORT_FIELD_EQ(estimation_update_events);
  PULLMON_REPORT_FIELD_EQ(estimation_not_modified);
  PULLMON_REPORT_FIELD_EQ(estimation_duplicate_events);
  PULLMON_REPORT_FIELD_EQ(estimation_periodic_resources);
  PULLMON_REPORT_FIELD_EQ(estimation_forecast_refreshes);
  PULLMON_REPORT_FIELD_EQ(estimation_predicted_t_intervals);
  PULLMON_REPORT_FIELD_EQ(estimation_predicted_eis);
  PULLMON_REPORT_FIELD_EQ(estimation_explore_probes);

  // The trace-store telemetry.
  if (options.trace_stats) {
    PULLMON_REPORT_FIELD_EQ(trace_pages_written);
    PULLMON_REPORT_FIELD_EQ(trace_bytes_stored);
    PULLMON_REPORT_FIELD_EQ(trace_in_memory_bytes);
    PULLMON_REPORT_FIELD_EQ(trace_cache_hits);
    PULLMON_REPORT_FIELD_EQ(trace_cache_misses);
    PULLMON_REPORT_FIELD_EQ(trace_cache_evictions);
  }

#undef PULLMON_REPORT_FIELD_DOUBLE_EQ
#undef PULLMON_REPORT_FIELD_EQ
}

}  // namespace pullmon

#endif  // PULLMON_TESTS_REPORT_EQUALITY_H_
