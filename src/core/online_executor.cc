#include "core/online_executor.h"

#include <chrono>

#include "core/dynamic_monitor.h"
#include "core/reference_executor.h"
#include "util/logging.h"

namespace pullmon {

const char* ExecutorBackendToString(ExecutorBackend backend) {
  switch (backend) {
    case ExecutorBackend::kIndexed:
      return "indexed";
    case ExecutorBackend::kReference:
      return "reference";
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

namespace {

/// The static-workload driver of the kIndexed arm: load the (validated)
/// problem into a fresh monitor, step it through the epoch, and collect
/// the result. Submission ids equal t-interval indices because
/// Validate() admits no empty t-interval, so capture callbacks pass
/// through unchanged.
Result<OnlineRunResult> DriveProblem(
    const MonitoringProblem& problem, DynamicMonitor* monitor,
    const OnlineExecutor::ProbeCallback& probe_callback,
    const OnlineExecutor::CaptureCallback& capture_callback) {
  PULLMON_RETURN_NOT_OK(monitor->LoadProblem(problem));
  if (probe_callback) monitor->set_probe_callback(probe_callback);
  if (capture_callback) {
    monitor->set_capture_callback(
        [&capture_callback](ProfileId profile, int submission, Chronon now) {
          capture_callback(profile, static_cast<std::size_t>(submission),
                           now);
        });
  }

  const auto run_start = std::chrono::steady_clock::now();
  for (Chronon now = 0; now < problem.epoch.length; ++now) {
    PULLMON_RETURN_NOT_OK(monitor->Step().status());
  }
  const auto run_end = std::chrono::steady_clock::now();

  OnlineRunResult result;
  CollectRunCounters(*monitor, &result);
  result.elapsed_seconds =
      std::chrono::duration<double>(run_end - run_start).count();
  result.completeness = EvaluateCompleteness(problem.profiles, result.schedule);
  // Internal consistency: the monitor's own capture accounting must agree
  // with the schedule-based evaluation.
  PULLMON_CHECK(result.completeness.captured_t_intervals ==
                result.t_intervals_completed);
  return result;
}

}  // namespace

OnlineExecutor::OnlineExecutor(const MonitoringProblem* problem,
                               Policy* policy, ExecutionMode mode)
    : problem_(problem), policy_(policy), mode_(mode) {}

Result<OnlineRunResult> OnlineExecutor::Run() {
  if (backend_ == ExecutorBackend::kReference) {
    ReferenceExecutor reference(problem_, policy_, mode_);
    if (capture_callback_) reference.set_capture_callback(capture_callback_);
    if (probe_callback_) reference.set_probe_callback(probe_callback_);
    reference.set_retry_policy(retry_);
    reference.set_breaker_options(breaker_);
    return reference.Run();
  }
  PULLMON_RETURN_NOT_OK(problem_->Validate());
  PULLMON_RETURN_NOT_OK(retry_.Validate());
  PULLMON_RETURN_NOT_OK(breaker_.Validate());
  MonitorOptions options;
  options.retry = retry_;
  options.breaker = breaker_;
  DynamicMonitor monitor(problem_->num_resources, problem_->epoch.length,
                         problem_->budget, policy_, mode_, options);
  return DriveProblem(*problem_, &monitor, probe_callback_,
                      capture_callback_);
}

}  // namespace pullmon
