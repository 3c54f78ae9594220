// Parallel campaign execution: many (client, provider, trial) cells, one
// thread pool, byte-identical output to a serial run.
//
// Trials are embarrassingly parallel once their randomness is derived per
// task (see TrialRunner::run_task): the testbed's query paths are const or
// internally guarded, so workers only share read-mostly state. Each task
// writes its record into its own pre-assigned slot, which makes the merged
// output order a property of the task list — not of thread scheduling.
#pragma once

#include <vector>

#include "measure/schedule.hpp"
#include "measure/trial.hpp"

namespace drongo::measure {

/// Parallelism knobs.
struct CampaignOptions {
  /// Worker threads. 0 = hardware concurrency, 1 = serial in the calling
  /// thread (no pool), N = exactly N workers.
  int threads = 0;
};

/// Resolves a thread-count knob: 0 -> hardware concurrency (at least 1),
/// negative -> net::InvalidArgument, otherwise the value itself.
int resolve_thread_count(int requested);

/// Parses a DRONGO_THREADS-style value: nullptr/"" means 1 (serial —
/// campaign outputs are reproducibility artifacts first); otherwise a
/// base-10 integer >= 0 where 0 selects hardware concurrency. Trailing
/// junk, negatives, and non-numeric input throw net::InvalidArgument
/// loudly — a typo in a batch-job environment must not silently run
/// serial.
int parse_thread_count(const char* value);

/// The campaign worker-thread environment knob: DRONGO_THREADS through
/// parse_thread_count.
int thread_count_from_env();

/// Executes campaign task lists across a thread pool.
///
/// A worker claims one (client, provider) pair's tasks at a time, so even a
/// one-client campaign spreads over the pool and the last claims are small
/// enough to keep every worker busy to the end. Records land in the slot of
/// their task's position; the returned vector is therefore field-for-field
/// identical for any thread count, including 1.
class ParallelCampaignRunner {
 public:
  /// `runner` is borrowed and must outlive this object. Its testbed must be
  /// fully built (setup is single-threaded; see Testbed docs).
  ParallelCampaignRunner(const TrialRunner* runner, CampaignOptions options = {});

  /// Runs every task, in `tasks` order in the output. Tasks are grouped by
  /// (client, provider) pair into units of work; the grouping does not
  /// affect results. Exceptions thrown by any trial are rethrown in the
  /// calling thread.
  [[nodiscard]] std::vector<TrialRecord> run(const std::vector<CampaignTask>& tasks) const;

  /// Parallel equivalent of TrialRunner::run_campaign — same records, same
  /// order.
  [[nodiscard]] std::vector<TrialRecord> run_campaign(int trials_per_client,
                                                      double spacing_hours) const;

  /// Parallel equivalent of TrialRunner::run_campaign_sporadic.
  [[nodiscard]] std::vector<TrialRecord> run_campaign_sporadic(
      int trials_per_client, const SporadicScheduleConfig& schedule = {}) const;

  /// The resolved worker count this runner uses.
  [[nodiscard]] int threads() const { return threads_; }

 private:
  const TrialRunner* runner_;
  int threads_;
};

}  // namespace drongo::measure
