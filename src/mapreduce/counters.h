#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file counters.h
/// Per-job and per-run cost accounting. `shuffle_bytes` counts real
/// serialized intermediate data (key + value encodings), which is the
/// quantity Fig. 10(b) and Table IV report as "shuffled data".
///
/// `JobCounters` is the one record of a job's cost. Its `uint64_t` counters
/// are listed once, in the table behind `CounterFields()` (counters.cc): a
/// row names the field, its JSON key and the `mr.*` registry counter it
/// feeds, if any. The per-job JSON, the run totals, `RunStats::Total`,
/// `ToString` and `Publish` all loop over that table. Adding a counter is
/// its field here and its row there; a counter that feeds the registry also
/// needs its name in obs/metric_names.h and a row in docs/observability.md.

namespace ddp {
namespace mr {

struct JobCounters {
  std::string job_name;

  uint64_t map_input_records = 0;
  uint64_t map_output_records = 0;   // after the combiner, if any
  uint64_t combine_input_records = 0;  // records seen by the combiner
  uint64_t shuffle_bytes = 0;        // serialized intermediate bytes
  uint64_t shuffle_records = 0;      // key/value pairs shuffled
  uint64_t reduce_input_groups = 0;  // distinct keys
  uint64_t reduce_output_records = 0;
  /// Largest single reduce partition's serialized input — the skew signal
  /// behind Fig. 12(a)'s small-M/large-pi slowdown. A maximum, so the run
  /// totals leave it out.
  uint64_t max_partition_bytes = 0;
  /// Out-of-core execution (Options::memory_budget_bytes > 0): bytes of
  /// sorted runs written to spill files (frame headers + CRC trailers
  /// included — real disk traffic), spill files created, reduce partitions
  /// whose merge consumed at least one spilled run (one streaming pass
  /// each), and map-side wall time spent sorting + writing spills.
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  uint64_t merge_passes = 0;
  double spill_seconds = 0.0;
  /// Histogram of reduce group sizes: bucket b counts groups with
  /// floor(log2(size)) == b (bucket 0 = singleton groups). For the bucketed
  /// DDP jobs this is the bucket/cell/block population skew picture behind
  /// Fig. 12(a) — a heavy tail here means straggling quadratic kernels.
  std::vector<uint64_t> group_size_log2_histogram;
  uint64_t map_task_retries = 0;     // failed-attempt retries (map side)
  uint64_t reduce_task_retries = 0;  // failed-attempt retries (reduce side)
  /// Backup attempts launched because a task ran past the speculative
  /// threshold, and how many of those backups committed before the original.
  uint64_t speculative_launches = 0;
  uint64_t speculative_wins = 0;
  /// Attempts that exceeded Options::task_deadline_seconds and were counted
  /// as failed (feeding the max_task_attempts budget).
  uint64_t deadline_kills = 0;
  /// Corrupt shuffle records skipped under Options::skip_bad_records.
  uint64_t skipped_records = 0;
  /// User map/reduce/combiner exceptions converted into failed attempts.
  uint64_t task_exceptions = 0;
  /// Multi-process execution (Options::exec_mode == ExecMode::kFork):
  /// unexpected worker deaths, workers SIGKILLed for deadline overrun or
  /// heartbeat silence, SIGKILLs issued, replacement workers forked, and
  /// tasks quarantined after crashing consecutive workers. `exec_fallbacks`
  /// always reads 0: a job runs on the substrate it asked for or fails. It
  /// stays for readers of the stats JSON.
  uint64_t worker_crashes = 0;
  uint64_t worker_hangs = 0;
  uint64_t worker_kills = 0;
  uint64_t worker_restarts = 0;
  uint64_t quarantined_tasks = 0;
  uint64_t exec_fallbacks = 0;
  /// Streamed shuffle (forked and remote workers): run bytes the supervisor
  /// committed off worker channels (CRC trailers included — real wire
  /// traffic). Zero in-process and in phases that shuffled nothing.
  uint64_t shuffle_streamed_bytes = 0;
  /// Remote execution (Options::exec_mode == ExecMode::kRemote): exec'd
  /// ddp_worker processes admitted to a phase (a dropped worker that dials
  /// again counts again), remote workers dropped for a failed link,
  /// silence, a deadline or a protocol violation, and in-flight tasks moved
  /// off dropped workers onto others. All zero in fork and in-process
  /// modes.
  uint64_t workers_registered = 0;
  uint64_t workers_evicted = 0;
  uint64_t tasks_reassigned = 0;
  /// True when the job's output was replayed from a CheckpointStore instead
  /// of being executed; all other counters are zero in that case.
  bool loaded_from_checkpoint = false;

  /// Committed-attempt duration distribution across both phases — the
  /// straggler signal speculation acts on. straggler_ratio is
  /// slowest/median (1.0 when fewer than two attempts committed).
  double median_attempt_seconds = 0.0;
  double p99_attempt_seconds = 0.0;
  double max_attempt_seconds = 0.0;
  double straggler_ratio = 0.0;

  double map_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_seconds = 0.0;
  double total_seconds = 0.0;
  /// total_seconds plus shuffle_bytes / Options::modeled_shuffle_bandwidth —
  /// the Eq. (9)-style unification of compute and network cost that lets an
  /// in-process run estimate cluster behaviour. Equals total_seconds when
  /// modeling is off.
  double modeled_seconds = 0.0;

  std::string ToString() const;
  /// One JSON object per job, field names matching the struct members —
  /// the same conventions (and writer) as the obs metrics snapshot, so
  /// `--stats-out` files parse with the same tooling.
  std::string ToJson() const;
  /// Adds this job to the metrics registry: `mr.jobs` by one and each
  /// counter by its row's `mr.*` metric. RunJobTasks calls it once per job,
  /// when the job ends, however it ends.
  void Publish() const;
};

/// One row of the counter list: a `uint64_t` counter of JobCounters, its
/// JSON key, the `mr.*` registry counter it feeds (null for none), and
/// whether the run totals sum it.
struct CounterField {
  uint64_t JobCounters::*field;
  const char* key;
  const char* metric;
  bool summed;
};

/// The counter list, in JSON order.
std::span<const CounterField> CounterFields();

/// Accumulated counters over the jobs of one algorithm run.
struct RunStats {
  std::vector<JobCounters> jobs;

  void Add(JobCounters counters) { jobs.push_back(std::move(counters)); }

  /// The sum of one counter over the run's jobs.
  template <typename T>
  T Total(T JobCounters::*field) const {
    T total{};
    for (const JobCounters& j : jobs) total += j.*field;
    return total;
  }

  uint64_t TotalShuffleBytes() const {
    return Total(&JobCounters::shuffle_bytes);
  }
  uint64_t TotalShuffleRecords() const {
    return Total(&JobCounters::shuffle_records);
  }
  uint64_t TotalSpilledBytes() const {
    return Total(&JobCounters::spilled_bytes);
  }
  uint64_t TotalSpillFiles() const { return Total(&JobCounters::spill_files); }
  uint64_t TotalMergePasses() const {
    return Total(&JobCounters::merge_passes);
  }
  uint64_t TotalShuffleStreamedBytes() const {
    return Total(&JobCounters::shuffle_streamed_bytes);
  }
  uint64_t TotalWorkersRegistered() const {
    return Total(&JobCounters::workers_registered);
  }
  uint64_t TotalWorkerRestarts() const {
    return Total(&JobCounters::worker_restarts);
  }
  uint64_t TotalExecFallbacks() const {  // always 0 (see exec_fallbacks)
    return Total(&JobCounters::exec_fallbacks);
  }
  double TotalSeconds() const { return Total(&JobCounters::total_seconds); }
  double TotalModeledSeconds() const {
    return Total(&JobCounters::modeled_seconds);
  }
  /// Map plus reduce retries.
  uint64_t TotalTaskRetries() const {
    return Total(&JobCounters::map_task_retries) +
           Total(&JobCounters::reduce_task_retries);
  }
  /// Jobs whose output came from a checkpoint rather than execution.
  uint64_t JobsLoadedFromCheckpoint() const;

  std::string ToString() const;
  /// {"jobs": [JobCounters::ToJson()...], "totals": {...}}.
  std::string ToJson() const;
};

}  // namespace mr
}  // namespace ddp
