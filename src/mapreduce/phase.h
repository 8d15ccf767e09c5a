#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/counters.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"

/// \file phase.h
/// The phase engine of the MapReduce runtime, its "job tracker", compiled
/// once in phase.cc. `mr::RunJob` (mapreduce.h) only adapts types: it wraps
/// a JobSpec into the hooks of `internal::JobTasks`, and
/// `internal::RunJobTasks` does everything else — exec-mode checks,
/// the map phase, the shuffle, the reduce phase, chaos, counters, spans,
/// metrics and checkpoint keys. Each phase runs under one engine entry,
/// in-process (the scheduler: retries, speculation, deadlines) or on forked
/// and remote workers (supervisor.h), whose attempts all go through
/// `RunWorkerAttempt`. A task body fills an attempt-local `TaskSlot`, and
/// committing an attempt moves its slot into the task's output.
///
/// There is one shuffle on every substrate: a map task's output is its
/// key-sorted SpillRuns (spill.h), on disk or in memory, and every reduce
/// task merges its partition's runs in (map task, spill index, tail) order.

namespace ddp {
namespace mr {

class RemoteWorkerPool;  // remote_worker.h

/// Execution substrate for the map and reduce phases. A job runs on the
/// substrate it asks for or fails with an error naming what is missing;
/// nothing falls back to another substrate. Output is bit-identical on all
/// three.
enum class ExecMode {
  /// Tasks run on a thread pool in this process.
  kInProc = 0,
  /// Tasks run in forked worker processes under a WorkerSupervisor
  /// (supervisor.h): real crash isolation, heartbeat hang detection, seeded
  /// backoff reattempts, poison-task quarantine. Needs a Serde for the
  /// output type (reduce results cross the process boundary as bytes) and
  /// a build that can fork workers (ForkExecutionSupported(): not TSan).
  kFork = 1,
  /// Tasks run in separately exec'd ddp_worker processes (possibly on other
  /// hosts) that dialed `Options::remote_pool`'s listener. Tasks ship by *name*
  /// (JobSpec::remote_task_id against the worker's JobRegistry) with their
  /// input serialized by value, so nothing is fork-captured. Needs the
  /// pool, a remote_task_id and a Serde for the input and output types; a
  /// pool no worker joins within the connect grace (~6 s) fails the job.
  kRemote = 2,
};

struct Options {
  /// Number of worker threads for the map and reduce phases.
  size_t num_workers = 0;  // 0 => DefaultParallelism()
  /// Number of reduce partitions (0 => 4 * workers, Hadoop-style default).
  size_t num_partitions = 0;
  /// Attempts per task before the whole job fails (Hadoop default: 4).
  size_t max_task_attempts = 4;
  FaultInjection faults;
  /// Cluster cost model (paper Eq. (9)): when > 0, JobCounters reports
  /// modeled_seconds = total_seconds + shuffle_bytes / this bandwidth,
  /// charging every shuffled byte the network/disk cost an in-process run
  /// does not pay. 0 disables (modeled_seconds == total_seconds).
  double modeled_shuffle_bandwidth = 0.0;  // bytes per second

  /// Wall-clock budget per task attempt; an attempt that exceeds it counts
  /// as a failed attempt (feeding max_task_attempts) instead of hanging the
  /// job. 0 disables. Attempts sleeping in an injected straggler dawdle are
  /// killed promptly; attempts stuck in user code are charged when they
  /// return.
  double task_deadline_seconds = 0.0;

  /// Hadoop-style speculative execution: once `speculative_min_completed`
  /// attempts have committed, a task whose sole running attempt has been in
  /// flight longer than `speculative_multiplier` times the median committed
  /// attempt time gets one backup attempt. First finisher commits; the loser
  /// is cancelled and its output discarded. Output is bit-identical either
  /// way because attempts are pure.
  bool speculative_execution = false;
  double speculative_multiplier = 3.0;
  size_t speculative_min_completed = 3;

  /// When true, a shuffle record that fails to deserialize is skipped and
  /// counted in JobCounters::skipped_records, instead of failing the job
  /// after every other partition has done its work (Hadoop's
  /// "skip bad records" mode). When false, the first bad record aborts the
  /// job and cancels in-flight partitions early.
  bool skip_bad_records = false;

  /// Optional job-boundary checkpointing: completed jobs persist their
  /// output here and are replayed on re-runs (see checkpoint.h). Borrowed,
  /// not owned. Jobs whose output type has no Serde are executed normally
  /// (re-running them on resume is correct, just not free).
  CheckpointStore* checkpoint = nullptr;

  /// Out-of-core execution. When > 0, a map task whose buffered intermediate
  /// payload bytes reach this budget key-sorts its in-memory segment and
  /// spills it to `spill_dir` as CRC-trailed sorted runs (one per non-empty
  /// partition). 0 keeps every map task's sorted runs in memory. Either way
  /// the reduce side streams a k-way merge over each partition's runs, and
  /// the output is bit-identical (see spill.h for the merge-order contract).
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files; empty means "<system temp>/ddp-spill".
  /// Files are created with process-unique names and removed when the job's
  /// intermediate state is dropped, so concurrent jobs can share it.
  std::string spill_dir;

  /// Progress heartbeat (obs/heartbeat.h): when > 0, each map/reduce phase
  /// logs tasks-done/total and the completion rate every this many seconds.
  /// 0 (default) starts no heartbeat thread at all.
  double heartbeat_seconds = 0.0;

  /// Execution substrate (see ExecMode).
  ExecMode exec_mode = ExecMode::kInProc;
  /// kFork: replacement workers each phase may fork after its initial crew
  /// dies. A remote phase forks none.
  size_t max_worker_restarts = 8;
  /// kFork and kRemote: consecutive worker-killing crashes, a remote
  /// worker's lost link included, before a task is declared poisonous and
  /// routed through skip_bad_records quarantine.
  size_t quarantine_after_crashes = 2;

  /// ExecMode::kRemote: the pool of exec'd ddp_worker processes
  /// (remote_worker.h) whose listener remote workers dial. Borrowed, not
  /// owned; one job may use a pool at a time. Required for kRemote: a null
  /// pool fails the job.
  RemoteWorkerPool* remote_pool = nullptr;

  /// Cooperative cancellation shared across a pipeline: when set, RunJob
  /// checks the flag before doing any work and again at the map->reduce
  /// boundary, returning Cancelled instead of launching further tasks.
  /// The serving layer (src/server/) points every job of one submission at
  /// the same flag, so a kJobCancel takes effect at the next phase
  /// boundary. Checkpoints saved before the cancel stay valid: a
  /// cancelled-and-resubmitted pipeline resumes from the last completed
  /// job.
  std::shared_ptr<std::atomic<bool>> cancel_flag;

  size_t ResolvedWorkers() const {
    return num_workers == 0 ? DefaultParallelism() : num_workers;
  }
  size_t ResolvedPartitions() const {
    return num_partitions == 0 ? 4 * ResolvedWorkers() : num_partitions;
  }
};

namespace internal {

/// Pure chaos decision: does event `attempt` of task `task` in `phase` fire?
/// Shared by failure injection (phases 0/1), shuffle corruption (phase 2,
/// with the partition index in the `attempt` slot), and straggler injection
/// (phases 4/5).
bool ShouldInjectFailure(const FaultInjection& faults, double rate,
                         const std::string& job_name, int phase, size_t task,
                         size_t attempt);

/// An attempt-local task output: MapTaskOutput or ReduceTaskOutput<Out>.
/// A failed or abandoned attempt's slot is dropped.
class TaskSlot {
 public:
  TaskSlot() = default;
  TaskSlot(const TaskSlot&) = default;
  TaskSlot(TaskSlot&&) = default;
  TaskSlot& operator=(const TaskSlot&) = default;
  TaskSlot& operator=(TaskSlot&&) = default;
  virtual ~TaskSlot() = default;
};

using TaskSlots = std::vector<std::unique_ptr<TaskSlot>>;

/// Runs task `task` into `slot`. Must be a pure function of `task` and
/// should poll `cancel` so an abandoned attempt releases its worker.
using TaskBody =
    std::function<Status(size_t task, CancelToken* cancel, TaskSlot* slot)>;

/// One map task's output: its key-sorted runs in merge-ordinal order (disk
/// runs in spill order, or in-memory runs by partition), with the byte and
/// record accounting the engine merges into JobCounters.
struct MapTaskOutput : TaskSlot {
  std::vector<SpillRun> runs;
  std::vector<uint64_t> payload_bytes;
  uint64_t records = 0;
  uint64_t combine_in = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  double spill_seconds = 0.0;
};

/// The type-independent part of one reduce task's output. `group_size_log2`
/// is the log2-bucketed group-size histogram (bucket = floor(log2(size))) —
/// the per-key population skew picture.
struct ReduceTaskStats : TaskSlot {
  uint64_t groups = 0;
  uint64_t skipped = 0;
  uint64_t merge_passes = 0;
  std::vector<uint64_t> group_size_log2;

  /// Counts one reduced key group of `size` values.
  void CountGroup(size_t size);
};

/// How a phase's slots cross a process boundary: the worker serializes a
/// slim result payload (counters, never shuffle data) and the parent
/// decodes it into a fresh slot. The run hooks move the sorted runs a map
/// attempt streams ahead of that payload; unset, the phase ships no runs.
struct SlotCodec {
  std::function<void(BufferWriter* w, TaskSlot& slot)> serialize;
  std::function<Status(BufferReader* r, TaskSlot* slot)> deserialize;
  std::function<std::vector<SpillRun>(TaskSlot& slot)> extract_runs;
  std::function<Status(std::vector<SpillRun> runs, TaskSlot* slot)>
      inject_runs;
};

/// The codec of MapTaskOutput slots: a map slot's runs cross the wire as
/// they are, and a streamed-in run naming a partition at or past
/// `num_partitions` is an IoError.
SlotCodec MapSlotCodec(size_t num_partitions);

/// Where a job's spill files live: the resolved `options.spill_dir` under a
/// memory budget, else empty, since an unbudgeted job never spills. Map
/// tasks spill there, and a supervisor writes its shuffle files there.
std::string JobSpillDir(const Options& options);

/// The job-wide knobs a map task shapes its output by.
struct MapTaskParams {
  size_t num_partitions = 0;
  uint64_t memory_budget_bytes = 0;
  std::string spill_dir;
  FaultInjection faults;  // shuffle-corruption placement
};

/// The chaos one task attempt rolls: a value type, so a remote worker
/// rebuilds it from a JobSetupMsg and injects from identical hashes.
struct ChaosParams {
  FaultInjection faults;
  double failure_rate = 0.0;  // this phase's injected-failure probability
  std::string job_name;
  int phase = 0;
};

/// Runs one worker-side task attempt into `slot` with the full worker chaos
/// order: poison-task and mid-map crashes before the body, injected failure
/// and straggler dawdle after it (the same helper the in-process scheduler
/// rolls), mid-shuffle crash / mid-run channel drop markers on the
/// extracted runs, then the serialized result payload.
Status RunWorkerAttempt(const ChaosParams& chaos, size_t task, size_t attempt,
                        bool quarantined, const TaskBody& body,
                        const SlotCodec& codec, TaskSlot* slot,
                        TaskResult* result);

/// The typed half of one job, erased: the hooks RunJob builds from a
/// JobSpec. `map_input`, `reduce_codec`, `replay` and `save` are unset when
/// the input or output type has no Serde.
struct JobTasks {
  std::string name;
  size_t input_records = 0;
  size_t num_map_tasks = 1;
  std::function<Status(size_t task, const MapTaskParams& params,
                       CancelToken* cancel, MapTaskOutput* out)>
      map;
  /// Map task `task`'s input slice by value, for a remote worker.
  std::function<Result<std::string>(size_t task)> map_input;
  std::string remote_task_id;  // JobSpec::remote_task_id
  std::function<void(BufferWriter*)> remote_ctx;

  /// A fresh ReduceTaskOutput<Out>.
  std::function<std::unique_ptr<TaskSlot>()> new_reduce_slot;
  /// Reduces partition `p` by merging its sorted runs; `any_run` says a
  /// spilled run is among them.
  std::function<Status(size_t p,
                       std::vector<std::unique_ptr<FrameStream>> sources,
                       bool any_run, CancelToken* cancel, TaskSlot* slot)>
      reduce;
  SlotCodec reduce_codec;

  /// Moves the committed reduce slots' records, partition-major, into the
  /// job's result and returns their count.
  std::function<uint64_t(TaskSlots& slots)> collect;
  /// Checkpoint hooks: decode a saved result into the job's result
  /// (returning its record count), and encode the job's result.
  std::function<Result<uint64_t>(const std::string& bytes)> replay;
  std::function<void(BufferWriter* w)> save;
};

/// Runs one job: checkpoint replay, map, shuffle and reduce on the
/// substrate `options` asks for, counters, spans and metrics, checkpoint
/// save. On success the job's result has been handed to `job.collect` (or
/// `job.replay`); `counters_out`, when non-null, receives the counters.
/// Every job that gets past the cancel check at its start, successful or
/// not, publishes its counters to the metrics registry once, as it ends.
Status RunJobTasks(const JobTasks& job, const Options& options,
                   JobCounters* counters_out);

}  // namespace internal
}  // namespace mr
}  // namespace ddp
