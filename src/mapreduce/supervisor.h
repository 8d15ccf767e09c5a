#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapreduce/channel.h"
#include "mapreduce/spill.h"

/// \file supervisor.h
/// Crash-fault-tolerant supervision of forked worker processes — the "job
/// tracker over real processes" counterpart of the in-process scheduler in
/// phase.cc, whose supervised-phase adapter drives it. A `WorkerSupervisor`
/// forks `num_workers` children (plain fork, no exec: the type-erased task
/// closures cannot cross an exec boundary, so workers inherit the job's
/// closures and input copy-on-write), feeds them task attempts over a
/// `CommChannel` (a socketpair per forked worker; remote workers dial in
/// over TCP, see remote_worker.h), and supervises:
///
///  * crash — the worker died unexpectedly (channel EOF + waitpid). The
///    in-flight attempt is charged and retried after a seeded exponential
///    backoff; a replacement worker is forked while the phase-wide restart
///    budget (`max_worker_restarts`) lasts.
///  * hang — the attempt overran `task_deadline_seconds`, or the worker's
///    heartbeat (a child-side ProgressHeartbeat that sends a kHeartbeat
///    frame per beat) went silent past the grace window. The worker is
///    SIGKILLed and the attempt charged, exactly like an in-process
///    deadline kill.
///  * poison — a task whose attempts killed `quarantine_after_crashes`
///    consecutive workers. With `skip_bad_records` the task is re-run
///    quarantined (the worker suppresses the poisonous record and counts it
///    skipped, Hadoop's skip-mode); otherwise the job fails.
///  * disconnect (remote workers only) — a remote worker's connection
///    dropped. Nothing tells a remote crash from a network drop, so the
///    supervisor keeps the attempt in flight and the already-committed
///    runs; the worker redials with a seeded backoff, re-identifies itself
///    (kHello carries worker id + generation), and a resume kRunAck tells
///    it which run boundary to restart from. A worker still gone after the
///    reconnect grace is evicted and its task reassigned. A forked worker's
///    socketpair cannot be re-established: any channel error there is a
///    crash.
///
/// The streamed shuffle: a successful attempt does NOT relay its map output
/// through the result payload. The worker ships each of its SpillRuns as
/// its own kRunBegin / kRunData* / kRunEnd exchange — a disk run's bytes on
/// the wire are byte-identical to its bytes on disk, CRC trailer included,
/// and an in-memory run gets a trailer appended — and the supervisor
/// commits every run as it completes: in-memory runs stay in memory,
/// disk-backed runs are appended to a supervisor-owned spill file. Flow
/// control is credit-based: the supervisor acks committed bytes
/// (cumulative, at least every half window) and the worker opens a new run
/// only while un-acked bytes stay under `stream_window_bytes`, which every
/// kTaskAssign carries to forked and remote workers alike, so neither side
/// ever holds more than one run plus a window of the shuffle in memory.
/// The slim kResult frame that follows carries counters only, and arrives
/// after every run frame by stream ordering — so a committed result always
/// has its full run set.
///
/// Results are committed per task index, so scheduling order, crashes,
/// respawns, and reconnects never affect output order — the bit-identity
/// argument of the multi-process mode reduces to "task bodies are pure,
/// the commit slot is the task id, and the merge tie-break ordinal (map
/// task, spill index, tail) rides inside the run stream"
/// (docs/architecture.md, "Multi-process execution").
///
/// Raw process-control calls (fork/kill/waitpid) and raw sockets live in
/// src/mapreduce/ and nowhere else; ddp_lint's process-control rule keeps
/// it that way.

namespace ddp {
namespace mr {

/// Robustness accounting for one supervised phase.
struct SupervisorStats {
  uint64_t worker_crashes = 0;   // unexpected worker deaths
  uint64_t worker_hangs = 0;     // workers killed for deadline/silence
  uint64_t worker_kills = 0;     // SIGKILLs issued by the supervisor
  uint64_t worker_restarts = 0;  // replacement workers forked
  uint64_t quarantined_tasks = 0;
  uint64_t retries = 0;          // failed attempts that were retried
  uint64_t deadline_kills = 0;   // hangs triggered by the task deadline
  uint64_t spill_files_reaped = 0;
  uint64_t shuffle_streamed_bytes = 0;  // run bytes committed off the wire
  uint64_t shuffle_resent_runs = 0;     // runs re-shipped after a reconnect
  uint64_t channel_reconnects = 0;      // remote worker connections redialed
  uint64_t workers_registered = 0;  // remote workers admitted to the phase
  uint64_t workers_evicted = 0;     // remote workers dropped (death/silence)
  uint64_t tasks_reassigned = 0;    // in-flight tasks moved off evicted workers
  std::vector<double> durations;  // committed attempt seconds
};

class RemoteWorkerPool;

struct SupervisorConfig {
  std::string job_name;
  int phase = 0;  // 0 = map, 1 = reduce (naming and chaos-phase parity)
  size_t num_workers = 1;
  size_t num_tasks = 0;
  size_t max_task_attempts = 4;
  /// Replacement workers the phase may fork after the initial crew.
  size_t max_worker_restarts = 8;
  /// Consecutive worker-killing crashes before a task is declared
  /// poisonous. The quarantined task gets a fresh attempt budget.
  size_t quarantine_after_crashes = 2;
  bool skip_bad_records = false;
  double task_deadline_seconds = 0.0;
  /// Seeds the retry and respawn backoff jitter.
  uint64_t backoff_seed = 1;
  /// Non-empty: reap orphan spill files of dead processes from this
  /// directory after each worker death (see spill.h ReapOrphanSpillFiles).
  /// Also where the supervisor writes its own shuffle spill files when
  /// workers stream disk-backed runs (resolved via ResolveSpillDir).
  std::string spill_dir;
  /// Parent-side progress heartbeat interval (mr::Options::heartbeat_seconds).
  double progress_heartbeat_seconds = 0.0;
  /// Per-worker cap on shipped-but-unacked run bytes (the shuffle
  /// backpressure window), sent with every task. 0 derives a default: the
  /// job's memory budget when one is set (floored at 4 KiB), else 4 MiB.
  uint64_t stream_window_bytes = 0;
  /// Non-null: schedule on exec'd remote workers (remote_worker.h) instead
  /// of forking a crew. Remote workers are admitted off the pool's listener
  /// (parked channels first), installed with `remote_setup_payload` over a
  /// kJobSetup frame, and fed kTaskAssign frames whose input bytes come from
  /// `remote_task_input`. An evicted remote worker's in-flight task is
  /// reassigned to a surviving worker (counted in `tasks_reassigned`). The
  /// pool outlives the phase: healthy idle workers are parked back into it.
  RemoteWorkerPool* remote_pool = nullptr;
  /// Encoded JobSetupMsg installing this phase's registered job.
  std::string remote_setup_payload;
  /// Serialized input for one task, shipped inside its kTaskAssign frame.
  std::function<Result<std::string>(size_t task)> remote_task_input;
};

/// What one task attempt produces inside the worker: a slim result payload
/// (counters, never data) plus the runs to stream before it, in merge
/// order. The supervisor commits a run with a real spill index to a spill
/// file it owns and keeps an in-memory run (kTailRunIndex) in memory,
/// trailer verified and stripped. The chaos knobs let deterministic fault
/// injection act at run granularity.
struct TaskResult {
  std::string payload;
  std::vector<SpillRun> runs;
  /// >= 0: SIGKILL self after shipping this many runs (mid-shuffle crash
  /// chaos, clamped to runs.size()).
  int64_t crash_after_runs = -1;
  /// >= 0: drop the connection mid-run after shipping this many full runs
  /// (reconnect chaos; ignored by workers that cannot redial).
  int64_t drop_after_runs = -1;
};

/// One task attempt, executed inside the worker process, forked or remote.
/// `quarantined` tells the body to suppress (and count as skipped) the
/// record that has been crashing workers. `input` is the task's serialized
/// input: empty for a forked worker, which inherited its input
/// copy-on-write.
using WorkerTaskFn =
    std::function<Status(uint64_t task, uint64_t attempt, bool quarantined,
                         const std::string& input, TaskResult* result)>;

/// Called in the supervising parent, in frame order, as each task's first
/// successful attempt arrives, with every run of that attempt already
/// committed. A non-OK return fails the job.
using CommitFn =
    std::function<Status(size_t task, bool quarantined, double seconds,
                         std::string payload, std::vector<SpillRun> runs)>;

/// True unless this is a ThreadSanitizer build: TSan does not support
/// threads in forked children, so an ExecMode::kFork job fails there.
bool ForkExecutionSupported();

/// Interval of the kHeartbeat frames every worker sends while it runs or
/// ships an attempt. The supervisor declares a busy worker hung after
/// kHeartbeatGrace (supervisor.cc) intervals of silence.
constexpr double kWorkerHeartbeatSeconds = 0.25;

/// SIGKILLs the calling process — the worker-side chaos injection for
/// `FaultInjection::worker_crash_rate` / `poison_task_rate`. Lives here so
/// raw kill() stays inside src/mapreduce/.
[[noreturn]] void CrashSelf();

/// Wire payloads (Encode/Decode pairs; all varint-framed like the spill
/// format). TaskAssignMsg rides kTaskAssign, ResultMsg kResult, HelloMsg
/// kHello, JobSetupMsg kJobSetup, RunBeginMsg kRunBegin, RunEndMsg kRunEnd,
/// RunAckMsg kRunAck. kRunData frames carry raw run bytes (the channel
/// framing already CRC-protects each chunk; the run trailer protects the
/// whole).
struct ResultMsg {
  uint64_t task = 0;
  uint64_t attempt = 0;
  int32_t status_code = 0;  // StatusCode of the attempt
  std::string status_message;
  double seconds = 0.0;  // child-measured attempt duration
  std::string payload;   // serialized task counters (empty on failure)

  std::string Encode() const;
  static Status Decode(const std::string& bytes, ResultMsg* out);
};

struct HelloMsg {
  uint64_t worker_id = 0;
  /// 0 on first connect; incremented per reconnect. A generation > 0 hello
  /// triggers the resume protocol.
  uint64_t generation = 0;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, HelloMsg* out);
};

/// Deterministic chaos injection, for exercising the recovery paths the way
/// a Hadoop cluster loses, slows, and corrupts tasks. Every decision is a
/// pure function of (seed, job name, phase, task, attempt), so runs remain
/// reproducible and every recovery path produces identical output.
struct FaultInjection {
  double map_failure_rate = 0.0;     // probability a map attempt fails
  double reduce_failure_rate = 0.0;  // probability a reduce attempt fails
  /// Straggler model: with probability `straggler_rate`, an attempt dawdles
  /// after finishing its work as if it ran on a slow node, stretching its
  /// wall time to ~`straggler_slowdown` times the compute time (but at least
  /// `straggler_min_seconds`, so micro-tasks still produce wall-clock-visible
  /// stragglers). The dawdle is interruptible: abandoned attempts release
  /// their worker as soon as the scheduler cancels them.
  double straggler_rate = 0.0;
  double straggler_slowdown = 10.0;
  double straggler_min_seconds = 0.0;
  /// Shuffle corruption: probability, per (map task, partition), of appending
  /// a poisoned frame to that partition's buffer. Poisoned frames are
  /// well-formed at the framing layer but never decode as a record, so they
  /// model flipped bits caught by deserialization. The injection ignores the
  /// attempt number: retried and speculative attempts build bit-identical
  /// buffers, and a poisoned frame is "off-path" chaff whose skipping cannot
  /// change job output.
  double corruption_rate = 0.0;
  /// Multi-process chaos (forked and remote workers; the in-process
  /// executor has no worker processes to lose). `worker_crash_rate` is the
  /// probability, per (task, attempt), that the attempt SIGKILLs its worker
  /// — a second hash bit picks whether the crash lands before the task body
  /// ("mid-map") or after the body but before the result ships
  /// ("mid-shuffle").
  /// `poison_task_rate` is the probability a TASK is poisonous: its record
  /// deterministically kills the worker on every attempt, independent of the
  /// attempt number, until the supervisor quarantines it (skip_bad_records)
  /// or fails the job. Both injections are suppressed in quarantine, so a
  /// quarantined task commits the same bytes an in-process run produces.
  double worker_crash_rate = 0.0;
  double poison_task_rate = 0.0;
  /// Remote workers only: probability, per (task, attempt), that the
  /// worker's connection drops mid-run while it streams the attempt's
  /// shuffle runs. The worker redials, the supervisor discards the partial
  /// run and answers with the last committed run boundary, and the stream
  /// resumes — committed bytes are identical to an undropped run. Forked
  /// workers ignore it: a socketpair cannot be re-established.
  double channel_drop_rate = 0.0;
  uint64_t seed = 1;
};

/// Installs one phase of a registered job on a remote worker (rides
/// kJobSetup, answered implicitly by the worker accepting kTaskAssign
/// frames). Everything a fork-worker would have captured by closure travels
/// here by value: the registry id naming the task body, the driver context
/// blob the registered factory decodes, and the knobs the phase engine
/// (phase.cc) bakes into a forked body (partition count, spill budget,
/// deterministic chaos rates).
struct JobSetupMsg {
  std::string job_id;    // JobRegistry id naming the task body
  std::string job_name;  // spec.name verbatim (chaos hashing, spill prefixes)
  uint32_t phase = 0;    // 0 = map, 1 = reduce
  std::string ctx;       // driver context blob for the registered factory
  uint64_t num_partitions = 0;
  uint64_t memory_budget_bytes = 0;
  std::string spill_dir;
  bool skip_bad_records = false;
  /// The job's chaos knobs verbatim, so remote chaos hashes identically to
  /// fork-mode chaos.
  FaultInjection faults;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, JobSetupMsg* out);
};

/// One task attempt (rides kTaskAssign), the one task frame of forked and
/// remote workers alike. A remote worker gets the task's serialized input
/// by value — it shares no address space, so input cannot ride
/// copy-on-write; a forked worker gets an empty `input`. `window_bytes` is
/// the attempt's shuffle credit window: the worker opens a new run only
/// while its shipped-but-unacked bytes stay under it.
struct TaskAssignMsg {
  uint64_t task = 0;
  uint64_t attempt = 0;
  bool quarantined = false;
  uint64_t window_bytes = 0;
  std::string input;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, TaskAssignMsg* out);
};

struct RunBeginMsg {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t seq = 0;  // run index within the attempt's stream order
  uint32_t partition = 0;
  uint32_t spill_index = 0;  // kTailRunIndex for tails
  uint64_t length = 0;       // total run bytes incl trailer

  std::string Encode() const;
  static Status Decode(const std::string& bytes, RunBeginMsg* out);
};

struct RunEndMsg {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t seq = 0;

  std::string Encode() const;
  static Status Decode(const std::string& bytes, RunEndMsg* out);
};

/// Cumulative commit acknowledgement — both the flow-control credit and
/// the resume point after a reconnect. `task == kNoTask` in a resume ack
/// means the supervisor has no attempt in flight for this worker (its last
/// result already committed) and the worker should drop its pending state.
struct RunAckMsg {
  static constexpr uint64_t kNoTask = ~uint64_t{0};

  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t acked_runs = 0;   // runs committed so far for this attempt
  uint64_t acked_bytes = 0;  // their total shipped bytes

  std::string Encode() const;
  static Status Decode(const std::string& bytes, RunAckMsg* out);
};

class WorkerSupervisor {
 public:
  /// Runs tasks [0, num_tasks) on forked workers, or on remote workers from
  /// `config.remote_pool` when one is set, committing each task's result
  /// (and streamed runs) through `commit`. Fails when the first worker
  /// cannot be forked, or when a remote crew stays empty for the connect
  /// grace (~6 s); nothing ever runs in-process instead.
  static Status RunPhase(const SupervisorConfig& config, const WorkerTaskFn& fn,
                         const CommitFn& commit, SupervisorStats* stats);
};

/// Child-side knobs for WorkerMain / WorkerLoop.
struct WorkerMainConfig {
  uint64_t worker_id = 0;
  /// Re-establishes the channel after a drop (remote workers). Null for
  /// forked workers: a socketpair cannot be redialed, so a channel error
  /// is fatal.
  std::function<Result<std::unique_ptr<CommChannel>>()> reconnect;
  /// Forked children watch getppid() to detect supervisor death; an exec'd
  /// remote worker has no parent relationship to watch, so it sets false.
  bool check_parent = true;
  /// Installs a registered job when a kJobSetup frame arrives (remote
  /// workers). Null: the worker exits on kJobSetup.
  std::function<Status(const JobSetupMsg& setup)> on_job_setup;
};

/// The worker protocol loop shared by forked children and exec'd remote
/// workers: identify with kHello, answer each kTaskAssign frame by running
/// `fn` and streaming the attempt's runs then a kResult frame, beating
/// kHeartbeat every kWorkerHeartbeatSeconds meanwhile, until kShutdown, an
/// unrecoverable channel error, or orphaning. Returns the process exit code
/// (remote workers return to main; forked children must _exit instead).
int WorkerLoop(std::unique_ptr<CommChannel> channel, const WorkerTaskFn& fn,
               const WorkerMainConfig& config);

/// Forked-child entry: WorkerLoop, then _exit so a forked child cannot run
/// parent destructors.
[[noreturn]] void WorkerMain(std::unique_ptr<CommChannel> channel,
                             const WorkerTaskFn& fn,
                             const WorkerMainConfig& config);

}  // namespace mr
}  // namespace ddp
