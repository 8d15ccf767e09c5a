#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "common/serde.h"
#include "mapreduce/channel.h"
#include "mapreduce/spill.h"
#include "obs/trace.h"

/// \file supervisor.h
/// The one scheduler of the MapReduce runtime. A `PhaseMachine`
/// (phase_machine.cc) decides every phase on every substrate. It holds no
/// descriptor, pid, thread or clock: it learns of the world through events
/// (a frame or a verdict from a worker, a link lost, a connection offered,
/// the time) and acts only through `PhaseIo`, which three drivers implement:
/// the in-process crew of logical workers on the job's ThreadPool
/// (phase.cc); `WorkerSupervisor::RunPhase`'s poll loop over forked
/// children (plain fork, no exec: workers inherit the job's closures and
/// input copy-on-write, and talk over a socketpair) or exec'd remote workers
/// that dial in over TCP (remote_worker.h); and the in-memory simulator of
/// tests/supervisor_sim_test.cc. The policy:
///
///  * crash — a forked or remote worker whose channel failed, or that broke
///    the stream protocol, is dropped; its attempt is charged and retried
///    after a seeded backoff, like any failed attempt, and a forked crew
///    respawns while `max_worker_restarts` lasts. No `waitpid` can tell a
///    remote crash from a network drop, and neither needs to: as in Hadoop,
///    the attempt runs again elsewhere; the remote worker dials again and
///    joins as a new one. An in-process worker never leaves its crew.
///  * hang — a forked or remote attempt past `task_deadline_seconds`, or a
///    busy worker silent past kHeartbeatGraceSeconds, is dropped and charged
///    as a hang; an in-process one is cancelled and charged when it returns.
///  * straggler — with `speculative_execution`, a task whose only running
///    attempt has run `speculative_multiplier` times the median committed
///    attempt gets one backup on an idle worker. The first success commits;
///    the loser's verdict and runs are discarded without a charge.
///  * poison — a task whose attempts killed `quarantine_after_crashes`
///    consecutive workers re-runs quarantined under `skip_bad_records`
///    (Hadoop's skip mode); otherwise the job fails.
///  * admission — a new connection must say hello, among the crew's events,
///    within kHelloSeconds, or it is closed; so is a hello naming a worker
///    already in the crew.
///
/// The streamed shuffle: a worker ships each SpillRun of a successful
/// attempt as kRunBegin / kRunData* / kRunEnd — a disk run byte-identical
/// to its file extent, an in-memory run with a trailer appended — and the
/// supervisor commits each run as it completes (in memory, or appended to
/// the attempt's shuffle file). Flow control is credit-based: the supervisor
/// acks committed bytes at least every half window, and the worker opens a
/// run only while its un-acked bytes fit the window each kTaskAssign
/// carries (the memory budget floored at 4 KiB, or 4 MiB without one). A
/// slim kResult follows every run frame, so a committed result has its
/// full run set. Results commit per task index, so scheduling, crashes,
/// respawns, redials and backups never affect output order
/// (docs/architecture.md, "Multi-process execution"). Raw process control
/// lives in src/mapreduce/ alone (raw sockets also in src/server/), as
/// ddp_lint's R7 enforces.

namespace ddp {
namespace mr {

struct Options;      // phase.h, which includes this header
struct JobCounters;  // counters.h

/// The facts of one supervised phase. Nothing here is a knob: everything
/// the supervisor can tune comes from the job's mr::Options.
struct SupervisedPhase {
  std::string job_name;
  int phase = 0;  // 0 = map, 1 = reduce (naming and chaos-phase parity)
  size_t num_tasks = 0;
  /// Remote crews only: the encoded JobSetupMsg every admitted worker
  /// installs, and one task's serialized input, shipped inside its
  /// kTaskAssign frame.
  std::string remote_setup;
  std::function<Result<std::string>(size_t task)> remote_input;
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
  /// >= 0: close the connection mid-run after shipping this many full runs
  /// (link-loss chaos; ignored by workers that cannot redial).
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

/// Called by the PhaseMachine, in verdict order, as each task's first
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
/// PhaseMachine::kHeartbeatGraceSeconds of silence.
constexpr double kWorkerHeartbeatSeconds = 0.25;

/// SIGKILLs the calling process — the worker-side chaos injection for
/// `FaultInjection::worker_crash_rate` / `poison_task_rate`. Lives here so
/// raw kill() stays inside src/mapreduce/.
[[noreturn]] void CrashSelf();

/// Wire payloads. Each names its fields once, in wire order (`Fields`,
/// common/serde.h); WireMessage derives its Encode()/Decode() from that
/// list, and Decode() rejects trailing bytes and integers outside their
/// field's range. TaskAssignMsg rides kTaskAssign, ResultMsg kResult,
/// HelloMsg kHello, JobSetupMsg kJobSetup, RunBeginMsg kRunBegin, RunEndMsg
/// kRunEnd, RunAckMsg kRunAck. kRunData frames carry raw run bytes (the
/// channel framing already CRC-protects each chunk; the run trailer
/// protects the whole).
struct ResultMsg : WireMessage<ResultMsg, "ResultMsg"> {
  uint64_t task = 0;
  uint64_t attempt = 0;
  int32_t status_code = 0;  // StatusCode of the attempt
  std::string status_message;
  double seconds = 0.0;  // child-measured attempt duration
  std::string payload;   // serialized task counters (empty on failure)

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.task, s.attempt, s.status_code, s.status_message,
                     s.seconds, s.payload);
  }
};

struct HelloMsg : WireMessage<HelloMsg, "HelloMsg"> {
  uint64_t worker_id = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.worker_id); }
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
  /// stragglers). An in-process dawdle ends when its attempt is cancelled.
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
  /// worker closes its connection mid-run while it streams the attempt's
  /// shuffle runs. The supervisor drops it and retries the attempt, and the
  /// worker dials again and joins as a new worker — committed bytes are
  /// identical to an undropped run. Forked workers ignore it: a socketpair
  /// cannot be redialed.
  double channel_drop_rate = 0.0;
  uint64_t seed = 1;

  /// Wire order, which puts the seed first.
  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.seed, s.map_failure_rate, s.reduce_failure_rate,
                     s.straggler_rate, s.straggler_slowdown,
                     s.straggler_min_seconds, s.corruption_rate,
                     s.worker_crash_rate, s.poison_task_rate,
                     s.channel_drop_rate);
  }
};

/// Installs one phase of a registered job on a remote worker (rides
/// kJobSetup, answered implicitly by the worker accepting kTaskAssign
/// frames). Everything a fork-worker would have captured by closure travels
/// here by value: the registry id naming the task body, the driver context
/// blob the registered factory decodes, and the knobs the phase engine
/// (phase.cc) bakes into a forked body (partition count, spill budget,
/// deterministic chaos rates).
struct JobSetupMsg : WireMessage<JobSetupMsg, "JobSetupMsg"> {
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

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.job_id, s.job_name, s.phase, s.ctx, s.num_partitions,
                     s.memory_budget_bytes, s.spill_dir, s.skip_bad_records,
                     s.faults);
  }
};

/// One task attempt (rides kTaskAssign), the one task frame of forked and
/// remote workers alike. A remote worker gets the task's serialized input
/// by value — it shares no address space, so input cannot ride
/// copy-on-write; a forked worker gets an empty `input`. `window_bytes` is
/// the attempt's shuffle credit window: the worker opens a new run only
/// while its shipped-but-unacked bytes stay under it.
struct TaskAssignMsg : WireMessage<TaskAssignMsg, "TaskAssignMsg"> {
  uint64_t task = 0;
  uint64_t attempt = 0;
  bool quarantined = false;
  uint64_t window_bytes = 0;
  std::string input;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.task, s.attempt, s.quarantined, s.window_bytes, s.input);
  }
};

struct RunBeginMsg : WireMessage<RunBeginMsg, "RunBeginMsg"> {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t seq = 0;  // run index within the attempt's stream order
  uint32_t partition = 0;
  uint32_t spill_index = 0;  // kTailRunIndex for tails
  uint64_t length = 0;       // total run bytes incl trailer

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.task, s.attempt, s.seq, s.partition, s.spill_index,
                     s.length);
  }
};

struct RunEndMsg : WireMessage<RunEndMsg, "RunEndMsg"> {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t seq = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.task, s.attempt, s.seq); }
};

/// Cumulative commit acknowledgement: the flow-control credit.
struct RunAckMsg : WireMessage<RunAckMsg, "RunAckMsg"> {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t acked_runs = 0;   // runs committed so far for this attempt
  uint64_t acked_bytes = 0;  // their total shipped bytes

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.task, s.attempt, s.acked_runs, s.acked_bytes);
  }
};

/// Why a worker leaves a phase before teardown.
enum class Drop {
  kChannel,   // its channel failed: EOF or a corrupt frame
  kProtocol,  // it broke the stream protocol or sent a bad result
  kSilence,   // no heartbeat within the grace
  kDeadline,  // its attempt overran the task deadline
};

/// Everything a PhaseMachine does to the world. A link is the driver's id
/// for one worker: a forked worker's socketpair, an accepted connection, a
/// parked one, or an in-process logical worker. Ids start at 1 and are
/// never reused within a phase.
class PhaseIo {
 public:
  virtual ~PhaseIo() = default;

  /// Sends one frame. An error means the peer is gone; the link's loss
  /// event follows. An in-process crew reads only kTaskAssign.
  virtual Status Send(uint64_t link, const Frame& frame) = 0;
  /// Starts worker `id`: forks it, or adds an in-process logical worker.
  /// Returns its link and (for a forked worker's trace span) its pid.
  virtual Result<std::pair<uint64_t, uint64_t>> Spawn(uint64_t id) = 0;
  /// Reaps the forked worker on `link`, SIGKILLing it unless it exits
  /// within `grace_seconds`. True when it had to be killed.
  virtual bool KillAndReap(uint64_t link, double grace_seconds) = 0;
  virtual void Close(uint64_t link) = 0;
  /// Hands remote worker `id`'s link back to the pool for the next phase.
  virtual void Park(uint64_t link, uint64_t id) = 0;
  /// Appends one verified disk run, its frames without the trailer, to the
  /// shuffle file of `begin`'s attempt, and returns the run as committed.
  virtual Result<SpillRun> AppendRun(const RunBeginMsg& begin,
                                     std::string_view frames) = 0;
  /// Asks the attempt on `link` (a loser, overdue, or abandoned) to stop
  /// early. Only an in-process one can; its verdict still arrives.
  virtual void Cancel(uint64_t /*link*/) {}
};

class PhaseMachine {
 public:
  /// A busy worker silent for more than this is declared hung.
  static constexpr double kHeartbeatGraceSeconds = 8 * kWorkerHeartbeatSeconds;
  /// How long an empty remote crew is waited for before the phase fails.
  static constexpr double kConnectGraceSeconds = 6.0;
  /// How long an offered connection may take to say hello.
  static constexpr double kHelloSeconds = 2.0;

  /// The crew a phase runs on, by `Options::exec_mode`.
  enum class Crew { kInProc, kForked, kRemote };

  /// `commit` runs once per task, as its first successful attempt's verdict
  /// arrives; `io` outlives the machine.
  PhaseMachine(const Options& options, const SupervisedPhase& phase,
               CommitFn commit, JobCounters* counters, PhaseIo* io);

  /// Admits the remote workers parked by an earlier phase, as (link, worker
  /// id) pairs, and starts a forked or in-process crew, whose first worker
  /// must start.
  Status Start(const std::vector<std::pair<uint64_t, uint64_t>>& parked,
               double now);
  /// A frame arrived on `link`; its payload may be moved from.
  void OnFrame(uint64_t link, Frame* frame, double now);
  /// The verdict of the attempt on `link`: a decoded kResult, or an
  /// in-process attempt's, whose payload is empty. Dispatches at once.
  void OnResult(uint64_t link, ResultMsg msg, double now);
  /// `link` failed: EOF, a corrupt frame or a receive error.
  void OnLost(uint64_t link, double now);
  /// A new connection on the pool's listener; it must say hello first.
  void OnOffer(uint64_t link, double now) { pending_.emplace_back(link, now); }
  /// The time: hello, hang and grace deadlines, respawns, dispatch, backups.
  void Tick(double now);
  /// Fails the phase from outside (the driver's poll failed).
  void Fail(Status why) {
    if (error_.ok()) error_ = std::move(why);
  }

  /// True once every task committed or the phase failed.
  bool done() const { return !error_.ok() || completed_ == tasks_.size(); }

  /// Parks idle remote workers, stops the others (a busy one is cancelled,
  /// or killed at once) and reaps the forked ones; returns the status.
  Status Teardown();

 private:
  struct OpenRun {
    RunBeginMsg begin;
    std::string buf;  // run bytes so far, trailer included
    double started = 0.0;
  };
  /// One attempt's committed runs, acks and run in flight; dropped whole.
  struct Stream {
    std::vector<SpillRun> committed;
    uint64_t committed_bytes = 0;
    uint64_t last_acked_bytes = 0;
    std::optional<OpenRun> open;
  };
  struct Worker {
    uint64_t id = 0;
    uint64_t link = 0;
    bool busy = false;
    size_t task = 0;
    size_t attempt = 0;
    bool backup = false;  // the attempt is a speculative backup
    double dispatched = 0.0;
    double last_beat = 0.0;
    Stream stream;
    std::unique_ptr<obs::Span> span;  // none for an in-process worker
  };
  struct TaskState {
    size_t failed_attempts = 0;
    size_t next_attempt = 0;
    bool done = false;
    bool queued = true;  // an attempt waits for dispatch
    size_t running = 0;  // attempts in flight
    bool backup_launched = false;
    bool quarantined = false;
    size_t consecutive_crashes = 0;
    double not_before = 0.0;  // backoff gate for the next attempt
  };

  size_t Find(uint64_t link) const;  // workers_.size() when none
  Status Spawn(double now);
  void Join(uint64_t id, uint64_t link, uint64_t pid, double now);
  void Admit(uint64_t link, uint64_t id, double now);
  void Hello(uint64_t link, const Frame& frame, double now);
  void ChargeFailure(size_t t, bool crashed, const Status& why, double now);
  void DropWorker(size_t wi, Drop cause, double now);
  void SendAck(Worker& w);
  bool RunBegin(Worker& w, const std::string& payload, double now);
  bool RunData(Worker& w, std::string* payload);
  bool RunEnd(Worker& w, const std::string& payload, double now);
  bool Assign(Worker& w, size_t t, bool backup, double now);
  void Dispatch(double now);
  void Speculate(double now);

  const Options& options_;
  const SupervisedPhase& phase_;
  const CommitFn commit_;
  JobCounters* const counters_;
  PhaseIo* const io_;
  const char* const phase_name_;
  const Crew crew_;
  const bool spills_;  // only a budgeted job's workers ship disk runs
  const uint64_t window_;
  const size_t crew_size_;  // workers a forked or in-process crew starts
  const ExponentialBackoff respawn_backoff_;

  std::vector<Worker> workers_;
  std::vector<TaskState> tasks_;
  /// Offered connections still owing their hello: (link, offered at).
  std::vector<std::pair<uint64_t, double>> pending_;
  /// Committed attempts' seconds, whose median speculation measures by.
  std::vector<double> committed_seconds_;
  size_t completed_ = 0;
  size_t restarts_used_ = 0;
  uint64_t next_worker_id_ = 1;
  double next_respawn_ = 0.0;
  double last_crew_ = 0.0;
  Status error_;
};

class WorkerSupervisor {
 public:
  /// Runs tasks [0, phase.num_tasks) on a process crew: `options.remote_pool`'s
  /// remote workers under ExecMode::kRemote, else ResolvedWorkers() forked
  /// ones. Commits each task's result (and streamed runs) through `commit`,
  /// and the machine adds the phase's accounting to `counters`. Everything
  /// else derives from `options`, the spill dir from internal::JobSpillDir
  /// (a job without a memory budget has none, and a disk run from its
  /// workers breaks the stream protocol). Fails when the first worker cannot
  /// be forked, or when a remote crew stays empty for the connect grace
  /// (~6 s); nothing ever runs in-process instead.
  static Status RunPhase(const Options& options, const SupervisedPhase& phase,
                         const WorkerTaskFn& fn, const CommitFn& commit,
                         JobCounters* counters);
};

/// Child-side knobs for WorkerLoop.
struct WorkerMainConfig {
  uint64_t worker_id = 0;
  /// Installs a registered job when a kJobSetup frame arrives. Set for
  /// remote workers only, which is what marks one: it redials after its
  /// link fails, so it acts on the drop marker and watches no parent. Null
  /// (a forked worker): the worker exits on kJobSetup, and watches
  /// getppid() to notice that its supervisor died.
  std::function<Status(const JobSetupMsg& setup)> on_job_setup;
};

/// WorkerLoop's return when the worker's channel failed or its stream broke
/// midway: a remote worker dials again; a forked one exits with it.
constexpr int kWorkerLinkLost = 3;

/// The worker protocol loop shared by forked children and exec'd remote
/// workers: identify with kHello, answer each kTaskAssign frame by running
/// `fn` and streaming the attempt's runs then a kResult frame, beating
/// kHeartbeat every kWorkerHeartbeatSeconds meanwhile, until kShutdown, a
/// channel error (kWorkerLinkLost), or orphaning. An attempt's runs and
/// spill files are released once its kResult is sent, or its stream fails.
/// Returns the process exit code (remote workers return to main; forked
/// children must _exit instead).
int WorkerLoop(std::unique_ptr<CommChannel> channel, const WorkerTaskFn& fn,
               const WorkerMainConfig& config);

}  // namespace mr
}  // namespace ddp
