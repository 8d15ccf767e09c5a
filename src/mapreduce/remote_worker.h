#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "mapreduce/channel.h"
#include "mapreduce/supervisor.h"

/// \file remote_worker.h
/// The multi-host worker subsystem: exec'd `ddp_worker` processes executing
/// tasks by *name* instead of forked children executing captured closures.
///
/// Fork workers inherit the job's typed map/reduce lambdas (and its input)
/// copy-on-write, which pins every worker to the supervisor's host. A
/// remote worker is a separate binary on any host: it dials the
/// supervisor's `TcpListener`, identifies itself with a kHello, receives a
/// kJobSetup frame naming the registered job to run, and then answers
/// kTaskAssign frames — the frame fork workers get too, here with the
/// task's serialized input — with the same streamed-run + kResult protocol.
/// Everything a closure would have captured crosses the wire once per
/// phase, in the kJobSetup context blob.
///
/// Three pieces:
///  * `JobRegistry` — process-global map from stable string ids ("lsh-
///    rho-local", "choose-dc", ...) to factories that decode a JobSetupMsg
///    into a runnable task body. Both ends must register the same jobs;
///    src/ddp/remote_jobs.h's RegisterAllRemoteJobs() covers every DDP
///    driver job.
///  * `RemoteWorkerPool` — supervisor-side: one phase-outliving TcpListener
///    plus the parked channels of idle workers between phases. A
///    `WorkerSupervisor` running a phase under ExecMode::kRemote admits
///    workers from `Options::remote_pool` and parks healthy ones back at
///    phase teardown. One job at a time may use a pool.
///  * `RunRemoteWorker` — worker-side: dial, register, serve. The loop is
///    WorkerLoop, so heartbeat, streamed shuffle, backpressure and chaos
///    crash semantics are byte-identical to fork workers: the heartbeat
///    interval is kWorkerHeartbeatSeconds and the credit window rides each
///    kTaskAssign, both set by the supervisor. A worker whose link fails
///    dials again and joins as a new worker; its attempt is retried, as a
///    forked worker's is when it dies.
///
/// Raw process-control calls (fork/execv/kill/waitpid — used by
/// SpawnWorkerProcess for tests and tools that launch worker processes)
/// stay inside src/mapreduce/ per ddp_lint R7.

namespace ddp {
namespace mr {

/// Process-global registry of named task bodies. A registered factory takes
/// the phase's JobSetupMsg (registry id, driver context blob, partition
/// count, chaos knobs...) and returns the function that runs one task
/// attempt from its serialized input. Registration happens once at process
/// start (RegisterAllRemoteJobs); lookups are concurrent-safe after that.
class JobRegistry {
 public:
  /// Runs one task attempt: decode `input`, execute, fill `result` with the
  /// payload and outbound runs exactly like a fork worker's WorkerTaskFn.
  using TaskRunner = WorkerTaskFn;
  using Factory = std::function<Result<TaskRunner>(const JobSetupMsg& setup)>;

  static JobRegistry& Global();

  /// Registers `factory` under `id`; re-registering an id replaces it (the
  /// last writer wins, so tests can stub jobs).
  void Register(const std::string& id, Factory factory);

  /// Instantiates the runner for `setup.job_id`. NotFound for ids this
  /// binary never registered.
  Result<TaskRunner> Create(const JobSetupMsg& setup) const;

  std::vector<std::string> RegisteredIds() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Factory>> entries_;
};

/// Supervisor-side pool of remote workers: the stable listening endpoint
/// workers dial, plus the parked channels of idle workers handed back by a
/// finished phase. The pool itself never speaks the protocol — it only
/// owns descriptors between phases. One RunPhase may borrow the pool at a
/// time (phases of one job run strictly in sequence, and DdpServer
/// serializes remote jobs on a shared pool).
class RemoteWorkerPool {
 public:
  /// Binds the pool's listener (port 0 picks an ephemeral port).
  static Result<std::unique_ptr<RemoteWorkerPool>> Listen(
      const std::string& host, uint16_t port);

  ~RemoteWorkerPool();

  const std::string& host() const { return host_; }
  uint16_t port() const;
  TcpListener* listener() { return listener_.get(); }

  struct Parked {
    uint64_t id = 0;
    std::unique_ptr<CommChannel> channel;
  };

  /// Hands every parked worker to the caller (the next phase adopts them).
  std::vector<Parked> TakeParked();

  /// Parks an idle worker's channel for the next phase.
  void Park(uint64_t id, std::unique_ptr<CommChannel> channel);

  /// Sends kShutdown to every parked worker and closes the listener; call
  /// when no more phases will run. The destructor does the same.
  void Shutdown();

 private:
  RemoteWorkerPool(std::string host, std::unique_ptr<TcpListener> listener)
      : host_(std::move(host)), listener_(std::move(listener)) {}

  std::string host_;
  std::unique_ptr<TcpListener> listener_;
  std::mutex mu_;
  std::vector<Parked> parked_;
};

/// Knobs for one remote worker process (the ddp_worker binary).
struct RemoteWorkerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// 0 derives (1 << 63) | pid — bit 63 keeps remote ids disjoint from the
  /// supervisor's fork-worker ids on any host.
  uint64_t worker_id = 0;
  /// How long one dial (the first, or one after a lost link) keeps
  /// retrying with the seeded backoff before giving up; 0 dials once.
  double dial_deadline_seconds = 5.0;
  uint64_t backoff_seed = 1;
  /// >= 0: deterministic chaos — on the Kth kTaskAssign served (0-based),
  /// crash mid-shuffle after shipping half the attempt's runs, exactly like
  /// FaultInjection::worker_crash_rate's mid-shuffle coin.
  int64_t chaos_crash_task = -1;
};

/// Dials the supervisor and serves registered jobs until kShutdown, dialing
/// again whenever its link fails, until a dial finds no supervisor. Returns
/// the process exit code: 0 after kShutdown, 1 when the supervisor is gone.
int RunRemoteWorker(const RemoteWorkerOptions& options);

/// fork+execv of a worker (or any) binary, for tools and tests that launch
/// ddp_worker processes; lives here so raw fork/execv stay in
/// src/mapreduce/. `args` excludes argv[0]. A `binary` that is not an
/// executable regular file is an InvalidArgument naming it, and no process
/// is forked.
Result<int64_t> SpawnWorkerProcess(const std::string& binary,
                                   const std::vector<std::string>& args);

/// SIGKILLs a process spawned with SpawnWorkerProcess.
void KillWorkerProcess(int64_t pid);

/// waitpid(pid) — reaps a spawned worker; returns its exit code (or -1 for
/// abnormal termination).
int WaitWorkerProcess(int64_t pid);

}  // namespace mr
}  // namespace ddp
