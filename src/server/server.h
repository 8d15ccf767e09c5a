#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/stopwatch.h"
#include "mapreduce/channel.h"
#include "mapreduce/checkpoint.h"
#include "server/cache.h"
#include "server/protocol.h"

/// \file server.h
/// DdpServer — the clustering-as-a-service daemon. One instance owns:
///
///  * an accept loop on a TcpListener plus one handler thread per client
///    connection, speaking the kJob* frames of protocol.h; a closed
///    connection's thread is joined as the next connection is accepted;
///  * a bounded job queue behind admission control: a submission is
///    rejected (with the reason on the wire) when the queue is full or when
///    the sum of admitted jobs' effective memory budgets would exceed the
///    server budget;
///  * scheduler threads that run admitted jobs through RunDistributedDp —
///    inproc or forked workers per the job's params — with one spill dir
///    shared by every job (spill files have no names, so they cannot
///    collide), a per-cache-key checkpoint dir, and seeded determinism;
///  * the dataset cache (content digest -> loaded Dataset) and the result
///    cache ((digest, canonical params) -> encoded JobResultPayload) of
///    cache.h. A result-cache hit completes at submit time without
///    touching the MapReduce runtime.
///
/// Graceful shutdown (RequestShutdown, or a kJobCancel frame with
/// kShutdownJobId) stops admission and drains: queued and running jobs run
/// to completion within `drain_timeout_seconds`; past the deadline their
/// cancel flags fire and each pipeline stops at its next job boundary —
/// checkpoints already saved stay valid, so a resubmission resumes instead
/// of recomputing.
///
/// Job records answer status and result polls: every queued and running
/// job's, and the most recent finished ones' (a fixed window in server.cc).
/// An older id reads "unknown job id", as a never-issued one does.
///
/// Progress, queue depth, cache traffic, and job latency are all exported
/// through MetricsRegistry under `server.*` (docs/observability.md).

namespace ddp {
namespace mr {
class RemoteWorkerPool;  // mapreduce/remote_worker.h
}  // namespace mr
namespace server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 picks an ephemeral port (see DdpServer::port())

  /// Jobs allowed to wait in the queue (running jobs do not count).
  size_t max_queued_jobs = 16;
  /// Admission budget: the sum of queued+running jobs' effective per-job
  /// memory budgets may not exceed this.
  uint64_t admission_budget_bytes = uint64_t{1} << 30;
  /// Effective budget of a job that submits memory_budget_bytes == 0 (jobs
  /// running fully in memory still occupy admission weight).
  uint64_t default_job_budget_bytes = uint64_t{64} << 20;

  uint64_t dataset_cache_bytes = uint64_t{1} << 30;
  size_t result_cache_entries = 64;

  /// Concurrent running jobs.
  size_t scheduler_threads = 2;

  /// Root for the jobs' spill dir ("spill") and per-cache-key checkpoint
  /// dirs; empty means "<system temp>/ddp-server-<port>".
  std::string work_dir;

  /// Grace period for queued+running jobs after shutdown is requested;
  /// past it, job cancel flags fire (pipelines stop at the next MapReduce
  /// job boundary, keeping their checkpoints).
  double drain_timeout_seconds = 60.0;

  /// Recv/accept poll granularity of the connection and accept loops. A
  /// connection pushes due kJobProgress frames after every frame it
  /// handles and on every idle tick, so a push is never staler than this.
  double poll_interval_seconds = 0.05;

  /// Remote worker pool (exec_mode 2 jobs): when enabled the server binds a
  /// second listener for exec'd ddp_worker processes to dial, and jobs
  /// submitted with exec_mode 2 run their MapReduce phases on whichever
  /// workers have registered. Disabled by default; a server without it
  /// rejects exec_mode 2 at submit, as it rejects an exec_mode above 2 and,
  /// in a build that cannot fork workers, exec_mode 1.
  bool enable_remote_workers = false;
  std::string remote_listen_host = "127.0.0.1";
  uint16_t remote_listen_port = 0;  // 0 picks an ephemeral port
};

class DdpServer {
 public:
  /// Binds, spawns the accept loop and scheduler threads, and returns a
  /// serving instance.
  static Result<std::unique_ptr<DdpServer>> Start(const ServerConfig& config);

  ~DdpServer();
  DdpServer(const DdpServer&) = delete;
  DdpServer& operator=(const DdpServer&) = delete;

  uint16_t port() const { return listener_->port(); }
  const std::string& work_dir() const { return work_dir_; }

  /// Bound port of the remote-worker listener, or 0 when
  /// ServerConfig::enable_remote_workers is off.
  uint16_t remote_port() const;

  /// Stops admission and begins the drain. Non-blocking; safe from
  /// connection handler threads and signal-driven main loops.
  void RequestShutdown();

  /// Blocks until a requested shutdown has drained and every thread is
  /// joined. Idempotent.
  void WaitShutdown();

  /// True once RequestShutdown has been called.
  bool draining() const;

 private:
  struct Job {
    uint64_t id = 0;
    JobParams params;
    std::string dataset_path;
    std::string digest;
    std::string cache_key;
    uint64_t admission_bytes = 0;  // effective budget charged at admit time
    JobState state = JobState::kQueued;
    std::string detail;
    std::string result_payload;  // encoded JobResultPayload once kDone
    bool from_result_cache = false;
    double queued_at = 0.0;   // seconds on the server clock
    double started_at = 0.0;  // valid once kRunning
    double finished_at = 0.0;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    /// The pipeline's checkpoint store while it runs: its key sequence is
    /// the job's MapReduce progress, kept as `mr_jobs_done` once the job
    /// finishes and the store goes.
    std::unique_ptr<mr::CheckpointStore> checkpoint;
    uint64_t mr_jobs_done = 0;
  };

  struct Connection {
    std::unique_ptr<mr::CommChannel> channel;
    std::thread thread;
    std::atomic<bool> done{false};  // the handler returned; join it
  };

  /// Per-connection progress subscription for one job.
  struct ProgressSub {
    double interval = 0.0;
    double last_push = 0.0;
  };

  explicit DdpServer(const ServerConfig& config);

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  Status HandleFrame(Connection* conn, const mr::Frame& frame,
                     std::map<uint64_t, ProgressSub>* subs);
  Status PushProgress(Connection* conn, std::map<uint64_t, ProgressSub>* subs);

  JobStatusMsg HandleSubmit(const JobSubmitMsg& msg);
  JobStatusMsg HandleCancel(uint64_t job_id);
  JobStatusMsg StatusSnapshot(uint64_t job_id);
  JobResultMsg ResultSnapshot(uint64_t job_id);

  void SchedulerLoop();
  void ExecuteJob(const std::shared_ptr<Job>& job);
  /// Runs the job through RunDistributedDp; returns the encoded
  /// JobResultPayload on success.
  Result<std::string> RunJobPipeline(const std::shared_ptr<Job>& job);

  JobStatusMsg SnapshotLocked(const Job& job) const;
  JobStatusMsg RejectLocked(const std::shared_ptr<Job>& job,
                            std::string reason);
  /// Files a job that reached a terminal state among the finished ones,
  /// forgetting the oldest past the window.
  void RetireLocked(Job* job);
  void UpdateGaugesLocked();
  double Now() const { return clock_.ElapsedSeconds(); }

  ServerConfig config_;
  std::string work_dir_;
  Stopwatch clock_;
  std::unique_ptr<mr::TcpListener> listener_;
  /// Set when config_.enable_remote_workers; exec_mode 2 jobs borrow it one
  /// at a time under remote_pool_mu_ (a RunPhase owns the pool exclusively).
  std::unique_ptr<mr::RemoteWorkerPool> remote_pool_;
  std::mutex remote_pool_mu_;
  DatasetCache dataset_cache_;
  ResultCache result_cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // schedulers: work or drain
  std::condition_variable drain_cv_;  // WaitShutdown: queue empty + idle
  bool draining_ = false;
  uint64_t next_job_id_ = 1;
  std::deque<std::shared_ptr<Job>> queue_;
  std::map<uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<uint64_t> finished_;  // ids in jobs_ that finished, oldest first
  std::map<std::string, uint64_t> inflight_by_key_;  // coalescing
  uint64_t admitted_bytes_ = 0;
  size_t running_ = 0;

  std::atomic<bool> conns_stop_{false};
  bool stopped_ = false;  // WaitShutdown completed (guarded by mu_)
  std::thread accept_thread_;
  std::vector<std::thread> schedulers_;
  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace server
}  // namespace ddp
