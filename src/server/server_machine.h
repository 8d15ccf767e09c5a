#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>

#include "common/result.h"
#include "mapreduce/channel.h"
#include "server/cache.h"
#include "server/protocol.h"

/// \file server_machine.h
/// ServerMachine — every serving decision of DdpServer (server.h), with no
/// descriptor, thread, lock or clock: it acts only through ServerIo, so
/// tests/server_sim_test.cc runs it on seeded schedules.

namespace ddp {
namespace server {

struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 picks an ephemeral port (see DdpServer::port())

  /// Jobs allowed to wait in the queue; running jobs do not count.
  size_t max_queued_jobs = 16;
  /// Admission budget: the sum of queued+running jobs' effective per-job
  /// memory budgets may not exceed this.
  uint64_t admission_budget_bytes = uint64_t{1} << 30;
  /// Effective budget of a job that submits memory_budget_bytes == 0 (jobs
  /// running fully in memory still occupy admission weight).
  uint64_t default_job_budget_bytes = uint64_t{64} << 20;

  uint64_t dataset_cache_bytes = uint64_t{1} << 30;
  size_t result_cache_entries = 64;

  /// Jobs running at once (at least 1), one remote (exec_mode 2) at most.
  size_t scheduler_threads = 2;

  /// Root for the jobs' spill dir ("spill") and per-cache-key checkpoint
  /// dirs; empty means "<system temp>/ddp-server-<port>".
  std::string work_dir;

  /// Grace period for queued+running jobs after shutdown is requested;
  /// past it, queued jobs are cancelled and running pipelines stop at their
  /// next MapReduce job boundary, keeping their checkpoints.
  double drain_timeout_seconds = 60.0;

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

/// What a scheduler thread needs to run one admitted job.
struct JobSpec {
  uint64_t id = 0;
  JobParams params;
  std::string dataset_path, digest;
  std::string cache_key;  // digest + "|" + params.CanonicalKey()
};

/// A started job's MapReduce progress (its checkpoint store's sequence)
/// and, once its pipeline returned, the verdict and encoded result.
struct JobEvent {
  uint64_t mr_jobs_done = 0;
  bool finished = false;
  Status status;
  std::string payload;
};

/// How the machine acts. Send queues without waiting; a connection that
/// cannot take the frame is closed and its OnClosed follows, as none does
/// after Close. StartJob's pipeline ends in a finished OnJobEvent, also
/// when CancelJob stops it at a MapReduce job boundary.
class ServerIo {
 public:
  virtual ~ServerIo() = default;
  virtual void Send(uint64_t conn, const mr::Frame& frame) = 0;
  virtual void Close(uint64_t conn) = 0;
  virtual Result<std::string> Digest(const std::string& path) = 0;
  virtual void StartJob(const JobSpec& job) = 0;
  virtual void CancelJob(uint64_t job) = 0;
};

class ServerMachine {
 public:
  /// Connections served at once. Each holds a descriptor and a 64 KiB
  /// receive buffer, so one offered past the cap is closed at once.
  static constexpr size_t kMaxConnections = 512;
  /// A connection that sent no frame for this long and holds no live
  /// subscription is closed, so a client gone without closing frees its
  /// slot; one that only listens is kept until its jobs end.
  static constexpr double kIdleSeconds = 300.0;
  /// Finished jobs whose records stay pollable: more than the ~740 jobs one
  /// 15 s serve-s2-mixed benchmark run completes.
  static constexpr size_t kFinishedJobsKept = 1024;
  /// num_workers becomes the job's MapReduce worker count: a thread, or a
  /// forked process, per worker. 64 is more than any host's cores.
  static constexpr uint64_t kMaxJobWorkers = 64;
  /// num_layouts x pi is the LSH partitioner's hash function count, each of
  /// dim doubles. The paper uses 30 (M = 10, pi = 3); 4,096 leaves room for
  /// any tuning sweep.
  static constexpr uint64_t kMaxHashFunctions = 4096;

  ServerMachine(const ServerConfig& config, ServerIo* io);  // io outlives it

  void OnOffer(uint64_t conn, double now);
  /// A whole client frame; a garbage one closes `conn`.
  void OnFrame(uint64_t conn, const mr::Frame& frame, double now);
  void OnClosed(uint64_t conn, double now);
  void OnJobEvent(uint64_t job, JobEvent event, double now);
  void RequestShutdown(double now);
  /// The idle and drain deadlines, and the pushes an interval held back.
  void Tick(double now);

  bool draining() const { return draining_; }
  /// True once a requested drain has no queued or running job left.
  bool drained() const {
    return draining_ && queue_.empty() && running_.empty();
  }

 private:
  struct Job {
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::string detail;
    std::string result_payload;  // encoded JobResultPayload once kDone
    bool from_result_cache = false;
    uint64_t admission_bytes = 0;  // effective budget while admitted
    uint64_t mr_jobs_done = 0;
    double queued_at = 0.0, started_at = -1.0, finished_at = 0.0;
  };
  /// A progress subscription, with what the subscriber last saw.
  struct Subscription {
    double interval = 0.0, last_push = 0.0;
    JobState seen_state = JobState::kQueued;
    uint64_t seen_mr_jobs = 0;
  };
  struct Connection {
    double last_frame = 0.0;
    std::map<uint64_t, Subscription> subs;  // by job id
  };

  /// Answers one client frame; false for garbage.
  bool Handle(uint64_t conn, const mr::Frame& frame, double now);
  JobStatusMsg Submit(const JobSubmitMsg& msg, double now);
  std::string Invalid(const JobParams& params) const;  // why, or empty
  JobStatusMsg Cancel(uint64_t job_id, double now);
  JobStatusMsg StatusOf(uint64_t job_id, double now) const;
  JobStatusMsg Snapshot(const Job& job, double now) const;
  JobResultMsg ResultOf(uint64_t job_id) const;
  JobStatusMsg Reject(Job* job, std::string reason, double now);
  /// Moves `job` to terminal `state`: out of the queue or running set, its
  /// budget refunded, its subscribers pushed, its record retired.
  void Finish(Job* job, JobState state, double now);
  /// Starts queued jobs, oldest first, while a scheduler slot is free.
  void Dispatch(double now);
  void UpdateGauges() const;

  const ServerConfig config_;
  ServerIo* const io_;
  ResultCache result_cache_;
  uint64_t next_job_id_ = 1;
  std::map<uint64_t, Job> jobs_;
  std::deque<uint64_t> queue_;     // queued job ids, oldest first
  std::deque<uint64_t> finished_;  // ids in jobs_ that finished, oldest first
  std::map<std::string, uint64_t> inflight_by_key_;  // coalescing
  std::set<uint64_t> running_;
  bool remote_running_ = false;  // an exec_mode 2 job is among them
  uint64_t admitted_bytes_ = 0;
  std::map<uint64_t, Connection> conns_;
  bool draining_ = false;
  double drain_deadline_ = 0.0;  // infinite once its cancels have fired
};

}  // namespace server
}  // namespace ddp
