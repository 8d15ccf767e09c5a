#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "server/server_machine.h"

/// \file server.h
/// DdpServer — the clustering-as-a-service daemon, the driver of a
/// ServerMachine (server_machine.h) that makes every serving decision. It
/// runs 1 + scheduler_threads threads however many clients connect:
///
///  * one driver thread polls the TcpListener, every client connection and
///    a wake channel, and turns what arrives into machine events. It reads
///    frames without waiting (FdChannel::TryRecv) and writes with
///    non-blocking sends, keeping what a socket does not take in that
///    connection's unsent buffer, so no client can stall it;
///  * a pool of scheduler_threads threads runs the jobs the machine starts
///    through RunDistributedDp — inproc, forked or remote workers per the
///    job's params — with one shared spill dir (spill files have no names),
///    a per-cache-key checkpoint dir, and the dataset cache of cache.h. A
///    finished pipeline posts its verdict and wakes the driver.
///
/// Graceful shutdown (RequestShutdown, or a kJobCancel frame with
/// kShutdownJobId) stops admission and drains: jobs run to completion
/// within `drain_timeout_seconds`; past it queued jobs are cancelled and
/// running pipelines stop at their next job boundary, their checkpoints
/// valid for a resubmission to resume from. Metrics go to MetricsRegistry
/// under `server.*` (docs/observability.md).

namespace ddp {
namespace mr {
class RemoteWorkerPool;  // mapreduce/remote_worker.h
}  // namespace mr
namespace server {

class DdpServer : private ServerIo {
 public:
  /// Binds, starts the driver and scheduler threads, and returns a serving
  /// instance.
  static Result<std::unique_ptr<DdpServer>> Start(const ServerConfig& config);

  ~DdpServer() override;
  DdpServer(const DdpServer&) = delete;
  DdpServer& operator=(const DdpServer&) = delete;

  uint16_t port() const { return listener_->port(); }
  const std::string& work_dir() const { return work_dir_; }

  /// Bound port of the remote-worker listener, or 0 when
  /// ServerConfig::enable_remote_workers is off.
  uint16_t remote_port() const;

  /// Stops admission and begins the drain. Non-blocking; safe from any
  /// thread, signal-driven main loops included.
  void RequestShutdown();

  /// Blocks until a requested shutdown has drained and every thread is
  /// joined; clients are served until then. Idempotent.
  void WaitShutdown();

  /// True once RequestShutdown has been called or a client asked to drain.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct Client {
    std::unique_ptr<mr::TcpChannel> channel;
    std::string unsent;  // reply bytes from `sent` on wait for POLLOUT
    size_t sent = 0;
  };
  /// A started pipeline. Its checkpoint store's key sequence is its
  /// MapReduce progress, last passed to the machine as `progress`.
  struct Running {
    std::unique_ptr<mr::CheckpointStore> checkpoint;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    uint64_t progress = 0;
  };

  explicit DdpServer(const ServerConfig& config);

  /// The driver thread's loop, until WaitShutdown and a drained machine.
  void Serve();
  /// One non-blocking send of unsent bytes; false once the peer is gone.
  static bool Flush(Client* client);
  /// Closes a client whose link failed; its OnClosed follows this pass.
  void Drop(uint64_t id);
  double Now() const { return clock_.ElapsedSeconds(); }

  // ServerIo, called by the machine on the driver thread.
  void Send(uint64_t conn, const mr::Frame& frame) override;
  void Close(uint64_t conn) override;
  Result<std::string> Digest(const std::string& path) override;
  void StartJob(const JobSpec& job) override;
  void CancelJob(uint64_t job) override;

  /// Runs the job through RunDistributedDp on a scheduler thread; returns
  /// the encoded JobResultPayload on success.
  Result<std::string> RunJobPipeline(
      const JobSpec& job, mr::CheckpointStore* checkpoint,
      std::shared_ptr<std::atomic<bool>> cancel_flag);

  const ServerConfig config_;
  std::string work_dir_;
  Stopwatch clock_;
  std::unique_ptr<mr::TcpListener> listener_;
  /// Set when config_.enable_remote_workers; the machine runs one exec_mode
  /// 2 job at a time, as a RunPhase owns the pool exclusively.
  std::unique_ptr<mr::RemoteWorkerPool> remote_pool_;
  DatasetCache dataset_cache_;  // shared by the scheduler threads

  // The driver thread's own.
  ServerMachine machine_;
  std::map<uint64_t, Client> clients_;
  std::map<uint64_t, Running> running_;
  std::vector<uint64_t> dropped_;  // clients whose OnClosed is due
  uint64_t next_client_ = 1;

  // Scheduler threads post to finished_, then wake the driver with an empty
  // kResult frame on wake_tx_; RequestShutdown sends kJobCancel and
  // WaitShutdown kShutdown. A failed send means the driver is gone.
  std::unique_ptr<mr::PipeChannel> wake_rx_;
  std::unique_ptr<mr::PipeChannel> wake_tx_;
  std::mutex finished_mu_;
  std::vector<std::pair<uint64_t, JobEvent>> finished_;  // by finished_mu_
  std::atomic<bool> draining_{false};

  std::unique_ptr<ThreadPool> schedulers_;
  std::thread driver_;
};

}  // namespace server
}  // namespace ddp
