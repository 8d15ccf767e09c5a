#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <tuple>
#include <utility>

#include <poll.h>
#include <sys/socket.h>

#include "common/logging.h"
#include "common/serde.h"
#include "dataset/sharded_io.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/remote_worker.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {
namespace server {

namespace fs = std::filesystem;

namespace {

/// Attempts per task of a job that injects failures, as the chaos suites
/// give theirs. Under the default 4, a 0.3 failure rate exhausts some task
/// of a ~70-task LSH pipeline about half the time, so a drill would mostly
/// show the job failing rather than recovering.
constexpr size_t kDrillTaskAttempts = 24;

/// Reply bytes a client may leave unread: queuing a frame while more than
/// this waits closes the connection, so a client that never reads holds at
/// most this much server memory. One reply of any size still goes out, and
/// 16 MiB is eight times the result of a job over a million points.
constexpr size_t kMaxUnsentBytes = size_t{16} << 20;

std::string CacheKeyDirName(const std::string& cache_key) {
  char out[16];
  std::snprintf(out, sizeof(out), "%08x",
                Crc32(cache_key.data(), cache_key.size()));
  return out;
}

}  // namespace

DdpServer::DdpServer(const ServerConfig& config)
    : config_(config),
      dataset_cache_(config.dataset_cache_bytes),
      machine_(config, this) {}

Result<std::unique_ptr<DdpServer>> DdpServer::Start(
    const ServerConfig& config) {
  std::unique_ptr<DdpServer> server(new DdpServer(config));
  DDP_ASSIGN_OR_RETURN(server->listener_,
                       mr::TcpListener::Listen(config.host, config.port));
  if (config.enable_remote_workers) {
    DDP_ASSIGN_OR_RETURN(server->remote_pool_,
                         mr::RemoteWorkerPool::Listen(
                             config.remote_listen_host,
                             config.remote_listen_port));
  }
  server->work_dir_ =
      !config.work_dir.empty()
          ? config.work_dir
          : (fs::temp_directory_path() /
             ("ddp-server-" + std::to_string(server->listener_->port())))
                .string();
  std::error_code ec;
  fs::create_directories(server->work_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create work dir " + server->work_dir_ +
                           ": " + ec.message());
  }
  DDP_ASSIGN_OR_RETURN(auto wake, mr::PipeChannel::CreatePair());
  std::tie(server->wake_rx_, server->wake_tx_) = std::move(wake);
  server->schedulers_ = std::make_unique<ThreadPool>(
      std::max<size_t>(1, config.scheduler_threads));
  server->driver_ = std::thread(&DdpServer::Serve, server.get());
  return server;
}

DdpServer::~DdpServer() {
  if (!driver_.joinable()) return;  // Start failed before serving
  RequestShutdown();
  WaitShutdown();
}

uint16_t DdpServer::remote_port() const {
  return remote_pool_ == nullptr ? 0 : remote_pool_->port();
}

void DdpServer::RequestShutdown() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  (void)wake_tx_->Send({mr::MessageType::kJobCancel, ""});
}

void DdpServer::WaitShutdown() {
  if (!driver_.joinable()) return;
  (void)wake_tx_->Send({mr::MessageType::kShutdown, ""});
  driver_.join();
  schedulers_.reset();  // idle: the machine drained before the driver left
}

void DdpServer::Serve() {
  std::vector<struct pollfd> pfds;
  std::vector<uint64_t> ids;  // the client of each pfds entry past the two
  bool stopping = false;
  while (!stopping || !machine_.drained()) {
    pfds.assign({{wake_rx_->fd(), POLLIN, 0}, {listener_->fd(), POLLIN, 0}});
    ids.clear();
    // A client holding a whole frame in its receive buffer is ready though
    // poll cannot see it, so then poll only collects the others' readiness.
    bool buffered = false;
    for (const auto& [id, client] : clients_) {
      const short out = client.sent < client.unsent.size() ? POLLOUT : 0;
      pfds.push_back(
          {client.channel->fd(), static_cast<short>(POLLIN | out), 0});
      ids.push_back(id);
      buffered = buffered || client.channel->HasBufferedFrame();
    }
    // While a job runs, wait at most 10 ms: that bounds how stale its
    // progress and the push and drain clocks get. Idle, only the idle
    // deadline needs a tick.
    const int timeout = buffered ? 0 : running_.empty() ? 1000 : 10;
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), timeout) < 0 &&
        errno != EINTR) {
      DDP_LOG(Error) << "server poll failed: " << std::strerror(errno);
    }
    const double now = Now();
    mr::Frame wake;
    for (bool got = true; wake_rx_->TryRecv(&wake, &got).ok() && got;) {
      if (wake.type == mr::MessageType::kJobCancel) {
        machine_.RequestShutdown(now);
      }
      stopping = stopping || wake.type == mr::MessageType::kShutdown;
    }
    std::vector<std::pair<uint64_t, JobEvent>> finished;
    {
      std::lock_guard<std::mutex> lock(finished_mu_);
      finished.swap(finished_);
    }
    for (auto& [job, event] : finished) {
      running_.erase(job);
      machine_.OnJobEvent(job, std::move(event), now);
    }
    for (auto& [id, run] : running_) {
      if (run.checkpoint->sequence() == run.progress) continue;
      run.progress = run.checkpoint->sequence();
      machine_.OnJobEvent(id, {run.progress, false, Status::OK(), ""}, now);
    }
    if ((pfds[1].revents & POLLIN) != 0) {
      auto accepted = listener_->Accept(/*timeout_seconds=*/0.25);
      if (accepted.ok()) {
        clients_[next_client_].channel = std::move(accepted).value();
        machine_.OnOffer(next_client_++, now);
      }
    }
    // One frame per client per pass, taken only once all of it has arrived:
    // a client that sends part of a frame, or floods whole ones, delays no
    // other. A frame larger than the receive buffer fails the read.
    for (size_t i = 0; i < ids.size(); ++i) {
      auto it = clients_.find(ids[i]);
      if (it == clients_.end()) continue;  // an earlier event closed it
      const short revents = pfds[i + 2].revents;
      mr::Frame frame;
      bool got = false;
      if ((revents & POLLOUT) != 0 && !Flush(&it->second)) {
        Drop(ids[i]);
      } else if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0 &&
                 !it->second.channel->HasBufferedFrame()) {
        continue;
      } else if (!it->second.channel->TryRecv(&frame, &got).ok()) {
        Drop(ids[i]);
      } else if (got) {
        machine_.OnFrame(ids[i], frame, now);
      }
    }
    for (uint64_t id : dropped_) machine_.OnClosed(id, now);
    dropped_.clear();
    machine_.Tick(Now());
  }
  // Drained: what clients have not read is dropped with their connections.
  clients_.clear();
  listener_->Close();
}

bool DdpServer::Flush(Client* client) {
  const ssize_t n =
      ::send(client->channel->fd(), client->unsent.data() + client->sent,
             client->unsent.size() - client->sent,
             MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  client->sent += static_cast<size_t>(n);
  if (client->sent > client->unsent.size() / 2) {  // amortized compaction
    client->unsent.erase(0, client->sent);
    client->sent = 0;
  }
  return true;
}

void DdpServer::Drop(uint64_t id) {
  if (clients_.erase(id) > 0) dropped_.push_back(id);
}

void DdpServer::Send(uint64_t conn, const mr::Frame& frame) {
  // A client that asked for the drain finds draining() true once it reads
  // the reply.
  if (machine_.draining()) draining_.store(true, std::memory_order_release);
  auto it = clients_.find(conn);
  if (it == clients_.end()) return;  // dropped earlier in this pass
  Client& client = it->second;
  if (client.unsent.size() - client.sent > kMaxUnsentBytes) {
    Drop(conn);
  } else if (client.unsent.empty()) {
    client.unsent = mr::EncodeFrame(frame);
    if (!Flush(&client)) Drop(conn);
  } else {
    client.unsent += mr::EncodeFrame(frame);  // leaves on POLLOUT
  }
}

void DdpServer::Close(uint64_t conn) { clients_.erase(conn); }

Result<std::string> DdpServer::Digest(const std::string& path) {
  return DatasetContentDigest(path);
}

void DdpServer::StartJob(const JobSpec& job) {
  Running& run = running_[job.id];
  run.cancel_flag = std::make_shared<std::atomic<bool>>(false);
  // Checkpoints are keyed by the cache key, not the job id: a job cancelled
  // mid-drain and resubmitted resumes from its last completed MapReduce job
  // instead of starting over.
  run.checkpoint = std::make_unique<mr::CheckpointStore>(
      (fs::path(work_dir_) / "ckpt" / CacheKeyDirName(job.cache_key))
          .string());
  schedulers_->Submit([this, job, checkpoint = run.checkpoint.get(),
                       cancel_flag = run.cancel_flag] {
    JobEvent done;
    {
      DDP_TRACE_SPAN(span, obs::kCatServer, obs::kSpanServerExecuteJob);
      if (span.active()) {
        span.AddArg("job_id", job.id);
        span.AddArg("algo", job.params.algo);
      }
      Stopwatch timer;
      Result<std::string> payload =
          RunJobPipeline(job, checkpoint, cancel_flag);
      DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricServerJobSeconds,
                                   timer.ElapsedSeconds());
      done = {checkpoint->sequence(), true, payload.status(),
              payload.ok() ? std::move(payload).value() : std::string()};
    }
    {
      std::lock_guard<std::mutex> lock(finished_mu_);
      finished_.emplace_back(job.id, std::move(done));
    }
    (void)wake_tx_->Send({mr::MessageType::kResult, ""});
  });
}

void DdpServer::CancelJob(uint64_t job) {
  auto it = running_.find(job);
  if (it != running_.end()) {
    it->second.cancel_flag->store(true, std::memory_order_relaxed);
  }
}

Result<std::string> DdpServer::RunJobPipeline(
    const JobSpec& job, mr::CheckpointStore* checkpoint,
    std::shared_ptr<std::atomic<bool>> cancel_flag) {
  DDP_ASSIGN_OR_RETURN(
      std::shared_ptr<const Dataset> dataset,
      dataset_cache_.Acquire(job.dataset_path, job.digest));

  const JobParams& params = job.params;
  DdpOptions options;
  options.dc = params.dc;
  options.cutoff.percentile = params.percentile;
  if (params.k > 0) {
    options.selector = PeakSelector::TopK(static_cast<size_t>(params.k));
  } else if (params.rho_min > 0.0 || params.delta_min > 0.0) {
    options.selector =
        PeakSelector::Threshold(params.rho_min, params.delta_min);
  } else {
    options.selector = PeakSelector::GammaGap();
  }
  options.mr.num_workers = static_cast<size_t>(params.num_workers);
  options.mr.memory_budget_bytes = params.memory_budget_bytes;
  // Every job spills into one dir: spill files have no names to collide,
  // and the first spill creates the dir.
  options.mr.spill_dir = (fs::path(work_dir_) / "spill").string();
  std::error_code ec;
  fs::create_directories(checkpoint->dir(), ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " +
                           checkpoint->dir() + ": " + ec.message());
  }
  options.mr.checkpoint = checkpoint;
  // The machine admitted only exec modes this server can run. Remote jobs
  // run on ddp_worker processes that dialed the server's remote listener.
  options.mr.exec_mode = static_cast<mr::ExecMode>(params.exec_mode);
  if (params.exec_mode == 2) options.mr.remote_pool = remote_pool_.get();
  options.mr.faults.seed = params.seed;
  options.mr.faults.map_failure_rate = params.map_failure_rate;
  options.mr.faults.reduce_failure_rate = params.reduce_failure_rate;
  options.mr.faults.worker_crash_rate = params.worker_crash_rate;
  if (params.map_failure_rate > 0.0 || params.reduce_failure_rate > 0.0 ||
      params.worker_crash_rate > 0.0) {
    options.mr.max_task_attempts = kDrillTaskAttempts;
  }
  options.mr.cancel_flag = std::move(cancel_flag);

  LshDdp::Params lsh_params;
  lsh_params.accuracy = params.accuracy;
  lsh_params.lsh.num_layouts = static_cast<size_t>(params.num_layouts);
  lsh_params.lsh.pi = static_cast<size_t>(params.pi);
  lsh_params.seed = params.seed;
  LshDdp lsh_algo(lsh_params);
  BasicDdp::Params basic_params;
  basic_params.block_size = static_cast<size_t>(params.block_size);
  BasicDdp basic_algo(basic_params);
  Eddpc::Params eddpc_params;
  Eddpc eddpc_algo(eddpc_params);
  DistributedDpAlgorithm* algorithm = nullptr;
  if (params.algo == "lsh") algorithm = &lsh_algo;
  if (params.algo == "basic") algorithm = &basic_algo;
  if (params.algo == "eddpc") algorithm = &eddpc_algo;
  if (algorithm == nullptr) {
    return Status::InvalidArgument("unknown algo " + params.algo);
  }

  DDP_ASSIGN_OR_RETURN(DdpRunResult run,
                       RunDistributedDp(algorithm, *dataset, options));

  JobResultPayload payload;
  payload.dc = run.dc;
  payload.num_clusters = run.clusters.num_clusters();
  payload.assignment.reserve(run.clusters.assignment.size());
  for (int id : run.clusters.assignment) {
    payload.assignment.push_back(static_cast<int32_t>(id));
  }
  payload.distance_evaluations = run.distance_evaluations;
  payload.total_seconds = run.total_seconds;
  payload.mr_jobs = run.stats.jobs.size();
  return payload.Encode();
}

}  // namespace server
}  // namespace ddp
