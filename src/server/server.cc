#include "server/server.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/serde.h"
#include "dataset/sharded_io.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/remote_worker.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ddp {
namespace server {

namespace fs = std::filesystem;

namespace {

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
      result_cache_(config.result_cache_entries) {}

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
  if (config.work_dir.empty()) {
    server->work_dir_ =
        (fs::temp_directory_path() /
         ("ddp-server-" + std::to_string(server->listener_->port())))
            .string();
  } else {
    server->work_dir_ = config.work_dir;
  }
  std::error_code ec;
  fs::create_directories(server->work_dir_, ec);
  if (ec) {
    return Status::IoError("cannot create work dir " + server->work_dir_ +
                           ": " + ec.message());
  }
  const size_t schedulers = std::max<size_t>(1, config.scheduler_threads);
  server->schedulers_.reserve(schedulers);
  DdpServer* raw = server.get();
  for (size_t i = 0; i < schedulers; ++i) {
    server->schedulers_.emplace_back([raw] { raw->SchedulerLoop(); });
  }
  server->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  return server;
}

DdpServer::~DdpServer() {
  RequestShutdown();
  WaitShutdown();
}

uint16_t DdpServer::remote_port() const {
  return remote_pool_ == nullptr ? 0 : remote_pool_->port();
}

bool DdpServer::draining() const {
  std::unique_lock<std::mutex> lock(mu_);
  return draining_;
}

void DdpServer::RequestShutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
  }
  queue_cv_.notify_all();
  drain_cv_.notify_all();
}

void DdpServer::WaitShutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopped_) return;
    drain_cv_.wait(lock, [this] { return draining_; });
    // Drain: give queued and running jobs the grace period, then fire the
    // cancel flags — pipelines stop at their next MapReduce job boundary
    // with their checkpoints intact.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.drain_timeout_seconds));
    const bool drained = drain_cv_.wait_until(lock, deadline, [this] {
      return queue_.empty() && running_ == 0;
    });
    if (!drained) {
      for (const std::shared_ptr<Job>& job : queue_) {
        if (job->state != JobState::kQueued) continue;
        job->state = JobState::kCancelled;
        job->detail = "cancelled by server shutdown";
        admitted_bytes_ -= job->admission_bytes;
        inflight_by_key_.erase(job->cache_key);
        DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCancelled, 1);
      }
      queue_.clear();
      for (const auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning && job->cancel_flag != nullptr) {
          job->cancel_flag->store(true, std::memory_order_relaxed);
        }
      }
      UpdateGaugesLocked();
      queue_cv_.notify_all();
      drain_cv_.wait(lock,
                     [this] { return queue_.empty() && running_ == 0; });
    }
    stopped_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : schedulers_) {
    if (t.joinable()) t.join();
  }
  // Connections after the drain, so clients can poll results while the
  // last jobs finish; each handler thread notices the stop flag within one
  // poll interval.
  conns_stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_->Close();
  std::unique_lock<std::mutex> conn_lock(conn_mu_);
  for (const std::unique_ptr<Connection>& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
    conn->channel->Close();
  }
  connections_.clear();
}

void DdpServer::AcceptLoop() {
  while (!conns_stop_.load(std::memory_order_relaxed)) {
    Result<std::unique_ptr<mr::TcpChannel>> accepted =
        listener_->Accept(config_.poll_interval_seconds);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kDeadlineExceeded) continue;
      return;  // listener closed under us
    }
    auto conn = std::make_unique<Connection>();
    conn->channel = std::move(*accepted);
    Connection* raw = conn.get();
    std::unique_lock<std::mutex> lock(conn_mu_);
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

void DdpServer::ServeConnection(Connection* conn) {
  std::map<uint64_t, ProgressSub> subs;
  while (!conns_stop_.load(std::memory_order_relaxed)) {
    mr::Frame frame;
    Status st = conn->channel->Recv(&frame, config_.poll_interval_seconds);
    if (st.code() == StatusCode::kDeadlineExceeded) {
      if (!PushProgress(conn, &subs).ok()) break;
      continue;
    }
    if (!st.ok()) break;  // client went away (or framing corruption)
    if (!HandleFrame(conn, frame, &subs).ok()) break;
  }
  conn->channel->Close();
}

Status DdpServer::HandleFrame(Connection* conn, const mr::Frame& frame,
                              std::map<uint64_t, ProgressSub>* subs) {
  switch (frame.type) {
    case mr::MessageType::kJobSubmit: {
      JobSubmitMsg msg;
      DDP_RETURN_NOT_OK(JobSubmitMsg::Decode(frame.payload, &msg));
      JobStatusMsg reply = HandleSubmit(msg);
      if (msg.progress_seconds > 0.0 &&
          (reply.state == static_cast<uint8_t>(JobState::kQueued) ||
           reply.state == static_cast<uint8_t>(JobState::kRunning))) {
        (*subs)[reply.job_id] = ProgressSub{msg.progress_seconds, Now()};
      }
      return conn->channel->Send(
          {mr::MessageType::kJobStatus, reply.Encode()});
    }
    case mr::MessageType::kJobStatus: {
      JobPollMsg msg;
      DDP_RETURN_NOT_OK(JobPollMsg::Decode(frame.payload, &msg));
      return conn->channel->Send(
          {mr::MessageType::kJobStatus, StatusSnapshot(msg.job_id).Encode()});
    }
    case mr::MessageType::kJobResult: {
      JobPollMsg msg;
      DDP_RETURN_NOT_OK(JobPollMsg::Decode(frame.payload, &msg));
      return conn->channel->Send(
          {mr::MessageType::kJobResult, ResultSnapshot(msg.job_id).Encode()});
    }
    case mr::MessageType::kJobCancel: {
      JobCancelMsg msg;
      DDP_RETURN_NOT_OK(JobCancelMsg::Decode(frame.payload, &msg));
      if (msg.job_id == kShutdownJobId) {
        RequestShutdown();
        JobStatusMsg reply;
        reply.job_id = kShutdownJobId;
        reply.state = static_cast<uint8_t>(JobState::kCancelled);
        reply.detail = "drain initiated";
        return conn->channel->Send(
            {mr::MessageType::kJobStatus, reply.Encode()});
      }
      return conn->channel->Send(
          {mr::MessageType::kJobStatus, HandleCancel(msg.job_id).Encode()});
    }
    // ddp-lint: allow(frame-exhaustive) -- worker-protocol frames
    // (kTaskAssign, kRunData, ...) are invalid on a client connection by
    // design; the default rejects them all with one IoError instead of
    // eleven cases.
    default:
      return Status::IoError("unexpected frame type on a server connection");
  }
}

Status DdpServer::PushProgress(Connection* conn,
                               std::map<uint64_t, ProgressSub>* subs) {
  if (subs->empty()) return Status::OK();
  const double now = Now();
  std::vector<uint64_t> finished;
  for (auto& [job_id, sub] : *subs) {
    if (now - sub.last_push < sub.interval) continue;
    JobStatusMsg snapshot = StatusSnapshot(job_id);
    sub.last_push = now;
    DDP_RETURN_NOT_OK(conn->channel->Send(
        {mr::MessageType::kJobProgress, snapshot.Encode()}));
    if (snapshot.state != static_cast<uint8_t>(JobState::kQueued) &&
        snapshot.state != static_cast<uint8_t>(JobState::kRunning)) {
      finished.push_back(job_id);  // one final push, then unsubscribe
    }
  }
  for (uint64_t job_id : finished) subs->erase(job_id);
  return Status::OK();
}

JobStatusMsg DdpServer::SnapshotLocked(const Job& job) const {
  JobStatusMsg msg;
  msg.job_id = job.id;
  msg.state = static_cast<uint8_t>(job.state);
  msg.detail = job.detail;
  if (job.state == JobState::kQueued) {
    uint64_t position = 0;
    for (const std::shared_ptr<Job>& queued : queue_) {
      if (queued->id == job.id) break;
      ++position;
    }
    msg.queue_position = position;
  }
  if (job.mr_jobs != nullptr) msg.mr_jobs_done = job.mr_jobs->value();
  if (job.state == JobState::kRunning) {
    msg.running_seconds = Now() - job.started_at;
  } else if (job.state == JobState::kDone ||
             job.state == JobState::kFailed ||
             job.state == JobState::kCancelled) {
    msg.running_seconds =
        job.started_at > 0.0 ? job.finished_at - job.started_at : 0.0;
  }
  msg.from_result_cache = job.from_result_cache ? 1 : 0;
  return msg;
}

JobStatusMsg DdpServer::RejectLocked(const std::shared_ptr<Job>& job,
                                     std::string reason) {
  job->state = JobState::kRejected;
  job->detail = std::move(reason);
  job->finished_at = Now();
  DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsRejected, 1);
  return SnapshotLocked(*job);
}

JobStatusMsg DdpServer::HandleSubmit(const JobSubmitMsg& msg) {
  DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsSubmitted, 1);
  auto job = std::make_shared<Job>();
  job->params = msg.params;
  job->dataset_path = msg.dataset_path;

  // Validate and digest before taking the server lock: the digest reads
  // every dataset byte, and rejected jobs should not serialize admissions.
  std::string reject_reason;
  if (msg.params.algo != "lsh" && msg.params.algo != "basic" &&
      msg.params.algo != "eddpc") {
    reject_reason =
        "unknown algo '" + msg.params.algo + "' (lsh|basic|eddpc)";
  } else if (msg.params.exec_mode > 2) {
    reject_reason = "unknown exec_mode " +
                    std::to_string(msg.params.exec_mode) +
                    " (0 inproc, 1 fork, 2 remote)";
  } else if (msg.params.exec_mode == 2 && remote_pool_ == nullptr) {
    reject_reason = "exec_mode 2 needs a server started with remote workers";
  } else if (msg.params.exec_mode == 1 && !mr::ForkExecutionSupported()) {
    reject_reason = "exec_mode 1 is unsupported in this build";
  }
  std::string digest;
  if (reject_reason.empty()) {
    Result<std::string> digested = DatasetContentDigest(msg.dataset_path);
    if (digested.ok()) {
      digest = std::move(digested).value();
    } else {
      reject_reason = "dataset unreadable: " + digested.status().ToString();
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  job->id = next_job_id_++;
  job->queued_at = Now();
  jobs_[job->id] = job;
  if (!reject_reason.empty()) return RejectLocked(job, reject_reason);
  if (draining_) return RejectLocked(job, "server is draining");
  job->digest = digest;
  job->cache_key = digest + "|" + msg.params.CanonicalKey();

  // Result cache: an identical (dataset digest, params) submission is done
  // the moment it is admitted, served from the stored bytes.
  std::string cached;
  if (result_cache_.Get(job->cache_key, &cached)) {
    job->state = JobState::kDone;
    job->from_result_cache = true;
    job->result_payload = std::move(cached);
    job->finished_at = Now();
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCompleted, 1);
    return SnapshotLocked(*job);
  }

  // In-flight coalescing: an identical job already queued or running
  // answers this submission too — the reply carries the original job id.
  auto inflight = inflight_by_key_.find(job->cache_key);
  if (inflight != inflight_by_key_.end()) {
    auto original = jobs_.find(inflight->second);
    if (original != jobs_.end()) {
      jobs_.erase(job->id);  // drop the placeholder record
      DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCoalesced, 1);
      return SnapshotLocked(*original->second);
    }
  }

  // Admission control: bounded queue, then the memory budget.
  if (queue_.size() >= config_.max_queued_jobs) {
    return RejectLocked(
        job, "queue full (" + std::to_string(queue_.size()) + " of " +
                 std::to_string(config_.max_queued_jobs) + " queued jobs)");
  }
  const uint64_t effective = msg.params.memory_budget_bytes > 0
                                 ? msg.params.memory_budget_bytes
                                 : config_.default_job_budget_bytes;
  if (admitted_bytes_ + effective > config_.admission_budget_bytes) {
    return RejectLocked(
        job, "admission budget exceeded: admitted " +
                 std::to_string(admitted_bytes_) + " B + job " +
                 std::to_string(effective) + " B > server budget " +
                 std::to_string(config_.admission_budget_bytes) + " B");
  }
  job->admission_bytes = effective;
  admitted_bytes_ += effective;
  job->cancel_flag = std::make_shared<std::atomic<bool>>(false);
  job->mr_jobs = obs::MetricsRegistry::Global().GetCounter(
      "server.job." + std::to_string(job->id) + ".mr_jobs");
  inflight_by_key_[job->cache_key] = job->id;
  queue_.push_back(job);
  UpdateGaugesLocked();
  queue_cv_.notify_one();
  return SnapshotLocked(*job);
}

JobStatusMsg DdpServer::HandleCancel(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    JobStatusMsg msg;
    msg.job_id = job_id;
    msg.state = static_cast<uint8_t>(JobState::kFailed);
    msg.detail = "unknown job id";
    return msg;
  }
  const std::shared_ptr<Job>& job = it->second;
  if (job->state == JobState::kQueued) {
    // Left in the deque; schedulers skip non-queued entries on pop.
    job->state = JobState::kCancelled;
    job->detail = "cancelled while queued";
    job->finished_at = Now();
    admitted_bytes_ -= job->admission_bytes;
    inflight_by_key_.erase(job->cache_key);
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCancelled, 1);
    UpdateGaugesLocked();
    drain_cv_.notify_all();
  } else if (job->state == JobState::kRunning) {
    // Cooperative: the pipeline observes the flag at its next MapReduce
    // job boundary; the state flips when the scheduler commits it.
    job->detail = "cancel requested";
    if (job->cancel_flag != nullptr) {
      job->cancel_flag->store(true, std::memory_order_relaxed);
    }
  }
  return SnapshotLocked(*job);
}

JobStatusMsg DdpServer::StatusSnapshot(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    JobStatusMsg msg;
    msg.job_id = job_id;
    msg.state = static_cast<uint8_t>(JobState::kFailed);
    msg.detail = "unknown job id";
    return msg;
  }
  return SnapshotLocked(*it->second);
}

JobResultMsg DdpServer::ResultSnapshot(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mu_);
  JobResultMsg msg;
  msg.job_id = job_id;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    msg.state = static_cast<uint8_t>(JobState::kFailed);
    msg.error = "unknown job id";
    return msg;
  }
  const Job& job = *it->second;
  msg.state = static_cast<uint8_t>(job.state);
  msg.from_result_cache = job.from_result_cache ? 1 : 0;
  if (job.state == JobState::kDone) {
    msg.payload = job.result_payload;
  } else {
    msg.error = job.detail.empty()
                    ? std::string(JobStateName(job.state))
                    : job.detail;
  }
  return msg;
}

void DdpServer::UpdateGaugesLocked() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge(obs::kMetricServerQueueDepth)
      ->Set(static_cast<double>(queue_.size()));
  registry.GetGauge(obs::kMetricServerRunningJobs)
      ->Set(static_cast<double>(running_));
  registry.GetGauge(obs::kMetricServerAdmittedBudgetBytes)
      ->Set(static_cast<double>(admitted_bytes_));
}

void DdpServer::SchedulerLoop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and nothing left to run
      job = queue_.front();
      queue_.pop_front();
      if (job->state != JobState::kQueued) {  // cancelled while queued
        UpdateGaugesLocked();
        drain_cv_.notify_all();
        continue;
      }
      job->state = JobState::kRunning;
      job->started_at = Now();
      ++running_;
      UpdateGaugesLocked();
      DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricServerQueueWaitSeconds,
                                   job->started_at - job->queued_at);
    }
    ExecuteJob(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --running_;
      admitted_bytes_ -= job->admission_bytes;
      inflight_by_key_.erase(job->cache_key);
      UpdateGaugesLocked();
      drain_cv_.notify_all();
    }
  }
}

void DdpServer::ExecuteJob(const std::shared_ptr<Job>& job) {
  DDP_TRACE_SPAN(span, obs::kCatServer, obs::kSpanServerExecuteJob);
  if (span.active()) {
    span.AddArg("job_id", job->id);
    span.AddArg("algo", job->params.algo);
  }
  Stopwatch timer;
  Result<std::string> payload = RunJobPipeline(job);
  const double elapsed = timer.ElapsedSeconds();

  // Per-job spill dir: the spill files themselves are RAII-unlinked by the
  // pipeline; this removes the now-empty directory.
  std::error_code ec;
  fs::remove_all(fs::path(work_dir_) / "spill" /
                     ("job-" + std::to_string(job->id)),
                 ec);

  std::unique_lock<std::mutex> lock(mu_);
  job->finished_at = Now();
  if (payload.ok()) {
    job->state = JobState::kDone;
    job->result_payload = std::move(payload).value();
    result_cache_.Put(job->cache_key, job->result_payload);
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCompleted, 1);
  } else if (payload.status().code() == StatusCode::kCancelled) {
    job->state = JobState::kCancelled;
    job->detail = payload.status().message();
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCancelled, 1);
  } else {
    job->state = JobState::kFailed;
    job->detail = payload.status().ToString();
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsFailed, 1);
  }
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricServerJobSeconds, elapsed);
}

Result<std::string> DdpServer::RunJobPipeline(
    const std::shared_ptr<Job>& job) {
  DDP_ASSIGN_OR_RETURN(
      std::shared_ptr<const Dataset> dataset,
      dataset_cache_.Acquire(job->dataset_path, job->digest));

  const JobParams& params = job->params;
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
  const fs::path spill_dir =
      fs::path(work_dir_) / "spill" / ("job-" + std::to_string(job->id));
  std::error_code ec;
  fs::create_directories(spill_dir, ec);
  if (ec) {
    return Status::IoError("cannot create spill dir " + spill_dir.string() +
                           ": " + ec.message());
  }
  options.mr.spill_dir = spill_dir.string();
  // Checkpoints are keyed by the cache key, not the job id: a job cancelled
  // mid-drain and resubmitted resumes from its last completed MapReduce
  // job instead of starting over.
  const fs::path ckpt_dir =
      fs::path(work_dir_) / "ckpt" / CacheKeyDirName(job->cache_key);
  fs::create_directories(ckpt_dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " +
                           ckpt_dir.string() + ": " + ec.message());
  }
  options.checkpoint_dir = ckpt_dir.string();
  // HandleSubmit admitted only exec modes this server can run. Remote jobs
  // run on ddp_worker processes that dialed the server's remote listener.
  options.mr.exec_mode = static_cast<mr::ExecMode>(params.exec_mode);
  if (params.exec_mode == 2) options.mr.remote_pool = remote_pool_.get();
  options.mr.faults.seed = params.seed;
  options.mr.faults.map_failure_rate = params.map_failure_rate;
  options.mr.faults.reduce_failure_rate = params.reduce_failure_rate;
  options.mr.faults.worker_crash_rate = params.worker_crash_rate;
  options.mr.cancel_flag = job->cancel_flag;
  options.mr.metrics_prefix = "server.job." + std::to_string(job->id);

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

  // One RunPhase may borrow the remote pool at a time; with several
  // scheduler threads, concurrent exec_mode 2 jobs take turns here.
  std::unique_lock<std::mutex> remote_lock(remote_pool_mu_, std::defer_lock);
  if (options.mr.remote_pool != nullptr) remote_lock.lock();

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
