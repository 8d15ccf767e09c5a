#include "server/server_machine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "mapreduce/supervisor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ddp {
namespace server {

ServerMachine::ServerMachine(const ServerConfig& config, ServerIo* io)
    : config_(config), io_(io), result_cache_(config.result_cache_entries) {}

void ServerMachine::OnOffer(uint64_t conn, double now) {
  if (conns_.size() >= kMaxConnections) {
    io_->Close(conn);
    return;
  }
  conns_[conn].last_frame = now;
}

void ServerMachine::OnFrame(uint64_t conn, const mr::Frame& frame,
                            double now) {
  auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  it->second.last_frame = now;
  if (!Handle(conn, frame, now)) {
    conns_.erase(conn);
    io_->Close(conn);
  }
  Dispatch(now);
}

void ServerMachine::OnClosed(uint64_t conn, double) { conns_.erase(conn); }

void ServerMachine::OnJobEvent(uint64_t job_id, JobEvent event, double now) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second.state != JobState::kRunning) return;
  Job& job = it->second;
  job.mr_jobs_done = event.mr_jobs_done;
  if (!event.finished) return;  // the next tick pushes the change
  if (event.status.ok()) {
    job.result_payload = std::move(event.payload);
    result_cache_.Put(job.spec.cache_key, job.result_payload);
    Finish(&job, JobState::kDone, now);
  } else if (event.status.code() == StatusCode::kCancelled) {
    job.detail = event.status.message();
    Finish(&job, JobState::kCancelled, now);
  } else {
    job.detail = event.status.ToString();
    Finish(&job, JobState::kFailed, now);
  }
  Dispatch(now);
}

void ServerMachine::RequestShutdown(double now) {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ = now + config_.drain_timeout_seconds;
}

void ServerMachine::Tick(double now) {
  std::erase_if(conns_, [&](const auto& c) {
    if (!c.second.subs.empty() || now - c.second.last_frame < kIdleSeconds) {
      return false;
    }
    io_->Close(c.first);
    return true;
  });
  if (draining_ && now >= drain_deadline_) {
    // Past the grace period: queued jobs are cancelled, and running ones
    // stop at their next MapReduce job boundary, checkpoints intact.
    drain_deadline_ = std::numeric_limits<double>::infinity();
    while (!queue_.empty()) {
      Job& job = jobs_.at(queue_.front());
      job.detail = "cancelled by server shutdown";
      Finish(&job, JobState::kCancelled, now);
    }
    for (uint64_t job_id : running_) io_->CancelJob(job_id);
  }
  // A subscriber is pushed a change of its job's state or MapReduce job
  // count, at most once per its interval.
  for (auto& [conn, c] : conns_) {
    for (auto& [job_id, sub] : c.subs) {
      const Job& job = jobs_.at(job_id);
      if ((sub.seen_state == job.state &&
           sub.seen_mr_jobs == job.mr_jobs_done) ||
          now - sub.last_push < sub.interval) {
        continue;
      }
      sub = Subscription{sub.interval, now, job.state, job.mr_jobs_done};
      io_->Send(conn, {mr::MessageType::kJobProgress,
                       Snapshot(job, now).Encode()});
    }
  }
}

bool ServerMachine::Handle(uint64_t conn, const mr::Frame& frame,
                           double now) {
  switch (frame.type) {
    case mr::MessageType::kJobSubmit: {
      JobSubmitMsg msg;
      if (!JobSubmitMsg::Decode(frame.payload, &msg).ok()) return false;
      const JobStatusMsg reply = Submit(msg, now);
      io_->Send(conn, {mr::MessageType::kJobStatus, reply.Encode()});
      const auto state = static_cast<JobState>(reply.state);
      if (msg.progress_seconds > 0.0 &&
          (state == JobState::kQueued || state == JobState::kRunning)) {
        conns_[conn].subs[reply.job_id] = Subscription{
            msg.progress_seconds, now, state, reply.mr_jobs_done};
      }
      return true;
    }
    case mr::MessageType::kJobStatus:
    case mr::MessageType::kJobResult: {
      JobPollMsg msg;
      if (!JobPollMsg::Decode(frame.payload, &msg).ok()) return false;
      io_->Send(conn, {frame.type, frame.type == mr::MessageType::kJobStatus
                                       ? StatusOf(msg.job_id, now).Encode()
                                       : ResultOf(msg.job_id).Encode()});
      return true;
    }
    case mr::MessageType::kJobCancel: {
      JobCancelMsg msg;
      if (!JobCancelMsg::Decode(frame.payload, &msg).ok()) return false;
      JobStatusMsg reply;
      if (msg.job_id == kShutdownJobId) {
        RequestShutdown(now);
        reply.job_id = kShutdownJobId;
        reply.state = static_cast<uint8_t>(JobState::kCancelled);
        reply.detail = "drain initiated";
      } else {
        reply = Cancel(msg.job_id, now);
      }
      io_->Send(conn, {mr::MessageType::kJobStatus, reply.Encode()});
      return true;
    }
    // ddp-lint: allow(frame-exhaustive) -- worker-protocol frames
    // (kTaskAssign, kRunData, ...) are invalid on a client connection by
    // design; the default rejects them all instead of eleven cases.
    default:
      return false;
  }
}

std::string ServerMachine::Invalid(const JobParams& params) const {
  if (params.algo != "lsh" && params.algo != "basic" &&
      params.algo != "eddpc") {
    return "unknown algo '" + params.algo + "' (lsh|basic|eddpc)";
  }
  if (params.exec_mode > 2) {
    return "unknown exec_mode " + std::to_string(params.exec_mode) +
           " (0 inproc, 1 fork, 2 remote)";
  }
  if (params.exec_mode == 2 && !config_.enable_remote_workers) {
    return "exec_mode 2 needs a server started with remote workers";
  }
  if (params.exec_mode == 1 && !mr::ForkExecutionSupported()) {
    return "exec_mode 1 is unsupported in this build";
  }
  if (params.num_workers > kMaxJobWorkers) {
    return "num_workers " + std::to_string(params.num_workers) +
           " above the cap of " + std::to_string(kMaxJobWorkers);
  }
  if (params.pi > 0 && params.num_layouts > kMaxHashFunctions / params.pi) {
    return "num_layouts x pi (" + std::to_string(params.num_layouts) + " x " +
           std::to_string(params.pi) + ") above the cap of " +
           std::to_string(kMaxHashFunctions) + " hash functions";
  }
  return "";
}

JobStatusMsg ServerMachine::Submit(const JobSubmitMsg& msg, double now) {
  DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsSubmitted, 1);
  // Validate before digesting: the digest reads every dataset byte.
  std::string reject_reason = Invalid(msg.params);
  std::string digest;
  if (reject_reason.empty()) {
    Result<std::string> digested = io_->Digest(msg.dataset_path);
    if (digested.ok()) {
      digest = std::move(digested).value();
    } else {
      reject_reason = "dataset unreadable: " + digested.status().ToString();
    }
  }
  const uint64_t id = next_job_id_++;
  Job& job = jobs_[id];
  job.spec = {id, msg.params, msg.dataset_path, digest, ""};
  job.queued_at = now;
  if (!reject_reason.empty()) return Reject(&job, reject_reason, now);
  if (draining_) return Reject(&job, "server is draining", now);
  job.spec.cache_key = digest + "|" + msg.params.CanonicalKey();

  // Result cache: an identical (dataset digest, params) submission is done
  // the moment it is admitted, served from the stored bytes.
  if (result_cache_.Get(job.spec.cache_key, &job.result_payload)) {
    job.from_result_cache = true;
    Finish(&job, JobState::kDone, now);
    return Snapshot(job, now);
  }
  // In-flight coalescing: an identical job already queued or running
  // answers this submission too — the reply carries the original job id.
  auto inflight = inflight_by_key_.find(job.spec.cache_key);
  if (inflight != inflight_by_key_.end()) {
    jobs_.erase(id);  // drop the placeholder record
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCoalesced, 1);
    return Snapshot(jobs_.at(inflight->second), now);
  }
  // Admission control: bounded queue, then the memory budget.
  if (queue_.size() >= config_.max_queued_jobs) {
    return Reject(&job,
                  "queue full (" + std::to_string(queue_.size()) + " of " +
                      std::to_string(config_.max_queued_jobs) +
                      " queued jobs)",
                  now);
  }
  const uint64_t effective = msg.params.memory_budget_bytes > 0
                                 ? msg.params.memory_budget_bytes
                                 : config_.default_job_budget_bytes;
  if (admitted_bytes_ + effective > config_.admission_budget_bytes) {
    return Reject(&job,
                  "admission budget exceeded: admitted " +
                      std::to_string(admitted_bytes_) + " B + job " +
                      std::to_string(effective) + " B > server budget " +
                      std::to_string(config_.admission_budget_bytes) + " B",
                  now);
  }
  job.admission_bytes = effective;
  admitted_bytes_ += effective;
  inflight_by_key_[job.spec.cache_key] = id;
  queue_.push_back(id);
  UpdateGauges();
  return Snapshot(job, now);
}

JobStatusMsg ServerMachine::Cancel(uint64_t job_id, double now) {
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return StatusOf(job_id, now);
  Job& job = it->second;
  if (job.state == JobState::kQueued) {
    job.detail = "cancelled while queued";
    Finish(&job, JobState::kCancelled, now);
  } else if (job.state == JobState::kRunning) {
    // Cooperative: the pipeline observes the flag at its next MapReduce
    // job boundary; the state flips when its verdict arrives.
    job.detail = "cancel requested";
    io_->CancelJob(job_id);
  }
  return Snapshot(job, now);
}

JobStatusMsg ServerMachine::StatusOf(uint64_t job_id, double now) const {
  auto it = jobs_.find(job_id);
  if (it != jobs_.end()) return Snapshot(it->second, now);
  JobStatusMsg msg;
  msg.job_id = job_id;
  msg.state = static_cast<uint8_t>(JobState::kFailed);
  msg.detail = "unknown job id";
  return msg;
}

JobStatusMsg ServerMachine::Snapshot(const Job& job, double now) const {
  JobStatusMsg msg;
  msg.job_id = job.spec.id;
  msg.state = static_cast<uint8_t>(job.state);
  msg.detail = job.detail;
  if (job.state == JobState::kQueued) {
    msg.queue_position = static_cast<uint64_t>(
        std::find(queue_.begin(), queue_.end(), job.spec.id) - queue_.begin());
  }
  msg.mr_jobs_done = job.mr_jobs_done;
  if (job.state == JobState::kRunning) {
    msg.running_seconds = now - job.started_at;
  } else if (job.started_at >= 0.0) {
    msg.running_seconds = job.finished_at - job.started_at;
  }
  msg.from_result_cache = job.from_result_cache ? 1 : 0;
  return msg;
}

JobResultMsg ServerMachine::ResultOf(uint64_t job_id) const {
  JobResultMsg msg;
  msg.job_id = job_id;
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    msg.state = static_cast<uint8_t>(JobState::kFailed);
    msg.error = "unknown job id";
    return msg;
  }
  const Job& job = it->second;
  msg.state = static_cast<uint8_t>(job.state);
  msg.from_result_cache = job.from_result_cache ? 1 : 0;
  if (job.state == JobState::kDone) {
    msg.payload = job.result_payload;
  } else {
    msg.error = job.detail.empty() ? std::string(JobStateName(job.state))
                                   : job.detail;
  }
  return msg;
}

JobStatusMsg ServerMachine::Reject(Job* job, std::string reason, double now) {
  job->detail = std::move(reason);
  Finish(job, JobState::kRejected, now);
  return Snapshot(*job, now);
}

void ServerMachine::Finish(Job* job, JobState state, double now) {
  const uint64_t id = job->spec.id;
  if (job->state == JobState::kRunning) {
    running_.erase(id);
    if (job->spec.params.exec_mode == 2) remote_running_ = false;
  } else {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
  }
  admitted_bytes_ -= job->admission_bytes;
  job->admission_bytes = 0;
  auto key = inflight_by_key_.find(job->spec.cache_key);
  if (key != inflight_by_key_.end() && key->second == id) {
    inflight_by_key_.erase(key);
  }
  job->state = state;
  job->finished_at = now;
  if (state == JobState::kDone) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCompleted, 1);
  } else if (state == JobState::kFailed) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsFailed, 1);
  } else if (state == JobState::kCancelled) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsCancelled, 1);
  } else {
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerJobsRejected, 1);
  }
  // The terminal push leaves now, whatever the subscription's interval.
  for (auto& [conn, c] : conns_) {
    if (c.subs.erase(id) > 0) {
      io_->Send(conn,
                {mr::MessageType::kJobProgress, Snapshot(*job, now).Encode()});
    }
  }
  finished_.push_back(id);
  if (finished_.size() > kFinishedJobsKept) {
    jobs_.erase(finished_.front());
    finished_.pop_front();
  }
  UpdateGauges();
}

void ServerMachine::Dispatch(double now) {
  for (auto it = queue_.begin();
       it != queue_.end() &&
       running_.size() < std::max<size_t>(1, config_.scheduler_threads);) {
    Job& job = jobs_.at(*it);
    // A RunPhase owns the remote pool, so a remote job waits in the queue
    // while another runs, and later jobs may pass it.
    const bool remote = job.spec.params.exec_mode == 2;
    if (remote && remote_running_) {
      ++it;
      continue;
    }
    it = queue_.erase(it);
    running_.insert(job.spec.id);
    remote_running_ = remote_running_ || remote;
    job.state = JobState::kRunning;
    job.started_at = now;
    DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricServerQueueWaitSeconds,
                                 now - job.queued_at);
    io_->StartJob(job.spec);
    UpdateGauges();
  }
}

void ServerMachine::UpdateGauges() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetGauge(obs::kMetricServerQueueDepth)
      ->Set(static_cast<double>(queue_.size()));
  registry.GetGauge(obs::kMetricServerRunningJobs)
      ->Set(static_cast<double>(running_.size()));
  registry.GetGauge(obs::kMetricServerAdmittedBudgetBytes)
      ->Set(static_cast<double>(admitted_bytes_));
}

}  // namespace server
}  // namespace ddp
