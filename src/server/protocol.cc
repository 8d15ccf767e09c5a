#include "server/protocol.h"

#include <cstdio>

#include "common/serde.h"

namespace ddp {
namespace server {

namespace {

Status Trailing(const BufferReader& r, const char* what) {
  if (!r.exhausted()) {
    return Status::IoError(std::string("trailing bytes in ") + what);
  }
  return Status::OK();
}

void AppendDouble(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
  out->append(buf);
}

void AppendUint(std::string* out, const char* key, uint64_t v) {
  out->append(key);
  out->push_back('=');
  out->append(std::to_string(v));
  out->push_back(';');
}

}  // namespace

std::string_view JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kRejected:
      return "rejected";
  }
  return "unknown";
}

std::string JobParams::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutString(algo);
  w.PutDouble(dc);
  w.PutDouble(percentile);
  w.PutVarint64(k);
  w.PutDouble(rho_min);
  w.PutDouble(delta_min);
  w.PutDouble(accuracy);
  w.PutVarint64(num_layouts);
  w.PutVarint64(pi);
  w.PutVarint64(block_size);
  w.PutVarint64(num_workers);
  w.PutVarint64(memory_budget_bytes);
  w.PutByte(exec_mode);
  w.PutVarint64(seed);
  w.PutDouble(map_failure_rate);
  w.PutDouble(reduce_failure_rate);
  w.PutDouble(worker_crash_rate);
  return bytes;
}

Status JobParams::Decode(const std::string& bytes, JobParams* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetString(&out->algo));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->dc));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->percentile));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->k));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->rho_min));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->delta_min));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->accuracy));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->num_layouts));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->pi));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->block_size));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->num_workers));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->memory_budget_bytes));
  DDP_RETURN_NOT_OK(r.GetByte(&out->exec_mode));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->seed));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->map_failure_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->reduce_failure_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->worker_crash_rate));
  return Trailing(r, "JobParams");
}

std::string JobParams::CanonicalKey() const {
  std::string key;
  key.append("algo=").append(algo).push_back(';');
  AppendDouble(&key, "dc", dc);
  AppendDouble(&key, "percentile", percentile);
  AppendUint(&key, "k", k);
  AppendDouble(&key, "rho_min", rho_min);
  AppendDouble(&key, "delta_min", delta_min);
  AppendDouble(&key, "accuracy", accuracy);
  AppendUint(&key, "m", num_layouts);
  AppendUint(&key, "pi", pi);
  AppendUint(&key, "block", block_size);
  AppendUint(&key, "workers", num_workers);
  AppendUint(&key, "budget", memory_budget_bytes);
  AppendUint(&key, "exec", exec_mode);
  AppendUint(&key, "seed", seed);
  AppendDouble(&key, "map_fail", map_failure_rate);
  AppendDouble(&key, "reduce_fail", reduce_failure_rate);
  AppendDouble(&key, "crash", worker_crash_rate);
  return key;
}

std::string JobSubmitMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutString(params.Encode());
  w.PutString(dataset_path);
  w.PutDouble(progress_seconds);
  return bytes;
}

Status JobSubmitMsg::Decode(const std::string& bytes, JobSubmitMsg* out) {
  BufferReader r(bytes);
  std::string params_bytes;
  DDP_RETURN_NOT_OK(r.GetString(&params_bytes));
  DDP_RETURN_NOT_OK(JobParams::Decode(params_bytes, &out->params));
  DDP_RETURN_NOT_OK(r.GetString(&out->dataset_path));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->progress_seconds));
  return Trailing(r, "JobSubmitMsg");
}

std::string JobPollMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(job_id);
  return bytes;
}

Status JobPollMsg::Decode(const std::string& bytes, JobPollMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->job_id));
  return Trailing(r, "JobPollMsg");
}

std::string JobCancelMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(job_id);
  return bytes;
}

Status JobCancelMsg::Decode(const std::string& bytes, JobCancelMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->job_id));
  return Trailing(r, "JobCancelMsg");
}

std::string JobStatusMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(job_id);
  w.PutByte(state);
  w.PutString(detail);
  w.PutVarint64(queue_position);
  w.PutVarint64(mr_jobs_done);
  w.PutDouble(running_seconds);
  w.PutByte(from_result_cache);
  return bytes;
}

Status JobStatusMsg::Decode(const std::string& bytes, JobStatusMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->job_id));
  DDP_RETURN_NOT_OK(r.GetByte(&out->state));
  DDP_RETURN_NOT_OK(r.GetString(&out->detail));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->queue_position));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->mr_jobs_done));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->running_seconds));
  DDP_RETURN_NOT_OK(r.GetByte(&out->from_result_cache));
  return Trailing(r, "JobStatusMsg");
}

std::string JobResultPayload::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutDouble(dc);
  w.PutVarint64(num_clusters);
  w.PutVarint64(assignment.size());
  for (int32_t id : assignment) w.PutSignedVarint64(id);
  w.PutVarint64(distance_evaluations);
  w.PutDouble(total_seconds);
  w.PutVarint64(mr_jobs);
  return bytes;
}

Status JobResultPayload::Decode(const std::string& bytes,
                                JobResultPayload* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetDouble(&out->dc));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->num_clusters));
  uint64_t n = 0;
  DDP_RETURN_NOT_OK(r.GetCount(&n));  // each id is >= 1 encoded byte
  out->assignment.clear();
  out->assignment.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t id = 0;
    DDP_RETURN_NOT_OK(r.GetSignedVarint64(&id));
    out->assignment.push_back(static_cast<int32_t>(id));
  }
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->distance_evaluations));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->total_seconds));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->mr_jobs));
  return Trailing(r, "JobResultPayload");
}

std::string JobResultMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(job_id);
  w.PutByte(state);
  w.PutString(error);
  w.PutByte(from_result_cache);
  w.PutString(payload);
  return bytes;
}

Status JobResultMsg::Decode(const std::string& bytes, JobResultMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->job_id));
  DDP_RETURN_NOT_OK(r.GetByte(&out->state));
  DDP_RETURN_NOT_OK(r.GetString(&out->error));
  DDP_RETURN_NOT_OK(r.GetByte(&out->from_result_cache));
  DDP_RETURN_NOT_OK(r.GetString(&out->payload));
  return Trailing(r, "JobResultMsg");
}

}  // namespace server
}  // namespace ddp
