#include "server/protocol.h"

#include <cstdio>

namespace ddp {
namespace server {

namespace {

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

}  // namespace server
}  // namespace ddp
