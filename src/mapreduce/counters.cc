#include "mapreduce/counters.h"

#include <cstdio>

#include "obs/json.h"

namespace ddp {
namespace mr {

namespace {

void WriteJobObject(obs::JsonWriter* w, const JobCounters& j) {
  w->BeginObject();
  w->Field("job_name", std::string_view(j.job_name));
  w->Field("loaded_from_checkpoint", j.loaded_from_checkpoint);
  w->Field("map_input_records", j.map_input_records);
  w->Field("map_output_records", j.map_output_records);
  w->Field("combine_input_records", j.combine_input_records);
  w->Field("shuffle_bytes", j.shuffle_bytes);
  w->Field("shuffle_records", j.shuffle_records);
  w->Field("reduce_input_groups", j.reduce_input_groups);
  w->Field("reduce_output_records", j.reduce_output_records);
  w->Field("max_partition_bytes", j.max_partition_bytes);
  w->Field("spilled_bytes", j.spilled_bytes);
  w->Field("spill_files", j.spill_files);
  w->Field("merge_passes", j.merge_passes);
  w->Field("spill_seconds", j.spill_seconds);
  w->Key("group_size_log2_histogram");
  w->BeginArray();
  for (uint64_t count : j.group_size_log2_histogram) w->Uint(count);
  w->EndArray();
  w->Field("map_task_retries", j.map_task_retries);
  w->Field("reduce_task_retries", j.reduce_task_retries);
  w->Field("speculative_launches", j.speculative_launches);
  w->Field("speculative_wins", j.speculative_wins);
  w->Field("deadline_kills", j.deadline_kills);
  w->Field("skipped_records", j.skipped_records);
  w->Field("task_exceptions", j.task_exceptions);
  w->Field("worker_crashes", j.worker_crashes);
  w->Field("worker_hangs", j.worker_hangs);
  w->Field("worker_kills", j.worker_kills);
  w->Field("worker_restarts", j.worker_restarts);
  w->Field("quarantined_tasks", j.quarantined_tasks);
  w->Field("spill_files_reaped", j.spill_files_reaped);
  w->Field("exec_fallbacks", j.exec_fallbacks);
  w->Field("shuffle_streamed_bytes", j.shuffle_streamed_bytes);
  w->Field("shuffle_resent_runs", j.shuffle_resent_runs);
  w->Field("channel_reconnects", j.channel_reconnects);
  w->Field("workers_registered", j.workers_registered);
  w->Field("workers_evicted", j.workers_evicted);
  w->Field("tasks_reassigned", j.tasks_reassigned);
  w->Field("median_attempt_seconds", j.median_attempt_seconds);
  w->Field("p99_attempt_seconds", j.p99_attempt_seconds);
  w->Field("max_attempt_seconds", j.max_attempt_seconds);
  w->Field("straggler_ratio", j.straggler_ratio);
  w->Field("map_seconds", j.map_seconds);
  w->Field("shuffle_seconds", j.shuffle_seconds);
  w->Field("reduce_seconds", j.reduce_seconds);
  w->Field("total_seconds", j.total_seconds);
  w->Field("modeled_seconds", j.modeled_seconds);
  w->EndObject();
}

template <typename T>
T Sum(const std::vector<JobCounters>& jobs, T JobCounters::*field) {
  T total{};
  for (const JobCounters& j : jobs) total += j.*field;
  return total;
}

}  // namespace

std::string JobCounters::ToString() const {
  char buf[512];
  if (loaded_from_checkpoint) {
    std::snprintf(buf, sizeof(buf), "%s: replayed from checkpoint (out=%llu)",
                  job_name.c_str(),
                  static_cast<unsigned long long>(reduce_output_records));
    return buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "%s: map_in=%llu map_out=%llu shuffle=%llu B (%llu rec) groups=%llu "
      "out=%llu | map=%.3fs shuffle=%.3fs reduce=%.3fs total=%.3fs",
      job_name.c_str(), static_cast<unsigned long long>(map_input_records),
      static_cast<unsigned long long>(map_output_records),
      static_cast<unsigned long long>(shuffle_bytes),
      static_cast<unsigned long long>(shuffle_records),
      static_cast<unsigned long long>(reduce_input_groups),
      static_cast<unsigned long long>(reduce_output_records), map_seconds,
      shuffle_seconds, reduce_seconds, total_seconds);
  std::string out = buf;
  const uint64_t retries = map_task_retries + reduce_task_retries;
  if (retries + speculative_launches + deadline_kills + skipped_records +
          task_exceptions >
      0) {
    std::snprintf(buf, sizeof(buf),
                  " | retries=%llu spec=%llu/%llu deadline_kills=%llu "
                  "skipped=%llu exceptions=%llu",
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(speculative_wins),
                  static_cast<unsigned long long>(speculative_launches),
                  static_cast<unsigned long long>(deadline_kills),
                  static_cast<unsigned long long>(skipped_records),
                  static_cast<unsigned long long>(task_exceptions));
    out += buf;
  }
  if (spilled_bytes + spill_files + merge_passes > 0 || spill_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  " | spilled_bytes=%llu spill_files=%llu merge_passes=%llu "
                  "spill=%.3fs",
                  static_cast<unsigned long long>(spilled_bytes),
                  static_cast<unsigned long long>(spill_files),
                  static_cast<unsigned long long>(merge_passes),
                  spill_seconds);
    out += buf;
  }
  if (worker_crashes + worker_hangs + worker_kills + worker_restarts +
          quarantined_tasks + spill_files_reaped >
      0) {
    std::snprintf(buf, sizeof(buf),
                  " | workers: crashes=%llu hangs=%llu kills=%llu "
                  "restarts=%llu quarantined=%llu reaped=%llu",
                  static_cast<unsigned long long>(worker_crashes),
                  static_cast<unsigned long long>(worker_hangs),
                  static_cast<unsigned long long>(worker_kills),
                  static_cast<unsigned long long>(worker_restarts),
                  static_cast<unsigned long long>(quarantined_tasks),
                  static_cast<unsigned long long>(spill_files_reaped));
    out += buf;
  }
  if (shuffle_streamed_bytes + shuffle_resent_runs + channel_reconnects > 0) {
    std::snprintf(buf, sizeof(buf),
                  " | streamed=%llu B resent_runs=%llu reconnects=%llu",
                  static_cast<unsigned long long>(shuffle_streamed_bytes),
                  static_cast<unsigned long long>(shuffle_resent_runs),
                  static_cast<unsigned long long>(channel_reconnects));
    out += buf;
  }
  if (workers_registered + workers_evicted + tasks_reassigned > 0) {
    std::snprintf(buf, sizeof(buf),
                  " | remote: registered=%llu evicted=%llu reassigned=%llu",
                  static_cast<unsigned long long>(workers_registered),
                  static_cast<unsigned long long>(workers_evicted),
                  static_cast<unsigned long long>(tasks_reassigned));
    out += buf;
  }
  if (straggler_ratio > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  " | attempts: median=%.4fs p99=%.4fs slowest/median=%.2f",
                  median_attempt_seconds, p99_attempt_seconds,
                  straggler_ratio);
    out += buf;
  }
  if (!group_size_log2_histogram.empty()) {
    out += " | group_sizes:";
    for (size_t b = 0; b < group_size_log2_histogram.size(); ++b) {
      if (group_size_log2_histogram[b] == 0) continue;
      std::snprintf(
          buf, sizeof(buf), " [%llu,%llu)=%llu",
          static_cast<unsigned long long>(uint64_t{1} << b),
          static_cast<unsigned long long>(uint64_t{1} << (b + 1)),
          static_cast<unsigned long long>(group_size_log2_histogram[b]));
      out += buf;
    }
  }
  return out;
}

uint64_t RunStats::TotalShuffleBytes() const {
  return Sum(jobs, &JobCounters::shuffle_bytes);
}

uint64_t RunStats::TotalShuffleRecords() const {
  return Sum(jobs, &JobCounters::shuffle_records);
}

double RunStats::TotalSeconds() const {
  return Sum(jobs, &JobCounters::total_seconds);
}

double RunStats::TotalModeledSeconds() const {
  return Sum(jobs, &JobCounters::modeled_seconds);
}

uint64_t RunStats::TotalTaskRetries() const {
  uint64_t total = 0;
  for (const JobCounters& j : jobs) {
    total += j.map_task_retries + j.reduce_task_retries;
  }
  return total;
}

uint64_t RunStats::TotalSpeculativeLaunches() const {
  return Sum(jobs, &JobCounters::speculative_launches);
}

uint64_t RunStats::TotalSpeculativeWins() const {
  return Sum(jobs, &JobCounters::speculative_wins);
}

uint64_t RunStats::TotalDeadlineKills() const {
  return Sum(jobs, &JobCounters::deadline_kills);
}

uint64_t RunStats::TotalSkippedRecords() const {
  return Sum(jobs, &JobCounters::skipped_records);
}

uint64_t RunStats::TotalTaskExceptions() const {
  return Sum(jobs, &JobCounters::task_exceptions);
}

uint64_t RunStats::TotalSpilledBytes() const {
  return Sum(jobs, &JobCounters::spilled_bytes);
}

uint64_t RunStats::TotalSpillFiles() const {
  return Sum(jobs, &JobCounters::spill_files);
}

uint64_t RunStats::TotalMergePasses() const {
  return Sum(jobs, &JobCounters::merge_passes);
}

uint64_t RunStats::JobsLoadedFromCheckpoint() const {
  uint64_t total = 0;
  for (const JobCounters& j : jobs) total += j.loaded_from_checkpoint ? 1 : 0;
  return total;
}

uint64_t RunStats::TotalWorkerCrashes() const {
  return Sum(jobs, &JobCounters::worker_crashes);
}

uint64_t RunStats::TotalWorkerHangs() const {
  return Sum(jobs, &JobCounters::worker_hangs);
}

uint64_t RunStats::TotalWorkerKills() const {
  return Sum(jobs, &JobCounters::worker_kills);
}

uint64_t RunStats::TotalWorkerRestarts() const {
  return Sum(jobs, &JobCounters::worker_restarts);
}

uint64_t RunStats::TotalQuarantinedTasks() const {
  return Sum(jobs, &JobCounters::quarantined_tasks);
}

uint64_t RunStats::TotalSpillFilesReaped() const {
  return Sum(jobs, &JobCounters::spill_files_reaped);
}

uint64_t RunStats::TotalExecFallbacks() const {
  return Sum(jobs, &JobCounters::exec_fallbacks);
}

uint64_t RunStats::TotalShuffleStreamedBytes() const {
  return Sum(jobs, &JobCounters::shuffle_streamed_bytes);
}

uint64_t RunStats::TotalShuffleResentRuns() const {
  return Sum(jobs, &JobCounters::shuffle_resent_runs);
}

uint64_t RunStats::TotalChannelReconnects() const {
  return Sum(jobs, &JobCounters::channel_reconnects);
}

uint64_t RunStats::TotalWorkersRegistered() const {
  return Sum(jobs, &JobCounters::workers_registered);
}

uint64_t RunStats::TotalWorkersEvicted() const {
  return Sum(jobs, &JobCounters::workers_evicted);
}

uint64_t RunStats::TotalTasksReassigned() const {
  return Sum(jobs, &JobCounters::tasks_reassigned);
}

std::string JobCounters::ToJson() const {
  obs::JsonWriter w;
  WriteJobObject(&w, *this);
  return w.Take();
}

std::string RunStats::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("jobs");
  w.BeginArray();
  for (const JobCounters& j : jobs) WriteJobObject(&w, j);
  w.EndArray();
  w.Key("totals");
  w.BeginObject();
  w.Field("jobs", static_cast<uint64_t>(jobs.size()));
  w.Field("shuffle_bytes", TotalShuffleBytes());
  w.Field("shuffle_records", TotalShuffleRecords());
  w.Field("total_seconds", TotalSeconds());
  w.Field("modeled_seconds", TotalModeledSeconds());
  w.Field("task_retries", TotalTaskRetries());
  w.Field("speculative_launches", TotalSpeculativeLaunches());
  w.Field("speculative_wins", TotalSpeculativeWins());
  w.Field("deadline_kills", TotalDeadlineKills());
  w.Field("skipped_records", TotalSkippedRecords());
  w.Field("task_exceptions", TotalTaskExceptions());
  w.Field("spilled_bytes", TotalSpilledBytes());
  w.Field("spill_files", TotalSpillFiles());
  w.Field("merge_passes", TotalMergePasses());
  w.Field("jobs_loaded_from_checkpoint", JobsLoadedFromCheckpoint());
  w.Field("worker_crashes", TotalWorkerCrashes());
  w.Field("worker_hangs", TotalWorkerHangs());
  w.Field("worker_kills", TotalWorkerKills());
  w.Field("worker_restarts", TotalWorkerRestarts());
  w.Field("quarantined_tasks", TotalQuarantinedTasks());
  w.Field("spill_files_reaped", TotalSpillFilesReaped());
  w.Field("exec_fallbacks", TotalExecFallbacks());
  w.Field("shuffle_streamed_bytes", TotalShuffleStreamedBytes());
  w.Field("shuffle_resent_runs", TotalShuffleResentRuns());
  w.Field("channel_reconnects", TotalChannelReconnects());
  w.Field("workers_registered", TotalWorkersRegistered());
  w.Field("workers_evicted", TotalWorkersEvicted());
  w.Field("tasks_reassigned", TotalTasksReassigned());
  w.EndObject();
  w.EndObject();
  return w.Take();
}

std::string RunStats::ToString() const {
  std::string out;
  for (const JobCounters& j : jobs) {
    out += j.ToString();
    out += '\n';
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "TOTAL: shuffle=%llu B (%llu rec) time=%.3fs",
                static_cast<unsigned long long>(TotalShuffleBytes()),
                static_cast<unsigned long long>(TotalShuffleRecords()),
                TotalSeconds());
  out += buf;
  if (TotalSpilledBytes() + TotalSpillFiles() + TotalMergePasses() > 0) {
    std::snprintf(buf, sizeof(buf),
                  " spilled=%llu B (%llu files, %llu merges)",
                  static_cast<unsigned long long>(TotalSpilledBytes()),
                  static_cast<unsigned long long>(TotalSpillFiles()),
                  static_cast<unsigned long long>(TotalMergePasses()));
    out += buf;
  }
  return out;
}

}  // namespace mr
}  // namespace ddp
