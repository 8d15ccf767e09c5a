#include "mapreduce/counters.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ddp {
namespace mr {

namespace {

using J = JobCounters;

// The counter list. A row: field, JSON key, registry metric, summed in the
// run totals.
constexpr CounterField kCounterFields[] = {
    {&J::map_input_records, "map_input_records", nullptr, true},
    {&J::map_output_records, "map_output_records", nullptr, true},
    {&J::combine_input_records, "combine_input_records", nullptr, true},
    {&J::shuffle_bytes, "shuffle_bytes", obs::kMetricMrShuffleBytes, true},
    {&J::shuffle_records, "shuffle_records", obs::kMetricMrShuffleRecords,
     true},
    {&J::reduce_input_groups, "reduce_input_groups", nullptr, true},
    {&J::reduce_output_records, "reduce_output_records", nullptr, true},
    {&J::max_partition_bytes, "max_partition_bytes", nullptr, false},
    {&J::spilled_bytes, "spilled_bytes", obs::kMetricMrSpilledBytes, true},
    {&J::spill_files, "spill_files", nullptr, true},
    {&J::merge_passes, "merge_passes", nullptr, true},
    {&J::map_task_retries, "map_task_retries", nullptr, true},
    {&J::reduce_task_retries, "reduce_task_retries", nullptr, true},
    {&J::speculative_launches, "speculative_launches", nullptr, true},
    {&J::speculative_wins, "speculative_wins", nullptr, true},
    {&J::deadline_kills, "deadline_kills", nullptr, true},
    {&J::skipped_records, "skipped_records", nullptr, true},
    {&J::task_exceptions, "task_exceptions", nullptr, true},
    {&J::worker_crashes, "worker_crashes", obs::kMetricMrWorkerCrashes, true},
    {&J::worker_hangs, "worker_hangs", nullptr, true},
    {&J::worker_kills, "worker_kills", obs::kMetricMrWorkerKills, true},
    {&J::worker_restarts, "worker_restarts", obs::kMetricMrWorkerRestarts,
     true},
    {&J::quarantined_tasks, "quarantined_tasks", obs::kMetricMrQuarantinedTasks,
     true},
    {&J::exec_fallbacks, "exec_fallbacks", nullptr, true},
    {&J::shuffle_streamed_bytes, "shuffle_streamed_bytes",
     obs::kMetricMrShuffleStreamedBytes, true},
    {&J::workers_registered, "workers_registered",
     obs::kMetricMrWorkersRegistered, true},
    {&J::workers_evicted, "workers_evicted", obs::kMetricMrWorkersEvicted,
     true},
    {&J::tasks_reassigned, "tasks_reassigned", obs::kMetricMrTasksReassigned,
     true},
};

void WriteJobObject(obs::JsonWriter* w, const JobCounters& j) {
  w->BeginObject();
  w->Field("job_name", std::string_view(j.job_name));
  w->Field("loaded_from_checkpoint", j.loaded_from_checkpoint);
  for (const CounterField& c : kCounterFields) w->Field(c.key, j.*c.field);
  w->Field("spill_seconds", j.spill_seconds);
  w->Key("group_size_log2_histogram");
  w->BeginArray();
  for (uint64_t count : j.group_size_log2_histogram) w->Uint(count);
  w->EndArray();
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

// " key=value" for each nonzero counter `value(row)` gives, summed rows
// only when `summed_only`.
template <typename Value>
std::string NonzeroCounters(bool summed_only, Value value) {
  std::string out;
  for (const CounterField& c : kCounterFields) {
    const uint64_t v = value(c);
    if (v == 0 || (summed_only && !c.summed)) continue;
    out += ' ';
    out += c.key;
    out += '=';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

std::span<const CounterField> CounterFields() { return kCounterFields; }

std::string JobCounters::ToString() const {
  if (loaded_from_checkpoint) {
    return job_name + ": replayed from checkpoint (out=" +
           std::to_string(reduce_output_records) + ")";
  }
  std::string out =
      job_name + ":" + NonzeroCounters(false, [this](const CounterField& c) {
        return this->*c.field;
      });
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                " | map=%.3fs shuffle=%.3fs reduce=%.3fs total=%.3fs",
                map_seconds, shuffle_seconds, reduce_seconds, total_seconds);
  out += buf;
  if (spill_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf), " spill=%.3fs", spill_seconds);
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

std::string JobCounters::ToJson() const {
  obs::JsonWriter w;
  WriteJobObject(&w, *this);
  return w.Take();
}

void JobCounters::Publish() const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::kMetricMrJobs)->Add(1);
  for (const CounterField& c : kCounterFields) {
    if (c.metric != nullptr) registry.GetCounter(c.metric)->Add(this->*c.field);
  }
}

uint64_t RunStats::JobsLoadedFromCheckpoint() const {
  uint64_t total = 0;
  for (const JobCounters& j : jobs) total += j.loaded_from_checkpoint ? 1 : 0;
  return total;
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
  for (const CounterField& c : kCounterFields) {
    if (c.summed) w.Field(c.key, Total(c.field));
  }
  w.Field("task_retries", TotalTaskRetries());
  w.Field("jobs_loaded_from_checkpoint", JobsLoadedFromCheckpoint());
  w.Field("total_seconds", TotalSeconds());
  w.Field("modeled_seconds", TotalModeledSeconds());
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
  out += "TOTAL: jobs=" + std::to_string(jobs.size()) +
         NonzeroCounters(true, [this](const CounterField& c) {
           return Total(c.field);
         });
  char buf[32];
  std::snprintf(buf, sizeof(buf), " time=%.3fs", TotalSeconds());
  return out + buf;
}

}  // namespace mr
}  // namespace ddp
