#include "mapreduce/phase.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/heartbeat.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {
namespace mr {
namespace internal {

bool ShouldInjectFailure(const FaultInjection& faults, double rate,
                         const std::string& job_name, int phase, size_t task,
                         size_t attempt) {
  if (rate <= 0.0) return false;
  uint64_t h = faults.seed ^ (uint64_t{0x9e3779b97f4a7c15} * (task + 1)) ^
               (uint64_t{0xc2b2ae3d27d4eb4f} * (attempt + 1)) ^
               (uint64_t{0x165667b19e3779f9} * static_cast<uint64_t>(phase + 1));
  for (char c : job_name) {
    h = h * uint64_t{0x100000001b3} ^ static_cast<uint8_t>(c);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

void ReduceTaskStats::CountGroup(size_t size) {
  ++groups;
  const size_t bucket = static_cast<size_t>(std::bit_width(size)) - 1;
  if (group_size_log2.size() <= bucket) group_size_log2.resize(bucket + 1, 0);
  ++group_size_log2[bucket];
}

namespace {

const char* PhaseName(int phase) { return phase == 0 ? "map" : "reduce"; }

/// The chaos every attempt rolls after its body, on every substrate: an
/// injected failure, then a straggler dawdle that `cancel` cuts short.
void InjectAttemptChaos(const ChaosParams& chaos, size_t task, size_t attempt,
                        const Stopwatch& watch, CancelToken* cancel,
                        Status* status) {
  const FaultInjection& faults = chaos.faults;
  if (status->ok() &&
      ShouldInjectFailure(faults, chaos.failure_rate, chaos.job_name,
                          chaos.phase, task, attempt)) {
    *status = Status::Internal("injected task failure");
  }
  if (status->ok() &&
      ShouldInjectFailure(faults, faults.straggler_rate, chaos.job_name,
                          chaos.phase + 4, task, attempt)) {
    const double slowdown = std::max(0.0, faults.straggler_slowdown - 1.0);
    cancel->WaitFor(std::max(faults.straggler_min_seconds,
                             watch.ElapsedSeconds() * slowdown));
  }
}

/// The runs of partition `p` in (map task id, spill index, tail) order —
/// the merge order under which key ties reach reduce in (map task id,
/// emission index) order (spill.h).
std::vector<const SpillRun*> PartitionRuns(
    const std::vector<MapTaskOutput>& map_outputs, size_t p) {
  std::vector<const SpillRun*> runs;
  for (const MapTaskOutput& mo : map_outputs) {
    for (const SpillRun& run : mo.runs) {
      if (run.partition == p) runs.push_back(&run);
    }
  }
  return runs;
}

/// Robustness accounting for one phase, merged into JobCounters.
struct PhaseStats {
  uint64_t retries = 0;
  uint64_t speculative_launches = 0;
  uint64_t speculative_wins = 0;
  uint64_t deadline_kills = 0;
  uint64_t exceptions = 0;
  std::vector<double> durations;  // committed attempts only
};

/// One phase as the engine runs it.
struct PhaseSpec {
  ChaosParams chaos;  // job name, phase and its failure rate
  size_t num_tasks = 0;
  std::function<std::unique_ptr<TaskSlot>()> new_slot;
  TaskBody body;
  const SlotCodec* codec = nullptr;
  /// Remote crews: the encoded JobSetupMsg and one task's input by value.
  std::string remote_setup;
  std::function<Result<std::string>(size_t task)> remote_input;
};

/// The in-process task scheduler. Runs `spec.num_tasks` tasks on `pool`:
///
///  * A failed attempt (injected fault, thrown exception, missed deadline)
///    is retried until `max_task_attempts` is exhausted, then fails the job.
///  * An IoError from the body (corrupt shuffle data) is not retryable — the
///    data would be equally corrupt on retry — and aborts the job, with all
///    in-flight attempts cancelled so other partitions stop wasting work.
///  * With speculative execution on, a task whose sole attempt runs long
///    relative to the committed median gets one backup attempt; the first
///    success commits (in this scheduler thread, so there is no commit
///    race), the sibling is cancelled and its slot discarded.
Status RunRobustPhase(ThreadPool* pool, const PhaseSpec& spec,
                      const Options& options, PhaseStats* pstats,
                      TaskSlots* outputs) {
  const size_t num_tasks = spec.num_tasks;
  outputs->clear();
  outputs->resize(num_tasks);
  if (num_tasks == 0) return Status::OK();

  using Clock = std::chrono::steady_clock;
  struct Event {
    size_t task = 0;
    size_t attempt = 0;
    bool speculative = false;
    bool exception = false;
    Status status;
    double seconds = 0.0;
    std::unique_ptr<TaskSlot> out;
  };
  struct Running {
    size_t attempt;
    /// Nanoseconds-since-steady-epoch when the attempt actually began
    /// executing; 0 while it is still queued behind other work. Deadlines
    /// and the speculative threshold measure execution time, not queue
    /// wait — on a small pool every queued attempt would otherwise look
    /// like a straggler.
    std::shared_ptr<std::atomic<int64_t>> started_ns;
    std::shared_ptr<CancelToken> cancel;
  };
  struct TaskState {
    size_t failed_attempts = 0;
    size_t next_attempt = 0;
    bool done = false;
    bool backup_launched = false;
    std::vector<Running> running;
  };

  const std::string& job_name = spec.chaos.job_name;
  const int phase = spec.chaos.phase;
  const double deadline = options.task_deadline_seconds;
  const char* phase_name = PhaseName(phase);

  // Observability: one histogram of committed-attempt latencies per phase
  // kind (a single registry lookup per phase), a per-attempt trace span
  // created inside the worker closure (so it lands on the executing
  // thread), and an optional progress heartbeat.
  obs::Histogram* attempt_hist = obs::MetricsRegistry::Global().GetHistogram(
      phase == 0 ? obs::kMetricMrMapAttemptSeconds
                 : obs::kMetricMrReduceAttemptSeconds);
  std::atomic<size_t> completed_for_heartbeat{0};
  Stopwatch phase_timer;
  std::optional<obs::ProgressHeartbeat> heartbeat;
  if (options.heartbeat_seconds > 0.0) {
    heartbeat.emplace(
        options.heartbeat_seconds,
        [&completed_for_heartbeat, &phase_timer, num_tasks, phase_name,
         job_name] {
          const size_t done =
              completed_for_heartbeat.load(std::memory_order_relaxed);
          const double elapsed = phase_timer.ElapsedSeconds();
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s %s: %zu/%zu tasks done (%.1f tasks/s)",
                        job_name.c_str(), phase_name, done, num_tasks,
                        elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0);
          return std::string(buf);
        });
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Event> events;  // guarded by mu

  // Everything below is touched only by this (scheduler) thread.
  std::vector<TaskState> tasks(num_tasks);
  size_t outstanding = 0;  // launched attempts whose events are unconsumed
  size_t completed = 0;
  Status job_error;

  auto launch = [&](size_t t, bool speculative) {
    TaskState& ts = tasks[t];
    const size_t attempt = ts.next_attempt++;
    auto cancel = std::make_shared<CancelToken>();
    auto started_ns = std::make_shared<std::atomic<int64_t>>(0);
    ts.running.push_back({attempt, started_ns, cancel});
    ++outstanding;
    pool->Submit([&, t, attempt, speculative, cancel, started_ns] {
      Event ev;
      ev.task = t;
      ev.attempt = attempt;
      ev.speculative = speculative;
      // The attempt span lives on the worker thread so it nests under
      // whatever else that worker traces (spill writes, kernel groups).
      // Spans from attempts that never commit — cancelled speculative
      // losers, deadline kills, abandoned retries — are still flushed,
      // marked cancelled below.
      DDP_TRACE_SPAN(span, obs::kCatMr,
                     phase == 0 ? obs::kSpanMapAttempt
                                : obs::kSpanReduceAttempt);
      if (span.active()) {
        span.AddArg("job", job_name);
        span.AddArg("task", static_cast<uint64_t>(t));
        span.AddArg("attempt", static_cast<uint64_t>(attempt));
        if (speculative) span.AddArg("speculative", "true");
      }
      started_ns->store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_release);
      if (cancel->cancelled()) {
        ev.status = Status::Cancelled("attempt cancelled before start");
      } else {
        ev.out = spec.new_slot();
        Stopwatch watch;
        try {
          ev.status = spec.body(t, cancel.get(), ev.out.get());
        } catch (const std::exception& e) {
          ev.status = Status::Internal(std::string(phase_name) +
                                       " function threw: " + e.what());
          ev.exception = true;
        } catch (...) {
          ev.status = Status::Internal(std::string(phase_name) +
                                       " function threw a non-std exception");
          ev.exception = true;
        }
        InjectAttemptChaos(spec.chaos, t, attempt, watch, cancel.get(),
                           &ev.status);
        ev.seconds = watch.ElapsedSeconds();
        // An overdue attempt reports DeadlineExceeded whether it noticed by
        // itself or was woken by the monitor's Cancel (which would otherwise
        // read as an abandoned attempt and orphan the task).
        if (deadline > 0.0 && ev.seconds > deadline &&
            (ev.status.ok() || ev.status.IsCancelled())) {
          ev.status = Status::DeadlineExceeded(
              std::string(phase_name) + " attempt overran the " +
              std::to_string(deadline) + "s task deadline");
        }
      }
      if (span.active() && !ev.status.ok()) {
        // A cancelled or deadline-killed attempt's span is flushed, not
        // dropped: it renders greyed-out-style in Perfetto via the
        // cancelled arg, which is how speculative losers stay visible.
        if (ev.status.IsCancelled() || ev.status.IsDeadlineExceeded()) {
          span.MarkCancelled();
        }
        span.AddArg("status", ev.status.ToString());
      }
      // Notify under the lock: once the scheduler consumes the last event it
      // may destroy mu/cv (they live on its stack), and holding mu here
      // keeps it parked in wait() until the notification is fully issued.
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(std::move(ev));
      cv.notify_all();
    });
  };

  auto cancel_all = [&] {
    for (TaskState& ts : tasks) {
      for (Running& r : ts.running) r.cancel->Cancel();
    }
  };

  std::vector<double> scratch;  // median computation
  auto monitor_scan = [&] {
    const auto now = Clock::now();
    double median = 0.0;
    const bool can_speculate =
        options.speculative_execution && num_tasks > 1 &&
        pstats->durations.size() >=
            std::max<size_t>(1, options.speculative_min_completed);
    if (can_speculate) {
      scratch = pstats->durations;
      auto mid =
          scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
      std::nth_element(scratch.begin(), mid, scratch.end());
      median = *mid;
    }
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               now.time_since_epoch())
                               .count();
    // Elapsed execution time; negative while the attempt is still queued.
    auto exec_seconds = [now_ns](const Running& r) {
      const int64_t s = r.started_ns->load(std::memory_order_acquire);
      return s == 0 ? -1.0 : static_cast<double>(now_ns - s) * 1e-9;
    };
    for (size_t t = 0; t < num_tasks; ++t) {
      TaskState& ts = tasks[t];
      if (ts.done) continue;
      if (deadline > 0.0) {
        for (Running& r : ts.running) {
          // Wake dawdling attempts; they self-report DeadlineExceeded.
          if (exec_seconds(r) > deadline) r.cancel->Cancel();
        }
      }
      if (can_speculate && !ts.backup_launched && ts.running.size() == 1) {
        const double elapsed = exec_seconds(ts.running[0]);
        if (elapsed > options.speculative_multiplier * median &&
            elapsed > 1e-3) {
          ts.backup_launched = true;
          ++pstats->speculative_launches;
          launch(t, /*speculative=*/true);
        }
      }
    }
  };

  for (size_t t = 0; t < num_tasks; ++t) launch(t, /*speculative=*/false);

  const bool needs_monitor = deadline > 0.0 || options.speculative_execution;
  std::unique_lock<std::mutex> lock(mu);
  while (completed < num_tasks && job_error.ok()) {
    if (events.empty()) {
      if (needs_monitor) {
        cv.wait_for(lock, std::chrono::milliseconds(1),
                    [&] { return !events.empty(); });
      } else {
        cv.wait(lock, [&] { return !events.empty(); });
      }
    }
    while (!events.empty() && job_error.ok()) {
      Event ev = std::move(events.front());
      events.pop_front();
      lock.unlock();
      --outstanding;
      TaskState& ts = tasks[ev.task];
      for (size_t r = 0; r < ts.running.size(); ++r) {
        if (ts.running[r].attempt == ev.attempt) {
          ts.running.erase(ts.running.begin() +
                           static_cast<std::ptrdiff_t>(r));
          break;
        }
      }
      if (!ts.done) {
        if (ev.status.ok()) {
          // First finisher commits; commits happen only on this thread, so
          // "first" is well-defined and race-free.
          ts.done = true;
          ++completed;
          completed_for_heartbeat.store(completed, std::memory_order_relaxed);
          (*outputs)[ev.task] = std::move(ev.out);
          pstats->durations.push_back(ev.seconds);
          attempt_hist->RecordSeconds(ev.seconds);
          if (ev.speculative) ++pstats->speculative_wins;
          for (Running& r : ts.running) r.cancel->Cancel();
        } else if (ev.status.IsCancelled()) {
          // Legitimate cancellations come from a sibling's commit (task
          // done, filtered above) or a job abort (drained below). Reaching
          // here means a monitor Cancel raced an attempt that had not
          // produced work yet: relaunch so the task is not orphaned. Not a
          // failure, so it does not consume the attempt budget.
          launch(ev.task, /*speculative=*/false);
        } else {
          if (ev.exception) ++pstats->exceptions;
          if (ev.status.IsDeadlineExceeded()) ++pstats->deadline_kills;
          ++ts.failed_attempts;
          if (ev.status.IsIoError()) {
            // Corrupt shuffle data is deterministic: retrying would re-read
            // the same bytes. Fail fast and stop sibling partitions early.
            job_error = ev.status;
          } else if (ts.failed_attempts >= options.max_task_attempts) {
            job_error = Status::Internal(
                std::string(phase_name) + " task " +
                std::to_string(ev.task) + " failed after " +
                std::to_string(options.max_task_attempts) +
                " attempts; last error: " + ev.status.ToString());
          } else {
            ++pstats->retries;
            launch(ev.task, /*speculative=*/false);
          }
          if (!job_error.ok()) cancel_all();
        }
      }
      lock.lock();
    }
    if (job_error.ok() && needs_monitor && completed < num_tasks) {
      lock.unlock();
      monitor_scan();
      lock.lock();
    }
  }
  // Drain abandoned attempts before returning: submitted closures reference
  // this stack frame.
  while (outstanding > 0) {
    cv.wait(lock, [&] { return !events.empty(); });
    while (!events.empty()) {
      events.pop_front();
      --outstanding;
    }
  }
  return job_error;
}

/// The supervised counterpart of RunRobustPhase: runs the phase's tasks on
/// forked workers — or, with `remote`, on exec'd ddp_worker processes from
/// `options.remote_pool` — under a WorkerSupervisor. Each worker runs
/// RunWorkerAttempt; the parent decodes each committed result payload into
/// a fresh slot and grafts the attempt's streamed runs back in.
Status RunSupervisedPhase(const PhaseSpec& spec, const Options& options,
                          const std::string& spill_dir, bool remote,
                          PhaseStats* pstats, JobCounters* counters,
                          TaskSlots* outputs) {
  outputs->clear();
  outputs->resize(spec.num_tasks);
  if (spec.num_tasks == 0) return Status::OK();

  SupervisorConfig cfg;
  cfg.job_name = spec.chaos.job_name;
  cfg.phase = spec.chaos.phase;
  cfg.num_workers = options.ResolvedWorkers();
  cfg.num_tasks = spec.num_tasks;
  cfg.max_task_attempts = options.max_task_attempts;
  cfg.max_worker_restarts = options.max_worker_restarts;
  cfg.quarantine_after_crashes = options.quarantine_after_crashes;
  cfg.skip_bad_records = options.skip_bad_records;
  cfg.task_deadline_seconds = options.task_deadline_seconds;
  cfg.backoff_seed = options.faults.seed;
  cfg.spill_dir = spill_dir;
  cfg.progress_heartbeat_seconds = options.heartbeat_seconds;
  // The shuffle backpressure window tracks the job's memory budget: a
  // budgeted job bounds its shipped-but-uncommitted bytes the same way it
  // bounds its map buffers (floored at 4 KiB so tiny test budgets still
  // make progress one frame at a time). 0 lets the supervisor default.
  cfg.stream_window_bytes =
      options.memory_budget_bytes > 0
          ? std::max<uint64_t>(options.memory_budget_bytes, 4096)
          : 0;
  if (remote) {
    cfg.remote_pool = options.remote_pool;
    cfg.remote_setup_payload = spec.remote_setup;
    cfg.remote_task_input = spec.remote_input;
  }

  // Runs in a forked worker, whose input rode copy-on-write. Remote
  // workers run the same wrapper, rebuilt from the JobSetupMsg
  // (remote_job.h).
  const SlotCodec& codec = *spec.codec;
  WorkerTaskFn fn = [&](uint64_t t, uint64_t attempt, bool quarantined,
                        const std::string& /*input*/,
                        TaskResult* result) -> Status {
    std::unique_ptr<TaskSlot> slot = spec.new_slot();
    return RunWorkerAttempt(spec.chaos, t, attempt, quarantined, spec.body,
                            codec, slot.get(), result);
  };

  obs::Histogram* attempt_hist = obs::MetricsRegistry::Global().GetHistogram(
      spec.chaos.phase == 0 ? obs::kMetricMrMapAttemptSeconds
                            : obs::kMetricMrReduceAttemptSeconds);

  // Runs in the supervising parent, in result-frame order.
  CommitFn commit = [&](size_t t, bool quarantined, double seconds,
                        std::string payload,
                        std::vector<SpillRun> runs) -> Status {
    std::unique_ptr<TaskSlot> out = spec.new_slot();
    BufferReader r(payload);
    Status st = codec.deserialize(&r, out.get());
    if (st.ok() && !r.exhausted()) {
      st = Status::IoError("task result decoded short of its payload");
    }
    if (!st.ok()) {
      return Status::IoError("task " + std::to_string(t) +
                             " result payload: " + st.message());
    }
    if (codec.inject_runs) {
      DDP_RETURN_NOT_OK(codec.inject_runs(std::move(runs), out.get()));
    } else if (!runs.empty()) {
      return Status::IoError("unexpected streamed runs in task " +
                             std::to_string(t) + " result");
    }
    (*outputs)[t] = std::move(out);
    pstats->durations.push_back(seconds);
    attempt_hist->RecordSeconds(seconds);
    // A quarantined task is one suppressed poisonous record, routed through
    // the same skip accounting as corrupt-record skips.
    if (quarantined) ++counters->skipped_records;
    return Status::OK();
  };

  SupervisorStats sstats;
  Status st = WorkerSupervisor::RunPhase(cfg, fn, commit, &sstats);
  pstats->retries += sstats.retries;
  pstats->deadline_kills += sstats.deadline_kills;
  counters->worker_crashes += sstats.worker_crashes;
  counters->worker_hangs += sstats.worker_hangs;
  counters->worker_kills += sstats.worker_kills;
  counters->worker_restarts += sstats.worker_restarts;
  counters->quarantined_tasks += sstats.quarantined_tasks;
  counters->spill_files_reaped += sstats.spill_files_reaped;
  counters->shuffle_streamed_bytes += sstats.shuffle_streamed_bytes;
  counters->shuffle_resent_runs += sstats.shuffle_resent_runs;
  counters->channel_reconnects += sstats.channel_reconnects;
  counters->workers_registered += sstats.workers_registered;
  counters->workers_evicted += sstats.workers_evicted;
  counters->tasks_reassigned += sstats.tasks_reassigned;
  return st;
}

/// The encoded JobSetupMsg a remote worker installs for one phase: the
/// registry id naming the task body plus everything a fork closure would
/// capture.
std::string EncodeRemoteSetup(const JobTasks& job, const Options& options,
                              size_t num_partitions, int phase) {
  JobSetupMsg setup;
  setup.job_id = job.remote_task_id;
  setup.job_name = job.name;
  setup.phase = static_cast<uint32_t>(phase);
  if (job.remote_ctx) {
    BufferWriter cw(&setup.ctx);
    job.remote_ctx(&cw);
  }
  setup.num_partitions = num_partitions;
  setup.memory_budget_bytes = options.memory_budget_bytes;
  setup.spill_dir = options.spill_dir;  // resolved on the worker's host
  setup.skip_bad_records = options.skip_bad_records;
  setup.faults = options.faults;
  return setup.Encode();
}

/// A remote reduce task's input: partition `p`'s runs by value, in merge
/// order, as (is_run, frame bytes) pairs in the layout of
/// Serde<std::vector<std::pair<uint8_t, std::string>>> — disk runs read
/// back off the supervisor's spill files and CRC-stripped. The worker
/// merges MemoryFrameReaders over the shipped bytes; the run order and the
/// is_run flags keep tie-breaks and merge_passes bit-identical to a local
/// reduce.
Result<std::string> EncodeReduceSources(
    const std::vector<MapTaskOutput>& map_outputs, size_t p) {
  const std::vector<const SpillRun*> runs = PartitionRuns(map_outputs, p);
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(runs.size());
  for (const SpillRun* run : runs) {
    if (run->file != nullptr) {
      DDP_ASSIGN_OR_RETURN(
          std::string seg,
          ReadFileExtent(run->file->path(), run->offset, run->length));
      DDP_RETURN_NOT_OK(VerifyAndStripRunTrailer(&seg));
      w.PutByte(1);
      w.PutString(seg);
    } else {
      w.PutByte(0);
      w.PutString(run->bytes);
    }
  }
  return bytes;
}

/// Merges both phases' robustness accounting into the counters.
void CountAttempts(const PhaseStats& map, const PhaseStats& reduce,
                   JobCounters* counters) {
  counters->map_task_retries = map.retries;
  counters->reduce_task_retries = reduce.retries;
  counters->speculative_launches =
      map.speculative_launches + reduce.speculative_launches;
  counters->speculative_wins = map.speculative_wins + reduce.speculative_wins;
  counters->deadline_kills = map.deadline_kills + reduce.deadline_kills;
  counters->task_exceptions = map.exceptions + reduce.exceptions;
  std::vector<double> durations = map.durations;
  durations.insert(durations.end(), reduce.durations.begin(),
                   reduce.durations.end());
  if (durations.empty()) return;
  std::sort(durations.begin(), durations.end());
  const size_t n = durations.size();
  counters->median_attempt_seconds = durations[n / 2];
  counters->p99_attempt_seconds = durations[(n - 1) * 99 / 100];
  counters->max_attempt_seconds = durations.back();
  counters->straggler_ratio =
      counters->median_attempt_seconds > 0.0
          ? counters->max_attempt_seconds / counters->median_attempt_seconds
          : 1.0;
}

}  // namespace

SlotCodec MapSlotCodec(size_t num_partitions) {
  SlotCodec codec;
  codec.serialize = [](BufferWriter* w, TaskSlot& slot) {
    const MapTaskOutput& mo = static_cast<const MapTaskOutput&>(slot);
    Serde<std::vector<uint64_t>>::Write(w, mo.payload_bytes);
    w->PutVarint64(mo.records);
    w->PutVarint64(mo.combine_in);
    w->PutVarint64(mo.spilled_bytes);
    w->PutVarint64(mo.spill_files);
    w->PutDouble(mo.spill_seconds);
  };
  codec.deserialize = [](BufferReader* r, TaskSlot* slot) -> Status {
    MapTaskOutput* mo = static_cast<MapTaskOutput*>(slot);
    DDP_RETURN_NOT_OK(
        Serde<std::vector<uint64_t>>::Read(r, &mo->payload_bytes));
    DDP_RETURN_NOT_OK(r->GetVarint64(&mo->records));
    DDP_RETURN_NOT_OK(r->GetVarint64(&mo->combine_in));
    DDP_RETURN_NOT_OK(r->GetVarint64(&mo->spilled_bytes));
    DDP_RETURN_NOT_OK(r->GetVarint64(&mo->spill_files));
    return r->GetDouble(&mo->spill_seconds);
  };
  // Worker side: the attempt's runs as they are, in merge-ordinal order.
  // They keep the spill-file handles alive until the supervisor confirms
  // the commit.
  codec.extract_runs = [](TaskSlot& slot) {
    return std::move(static_cast<MapTaskOutput&>(slot).runs);
  };
  // Parent side: the runs in stream order, disk runs now extents of a
  // supervisor-owned spill file — so the reduce phase cannot tell how the
  // bytes arrived. Partition ids come from another process: check them.
  codec.inject_runs = [num_partitions](std::vector<SpillRun> runs,
                                       TaskSlot* slot) {
    for (const SpillRun& run : runs) {
      if (run.partition >= num_partitions) {
        return Status::IoError("streamed run names partition " +
                               std::to_string(run.partition) + " of " +
                               std::to_string(num_partitions));
      }
    }
    static_cast<MapTaskOutput*>(slot)->runs = std::move(runs);
    return Status::OK();
  };
  return codec;
}

Status RunWorkerAttempt(const ChaosParams& chaos, size_t task, size_t attempt,
                        bool quarantined, const TaskBody& body,
                        const SlotCodec& codec, TaskSlot* slot,
                        TaskResult* result) {
  const FaultInjection& faults = chaos.faults;
  // A poisonous task SIGKILLs its worker on every attempt
  // (attempt-independent hash) until quarantine suppresses it; a crash
  // event kills this one attempt's worker, before the body ("mid-map") or
  // while streaming its runs, result unsent ("mid-shuffle"), by a second
  // hash bit. Quarantine suppresses both so the committed bytes match the
  // in-process run.
  bool crash_mid_shuffle = false;
  if (!quarantined) {
    if (ShouldInjectFailure(faults, faults.poison_task_rate, chaos.job_name,
                            chaos.phase + 8, task, /*attempt=*/0)) {
      CrashSelf();
    }
    if (ShouldInjectFailure(faults, faults.worker_crash_rate, chaos.job_name,
                            chaos.phase + 6, task, attempt)) {
      if (ShouldInjectFailure(faults, 0.5, chaos.job_name, chaos.phase + 10,
                              task, attempt)) {
        CrashSelf();  // mid-map: the body never ran
      }
      crash_mid_shuffle = true;  // die at a run boundary mid-stream
    }
  }
  CancelToken cancel;  // hung workers are killed, not cancelled
  Stopwatch watch;
  Status st = body(task, &cancel, slot);
  InjectAttemptChaos(chaos, task, attempt, watch, &cancel, &st);
  if (!st.ok()) {
    if (crash_mid_shuffle) CrashSelf();  // parity: the worker still dies
    return st;
  }
  if (codec.extract_runs) result->runs = codec.extract_runs(*slot);
  if (crash_mid_shuffle) {
    result->crash_after_runs = static_cast<int64_t>(result->runs.size() / 2);
  }
  // Only a worker that can redial acts on the drop marker (WorkerLoop
  // ignores it without a reconnect factory), so forked workers roll the
  // same hash and carry on.
  if (ShouldInjectFailure(faults, faults.channel_drop_rate, chaos.job_name,
                          chaos.phase + 12, task, attempt)) {
    result->drop_after_runs = static_cast<int64_t>(result->runs.size() / 2);
  }
  BufferWriter w(&result->payload);
  codec.serialize(&w, *slot);
  return Status::OK();
}

Status RunJobTasks(const JobTasks& job, const Options& options,
                   JobCounters* counters_out) {
  // Cooperative cancellation checks run at job boundaries: here (before any
  // work, including checkpoint replay) and again between map and reduce.
  auto cancelled = [&options]() {
    return options.cancel_flag != nullptr &&
           options.cancel_flag->load(std::memory_order_relaxed);
  };
  if (cancelled()) {
    return Status::Cancelled("job " + job.name + " cancelled before start");
  }

  JobCounters counters;
  counters.job_name = job.name;
  counters.map_input_records = job.input_records;

  // One span per MR job, named after it; phase spans and worker-side
  // attempt spans nest inside (the latter by thread, not containment).
  DDP_TRACE_SPAN(job_span, obs::kCatJob, job.name);
  if (job_span.active()) {
    job_span.AddArg("input_records", static_cast<uint64_t>(job.input_records));
  }
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrJobs, 1);

  // ---- Checkpoint replay: a completed job's output is served from the
  // store, bit-identical, without re-running anything. The key sequence
  // advances even for non-replayable jobs so pipelines keep stable keys.
  std::string checkpoint_key;
  if (options.checkpoint != nullptr) {
    checkpoint_key = options.checkpoint->NextKey(job.name);
    if (job.replay) {
      Result<std::string> bytes = options.checkpoint->LoadBytes(checkpoint_key);
      if (bytes.ok()) {
        Result<uint64_t> records = job.replay(*bytes);
        if (records.ok()) {
          counters.loaded_from_checkpoint = true;
          counters.reduce_output_records = *records;
          job_span.AddArg("replayed_from_checkpoint", "true");
          if (counters_out != nullptr) *counters_out = counters;
          return Status::OK();
        }
        // Unreadable entry: treat as absent and recompute.
        DDP_LOG(Warning) << "checkpoint " << checkpoint_key
                         << " unreadable; re-running job";
      }
    }
  }

  Stopwatch job_timer;
  const size_t num_partitions = options.ResolvedPartitions();
  // Where the phases run: on the substrate the options ask for, or nowhere.
  // Both supervised modes ship reduce outputs back as bytes; a remote job
  // also needs a pool, a registered task id and a map-input codec.
  auto missing = [&](const std::string& what) {
    job_span.MarkCancelled();
    return Status::InvalidArgument("job " + job.name + ": " + what);
  };
  const bool remote = options.exec_mode == ExecMode::kRemote;
  std::unique_ptr<ThreadPool> pool;
  switch (options.exec_mode) {
    case ExecMode::kInProc:
      pool = std::make_unique<ThreadPool>(options.ResolvedWorkers());
      break;
    case ExecMode::kRemote:
      if (options.remote_pool == nullptr) {
        return missing("exec mode remote needs Options::remote_pool");
      }
      if (job.remote_task_id.empty()) {
        return missing("exec mode remote needs JobSpec::remote_task_id");
      }
      if (job.map_input == nullptr) {
        return missing("exec mode remote needs a Serde for the input type");
      }
      [[fallthrough]];
    case ExecMode::kFork:
      if (!job.reduce_codec.serialize) {
        return missing("a worker process needs a Serde for the output type");
      }
      if (!remote && !ForkExecutionSupported()) {
        return missing("exec mode fork is unsupported in a TSan build");
      }
      break;
  }
  if (job_span.active() && pool == nullptr) {
    job_span.AddArg("exec_mode", remote ? "remote" : "fork");
  }
  const bool spilling = options.memory_budget_bytes > 0;
  MapTaskParams params;
  params.num_partitions = num_partitions;
  params.memory_budget_bytes = options.memory_budget_bytes;
  params.faults = options.faults;
  if (spilling) {
    params.spill_dir = ResolveSpillDir(options.spill_dir);
    // Startup reap: spill files stamped with the pid of a process that no
    // longer exists are leftovers of a crashed run; delete them before this
    // job adds its own.
    counters.spill_files_reaped += ReapOrphanSpillFiles(params.spill_dir);
  }

  // The one engine entry: the in-process scheduler, or a supervised phase.
  auto run_phase = [&](PhaseSpec* spec, PhaseStats* stats,
                       TaskSlots* outputs) -> Status {
    if (pool != nullptr) {
      return RunRobustPhase(pool.get(), *spec, options, stats, outputs);
    }
    if (remote) {
      spec->remote_setup =
          EncodeRemoteSetup(job, options, num_partitions, spec->chaos.phase);
    }
    return RunSupervisedPhase(*spec, options, params.spill_dir, remote, stats,
                              &counters, outputs);
  };

  // ---- Map phase. Each task's output is its sorted runs, in memory or
  // (under a memory budget) spilled to disk; the RAII file handles inside
  // the disk runs unlink the spill files when map_outputs dies.
  Stopwatch map_timer;
  DDP_TRACE_SPAN(map_span, obs::kCatMr, obs::kSpanMapPhase);
  if (map_span.active()) {
    map_span.AddArg("job", job.name);
    map_span.AddArg("tasks", static_cast<uint64_t>(job.num_map_tasks));
  }
  const SlotCodec map_codec = MapSlotCodec(num_partitions);
  PhaseSpec map;
  map.chaos = {options.faults, options.faults.map_failure_rate, job.name, 0};
  map.num_tasks = job.num_map_tasks;
  map.new_slot = [] { return std::make_unique<MapTaskOutput>(); };
  map.body = [&](size_t t, CancelToken* cancel, TaskSlot* slot) {
    return job.map(t, params, cancel, static_cast<MapTaskOutput*>(slot));
  };
  map.codec = &map_codec;
  map.remote_input = job.map_input;
  PhaseStats map_stats;
  TaskSlots map_slots;
  Status st = run_phase(&map, &map_stats, &map_slots);
  if (!st.ok()) {
    map_span.MarkCancelled();
    job_span.MarkCancelled();
    return st;
  }
  counters.map_seconds = map_timer.ElapsedSeconds();
  map_span.End();
  std::vector<MapTaskOutput> map_outputs;
  map_outputs.reserve(map_slots.size());
  for (std::unique_ptr<TaskSlot>& slot : map_slots) {
    MapTaskOutput& mo = static_cast<MapTaskOutput&>(*slot);
    counters.map_output_records += mo.records;
    counters.combine_input_records += mo.combine_in;
    counters.spilled_bytes += mo.spilled_bytes;
    counters.spill_files += mo.spill_files;
    counters.spill_seconds += mo.spill_seconds;
    map_outputs.push_back(std::move(mo));
  }

  // ---- Shuffle. Byte counters report payload (key/value encodings),
  // excluding frame headers and injected poison, so they stay comparable to
  // the paper's figures. Nothing moves: reduce merge-streams straight out
  // of the map outputs' runs.
  Stopwatch shuffle_timer;
  DDP_TRACE_SPAN(shuffle_span, obs::kCatMr, obs::kSpanShufflePhase);
  if (shuffle_span.active()) shuffle_span.AddArg("job", job.name);
  for (size_t p = 0; p < num_partitions; ++p) {
    uint64_t payload = 0;
    for (const MapTaskOutput& mo : map_outputs) payload += mo.payload_bytes[p];
    counters.shuffle_bytes += payload;
    counters.max_partition_bytes =
        std::max<uint64_t>(counters.max_partition_bytes, payload);
  }
  counters.shuffle_records = counters.map_output_records;
  counters.shuffle_seconds = shuffle_timer.ElapsedSeconds();
  if (shuffle_span.active()) {
    shuffle_span.AddArg("bytes", counters.shuffle_bytes);
    shuffle_span.AddArg("records", counters.shuffle_records);
  }
  shuffle_span.End();

  if (cancelled()) {
    job_span.MarkCancelled();
    return Status::Cancelled("job " + job.name +
                             " cancelled at the map/reduce boundary");
  }

  // ---- Reduce phase: per partition, merge-stream the sorted runs, group
  // and reduce. Reading the shuffle lives inside the attempt (a lost Hadoop
  // reduce task re-fetches its shuffle input too), so retries and
  // speculative attempts are self-contained; map_outputs is read-only
  // here, so concurrent attempts share it safely.
  Stopwatch reduce_timer;
  DDP_TRACE_SPAN(reduce_span, obs::kCatMr, obs::kSpanReducePhase);
  if (reduce_span.active()) {
    reduce_span.AddArg("job", job.name);
    reduce_span.AddArg("partitions", static_cast<uint64_t>(num_partitions));
    if (spilling) reduce_span.AddArg("spilling", "true");
  }
  PhaseSpec reduce;
  reduce.chaos = {options.faults, options.faults.reduce_failure_rate,
                  job.name, 1};
  reduce.num_tasks = num_partitions;
  reduce.new_slot = job.new_reduce_slot;
  reduce.body = [&](size_t p, CancelToken* cancel, TaskSlot* slot) {
    std::vector<std::unique_ptr<FrameStream>> streams;
    bool any_run = false;
    for (const SpillRun* run : PartitionRuns(map_outputs, p)) {
      if (run->file != nullptr) {
        streams.push_back(std::make_unique<SpillSegmentReader>(
            run->file, run->offset, run->length));
        any_run = true;
      } else {
        streams.push_back(std::make_unique<MemoryFrameReader>(run->bytes));
      }
    }
    return job.reduce(p, std::move(streams), any_run, cancel, slot);
  };
  reduce.codec = &job.reduce_codec;
  reduce.remote_input = [&map_outputs](size_t p) {
    return EncodeReduceSources(map_outputs, p);
  };
  PhaseStats reduce_stats;
  TaskSlots reduce_slots;
  st = run_phase(&reduce, &reduce_stats, &reduce_slots);
  if (!st.ok()) {
    reduce_span.MarkCancelled();
    job_span.MarkCancelled();
    return st;
  }
  // Dropping the map outputs releases the spill-run handles: the last
  // reference to each spill file unlinks it, so the spill dir is empty again
  // once the job's reduce phase is done.
  map_outputs.clear();
  map_outputs.shrink_to_fit();
  counters.reduce_seconds = reduce_timer.ElapsedSeconds();
  reduce_span.End();
  for (const std::unique_ptr<TaskSlot>& slot : reduce_slots) {
    const ReduceTaskStats& ro = static_cast<const ReduceTaskStats&>(*slot);
    counters.reduce_input_groups += ro.groups;
    counters.skipped_records += ro.skipped;
    counters.merge_passes += ro.merge_passes;
    if (counters.group_size_log2_histogram.size() < ro.group_size_log2.size()) {
      counters.group_size_log2_histogram.resize(ro.group_size_log2.size(), 0);
    }
    for (size_t b = 0; b < ro.group_size_log2.size(); ++b) {
      counters.group_size_log2_histogram[b] += ro.group_size_log2[b];
    }
  }
  CountAttempts(map_stats, reduce_stats, &counters);

  // ---- Collect outputs (partition-major deterministic order).
  counters.reduce_output_records = job.collect(reduce_slots);
  counters.total_seconds = job_timer.ElapsedSeconds();
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrJobSeconds, counters.total_seconds);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleBytes, counters.shuffle_bytes);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleRecords, counters.shuffle_records);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrSpilledBytes, counters.spilled_bytes);
  if (job_span.active()) {
    job_span.AddArg("shuffle_bytes", counters.shuffle_bytes);
    job_span.AddArg("output_records", counters.reduce_output_records);
  }
  counters.modeled_seconds = counters.total_seconds;
  if (options.modeled_shuffle_bandwidth > 0.0) {
    counters.modeled_seconds += static_cast<double>(counters.shuffle_bytes) /
                                options.modeled_shuffle_bandwidth;
  }

  // ---- Persist for job-boundary recovery. A Cancelled save is the
  // simulated driver kill and aborts the pipeline; any other save error is
  // best-effort (the job merely re-runs on resume).
  if (options.checkpoint != nullptr && job.save) {
    BufferWriter w;
    job.save(&w);
    Status saved = options.checkpoint->SaveBytes(checkpoint_key, w.data());
    if (saved.IsCancelled()) return saved;
    if (!saved.ok()) {
      DDP_LOG(Warning) << "checkpoint save failed for " << checkpoint_key
                       << ": " << saved.ToString();
    }
  }

  // Per-submission progress feed: dynamic names cannot use the
  // static-caching DDP_METRIC_COUNTER_ADD macro, so look the counter up.
  if (!options.metrics_prefix.empty()) {
    obs::MetricsRegistry::Global()
        .GetCounter(options.metrics_prefix + ".mr_jobs")
        ->Add(1);
  }

  if (counters_out != nullptr) *counters_out = counters;
  return Status::OK();
}

}  // namespace internal
}  // namespace mr
}  // namespace ddp
