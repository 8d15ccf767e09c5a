#include "mapreduce/phase.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
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
  // The name is hashed to 64 bits first (FNV-1a); then seed, phase, task and
  // attempt are folded in, each through SplitMix64's finalizer, whose every
  // input bit moves every output bit. So names one character apart draw
  // coins as independent as neighbouring seeds, tasks or attempts do.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : job_name) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  for (const uint64_t field :
       {faults.seed, static_cast<uint64_t>(phase), static_cast<uint64_t>(task),
        static_cast<uint64_t>(attempt)}) {
    h ^= field;
    h = SplitMix64(&h);
  }
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

void ReduceTaskStats::CountGroup(size_t size) {
  ++groups;
  const size_t bucket = static_cast<size_t>(std::bit_width(size)) - 1;
  if (group_size_log2.size() <= bucket) group_size_log2.resize(bucket + 1, 0);
  ++group_size_log2[bucket];
}

namespace {

using Clock = std::chrono::steady_clock;

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

/// One phase as the engine runs it.
struct PhaseSpec {
  ChaosParams chaos;  // job name, phase and its failure rate
  size_t num_tasks = 0;
  std::function<std::unique_ptr<TaskSlot>()> new_slot;
  TaskBody body;
  const SlotCodec* codec = nullptr;
  /// Remote crews: one task's input by value.
  std::function<Result<std::string>(size_t task)> remote_input;
};

/// The in-process crew's PhaseIo: a link is a logical worker on the job's
/// ThreadPool. The machine is only touched under `mu_`. The pool thread
/// that finishes an attempt hands the machine its verdict, then runs what
/// the machine dispatched to its own link and submits the rest, so no
/// thread wakes per task; the calling thread only ticks. No slot is
/// serialized: the commit takes the reporting attempt's slot.
class InProcDriver : public PhaseIo {
 public:
  InProcDriver(ThreadPool* pool, const PhaseSpec& spec, const Options& options,
               JobCounters* counters)
      : pool_(pool), spec_(spec), options_(options), counters_(counters) {}

  /// The slot of the attempt whose verdict the machine is reading.
  std::unique_ptr<TaskSlot> TakeReported() { return std::move(reported_); }

  /// Runs `machine` until the phase is done, tears it down, and waits for
  /// the attempts still on pool threads, which reference this frame.
  Status Run(PhaseMachine* machine) {
    std::unique_lock<std::mutex> lock(mu_);
    machine_ = machine;
    DDP_RETURN_NOT_OK(machine->Start({}, Now()));
    while (!machine->done()) {
      machine->Tick(Now());
      for (uint64_t link : std::exchange(started_, {})) Launch(link);
      idle_.wait_for(lock, std::chrono::milliseconds(10),
                     [machine] { return machine->done(); });
    }
    const Status status = machine->Teardown();
    idle_.wait(lock, [this] { return running_ == 0; });
    return status;
  }

  Status Send(uint64_t link, const Frame& frame) override {
    if (frame.type != MessageType::kTaskAssign) return Status::OK();
    Worker& w = workers_[link - 1];
    DDP_RETURN_NOT_OK(TaskAssignMsg::Decode(frame.payload, &w.assign));
    w.cancel = std::make_unique<CancelToken>();
    started_.push_back(link);
    return Status::OK();
  }
  Result<std::pair<uint64_t, uint64_t>> Spawn(uint64_t) override {
    workers_.emplace_back();
    return std::make_pair(uint64_t{workers_.size()}, uint64_t{0});
  }
  bool KillAndReap(uint64_t, double) override { return false; }
  void Close(uint64_t) override {}
  void Park(uint64_t, uint64_t) override {}
  Result<SpillRun> AppendRun(const RunBeginMsg&, std::string_view) override {
    return Status::Internal("an in-process attempt streams no runs");
  }
  void Cancel(uint64_t link) override { workers_[link - 1].cancel->Cancel(); }

 private:
  /// A logical worker's attempt; rewritten only while the worker is idle.
  struct Worker {
    TaskAssignMsg assign;
    std::unique_ptr<CancelToken> cancel;
  };

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  // Under mu_: one more attempt on a pool thread.
  void Launch(uint64_t link) {
    ++running_;
    pool_->Submit([this, link] { Serve(link); });
  }

  // A pool thread's loop: run the attempt on `link`, report its verdict,
  // and go on with the next attempt the machine hands the same link.
  void Serve(uint64_t link) {
    for (bool more = true; more;) {
      const Worker& w = workers_[link - 1];
      std::unique_ptr<TaskSlot> slot;
      bool threw = false;
      ResultMsg verdict = RunAttempt(w.assign, w.cancel.get(), &slot, &threw);
      std::lock_guard<std::mutex> lock(mu_);
      if (threw) ++counters_->task_exceptions;
      reported_ = std::move(slot);
      machine_->OnResult(link, std::move(verdict), Now());
      reported_.reset();
      more = std::erase(started_, link) > 0;
      for (uint64_t other : std::exchange(started_, {})) Launch(other);
      if ((!more && --running_ == 0) || machine_->done()) idle_.notify_all();
    }
  }

  // One attempt on this thread, with the chaos every substrate rolls. Its
  // span nests under what the attempt traces; a cancelled or
  // deadline-killed attempt's span is flushed marked cancelled.
  ResultMsg RunAttempt(const TaskAssignMsg& a, CancelToken* cancel,
                       std::unique_ptr<TaskSlot>* slot, bool* threw) {
    const char* phase_name = PhaseName(spec_.chaos.phase);
    DDP_TRACE_SPAN(span, obs::kCatMr,
                   spec_.chaos.phase == 0 ? obs::kSpanMapAttempt
                                          : obs::kSpanReduceAttempt);
    if (span.active()) {
      span.AddArg("job", spec_.chaos.job_name);
      span.AddArg("task", a.task);
      span.AddArg("attempt", a.attempt);
    }
    Status st;
    Stopwatch watch;
    if (cancel->cancelled()) {
      st = Status::Cancelled("attempt cancelled before start");
    } else {
      *slot = spec_.new_slot();
      try {
        st = spec_.body(a.task, cancel, slot->get());
      } catch (const std::exception& e) {
        st = Status::Internal(std::string(phase_name) +
                              " function threw: " + e.what());
        *threw = true;
      } catch (...) {
        st = Status::Internal(std::string(phase_name) +
                              " function threw a non-std exception");
        *threw = true;
      }
      InjectAttemptChaos(spec_.chaos, a.task, a.attempt, watch, cancel, &st);
    }
    const double seconds = watch.ElapsedSeconds();
    // Under a deadline, an attempt that overran it or was cancelled (for
    // it, unless it lost a race and its verdict no longer matters) failed.
    const double deadline = options_.task_deadline_seconds;
    if (deadline > 0.0 && (seconds > deadline || cancel->cancelled()) &&
        (st.ok() || st.IsCancelled())) {
      st = Status::DeadlineExceeded(std::string(phase_name) +
                                    " attempt overran the " +
                                    std::to_string(deadline) +
                                    "s task deadline");
    }
    if (span.active() && !st.ok()) {
      if (st.IsCancelled() || st.IsDeadlineExceeded()) span.MarkCancelled();
      span.AddArg("status", st.ToString());
    }
    ResultMsg verdict;
    verdict.task = a.task;
    verdict.attempt = a.attempt;
    verdict.status_code = static_cast<int32_t>(st.code());
    verdict.status_message = st.message();
    verdict.seconds = seconds;
    return verdict;
  }

  ThreadPool* const pool_;
  const PhaseSpec& spec_;
  const Options& options_;
  JobCounters* const counters_;
  const Clock::time_point start_ = Clock::now();

  std::mutex mu_;
  std::condition_variable idle_;  // the machine is done, or running_ is 0
  PhaseMachine* machine_ = nullptr;
  std::vector<Worker> workers_;     // by link - 1
  std::vector<uint64_t> started_;   // links the machine just dispatched to
  size_t running_ = 0;              // attempts on pool threads
  std::unique_ptr<TaskSlot> reported_;
};

/// The one engine entry: runs the phase under a PhaseMachine on the crew
/// `options` asks for — logical workers on `pool`, forked workers, or
/// exec'd ddp_workers that install `remote_setup` (a JobSetupMsg). Each
/// committed slot lands in `outputs`, its seconds in `durations`. A worker
/// process runs RunWorkerAttempt; the parent decodes each committed result
/// payload into a fresh slot and grafts its streamed runs back in.
Status RunPhase(ThreadPool* pool, const PhaseSpec& spec,
                std::string remote_setup, const Options& options,
                JobCounters* counters, std::vector<double>* durations,
                TaskSlots* outputs) {
  outputs->clear();
  outputs->resize(spec.num_tasks);
  if (spec.num_tasks == 0) return Status::OK();
  const SupervisedPhase phase{spec.chaos.job_name, spec.chaos.phase,
                              spec.num_tasks, std::move(remote_setup),
                              spec.remote_input};

  obs::Histogram* attempt_hist = obs::MetricsRegistry::Global().GetHistogram(
      spec.chaos.phase == 0 ? obs::kMetricMrMapAttemptSeconds
                            : obs::kMetricMrReduceAttemptSeconds);
  std::atomic<size_t> committed{0};
  // Every commit, on every crew, lands here.
  auto record = [&](size_t t, bool quarantined, double seconds,
                    std::unique_ptr<TaskSlot> slot) {
    (*outputs)[t] = std::move(slot);
    durations->push_back(seconds);
    attempt_hist->RecordSeconds(seconds);
    // A quarantined task is one suppressed poisonous record, routed through
    // the same skip accounting as corrupt-record skips.
    if (quarantined) ++counters->skipped_records;
    committed.fetch_add(1, std::memory_order_relaxed);
  };

  std::optional<obs::ProgressHeartbeat> heartbeat;
  if (options.heartbeat_seconds > 0.0) {
    // One progress line for every substrate, naming it.
    const std::string line =
        phase.job_name + " " + PhaseName(phase.phase) + " (" +
        (pool != nullptr                             ? "inproc"
         : options.exec_mode == ExecMode::kRemote ? "remote"
                                                  : "fork") +
        "): ";
    heartbeat.emplace(options.heartbeat_seconds, [&, line] {
      const size_t done = committed.load(std::memory_order_relaxed);
      return line + std::to_string(done) + "/" +
             std::to_string(phase.num_tasks) + " tasks done";
    });
  }

  if (pool != nullptr) {
    InProcDriver driver(pool, spec, options, counters);
    PhaseMachine machine(
        options, phase,
        [&](size_t t, bool quarantined, double seconds, std::string,
            std::vector<SpillRun>) {
          record(t, quarantined, seconds, driver.TakeReported());
          return Status::OK();
        },
        counters, &driver);
    return driver.Run(&machine);
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
    record(t, quarantined, seconds, std::move(out));
    return Status::OK();
  };
  return WorkerSupervisor::RunPhase(options, phase, fn, commit, counters);
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
/// order, as frame bytes in the layout of Serde<std::vector<std::string>>
/// — disk runs read back off the supervisor's spill files and
/// CRC-stripped. The worker merges MemoryFrameReaders over the shipped
/// bytes; the run order keeps tie-breaks bit-identical to a local reduce.
Result<std::string> EncodeReduceSources(
    const std::vector<MapTaskOutput>& map_outputs, size_t p) {
  const std::vector<const SpillRun*> runs = PartitionRuns(map_outputs, p);
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(runs.size());
  for (const SpillRun* run : runs) {
    if (run->file != nullptr) {
      std::string seg(static_cast<size_t>(run->length), '\0');
      DDP_RETURN_NOT_OK(run->file->ReadAt(run->offset, seg.data(), seg.size()));
      DDP_RETURN_NOT_OK(VerifyAndStripRunTrailer(&seg));
      w.PutString(seg);
    } else {
      w.PutString(run->bytes);
    }
  }
  return bytes;
}

/// The committed-attempt duration distribution of both phases.
void CountAttemptDurations(std::vector<double> durations,
                           JobCounters* counters) {
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

std::string JobSpillDir(const Options& options) {
  return options.memory_budget_bytes > 0 ? ResolveSpillDir(options.spill_dir)
                                         : std::string();
}

SlotCodec MapSlotCodec(size_t num_partitions) {
  SlotCodec codec;
  codec.serialize = [](BufferWriter* w, TaskSlot& slot) {
    Serde<MapTaskOutput>::Write(w, static_cast<const MapTaskOutput&>(slot));
  };
  codec.deserialize = [](BufferReader* r, TaskSlot* slot) {
    return Serde<MapTaskOutput>::Read(r, static_cast<MapTaskOutput*>(slot));
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
  // ignores it on a forked worker), so forked workers roll the same hash
  // and carry on.
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
  // The registry learns the job's counters once, when the job ends,
  // however it ends.
  struct PublishAtExit {
    const JobCounters& counters;
    ~PublishAtExit() { counters.Publish(); }
  } publish{counters};

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
  MapTaskParams params;
  params.num_partitions = num_partitions;
  params.memory_budget_bytes = options.memory_budget_bytes;
  params.faults = options.faults;
  params.spill_dir = JobSpillDir(options);

  std::vector<double> durations;  // committed attempts of both phases
  auto run_phase = [&](const PhaseSpec* spec, TaskSlots* outputs) {
    return RunPhase(
        pool.get(), *spec,
        remote ? EncodeRemoteSetup(job, options, num_partitions,
                                   spec->chaos.phase)
               : std::string(),
        options, &counters, &durations, outputs);
  };

  // ---- Map phase. Each task's output is its sorted runs, in memory or
  // (under a memory budget) spilled to disk; the RAII file handles inside
  // the disk runs close, and so free, the spill files when map_outputs
  // dies.
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
  TaskSlots map_slots;
  Status st = run_phase(&map, &map_slots);
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
    if (options.memory_budget_bytes > 0) {
      reduce_span.AddArg("spilling", "true");
    }
  }
  PhaseSpec reduce;
  reduce.chaos = {options.faults, options.faults.reduce_failure_rate,
                  job.name, 1};
  reduce.num_tasks = num_partitions;
  reduce.new_slot = job.new_reduce_slot;
  reduce.body = [&](size_t p, CancelToken* cancel, TaskSlot* slot) {
    std::vector<std::unique_ptr<FrameStream>> streams;
    for (const SpillRun* run : PartitionRuns(map_outputs, p)) {
      if (run->file != nullptr) {
        streams.push_back(std::make_unique<SpillSegmentReader>(
            run->file, run->offset, run->length));
      } else {
        streams.push_back(std::make_unique<MemoryFrameReader>(run->bytes));
      }
    }
    return job.reduce(p, std::move(streams), cancel, slot);
  };
  reduce.codec = &job.reduce_codec;
  reduce.remote_input = [&map_outputs](size_t p) {
    return EncodeReduceSources(map_outputs, p);
  };
  TaskSlots reduce_slots;
  st = run_phase(&reduce, &reduce_slots);
  if (!st.ok()) {
    reduce_span.MarkCancelled();
    job_span.MarkCancelled();
    return st;
  }
  // One streaming pass merged each partition's runs; it counts as a merge
  // pass when a spilled run fed it, whichever substrate reduced it.
  for (size_t p = 0; p < num_partitions; ++p) {
    const std::vector<const SpillRun*> runs = PartitionRuns(map_outputs, p);
    if (std::any_of(runs.begin(), runs.end(), [](const SpillRun* run) {
          return run->file != nullptr;
        })) {
      ++counters.merge_passes;
    }
  }
  // Dropping the map outputs releases the spill-run handles: the last
  // reference to each spill file closes its descriptor, which frees it once
  // the job's reduce phase is done.
  map_outputs.clear();
  map_outputs.shrink_to_fit();
  counters.reduce_seconds = reduce_timer.ElapsedSeconds();
  reduce_span.End();
  for (const std::unique_ptr<TaskSlot>& slot : reduce_slots) {
    const ReduceTaskStats& ro = static_cast<const ReduceTaskStats&>(*slot);
    counters.reduce_input_groups += ro.groups;
    counters.skipped_records += ro.skipped;
    if (counters.group_size_log2_histogram.size() < ro.group_size_log2.size()) {
      counters.group_size_log2_histogram.resize(ro.group_size_log2.size(), 0);
    }
    for (size_t b = 0; b < ro.group_size_log2.size(); ++b) {
      counters.group_size_log2_histogram[b] += ro.group_size_log2[b];
    }
  }
  CountAttemptDurations(std::move(durations), &counters);

  // ---- Collect outputs (partition-major deterministic order).
  counters.reduce_output_records = job.collect(reduce_slots);
  counters.total_seconds = job_timer.ElapsedSeconds();
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrJobSeconds, counters.total_seconds);
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

  if (counters_out != nullptr) *counters_out = counters;
  return Status::OK();
}

}  // namespace internal
}  // namespace mr
}  // namespace ddp
