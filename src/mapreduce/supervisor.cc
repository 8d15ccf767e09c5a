#include "mapreduce/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/serde.h"
#include "mapreduce/counters.h"
#include "mapreduce/phase.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/spill.h"
#include "obs/heartbeat.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace ddp {
namespace mr {

bool ForkExecutionSupported() {
  bool supported = true;
  // TSan cannot instrument threads created in a forked child (the worker's
  // heartbeat thread), so a TSan build runs no forked workers.
#if defined(__SANITIZE_THREAD__)
  supported = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  supported = false;
#endif
#endif
  return supported;
}

std::string ResultMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(task);
  w.PutVarint64(attempt);
  w.PutSignedVarint64(status_code);
  w.PutString(status_message);
  w.PutDouble(seconds);
  w.PutString(payload);
  return bytes;
}

Status ResultMsg::Decode(const std::string& bytes, ResultMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->task));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->attempt));
  int64_t code = 0;
  DDP_RETURN_NOT_OK(r.GetSignedVarint64(&code));
  out->status_code = static_cast<int32_t>(code);
  DDP_RETURN_NOT_OK(r.GetString(&out->status_message));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->seconds));
  DDP_RETURN_NOT_OK(r.GetString(&out->payload));
  if (!r.exhausted()) return Status::IoError("trailing bytes in ResultMsg");
  return Status::OK();
}

std::string HelloMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(worker_id);
  return bytes;
}

Status HelloMsg::Decode(const std::string& bytes, HelloMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->worker_id));
  if (!r.exhausted()) return Status::IoError("trailing bytes in HelloMsg");
  return Status::OK();
}

std::string JobSetupMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutString(job_id);
  w.PutString(job_name);
  w.PutVarint64(phase);
  w.PutString(ctx);
  w.PutVarint64(num_partitions);
  w.PutVarint64(memory_budget_bytes);
  w.PutString(spill_dir);
  w.PutByte(skip_bad_records ? 1 : 0);
  w.PutVarint64(faults.seed);
  w.PutDouble(faults.map_failure_rate);
  w.PutDouble(faults.reduce_failure_rate);
  w.PutDouble(faults.straggler_rate);
  w.PutDouble(faults.straggler_slowdown);
  w.PutDouble(faults.straggler_min_seconds);
  w.PutDouble(faults.corruption_rate);
  w.PutDouble(faults.worker_crash_rate);
  w.PutDouble(faults.poison_task_rate);
  w.PutDouble(faults.channel_drop_rate);
  return bytes;
}

Status JobSetupMsg::Decode(const std::string& bytes, JobSetupMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetString(&out->job_id));
  DDP_RETURN_NOT_OK(r.GetString(&out->job_name));
  uint64_t phase64 = 0;
  DDP_RETURN_NOT_OK(r.GetVarint64(&phase64));
  out->phase = static_cast<uint32_t>(phase64);
  DDP_RETURN_NOT_OK(r.GetString(&out->ctx));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->num_partitions));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->memory_budget_bytes));
  DDP_RETURN_NOT_OK(r.GetString(&out->spill_dir));
  uint8_t skip = 0;
  DDP_RETURN_NOT_OK(r.GetByte(&skip));
  out->skip_bad_records = skip != 0;
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->faults.seed));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.map_failure_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.reduce_failure_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.straggler_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.straggler_slowdown));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.straggler_min_seconds));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.corruption_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.worker_crash_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.poison_task_rate));
  DDP_RETURN_NOT_OK(r.GetDouble(&out->faults.channel_drop_rate));
  if (!r.exhausted()) return Status::IoError("trailing bytes in JobSetupMsg");
  return Status::OK();
}

std::string TaskAssignMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(task);
  w.PutVarint64(attempt);
  w.PutByte(quarantined ? 1 : 0);
  w.PutVarint64(window_bytes);
  w.PutString(input);
  return bytes;
}

Status TaskAssignMsg::Decode(const std::string& bytes, TaskAssignMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->task));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->attempt));
  uint8_t q = 0;
  DDP_RETURN_NOT_OK(r.GetByte(&q));
  out->quarantined = q != 0;
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->window_bytes));
  DDP_RETURN_NOT_OK(r.GetString(&out->input));
  if (!r.exhausted()) return Status::IoError("trailing bytes in TaskAssignMsg");
  return Status::OK();
}

std::string RunBeginMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(task);
  w.PutVarint64(attempt);
  w.PutVarint64(seq);
  w.PutVarint64(partition);
  w.PutVarint64(spill_index);
  w.PutVarint64(length);
  return bytes;
}

Status RunBeginMsg::Decode(const std::string& bytes, RunBeginMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->task));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->attempt));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->seq));
  uint64_t partition64 = 0;
  uint64_t spill64 = 0;
  DDP_RETURN_NOT_OK(r.GetVarint64(&partition64));
  DDP_RETURN_NOT_OK(r.GetVarint64(&spill64));
  out->partition = static_cast<uint32_t>(partition64);
  out->spill_index = static_cast<uint32_t>(spill64);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->length));
  if (!r.exhausted()) return Status::IoError("trailing bytes in RunBeginMsg");
  return Status::OK();
}

std::string RunEndMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(task);
  w.PutVarint64(attempt);
  w.PutVarint64(seq);
  return bytes;
}

Status RunEndMsg::Decode(const std::string& bytes, RunEndMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->task));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->attempt));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->seq));
  if (!r.exhausted()) return Status::IoError("trailing bytes in RunEndMsg");
  return Status::OK();
}

std::string RunAckMsg::Encode() const {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(task);
  w.PutVarint64(attempt);
  w.PutVarint64(acked_runs);
  w.PutVarint64(acked_bytes);
  return bytes;
}

Status RunAckMsg::Decode(const std::string& bytes, RunAckMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->task));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->attempt));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->acked_runs));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->acked_bytes));
  if (!r.exhausted()) return Status::IoError("trailing bytes in RunAckMsg");
  return Status::OK();
}

void CrashSelf() {
  ::kill(::getpid(), SIGKILL);
  for (;;) ::pause();  // unreachable; satisfies [[noreturn]]
}

namespace {

using Clock = std::chrono::steady_clock;

/// The I/O half of a supervised phase: every channel, pid, shuffle file and
/// clock read, turned into PhaseMachine events by one poll loop.
class PhaseDriver : public PhaseIo {
 public:
  PhaseDriver(const Options& options, const SupervisedPhase& phase,
              const WorkerTaskFn& fn, const CommitFn& commit)
      : phase_(phase),
        fn_(fn),
        commit_(commit),
        // Remote workers dial the pool's phase-outliving listener, so they
        // keep one stable endpoint across phases; forked workers need none.
        pool_(options.exec_mode == ExecMode::kRemote ? options.remote_pool
                                                     : nullptr),
        spill_dir_(internal::JobSpillDir(options)),
        shuffle_(phase.num_tasks) {}

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// The phase's commit, run once the task's shuffle file is written out. A
  /// file an earlier, failed attempt left is dropped unwritten.
  CommitFn Commit() {
    return [this](size_t task, bool quarantined, double seconds,
                  std::string payload, std::vector<SpillRun> runs) -> Status {
      const auto writer = std::move(shuffle_[task].writer);
      if (writer != nullptr &&
          std::any_of(runs.begin(), runs.end(), [&](const SpillRun& r) {
            return r.file == writer->handle();
          })) {
        DDP_RETURN_NOT_OK(writer->Close());
      }
      return commit_(task, quarantined, seconds, std::move(payload),
                     std::move(runs));
    };
  }

  /// Starts `machine` with the workers an earlier phase parked and feeds it
  /// worker traffic, connections and the time until the phase is done, then
  /// tears it down.
  Status Run(PhaseMachine* machine) {
    std::vector<std::pair<uint64_t, uint64_t>> parked;
    for (auto& p : pool_ != nullptr ? pool_->TakeParked()
                                    : std::vector<RemoteWorkerPool::Parked>()) {
      parked.emplace_back(Add(std::move(p.channel), -1), p.id);
    }
    DDP_RETURN_NOT_OK(machine->Start(parked, Now()));
    std::vector<struct pollfd> pfds;
    std::vector<uint64_t> ids;  // the link of each pfds entry
    while (!machine->done()) {
      machine->Tick(Now());
      if (machine->done()) break;
      // Wait for traffic; the 10 ms cap bounds backoff-gate, respawn and
      // hang-scan latency. The pool's listener polls alongside the links. A
      // channel already holding a whole frame in its receive buffer is
      // ready though poll cannot see it, so then poll only collects the
      // others' readiness and does not wait.
      pfds.clear();
      ids.clear();
      bool buffered = false;
      for (const auto& [id, ch] : links_) {
        pfds.push_back({ch->fd(), POLLIN, 0});
        ids.push_back(id);
        buffered = buffered || ch->HasBufferedFrame();
      }
      if (pool_ != nullptr) {
        pfds.push_back({pool_->listener()->fd(), POLLIN, 0});
      }
      // With no link (a forked crew waiting out its respawn backoff) poll
      // only naps.
      if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                 /*timeout=*/buffered ? 0 : 10) < 0 &&
          errno != EINTR) {
        machine->Fail(Status::Internal(
            std::string("supervisor poll failed: ") + std::strerror(errno)));
        break;
      }
      // A new connection joins the next poll and owes its hello there.
      if (pool_ != nullptr && (pfds.back().revents & POLLIN) != 0) {
        auto accepted = pool_->listener()->Accept(/*timeout_seconds=*/0.25);
        if (accepted.ok()) {
          machine->OnOffer(Add(std::move(accepted).value(), -1), Now());
        }
      }
      for (size_t i = 0; i < ids.size() && !machine->done(); ++i) {
        auto it = links_.find(ids[i]);
        if (it == links_.end()) continue;  // an earlier event closed it
        CommChannel* ch = it->second.get();
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0 &&
            !ch->HasBufferedFrame()) {
          continue;
        }
        Frame frame;
        if (ch->Recv(&frame, /*timeout_seconds=*/30.0).ok()) {
          machine->OnFrame(ids[i], &frame, Now());
        } else {
          machine->OnLost(ids[i], Now());
        }
      }
    }
    return machine->Teardown();
  }

  Status Send(uint64_t link, const Frame& frame) override {
    auto it = links_.find(link);
    if (it == links_.end()) return Status::IoError("link closed");
    return it->second->Send(frame);
  }

  Result<std::pair<uint64_t, uint64_t>> Spawn(uint64_t id) override {
    DDP_ASSIGN_OR_RETURN(auto ends, PipeChannel::CreatePair());
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::Internal(std::string("cannot fork worker: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      // Worker process. Drop every supervisor-side descriptor we inherited
      // (ours and those of workers forked before us) so a sibling's EOF is
      // seen the moment that sibling dies.
      ends.first->Close();
      for (auto& [other, ch] : links_) ch->Close();
      // Exit discipline: a forked child leaves only through _exit, never
      // through the parent's static destructors.
      WorkerMainConfig wc;
      wc.worker_id = id;
      ::_exit(WorkerLoop(std::move(ends.second), fn_, wc));
    }
    ends.second->Close();
    return std::make_pair(Add(std::move(ends.first), pid),
                          static_cast<uint64_t>(pid));
  }

  bool KillAndReap(uint64_t link, double grace_seconds) override {
    const auto reaped = pids_.extract(link);
    if (reaped.empty()) return false;
    const pid_t pid = reaped.mapped();
    const double give_up = Now() + grace_seconds;
    int wstatus = 0;
    // A worker told to shut down exits in well under a millisecond, so the
    // nap between reap polls starts short and doubles up to 5 ms.
    for (long nap_us = 50;; nap_us = std::min(nap_us * 2, 5000L)) {
      const pid_t got = ::waitpid(pid, &wstatus, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) return false;
      if (Now() >= give_up) break;
      const struct timespec nap {0, nap_us * 1000};
      ::nanosleep(&nap, nullptr);
    }
    ::kill(pid, SIGKILL);
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    return true;
  }

  // A forked worker's pid outlives its link until KillAndReap.
  void Close(uint64_t link) override { links_.erase(link); }

  void Park(uint64_t link, uint64_t id) override {
    auto parked = links_.extract(link);
    if (parked.empty() || pool_ == nullptr) return;
    pool_->Park(id, std::move(parked.mapped()));
  }

  Result<SpillRun> AppendRun(const RunBeginMsg& begin,
                             std::string_view frames) override {
    Shuffle& s = shuffle_[begin.task];
    if (s.writer == nullptr || s.attempt != begin.attempt) {
      // A failed attempt's file goes once its committed runs are dropped.
      s.writer.reset();
      DDP_ASSIGN_OR_RETURN(
          s.writer,
          SpillFileWriter::Create(
              spill_dir_, phase_.job_name + "-" +
                              (phase_.phase == 0 ? "map" : "reduce") +
                              "-shuffle-t" + std::to_string(begin.task)));
      s.attempt = begin.attempt;
    }
    s.writer->BeginRun();
    s.writer->Append(frames.data(), frames.size());
    DDP_ASSIGN_OR_RETURN(SpillExtent extent, s.writer->EndRun());
    return SpillRun{s.writer->handle(), begin.partition, begin.spill_index,
                    extent.offset,      extent.length,   {}};
  }

 private:
  /// A task's shuffle file: the disk runs of its attempt in flight, written
  /// out when the task commits.
  struct Shuffle {
    uint64_t attempt = 0;
    std::unique_ptr<SpillFileWriter> writer;
  };

  uint64_t Add(std::unique_ptr<CommChannel> ch, pid_t pid) {
    links_[next_link_] = std::move(ch);
    if (pid >= 0) pids_[next_link_] = pid;
    return next_link_++;
  }

  const SupervisedPhase& phase_;
  const WorkerTaskFn& fn_;
  const CommitFn& commit_;
  RemoteWorkerPool* const pool_;
  const std::string spill_dir_;
  std::map<uint64_t, std::unique_ptr<CommChannel>> links_;
  std::map<uint64_t, pid_t> pids_;  // forked workers' links, until reaped
  uint64_t next_link_ = 1;
  std::vector<Shuffle> shuffle_;  // by task
  const Clock::time_point start_ = Clock::now();
};

}  // namespace

Status WorkerSupervisor::RunPhase(const Options& options,
                                  const SupervisedPhase& phase,
                                  const WorkerTaskFn& fn, const CommitFn& commit,
                                  JobCounters* counters) {
  if (phase.num_tasks == 0) return Status::OK();
  const char* phase_name = phase.phase == 0 ? "map" : "reduce";
  if (options.exec_mode == ExecMode::kRemote &&
      options.remote_pool == nullptr) {
    return Status::InvalidArgument(phase.job_name +
                                   ": exec mode remote needs a remote pool");
  }

  DDP_TRACE_SPAN(phase_span, obs::kCatMr, obs::kSpanSupervisedPhase);
  if (phase_span.active()) {
    phase_span.AddArg("job", phase.job_name);
    phase_span.AddArg("phase", std::string_view(phase_name));
    phase_span.AddArg("tasks", static_cast<uint64_t>(phase.num_tasks));
  }
  // The phase span reports this phase's share of the job's counters.
  const JobCounters at_start = *counters;

  PhaseDriver driver(options, phase, fn, commit);
  PhaseMachine machine(options, phase, driver.Commit(), counters, &driver);
  std::optional<obs::ProgressHeartbeat> progress;
  if (options.heartbeat_seconds > 0.0) {
    progress.emplace(options.heartbeat_seconds, [&machine, &phase,
                                                 phase_name] {
      return phase.job_name + " " + phase_name + " (fork): " +
             std::to_string(machine.completed()) + "/" +
             std::to_string(phase.num_tasks) + " tasks done";
    });
  }
  const Status status = driver.Run(&machine);

  if (phase_span.active()) {
    if (!status.ok()) phase_span.MarkCancelled();
    phase_span.AddArg("worker_crashes",
                      counters->worker_crashes - at_start.worker_crashes);
    phase_span.AddArg("worker_restarts",
                      counters->worker_restarts - at_start.worker_restarts);
    phase_span.AddArg("streamed_bytes", counters->shuffle_streamed_bytes -
                                            at_start.shuffle_streamed_bytes);
    phase_span.AddArg("workers_registered", counters->workers_registered -
                                                at_start.workers_registered);
    phase_span.AddArg("tasks_reassigned",
                      counters->tasks_reassigned - at_start.tasks_reassigned);
  }
  return status;
}

}  // namespace mr
}  // namespace ddp
