#include "mapreduce/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "mapreduce/counters.h"
#include "mapreduce/phase.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/spill.h"
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
        spill_dir_(internal::JobSpillDir(options)) {}

  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// The phase's commit, run once the committed attempt's shuffle file is
  /// written out. The files of the task's other attempts, failed ones and
  /// a speculative loser, are dropped unwritten.
  CommitFn Commit() {
    return [this](size_t task, bool quarantined, double seconds,
                  std::string payload, std::vector<SpillRun> runs) -> Status {
      auto it = shuffle_.lower_bound({task, 0});
      while (it != shuffle_.end() && it->first.first == task) {
        if (std::any_of(runs.begin(), runs.end(), [&](const SpillRun& r) {
              return r.file == it->second->handle();
            })) {
          DDP_RETURN_NOT_OK(it->second->Close());
        }
        it = shuffle_.erase(it);
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
      // A new connection joins the next poll and owes its hello there. Its
      // sends fail once the peer has taken no byte for the heartbeat grace,
      // so a peer that stops reading cannot hold the driver in one.
      if (pool_ != nullptr && (pfds.back().revents & POLLIN) != 0) {
        auto accepted = pool_->listener()->Accept(/*timeout_seconds=*/0.25);
        if (accepted.ok()) {
          (*accepted)->SetSendTimeout(PhaseMachine::kHeartbeatGraceSeconds);
          const uint64_t link = Add(std::move(accepted).value(), -1);
          offered_.insert(link);
          machine->OnOffer(link, Now());
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
        // An offered connection's first frame is taken only whole, without
        // waiting, so a peer that sends part of one stalls nothing.
        Frame frame;
        bool got = true;
        const Status st = offered_.count(ids[i]) > 0
                              ? ch->TryRecv(&frame, &got)
                              : ch->Recv(&frame, /*timeout_seconds=*/30.0);
        if (!st.ok() || got) offered_.erase(ids[i]);
        if (!st.ok()) {
          machine->OnLost(ids[i], Now());
        } else if (got) {
          machine->OnFrame(ids[i], &frame, Now());
        }
      }
    }
    return machine->Teardown();
  }

  // A link that failed a send is shut, so the next poll reports its loss.
  Status Send(uint64_t link, const Frame& frame) override {
    auto it = links_.find(link);
    if (it == links_.end()) return Status::IoError("link closed");
    Status st = it->second->Send(frame);
    if (!st.ok()) it->second->Shutdown();
    return st;
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
  void Close(uint64_t link) override {
    links_.erase(link);
    offered_.erase(link);
  }

  void Park(uint64_t link, uint64_t id) override {
    auto parked = links_.extract(link);
    if (parked.empty() || pool_ == nullptr) return;
    pool_->Park(id, std::move(parked.mapped()));
  }

  Result<SpillRun> AppendRun(const RunBeginMsg& begin,
                             std::string_view frames) override {
    // A backup and its original stream at once, so each attempt has its
    // own file.
    std::unique_ptr<SpillFileWriter>& writer =
        shuffle_[{begin.task, begin.attempt}];
    if (writer == nullptr) {
      DDP_ASSIGN_OR_RETURN(
          writer,
          SpillFileWriter::Create(
              spill_dir_, phase_.job_name + "-" +
                              (phase_.phase == 0 ? "map" : "reduce") +
                              "-shuffle-t" + std::to_string(begin.task)));
    }
    writer->BeginRun();
    writer->Append(frames.data(), frames.size());
    DDP_ASSIGN_OR_RETURN(SpillExtent extent, writer->EndRun());
    return SpillRun{writer->handle(), begin.partition, begin.spill_index,
                    extent.offset,    extent.length,   {}};
  }

 private:

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
  std::set<uint64_t> offered_;      // accepted links owing their first frame
  uint64_t next_link_ = 1;
  /// The shuffle file of each (task, attempt) that streamed a disk run:
  /// written out when the attempt commits, dropped when its task does.
  std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<SpillFileWriter>>
      shuffle_;
  const Clock::time_point start_ = Clock::now();
};

}  // namespace

Status WorkerSupervisor::RunPhase(const Options& options,
                                  const SupervisedPhase& phase,
                                  const WorkerTaskFn& fn, const CommitFn& commit,
                                  JobCounters* counters) {
  if (phase.num_tasks == 0) return Status::OK();
  DDP_TRACE_SPAN(phase_span, obs::kCatMr, obs::kSpanSupervisedPhase);
  if (phase_span.active()) {
    phase_span.AddArg("job", phase.job_name);
    phase_span.AddArg("phase",
                      std::string_view(phase.phase == 0 ? "map" : "reduce"));
    phase_span.AddArg("tasks", static_cast<uint64_t>(phase.num_tasks));
  }
  // The phase span reports this phase's share of the job's counters.
  const JobCounters at_start = *counters;

  PhaseDriver driver(options, phase, fn, commit);
  PhaseMachine machine(options, phase, driver.Commit(), counters, &driver);
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
