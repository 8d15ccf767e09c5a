#include "mapreduce/supervisor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "mapreduce/counters.h"
#include "mapreduce/phase.h"
#include "mapreduce/remote_worker.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ddp {
namespace mr {

namespace {

/// Seeded exponential backoff before a failed task's next attempt and
/// before each replacement worker is forked.
constexpr ExponentialBackoff::Params kBackoff{0.002, 2.0, 0.25, 0.25};

// An attempt's status from the worker; a code this build does not know
// reads as kInternal.
Status StatusFromWire(int32_t code, std::string message) {
  const bool known =
      code >= 0 && code <= static_cast<int32_t>(StatusCode::kDeadlineExceeded);
  return Status(known ? static_cast<StatusCode>(code) : StatusCode::kInternal,
                std::move(message));
}

}  // namespace

PhaseMachine::PhaseMachine(const Options& options, const SupervisedPhase& phase,
                           CommitFn commit, JobCounters* counters, PhaseIo* io)
    : options_(options),
      phase_(phase),
      commit_(std::move(commit)),
      counters_(counters),
      io_(io),
      phase_name_(phase.phase == 0 ? "map" : "reduce"),
      crew_(options.exec_mode == ExecMode::kRemote ? Crew::kRemote
            : options.exec_mode == ExecMode::kFork ? Crew::kForked
                                                   : Crew::kInProc),
      spills_(!internal::JobSpillDir(options).empty()),
      // The credit window tracks the job's memory budget, floored at 4 KiB
      // so tiny test budgets still make progress one frame at a time.
      window_(options.memory_budget_bytes > 0
                  ? std::max<uint64_t>(options.memory_budget_bytes, 4096)
                  : (uint64_t{4} << 20)),
      // A remote phase starts no workers; the others one per task at most.
      crew_size_(crew_ == Crew::kRemote
                     ? 0
                     : std::max<size_t>(1, std::min(options.ResolvedWorkers(),
                                                    phase.num_tasks))),
      respawn_backoff_(kBackoff, SplitSeed(options.faults.seed, 0x5e5u)),
      tasks_(phase.num_tasks) {}

size_t PhaseMachine::Find(uint64_t link) const {
  size_t wi = 0;
  while (wi < workers_.size() && workers_[wi].link != link) ++wi;
  return wi;
}

Status PhaseMachine::Start(
    const std::vector<std::pair<uint64_t, uint64_t>>& parked, double now) {
  next_respawn_ = now;
  last_crew_ = now;
  for (const auto& [link, id] : parked) Admit(link, id, now);
  for (size_t i = 0; i < crew_size_; ++i) {
    Status st = Spawn(now);
    if (st.ok()) continue;
    if (workers_.empty()) {
      return Status::Internal(phase_.job_name + " " + phase_name_ +
                              ": cannot fork a worker: " + st.ToString());
    }
    DDP_LOG(Warning) << phase_.job_name << ": spawned only " << workers_.size()
                     << "/" << crew_size_ << " workers: " << st.ToString();
    break;
  }
  return Status::OK();
}

Status PhaseMachine::Spawn(double now) {
  const uint64_t id = next_worker_id_++;
  DDP_ASSIGN_OR_RETURN(auto spawned, io_->Spawn(id));
  Join(id, spawned.first, spawned.second, now);
  return Status::OK();
}

// Registers a worker that joined the phase on `link`, of any kind; only a
// process gets a worker span.
void PhaseMachine::Join(uint64_t id, uint64_t link, uint64_t pid, double now) {
  Worker w;
  w.id = id;
  w.link = link;
  w.last_beat = now;
  const bool remote = crew_ == Crew::kRemote;
  if (crew_ != Crew::kInProc) {
    w.span = std::make_unique<obs::Span>(
        obs::kCatMr, remote ? obs::kSpanRemoteWorker : obs::kSpanWorker);
  }
  if (w.span != nullptr && w.span->active()) {
    w.span->AddArg("job", phase_.job_name);
    w.span->AddArg("phase", std::string_view(phase_name_));
    w.span->AddArg(remote ? "worker_id" : "pid", remote ? id : pid);
  }
  workers_.push_back(std::move(w));
}

// Admits a remote worker: install the phase's registered job over
// kJobSetup, then schedule it like any other crew member.
void PhaseMachine::Admit(uint64_t link, uint64_t id, double now) {
  if (!io_->Send(link, Frame{MessageType::kJobSetup, phase_.remote_setup})
           .ok()) {
    io_->Close(link);
    return;
  }
  Join(id, link, /*pid=*/0, now);
  ++counters_->workers_registered;
}

// The first frame of an offered connection must be a hello naming a worker
// not in the crew: a remote worker dropped earlier dials again and joins as
// a new one. A hello for a worker still in the crew is closed, not rebound
// (that worker's old link is on its way to a loss event), and so is any
// other first frame: it is not one of ours.
void PhaseMachine::Hello(uint64_t link, const Frame& frame, double now) {
  HelloMsg hello;
  if (frame.type != MessageType::kHello ||
      !HelloMsg::Decode(frame.payload, &hello).ok() ||
      std::any_of(workers_.begin(), workers_.end(), [&](const Worker& c) {
        return c.id == hello.worker_id;
      })) {
    io_->Close(link);
    return;
  }
  Admit(link, hello.worker_id, now);
}

// The cumulative ack of w's attempt: its shuffle credit.
void PhaseMachine::SendAck(Worker& w) {
  RunAckMsg ack;
  ack.task = w.task;
  ack.attempt = w.attempt;
  ack.acked_runs = w.stream.committed.size();
  ack.acked_bytes = w.stream.last_acked_bytes = w.stream.committed_bytes;
  (void)io_->Send(w.link, Frame{MessageType::kRunAck, ack.Encode()});
}

// Charges a failed attempt of `t` and decides retry / quarantine / abort.
// `crashed` marks worker-killing failures (they feed the poison counter).
// A speculative loser's failure is not charged.
void PhaseMachine::ChargeFailure(size_t t, bool crashed, const Status& why,
                                 double now) {
  TaskState& ts = tasks_[t];
  if (ts.done) return;
  ts.consecutive_crashes = crashed ? ts.consecutive_crashes + 1 : 0;
  ++ts.failed_attempts;
  if (!ts.quarantined &&
      ts.consecutive_crashes >= options_.quarantine_after_crashes) {
    if (!options_.skip_bad_records) {
      error_ = Status::Internal(
          std::string(phase_name_) + " task " + std::to_string(t) +
          " crashed " + std::to_string(ts.consecutive_crashes) +
          " consecutive workers (poisonous record; enable "
          "skip_bad_records to quarantine): " +
          why.ToString());
      return;
    }
    // Poisonous record: re-run the task in quarantine with a fresh attempt
    // budget — Hadoop's skip-mode re-execution.
    ts.quarantined = true;
    ts.failed_attempts = 0;
    ts.consecutive_crashes = 0;
    ++counters_->quarantined_tasks;
    DDP_LOG(Warning) << phase_.job_name << " " << phase_name_ << " task " << t
                     << " crashed " << options_.quarantine_after_crashes
                     << " consecutive workers; quarantining";
  } else if (ts.failed_attempts >= options_.max_task_attempts) {
    error_ = Status::Internal(
        std::string(phase_name_) + " task " + std::to_string(t) +
        " failed after " + std::to_string(options_.max_task_attempts) +
        " attempts; last error: " + why.ToString());
    return;
  }
  ++(phase_.phase == 0 ? counters_->map_task_retries
                       : counters_->reduce_task_retries);
  const ExponentialBackoff backoff(kBackoff,
                                   SplitSeed(options_.faults.seed, t));
  ts.queued = true;
  ts.not_before =
      now + backoff.DelaySeconds(ts.failed_attempts == 0
                                     ? 0
                                     : ts.failed_attempts - 1);
}

// Every way a forked or remote worker `wi` leaves the phase before
// teardown (an in-process one never does). A forked worker is SIGKILLed and
// reaped; a remote one, not our child, is evicted. Either way its spill
// files go with its descriptors. A busy worker's attempt is charged: as a
// hang when the worker went silent or overran its deadline, otherwise as a
// crash — a lost remote link included, since no waitpid can tell its death
// from a lost network. Its stream, runs and all, goes too.
void PhaseMachine::DropWorker(size_t wi, Drop cause, double now) {
  Worker w = std::move(workers_[wi]);
  workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(wi));
  const bool remote = crew_ == Crew::kRemote;
  // Kill before closing: a forked worker that saw its channel's EOF first
  // could exit on its own, and the kill this drop counts would hit nothing.
  if (!remote) io_->KillAndReap(w.link, 0.0);
  io_->Close(w.link);
  const bool deadline = cause == Drop::kDeadline;
  const bool hang = deadline || cause == Drop::kSilence;
  if (deadline) ++counters_->deadline_kills;
  if (remote) {
    ++counters_->workers_evicted;
  } else {
    if (cause != Drop::kChannel) ++counters_->worker_kills;
    ++(hang ? counters_->worker_hangs : counters_->worker_crashes);
  }
  if (w.span->active()) {
    w.span->AddArg("exit", remote ? "evicted" : hang ? "hang" : "crash");
    w.span->MarkCancelled();
  }
  w.span.reset();
  if (w.busy) {
    DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrWorkerCrashLatencySeconds,
                                 now - w.dispatched);
    TaskState& ts = tasks_[w.task];
    --ts.running;
    if (remote && !ts.done) ++counters_->tasks_reassigned;
    const std::string who = remote ? "remote worker" : "worker";
    ChargeFailure(w.task, /*crashed=*/!hang,
                  deadline ? Status::DeadlineExceeded(who + " deadline")
                  : hang   ? Status::DeadlineExceeded(who + " hang")
                  : remote ? Status::Internal("remote worker lost")
                           : Status::Internal("worker crashed"),
                  now);
  }
}

// ---- Streamed-shuffle frame handlers. A protocol violation (bad seq, size
// overrun, CRC mismatch, a disk run from a job that cannot spill) loses
// record boundaries: the worker is dropped and its attempt retried.

bool PhaseMachine::RunBegin(Worker& w, const std::string& payload,
                            double now) {
  RunBeginMsg msg;
  if (!RunBeginMsg::Decode(payload, &msg).ok() || !w.busy ||
      msg.task != w.task || msg.attempt != w.attempt ||
      msg.seq != w.stream.committed.size() || w.stream.open.has_value() ||
      (msg.spill_index != kTailRunIndex && !spills_)) {
    return false;
  }
  // The declared length comes from another process: nothing is reserved
  // for it until RunData, and then at most the credit window.
  w.stream.open.emplace(OpenRun{msg, std::string(), now});
  return true;
}

bool PhaseMachine::RunData(Worker& w, std::string* payload) {
  if (!w.stream.open.has_value()) return false;
  OpenRun& open = *w.stream.open;
  if (open.buf.size() + payload->size() > open.begin.length) return false;
  if (open.buf.empty() && payload->size() == open.begin.length) {
    open.buf = std::move(*payload);  // the whole run in one chunk
    return true;
  }
  // Reserving the run's size (bounded by a window this supervisor set)
  // keeps a held in-memory run from carrying growth slack.
  if (open.buf.empty()) open.buf.reserve(std::min(open.begin.length, window_));
  open.buf.append(*payload);
  return true;
}

bool PhaseMachine::RunEnd(Worker& w, const std::string& payload, double now) {
  RunEndMsg msg;
  if (!RunEndMsg::Decode(payload, &msg).ok() || !w.stream.open.has_value()) {
    return false;
  }
  OpenRun open = std::move(*w.stream.open);
  w.stream.open.reset();
  if (msg.task != open.begin.task || msg.attempt != open.begin.attempt ||
      msg.seq != open.begin.seq || open.buf.size() != open.begin.length ||
      !VerifyAndStripRunTrailer(&open.buf).ok()) {
    return false;
  }
  SpillRun run;
  if (tasks_[w.task].done) {  // a speculative loser's: nothing keeps it
  } else if (open.begin.spill_index == kTailRunIndex) {
    // In-memory run: kept as bare frames.
    run = SpillRun{nullptr, open.begin.partition, kTailRunIndex, 0,
                   open.begin.length, std::move(open.buf)};
  } else {
    // Disk-backed run: appended to this attempt's shuffle file, whose fresh
    // trailer makes the committed extent a byte-faithful SpillRun.
    auto appended = io_->AppendRun(open.begin, open.buf);
    if (!appended.ok()) {
      error_ = appended.status();
      return true;  // the job fails; no point killing the worker over it
    }
    run = std::move(appended).value();
  }
  Stream& s = w.stream;
  s.committed.push_back(std::move(run));
  s.committed_bytes += open.begin.length;
  counters_->shuffle_streamed_bytes += open.begin.length;
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrRunShipSeconds,
                               now - open.started);
  // Credit-based backpressure: ack at least every half window so a blocked
  // worker always has a credit frame coming.
  if (s.committed_bytes - s.last_acked_bytes >=
      std::max<uint64_t>(1, window_ / 2)) {
    SendAck(w);
  }
  return true;
}

// A kResult follows every run of its attempt by stream ordering; one for
// another attempt, or one that arrives mid-run, breaks the protocol. The
// first success commits and cancels the task's other attempts; a later
// verdict for the task is discarded without a charge, runs and all.
void PhaseMachine::OnResult(uint64_t link, ResultMsg msg, double now) {
  const size_t wi = Find(link);
  if (wi == workers_.size()) return;
  Worker& w = workers_[wi];
  if (!w.busy || msg.task != w.task || msg.attempt != w.attempt ||
      w.stream.open.has_value()) {
    DropWorker(wi, Drop::kProtocol, now);
    return;
  }
  w.busy = false;
  Stream stream = std::exchange(w.stream, Stream{});
  TaskState& ts = tasks_[msg.task];
  --ts.running;
  // The worker survived the attempt, whatever its verdict: the poison
  // counter tracks worker-killing records only.
  ts.consecutive_crashes = 0;
  Status attempt_status = StatusFromWire(msg.status_code, msg.status_message);
  if (ts.done) {  // a speculative loser
  } else if (attempt_status.ok()) {
    ts.done = true;
    ++completed_;
    committed_seconds_.push_back(msg.seconds);
    if (w.backup) ++counters_->speculative_wins;
    Status committed = commit_(msg.task, ts.quarantined, msg.seconds,
                               std::move(msg.payload),
                               std::move(stream.committed));
    if (!committed.ok()) error_ = committed;
    for (const Worker& loser : workers_) {
      if (loser.busy && loser.task == msg.task) io_->Cancel(loser.link);
    }
  } else if (attempt_status.IsIoError()) {
    // Deterministically corrupt input: retrying re-reads the same bytes.
    // Fail fast; teardown stops the phase's other attempts.
    error_ = attempt_status;
  } else {
    if (attempt_status.IsDeadlineExceeded()) ++counters_->deadline_kills;
    ChargeFailure(msg.task, /*crashed=*/false, attempt_status, now);
  }
  Dispatch(now);
}

void PhaseMachine::OnFrame(uint64_t link, Frame* frame, double now) {
  if (std::erase_if(pending_, [link](const auto& p) {
        return p.first == link;
      }) > 0) {
    Hello(link, *frame, now);
    return;
  }
  const size_t wi = Find(link);
  if (wi == workers_.size()) return;
  Worker& w = workers_[wi];
  w.last_beat = now;
  bool protocol_ok = true;
  if (frame->type == MessageType::kRunBegin) {
    protocol_ok = RunBegin(w, frame->payload, now);
  } else if (frame->type == MessageType::kRunData) {
    protocol_ok = RunData(w, &frame->payload);
  } else if (frame->type == MessageType::kRunEnd) {
    protocol_ok = RunEnd(w, frame->payload, now);
  } else if (frame->type == MessageType::kResult) {
    ResultMsg msg;
    if (ResultMsg::Decode(frame->payload, &msg).ok()) {
      OnResult(link, std::move(msg), now);
    } else {
      protocol_ok = false;
    }
  }
  // kHello and kHeartbeat only refresh last_beat, done above.
  if (!protocol_ok) DropWorker(wi, Drop::kProtocol, now);
}

// EOF or a corrupt frame: record boundaries are gone, and a worker's link
// is unusable, forked or remote.
void PhaseMachine::OnLost(uint64_t link, double now) {
  const size_t wi = Find(link);
  if (wi < workers_.size()) {
    DropWorker(wi, Drop::kChannel, now);
    return;
  }
  io_->Close(link);
  std::erase_if(pending_, [link](const auto& p) { return p.first == link; });
}

void PhaseMachine::Tick(double now) {
  // A connection still owing its hello after kHelloSeconds is not ours.
  std::erase_if(pending_, [&](const auto& p) {
    if (now - p.second <= kHelloSeconds) return false;
    io_->Close(p.first);
    return true;
  });
  // Hang scan: deadline overruns and heartbeat silence. An in-process
  // attempt past the deadline keeps its thread: it is cancelled, and
  // charged when it returns.
  const double deadline = options_.task_deadline_seconds;
  for (size_t wi = workers_.size(); wi-- > 0;) {
    Worker& w = workers_[wi];
    if (!w.busy) continue;
    const bool overdue = deadline > 0.0 && now - w.dispatched > deadline;
    if (crew_ == Crew::kInProc) {
      if (overdue) io_->Cancel(w.link);
    } else if (overdue) {
      DropWorker(wi, Drop::kDeadline, now);
    } else if (now - w.last_beat > kHeartbeatGraceSeconds) {
      DropWorker(wi, Drop::kSilence, now);
    }
  }
  if (done()) return;
  // Respawn toward the forked target crew while the restart budget lasts.
  if (crew_ == Crew::kForked && workers_.size() < crew_size_ &&
      now >= next_respawn_) {
    if (restarts_used_ < options_.max_worker_restarts) {
      Status st = Spawn(now);
      if (st.ok()) {
        ++restarts_used_;
        ++counters_->worker_restarts;
      } else if (workers_.empty()) {
        error_ =
            Status::Internal("cannot respawn any worker: " + st.ToString());
        return;
      }
      next_respawn_ = now + respawn_backoff_.DelaySeconds(restarts_used_);
    } else if (workers_.empty()) {
      error_ = Status::Internal(
          "all workers dead and the restart budget (" +
          std::to_string(options_.max_worker_restarts) + ") is exhausted");
      return;
    }
  }
  // Remote-crew watchdog: an empty crew is legitimate while remote workers
  // are still dialing in, but only for the connect grace. (A crew run
  // without a pool, as the simulator runs one, names port 0.)
  if (crew_ == Crew::kRemote) {
    if (!workers_.empty()) {
      last_crew_ = now;
    } else if (now - last_crew_ > kConnectGraceSeconds) {
      const RemoteWorkerPool* pool = options_.remote_pool;
      error_ = Status::Internal(
          phase_.job_name + " " + phase_name_ +
          ": no remote worker within the connect grace (pool on port " +
          std::to_string(pool != nullptr ? pool->port() : 0) + ")");
      return;
    }
  }
  Dispatch(now);
  Speculate(now);
}

// Hands task `t`'s next attempt to idle worker `w`. A dead peer shows up as
// a failed send, and its loss event runs the death path; the attempt
// number is not spent.
bool PhaseMachine::Assign(Worker& w, size_t t, bool backup, double now) {
  TaskState& ts = tasks_[t];
  TaskAssignMsg msg;
  msg.task = t;
  msg.attempt = ts.next_attempt;
  msg.quarantined = ts.quarantined;
  msg.window_bytes = window_;
  if (crew_ == Crew::kRemote) {
    // Remote workers get the task's serialized input by value: they share
    // no address space, so nothing can ride copy-on-write.
    auto input = phase_.remote_input(t);
    if (!input.ok()) {
      error_ = input.status();
      return false;
    }
    msg.input = std::move(input).value();
  }
  if (!io_->Send(w.link, Frame{MessageType::kTaskAssign, msg.Encode()}).ok()) {
    return false;
  }
  w.busy = true;
  w.task = t;
  w.attempt = ts.next_attempt++;
  w.backup = backup;
  w.dispatched = now;
  w.last_beat = now;
  w.stream = Stream{};
  ++ts.running;
  return true;
}

// Dispatches queued tasks to idle workers, lowest task id first; commit
// order is by task id regardless.
void PhaseMachine::Dispatch(double now) {
  for (Worker& w : workers_) {
    if (done()) return;
    if (w.busy) continue;
    for (size_t t = 0; t < tasks_.size(); ++t) {
      TaskState& ts = tasks_[t];
      if (ts.done || !ts.queued || now < ts.not_before) continue;
      if (Assign(w, t, /*backup=*/false, now)) ts.queued = false;
      break;
    }
  }
}

// Once `speculative_min_completed` attempts of the phase have committed, a
// task whose only running attempt has run `speculative_multiplier` times
// their median gets one backup on an idle worker, after queued tasks.
void PhaseMachine::Speculate(double now) {
  if (!options_.speculative_execution || tasks_.size() < 2 ||
      committed_seconds_.size() <
          std::max<size_t>(1, options_.speculative_min_completed)) {
    return;
  }
  std::vector<double> seconds = committed_seconds_;
  const auto mid =
      seconds.begin() + static_cast<std::ptrdiff_t>(seconds.size() / 2);
  std::nth_element(seconds.begin(), mid, seconds.end());
  const double threshold =
      std::max(options_.speculative_multiplier * *mid, 1e-3);
  for (size_t wi = 0; wi < workers_.size() && !done(); ++wi) {
    const Worker& straggler = workers_[wi];
    if (!straggler.busy || now - straggler.dispatched <= threshold) continue;
    TaskState& ts = tasks_[straggler.task];
    if (ts.done || ts.backup_launched || ts.running != 1) continue;
    const auto idle = std::find_if(workers_.begin(), workers_.end(),
                                   [](const Worker& w) { return !w.busy; });
    if (idle == workers_.end()) return;
    if (Assign(*idle, straggler.task, /*backup=*/true, now)) {
      ts.backup_launched = true;
      ++counters_->speculative_launches;
    }
  }
}

// ---- Teardown. Remote workers outlive the phase: healthy idle ones are
// parked back into the pool for the next phase. Every other worker is told
// to shut down, and then the forked ones are reaped, with a bounded wait
// before force. Sending every kShutdown before the first reap lets the crew
// exit in parallel. A worker still running an attempt (a speculative loser,
// or one of a failed phase) is cancelled and gets no grace.
Status PhaseMachine::Teardown() {
  for (const auto& p : pending_) io_->Close(p.first);
  pending_.clear();
  for (Worker& w : workers_) {
    if (crew_ == Crew::kRemote && !w.busy) {
      io_->Park(w.link, w.id);
      continue;
    }
    if (w.busy) io_->Cancel(w.link);
    (void)io_->Send(w.link, Frame{MessageType::kShutdown, ""});
    io_->Close(w.link);
  }
  for (Worker& w : workers_) {
    if (crew_ == Crew::kForked &&
        io_->KillAndReap(w.link, w.busy ? 0.0 : 2.0)) {
      ++counters_->worker_kills;
    }
  }
  workers_.clear();
  return error_;
}

}  // namespace mr
}  // namespace ddp
