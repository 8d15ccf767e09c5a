// The scheduler's decisions under seeded schedules, with no process,
// socket, thread, sleep or wall clock. A PhaseMachine (src/mapreduce/
// phase_machine.cc) runs one phase against a simulated crew: forked workers
// it spawns, remote workers that are parked, dial in, drop and dial again,
// or in-process logical workers that report verdicts.
// The simulated forked and remote workers speak the worker protocol of
// worker_main.cc over zero-latency links; in-process ones report an
// attempt's verdict as the in-process driver of phase.cc does. All run a
// real task body (a SpillingBuffer under a small budget, so tasks ship both
// tail runs and disk runs) and check everything the machine sends them.
// Each seed picks the crew, the options (speculation among them) and a
// schedule: which worker sends next; crashes, hangs, protocol violations,
// drops and redials at any frame boundary; in-process attempts that dawdle
// until cancelled; silent and garbled connections; duplicate hellos;
// failed attempts; a failed shuffle-file append; and clock jumps past the
// heartbeat grace, the task deadline and the connect grace.
//
// The oracle, per schedule: the phase either commits every task with the
// payload and run bytes of the fault-free run, or fails with an error the
// policy names and the schedule earned; every drop moves exactly the
// counters architecture.md's cause table assigns to it, checked event by
// event, and a lost link on either crew is exactly one channel drop; no
// in-process worker is ever dropped, killed, closed or parked before
// teardown, and its deadline kills are exactly its DeadlineExceeded
// verdicts; a worker counted killed was alive when it was killed; a task
// gets at most one backup, and never one without speculation; wins never
// exceed launches; teardown releases every shuffle-file handle; and the
// phase ends within a bound of simulated time. A simulated process that
// dies releases its runs at once, as the kernel frees a dead process's
// nameless spill files. A failing seed prints its schedule, and
// SimulateSchedule(seed) replays that schedule alone.
// RemoteDropChargeTest plays a remote crew by hand through the drops whose
// charge decides quarantine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "mapreduce/counters.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/supervisor.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"

namespace ddp {
namespace mr {
namespace {

namespace fs = std::filesystem;

constexpr double kDeadline = 3.0;  // task_deadline_seconds, when set
constexpr size_t kChunk = 200;     // kRunData chunk size
constexpr double kMaxSimSeconds = 600.0;
constexpr size_t kMaxSteps = 100000;
constexpr size_t kMaxTasks = 5;

const fs::path& SimDir() {
  static const fs::path dir = fs::temp_directory_path() / "ddp_supervisor_sim";
  return dir;
}

// ------------------------------------------------------------ task bodies

// Task t's body: records into a SpillingBuffer with a 512-byte budget.
// Every fourth task stays under it and ships in-memory tail runs; the others
// spill and ship every run from their one spill file, some past the credit
// window. A quarantined attempt commits the same bytes.
Status TaskBody(uint64_t t, TaskResult* result) {
  internal::SpillingBuffer<uint32_t, std::string, KeyTraits<uint32_t>> buffer(
      3, 512, SimDir().string(), "sim-t" + std::to_string(t));
  const size_t records = 3 + 14 * (t % 4);
  for (size_t i = 0; i < records; ++i) {
    buffer.Add(
        static_cast<uint32_t>((t * 7 + i) % 5),
        std::string(40 + (i * 13) % 90, static_cast<char>('a' + i % 26)));
  }
  DDP_RETURN_NOT_OK(buffer.Finish());
  result->runs = std::move(buffer.runs());
  result->payload = "task-" + std::to_string(t);
  return Status::OK();
}

// A run's wire bytes: a disk run's file extent, or a tail's frames and
// their trailer.
std::string WireBytes(const SpillRun& run) {
  if (run.file == nullptr) return run.bytes + RunTrailer(run.bytes);
  std::string bytes(run.length, '\0');
  EXPECT_TRUE(run.file->ReadAt(run.offset, bytes.data(), bytes.size()).ok());
  return bytes;
}

struct RunBytes {
  uint32_t partition = 0;
  uint32_t spill_index = 0;
  std::string frames;
  bool operator==(const RunBytes& o) const {
    return partition == o.partition && spill_index == o.spill_index &&
           frames == o.frames;
  }
};

std::vector<RunBytes> Flatten(const std::vector<SpillRun>& runs) {
  std::vector<RunBytes> out;
  for (const SpillRun& r : runs) {
    std::string frames = WireBytes(r);
    EXPECT_TRUE(VerifyAndStripRunTrailer(&frames).ok());
    out.push_back({r.partition, r.spill_index, std::move(frames)});
  }
  return out;
}

// What a fault-free run commits, per task.
const std::vector<std::vector<RunBytes>>& Reference() {
  static const std::vector<std::vector<RunBytes>> ref = [] {
    std::vector<std::vector<RunBytes>> out;
    for (uint64_t t = 0; t < kMaxTasks; ++t) {
      TaskResult r;
      EXPECT_TRUE(TaskBody(t, &r).ok());
      out.push_back(Flatten(r.runs));
    }
    return out;
  }();
  return ref;
}

// ------------------------------------------------------ the simulated world

enum class Fault {
  kNone,
  kBadSeq,       // a kRunBegin with the wrong sequence number
  kOverrun,      // a kRunData past the run's declared length
  kBadTrailer,   // a run whose CRC trailer does not match its bytes
  kEarlyResult,  // a kResult while a run is open
};

// Events seen over the whole schedule set.
using Coverage = std::map<std::string, int>;

using Crew = PhaseMachine::Crew;

class Sim : public PhaseIo {
 public:
  Sim(uint64_t seed, Crew crew, Coverage* coverage);

  /// Runs the schedule; empty when every check held, else what failed.
  std::string Run();
  const std::string& log() const { return log_; }

  Status Send(uint64_t link, const Frame& frame) override;
  Result<std::pair<uint64_t, uint64_t>> Spawn(uint64_t id) override;
  bool KillAndReap(uint64_t link, double grace_seconds) override;
  void Close(uint64_t link) override;
  void Park(uint64_t link, uint64_t id) override;
  Result<SpillRun> AppendRun(const RunBeginMsg& begin,
                             std::string_view frames) override;
  void Cancel(uint64_t link) override;

 private:
  struct Worker {
    uint64_t id = 0;
    uint64_t home = 0;  // a forked worker's link, for life
    uint64_t link = 0;  // the worker's open connection; 0 when none
    bool alive = true;
    bool hung = false;  // reads and sends nothing, beats included
    bool reaped = false;
    bool hello_due = false;
    bool installed = false;
    Fault fault = Fault::kNone;
    bool corrupt_run = false;  // the open run carries a bad trailer
    bool fail_next = false;
    bool ioerror_next = false;
    // In-process: the attempt reports once cancelled or at `dawdle_until`.
    double started = 0.0;
    double dawdle_until = 0.0;
    bool cancelled = false;
    // The attempt it ships, until its result is sent.
    bool have = false;
    TaskAssignMsg assign;
    TaskResult result;
    std::vector<std::string> wire;
    std::string result_frame;
    bool result_ok = true;
    size_t run = 0;      // the run being shipped; runs before it have ended
    bool begun = false;  // its kRunBegin went out
    size_t off = 0;      // bytes of the open run shipped
    bool result_sent = false;
    uint64_t sent = 0;
    uint64_t acked = 0;
    double last_beat_sent = 0.0;
    // As the supervisor sees it.
    uint64_t bound = 0;  // the link the machine knows it by; 0 when none
    bool in_crew = false;
    bool busy = false;
    double dispatched = 0.0;
    bool dropped = false;  // a remote worker dropped at least once
  };
  enum class Call { kStart, kTick, kFrame, kLost, kOffer, kTeardown };
  struct Dropped {
    uint64_t id = 0;
    uint64_t task = 0;
    bool busy = false;
    bool live = false;  // its task had not committed: a loser is not charged
    bool past_deadline = false;
  };

  uint64_t Draw(uint64_t n) { return n == 0 ? 0 : rng_() % n; }
  void Log(const std::string& line) { log_ += line + "\n"; }
  void Violation(const std::string& what) {
    if (violation_.empty()) {
      violation_ = what + " (t=" + std::to_string(now_) + ")";
    }
  }
  Worker* ByLink(uint64_t link);
  Worker* ByBound(uint64_t link);
  Worker* ById(uint64_t id);
  std::vector<Worker*> Pick(bool (*want)(const Worker&));
  bool ForkedOrCrewSpare() const;

  void Release(Worker& w);
  void Die(Worker& w);
  void Receive(Worker& w, const Frame& frame);
  void StartAttempt(Worker& w, const TaskAssignMsg& assign);
  bool CanSend(const Worker& w) const;
  Frame NextFrame(Worker& w, bool* violating);
  Dropped RecordDrop(Worker& w);

  void Deliver(Worker& w);
  void DeliverVerdict(Worker& w);
  void DeliverLoss();
  void Advance(double dt, bool beat);
  void InjectFault();
  void Redial(Worker& w);
  template <typename Fn>
  void Event(Call call, Fn&& fn);
  void CheckDrops(Call call, const JobCounters& before);
  void CheckOutcome(const Status& status);

  std::mt19937_64 rng_;
  const Crew crew_;
  const bool remote_;
  const bool inproc_;
  Coverage* coverage_;
  Options options_;
  SupervisedPhase phase_;
  int64_t poison_ = -1;
  uint64_t faults_left_ = 0;
  JobCounters counters_;
  double now_ = 0.0;
  std::string log_;
  std::string violation_;
  std::vector<Worker> workers_;
  std::set<uint64_t> strays_;  // offered links that belong to no worker
  std::vector<std::pair<uint64_t, uint64_t>> lost_;  // (link, worker id)
  uint64_t next_link_ = 1;
  uint64_t real_kills_ = 0;
  bool append_fault_ = false;
  bool append_failed_ = false;
  bool ioerror_sent_ = false;
  size_t forked_drops_ = 0;
  std::vector<size_t> charges_;      // failed attempts, per task
  std::vector<size_t> consecutive_;  // worker-killing ones in a row
  std::vector<size_t> dispatches_;   // attempts handed out, per task
  std::map<size_t, std::vector<RunBytes>> committed_;
  std::unique_ptr<SpillFileWriter> shuffle_;
  std::weak_ptr<SpillFileHandle> shuffle_handle_;
  double last_crew_tick_ = 0.0;
  std::unique_ptr<PhaseMachine> machine_;
  // What one machine event did.
  std::vector<Dropped> drops_;
  uint64_t call_kills_ = 0;
  uint64_t hello_for_ = 0;    // the worker whose hello this event delivers
  uint64_t lost_link_ = 0;    // the link this event reports lost
  uint64_t verdict_deadlines_ = 0;  // in-process DeadlineExceeded charges
  bool teardown_ = false;
  // The in-process verdict the machine is reading: its slot's runs.
  std::string reported_payload_;
  std::vector<SpillRun> reported_runs_;
};

Sim::Sim(uint64_t seed, Crew crew, Coverage* coverage)
    : rng_(seed),
      crew_(crew),
      remote_(crew == Crew::kRemote),
      inproc_(crew == Crew::kInProc),
      coverage_(coverage) {
  options_.exec_mode = remote_   ? ExecMode::kRemote
                       : inproc_ ? ExecMode::kInProc
                                 : ExecMode::kFork;
  options_.num_workers = 1 + Draw(3);
  options_.memory_budget_bytes = 4096;
  options_.spill_dir = SimDir().string();
  options_.task_deadline_seconds = Draw(2) == 0 ? kDeadline : 0.0;
  options_.max_task_attempts = 3 + Draw(2);
  options_.max_worker_restarts = Draw(5);
  options_.quarantine_after_crashes = 2;
  options_.skip_bad_records = Draw(2) == 0;
  options_.speculative_execution = Draw(2) == 0;
  options_.speculative_multiplier = 1.5 + static_cast<double>(Draw(3));
  options_.speculative_min_completed = 1 + Draw(3);
  options_.faults.seed = seed;
  phase_.job_name = "sim";
  phase_.num_tasks = 1 + Draw(kMaxTasks);
  phase_.remote_setup = "setup";
  phase_.remote_input = [](size_t t) -> Result<std::string> {
    return "input-" + std::to_string(t);
  };
  if (crew == Crew::kForked && Draw(4) == 0) {
    poison_ = static_cast<int64_t>(Draw(phase_.num_tasks));
  }
  faults_left_ = Draw(6);
  charges_.assign(phase_.num_tasks, 0);
  consecutive_.assign(phase_.num_tasks, 0);
  dispatches_.assign(phase_.num_tasks, 0);
  Log(std::string(remote_ ? "remote" : inproc_ ? "in-process" : "forked") +
      " crew, " +
      std::to_string(phase_.num_tasks) + " tasks, num_workers " +
      std::to_string(options_.num_workers) + ", restarts " +
      std::to_string(options_.max_worker_restarts) + ", deadline " +
      std::to_string(options_.task_deadline_seconds) + ", attempts " +
      std::to_string(options_.max_task_attempts) + ", skip_bad_records " +
      std::to_string(options_.skip_bad_records) + ", speculation " +
      std::to_string(options_.speculative_execution) + " x" +
      std::to_string(options_.speculative_multiplier) + " after " +
      std::to_string(options_.speculative_min_completed) + ", poison task " +
      std::to_string(poison_) + ", faults " + std::to_string(faults_left_));
}

Sim::Worker* Sim::ByLink(uint64_t link) {
  for (Worker& w : workers_) {
    if (link != 0 && w.link == link) return &w;
  }
  return nullptr;
}

Sim::Worker* Sim::ByBound(uint64_t link) {
  for (Worker& w : workers_) {
    if (link != 0 && w.bound == link) return &w;
  }
  return nullptr;
}

Sim::Worker* Sim::ById(uint64_t id) {
  for (Worker& w : workers_) {
    if (w.id == id) return &w;
  }
  return nullptr;
}

std::vector<Sim::Worker*> Sim::Pick(bool (*want)(const Worker&)) {
  std::vector<Worker*> out;
  for (Worker& w : workers_) {
    if (want(w)) out.push_back(&w);
  }
  return out;
}

// A remote crew keeps one worker that can still serve, so a schedule's
// faults alone never starve it; a forked crew respawns.
bool Sim::ForkedOrCrewSpare() const {
  if (!remote_) return true;
  size_t serving = 0;
  for (const Worker& w : workers_) serving += w.alive && !w.hung ? 1 : 0;
  return serving > 1;
}

void Sim::Release(Worker& w) {
  w.have = false;
  w.result = TaskResult{};
  w.wire.clear();
}

// The process dies without cleanup: its spill files close with its
// descriptors, and the machine is owed the loss of its connection.
void Sim::Die(Worker& w) {
  w.alive = false;
  Release(w);
  if (w.link != 0) lost_.emplace_back(w.link, w.id);
  w.link = 0;
}

// ------------------------------------------------ supervisor -> worker

void Sim::Receive(Worker& w, const Frame& frame) {
  if (w.hung) return;
  if (inproc_ && frame.type != MessageType::kTaskAssign) {
    // The in-process driver reads only kTaskAssign; teardown says kShutdown.
    if (frame.type != MessageType::kShutdown || !teardown_) {
      Violation("an in-process worker was sent frame type " +
                std::to_string(static_cast<int>(frame.type)));
    }
    return;
  }
  if (frame.type == MessageType::kShutdown) {
    // A clean exit: the worker releases its files itself.
    w.alive = false;
    Release(w);
    w.link = 0;
    return;
  }
  if (frame.type == MessageType::kJobSetup) {
    if (!remote_ || frame.payload != phase_.remote_setup) {
      Violation("unexpected kJobSetup");
    }
    w.installed = true;
    return;
  }
  if (frame.type == MessageType::kTaskAssign) {
    TaskAssignMsg assign;
    if (!TaskAssignMsg::Decode(frame.payload, &assign).ok() ||
        assign.task >= phase_.num_tasks) {
      Violation("undecodable kTaskAssign");
      return;
    }
    if (w.have && !w.result_sent) Violation("task assigned mid-stream");
    if (remote_ && !w.installed) Violation("task assigned before kJobSetup");
    if (assign.window_bytes != 4096) Violation("wrong credit window");
    const std::string want =
        remote_ ? "input-" + std::to_string(assign.task) : std::string();
    if (assign.input != want) Violation("wrong task input");
    StartAttempt(w, assign);
    return;
  }
  if (frame.type != MessageType::kRunAck) return;
  RunAckMsg ack;
  if (!RunAckMsg::Decode(frame.payload, &ack).ok()) {
    Violation("undecodable kRunAck");
    return;
  }
  const bool mine = w.have && ack.task == w.assign.task &&
                    ack.attempt == w.assign.attempt;
  uint64_t bytes = 0;
  for (size_t i = 0; i < ack.acked_runs && i < w.wire.size(); ++i) {
    bytes += w.wire[i].size();
  }
  if (!mine) return;  // a stale ack: the worker ignores it
  if (ack.acked_runs > w.run || ack.acked_bytes != bytes ||
      ack.acked_bytes < w.acked) {
    Violation("credit ack for " + std::to_string(ack.acked_runs) + " runs / " +
              std::to_string(ack.acked_bytes) + " bytes after " +
              std::to_string(w.run) + " ended runs");
  }
  ++(*coverage_)["credit ack"];
  w.acked = ack.acked_bytes;
}

void Sim::StartAttempt(Worker& w, const TaskAssignMsg& assign) {
  Release(w);
  w.assign = assign;
  w.last_beat_sent = now_;
  w.started = w.dawdle_until = now_;
  w.cancelled = false;
  Log("  worker " + std::to_string(w.id) + " runs task " +
      std::to_string(assign.task) + " attempt " +
      std::to_string(assign.attempt) +
      (assign.quarantined ? " quarantined" : ""));
  if (static_cast<int64_t>(assign.task) == poison_ && !assign.quarantined) {
    ++(*coverage_)["poison crash"];
    Die(w);
    return;
  }
  w.have = true;
  w.run = 0;
  w.begun = false;
  w.off = 0;
  w.result_sent = false;
  w.corrupt_run = false;
  w.sent = w.acked = 0;
  Status st;
  if (w.ioerror_next) {
    st = Status::IoError("injected corrupt input");
    ioerror_sent_ = true;
  } else if (w.fail_next) {
    st = Status::Internal("injected attempt failure");
  } else {
    st = TaskBody(assign.task, &w.result);
  }
  w.ioerror_next = w.fail_next = false;
  if (!st.ok()) w.result = TaskResult{};
  for (const SpillRun& r : w.result.runs) w.wire.push_back(WireBytes(r));
  ResultMsg msg;
  msg.task = assign.task;
  msg.attempt = assign.attempt;
  msg.status_code = static_cast<int32_t>(st.code());
  msg.status_message = st.message();
  msg.seconds = 0.001;
  msg.payload = st.ok() ? w.result.payload : std::string();
  w.result_frame = msg.Encode();
  w.result_ok = st.ok();
}

// ------------------------------------------------ worker -> supervisor

bool Sim::CanSend(const Worker& w) const {
  if (!w.alive || w.hung || w.link == 0) return false;
  if (inproc_) {
    return w.have && !w.result_sent &&
           (w.cancelled || now_ >= w.dawdle_until);
  }
  if (w.hello_due) return true;
  if (!w.have || w.result_sent) return false;
  return w.begun || w.run == w.wire.size() ||
         w.sent - w.acked <= w.assign.window_bytes;
}

// The worker's next frame; `violating` when it breaks the protocol in a
// way the supervisor sees on arrival.
Frame Sim::NextFrame(Worker& w, bool* violating) {
  *violating = false;
  if (w.hello_due) {
    w.hello_due = false;
    HelloMsg hello;
    hello.worker_id = w.id;
    return {MessageType::kHello, hello.Encode()};
  }
  const uint64_t task = w.assign.task;
  const uint64_t attempt = w.assign.attempt;
  if (!w.begun && w.run == w.wire.size()) {
    // The supervisor holds its own copy of every run it committed: the
    // worker lets the attempt go as its result leaves.
    w.result_sent = true;
    Release(w);
    return {MessageType::kResult, w.result_frame};
  }
  if (!w.begun) {
    const SpillRun& r = w.result.runs[w.run];
    RunBeginMsg begin;
    begin.task = task;
    begin.attempt = attempt;
    begin.seq = w.run;
    begin.partition = r.partition;
    begin.spill_index = r.spill_index;
    begin.length = w.wire[w.run].size();
    if (w.fault == Fault::kBadSeq) {
      ++begin.seq;
      w.fault = Fault::kNone;
      *violating = true;
    }
    w.begun = true;
    w.off = 0;
    return {MessageType::kRunBegin, begin.Encode()};
  }
  if (w.fault == Fault::kEarlyResult) {
    w.fault = Fault::kNone;
    w.result_sent = true;
    *violating = true;
    return {MessageType::kResult, w.result_frame};
  }
  const std::string& bytes = w.wire[w.run];
  if (w.off < bytes.size()) {
    const size_t n = std::min(kChunk, bytes.size() - w.off);
    std::string chunk = bytes.substr(w.off, n);
    w.off += n;
    if (w.off == bytes.size() && w.fault == Fault::kOverrun) {
      chunk += 'x';
      w.fault = Fault::kNone;
      *violating = true;
    } else if (w.off == bytes.size() && w.fault == Fault::kBadTrailer) {
      chunk.back() = static_cast<char>(chunk.back() ^ 0x01);
      w.fault = Fault::kNone;
      w.corrupt_run = true;
    }
    return {MessageType::kRunData, std::move(chunk)};
  }
  RunEndMsg end;
  end.task = task;
  end.attempt = attempt;
  end.seq = w.run;
  *violating = w.corrupt_run;
  w.corrupt_run = false;
  w.sent += bytes.size();
  ++w.run;
  w.begun = false;
  return {MessageType::kRunEnd, end.Encode()};
}

// ---------------------------------------------------------------- PhaseIo

Status Sim::Send(uint64_t link, const Frame& frame) {
  Worker* w = ByLink(link);
  if (w == nullptr || !w->alive) return Status::IoError("peer gone");
  // What the supervisor now believes, whether or not the worker reads it.
  if (frame.type == MessageType::kJobSetup) w->in_crew = true;
  if (frame.type == MessageType::kTaskAssign) {
    TaskAssignMsg assign;
    if (TaskAssignMsg::Decode(frame.payload, &assign).ok() &&
        assign.task < phase_.num_tasks) {
      // A task runs one attempt, or two while it has a backup.
      size_t in_flight = 0;
      for (const Worker& o : workers_) {
        in_flight += o.busy && o.assign.task == assign.task ? 1 : 0;
      }
      if (in_flight >= (options_.speculative_execution ? 2u : 1u)) {
        Violation(std::to_string(in_flight + 1) + " attempts of task " +
                  std::to_string(assign.task) + " in flight");
      }
      ++dispatches_[assign.task];
      w->assign.task = assign.task;
    }
    w->busy = true;
    w->dispatched = now_;
  }
  Receive(*w, frame);
  return Status::OK();
}

Result<std::pair<uint64_t, uint64_t>> Sim::Spawn(uint64_t id) {
  if (remote_) Violation("a remote crew forked a worker");
  Worker w;
  w.id = id;
  w.home = w.link = w.bound = next_link_++;
  w.hello_due = !inproc_;  // a logical worker says nothing
  w.in_crew = true;
  w.last_beat_sent = now_;
  workers_.push_back(std::move(w));
  Log("  spawned worker " + std::to_string(id));
  return std::make_pair(workers_.back().home, 1000 + id);
}

bool Sim::KillAndReap(uint64_t link, double grace_seconds) {
  if (inproc_) Violation("an in-process worker was killed");
  Worker* w = nullptr;
  for (Worker& cand : workers_) {
    if (cand.home == link && link != 0) w = &cand;
  }
  if (w == nullptr || w->reaped) {
    Violation("reap of an unknown or reaped worker on link " +
              std::to_string(link));
    return false;
  }
  w->reaped = true;
  if (!teardown_ && grace_seconds == 0.0 && w->in_crew) {
    drops_.push_back(RecordDrop(*w));
  }
  if (!w->alive) return false;
  // SIGKILL: no cleanup; its spill files close with its descriptors.
  w->alive = false;
  Release(*w);
  w->link = 0;
  ++real_kills_;
  ++call_kills_;
  return true;
}

void Sim::Close(uint64_t link) {
  if (inproc_ && !teardown_) Violation("an in-process worker was closed");
  if (strays_.erase(link) > 0) {
    ++(*coverage_)[teardown_ ? "stray closed at teardown"
                   : hello_for_ == 0 && lost_link_ == 0
                       ? "hello never came"
                       : "non-hello first frame"];
    return;
  }
  Worker* bound = ByBound(link);
  if (bound != nullptr) {
    if (!teardown_ && remote_ && bound->in_crew) {
      drops_.push_back(RecordDrop(*bound));  // an eviction
    }
    bound->bound = 0;
  }
  Worker* w = ByLink(link);
  if (w == nullptr || !w->alive || w->hung) return;
  if (hello_for_ == w->id && w->bound != link) {
    ++(*coverage_)["a hello for an id already in the crew is closed"];
  }
  // The worker reads EOF and lets its attempt go, releasing its files. A
  // forked one exits; a remote one dials again later.
  w->link = 0;
  Release(*w);
  if (!remote_) w->alive = false;
}

void Sim::Park(uint64_t link, uint64_t id) {
  if (inproc_) Violation("an in-process worker was parked");
  Worker* w = ByBound(link);
  if (!remote_ || !teardown_ || w == nullptr || w->id != id || w->busy) {
    Violation("parked a worker that is not an idle remote one");
  }
  ++(*coverage_)["parked"];
}

Result<SpillRun> Sim::AppendRun(const RunBeginMsg& begin,
                                std::string_view frames) {
  if (inproc_) Violation("an in-process attempt streamed a run");
  if (committed_.count(begin.task) > 0) {
    Violation("a committed task's loser had its run appended");
  }
  if (append_fault_) {
    append_fault_ = false;
    append_failed_ = true;
    ++(*coverage_)["failed shuffle-file append"];
    return Status::IoError("injected shuffle append failure");
  }
  if (shuffle_ == nullptr) {
    auto created = SpillFileWriter::Create(SimDir().string(), "sim-shuffle");
    if (!created.ok()) return created.status();
    shuffle_ = std::move(created).value();
    shuffle_handle_ = shuffle_->handle();
  }
  shuffle_->BeginRun();
  shuffle_->Append(frames.data(), frames.size());
  DDP_ASSIGN_OR_RETURN(SpillExtent extent, shuffle_->EndRun());
  DDP_RETURN_NOT_OK(shuffle_->Close());  // readable at once
  return SpillRun{shuffle_->handle(), begin.partition, begin.spill_index,
                  extent.offset,      extent.length,   {}};
}

// The machine cancels a loser when its task commits, an in-process attempt
// past the deadline, and every running attempt at teardown. Only an
// in-process attempt stops early; a process runs on.
void Sim::Cancel(uint64_t link) {
  Worker* w = ByBound(link);
  if (w == nullptr || !w->busy) {
    Violation("cancel of a worker that runs no attempt, on link " +
              std::to_string(link));
    return;
  }
  const bool loser = committed_.count(w->assign.task) > 0;
  if (!teardown_ && !loser &&
      (!inproc_ || options_.task_deadline_seconds <= 0.0 ||
       now_ - w->dispatched <= options_.task_deadline_seconds)) {
    Violation("cancel of a live attempt within its deadline");
  }
  ++(*coverage_)[teardown_ ? "cancel at teardown"
                 : loser   ? "loser cancelled"
                           : "in-process deadline cancel"];
  if (inproc_) w->cancelled = true;
}

// ------------------------------------------------- events and accounting

Sim::Dropped Sim::RecordDrop(Worker& w) {
  Dropped d;
  d.id = w.id;
  d.task = w.assign.task;
  d.busy = w.busy;
  d.live = committed_.count(w.assign.task) == 0;
  d.past_deadline = options_.task_deadline_seconds > 0.0 && w.busy &&
                    now_ - w.dispatched > options_.task_deadline_seconds;
  if (!remote_) ++forked_drops_;
  w.in_crew = false;
  w.busy = false;
  w.dropped = remote_;
  return d;
}

template <typename Fn>
void Sim::Event(Call call, Fn&& fn) {
  const JobCounters before = counters_;
  drops_.clear();
  call_kills_ = 0;
  fn();
  CheckDrops(call, before);
  if (counters_.speculative_launches > before.speculative_launches) {
    ++(*coverage_)["backup launched"];
  }
  if (counters_.speculative_wins > before.speculative_wins) {
    ++(*coverage_)["backup won"];
  }
  hello_for_ = 0;
  lost_link_ = 0;
  verdict_deadlines_ = 0;
  if (call == Call::kTick) {
    size_t crew = 0;
    for (const Worker& w : workers_) crew += w.in_crew ? 1 : 0;
    if (crew > 0) last_crew_tick_ = now_;
  }
}

// Every drop moves exactly the counters the cause table gives it. The cause
// follows from the event: a lost link is a channel drop, a frame a
// protocol drop, a tick a deadline or silence drop.
void Sim::CheckDrops(Call call, const JobCounters& before) {
  uint64_t crashes = 0, hangs = 0, kills = 0, deadline = 0, evicted = 0,
           reassigned = 0;
  uint64_t deadline_verdicts = verdict_deadlines_;
  for (const Dropped& d : drops_) {
    // A busy worker's attempt is charged, unless its task already committed:
    // a hang or deadline drop, forked or remote, resets the task's run of
    // worker-killing failures; every other drop extends it, a remote
    // worker's lost link included.
    const bool hang = call == Call::kTick;
    if (d.busy && d.live) {
      ++charges_[d.task];
      consecutive_[d.task] = hang ? 0 : consecutive_[d.task] + 1;
    }
    if (remote_) {
      ++evicted;
      reassigned += d.busy && d.live ? 1 : 0;
      deadline += hang && d.past_deadline ? 1 : 0;
    } else if (call == Call::kLost) {
      ++crashes;
    } else if (call == Call::kFrame) {
      ++crashes;
      ++kills;
    } else {
      ++hangs;
      ++kills;
      deadline += d.past_deadline ? 1 : 0;
    }
    const char* cause = call == Call::kLost    ? "kChannel"
                        : call == Call::kFrame ? "kProtocol"
                        : d.past_deadline      ? "kDeadline"
                                               : "kSilence";
    ++(*coverage_)[std::string(remote_ ? "remote " : "forked ") + cause];
    Log("  drop of worker " + std::to_string(d.id) + " as " + cause);
  }
  if (call == Call::kTeardown) kills = call_kills_;
  deadline += deadline_verdicts;
  const JobCounters& c = counters_;
  if (c.worker_crashes - before.worker_crashes != crashes ||
      c.worker_hangs - before.worker_hangs != hangs ||
      c.worker_kills - before.worker_kills != kills ||
      c.deadline_kills - before.deadline_kills != deadline ||
      c.workers_evicted - before.workers_evicted != evicted ||
      c.tasks_reassigned - before.tasks_reassigned != reassigned) {
    Violation("drop counters moved by crashes " +
              std::to_string(c.worker_crashes - before.worker_crashes) +
              " hangs " + std::to_string(c.worker_hangs - before.worker_hangs) +
              " kills " + std::to_string(c.worker_kills - before.worker_kills) +
              " deadline " +
              std::to_string(c.deadline_kills - before.deadline_kills) +
              " evicted " +
              std::to_string(c.workers_evicted - before.workers_evicted) +
              " reassigned " +
              std::to_string(c.tasks_reassigned - before.tasks_reassigned) +
              "; the drops seen call for " + std::to_string(crashes) + " " +
              std::to_string(hangs) + " " + std::to_string(kills) + " " +
              std::to_string(deadline) + " " + std::to_string(evicted) + " " +
              std::to_string(reassigned));
  }
  if (c.worker_kills - before.worker_kills != call_kills_) {
    Violation("worker_kills moved by " +
              std::to_string(c.worker_kills - before.worker_kills) + " but " +
              std::to_string(call_kills_) + " live workers were killed");
  }
}

// One frame, or an in-process verdict, from `w` to the machine.
void Sim::Deliver(Worker& w) {
  if (inproc_) {
    DeliverVerdict(w);
    return;
  }
  const uint64_t link = w.link;
  const bool hello = w.hello_due;
  bool violating = false;
  Frame frame = NextFrame(w, &violating);
  const bool result = frame.type == MessageType::kResult;
  Log("  worker " + std::to_string(w.id) + " sends frame type " +
      std::to_string(static_cast<int>(frame.type)) +
      (violating ? " (breaking the protocol)" : ""));
  if (hello) {
    hello_for_ = w.id;
    if (remote_ && w.bound == link) ++(*coverage_)["hello twice"];
  }
  if (result && w.bound == link && w.busy && !violating) {
    // The worker survived its attempt, whatever its verdict; a loser's
    // verdict is discarded without a charge.
    w.busy = false;
    consecutive_[w.assign.task] = 0;
    ResultMsg msg;
    EXPECT_TRUE(ResultMsg::Decode(w.result_frame, &msg).ok());
    if (committed_.count(w.assign.task) > 0) {
      ++(*coverage_)["loser's result discarded"];
    } else if (!w.result_ok &&
               msg.status_code != static_cast<int32_t>(StatusCode::kIoError)) {
      ++charges_[w.assign.task];
    }
  }
  const uint64_t id = w.id;
  Event(Call::kFrame, [&] { machine_->OnFrame(link, &frame, now_); });
  // `w` may have moved: the machine can spawn.
  Worker* sender = ById(id);
  const bool dropped =
      std::any_of(drops_.begin(), drops_.end(),
                  [id](const Dropped& d) { return d.id == id; });
  if (violating != dropped || drops_.size() > (dropped ? 1u : 0u)) {
    Violation(std::string(violating ? "a protocol violation went unpunished"
                                    : "a drop without a protocol violation"));
  }
  if (hello && sender != nullptr && sender->link == link && sender->alive &&
      sender->bound != link) {
    // The machine kept the connection: it admitted the worker.
    sender->bound = link;
    if (!sender->in_crew) Violation("a hello kept without an admission");
    if (sender->dropped) {
      ++(*coverage_)["a dropped remote worker dials again and is admitted"];
    }
  }
}

// An in-process attempt's verdict, as the in-process driver reports it: the
// status its body returned, DeadlineExceeded when it overran the deadline
// or was cancelled under one, and its slot's runs handed over for the
// commit, never streamed.
void Sim::DeliverVerdict(Worker& w) {
  const uint64_t link = w.link;
  const uint64_t task = w.assign.task;
  ResultMsg msg;
  EXPECT_TRUE(ResultMsg::Decode(w.result_frame, &msg).ok());
  const double elapsed = now_ - w.started;
  const double deadline = options_.task_deadline_seconds;
  const bool live = committed_.count(task) == 0;
  if (deadline > 0.0 && (elapsed > deadline || w.cancelled) && w.result_ok) {
    msg.status_code = static_cast<int32_t>(StatusCode::kDeadlineExceeded);
    msg.status_message = "attempt overran the task deadline";
  }
  msg.seconds = elapsed;
  reported_payload_ = msg.status_code == 0 ? std::move(msg.payload) : "";
  msg.payload.clear();
  reported_runs_ = std::move(w.result.runs);
  Log("  worker " + std::to_string(w.id) + " reports task " +
      std::to_string(task) + " attempt " + std::to_string(msg.attempt) +
      " status " + std::to_string(msg.status_code));
  if (!live) {
    ++(*coverage_)["loser's result discarded"];
  } else if (msg.status_code != 0 &&
             msg.status_code != static_cast<int32_t>(StatusCode::kIoError)) {
    ++charges_[task];
    if (msg.status_code ==
        static_cast<int32_t>(StatusCode::kDeadlineExceeded)) {
      ++verdict_deadlines_;
    }
  }
  w.busy = false;
  w.result_sent = true;
  Release(w);
  Event(Call::kFrame, [&] { machine_->OnResult(link, std::move(msg), now_); });
  reported_runs_.clear();
  if (!drops_.empty()) Violation("an in-process verdict dropped a worker");
}

void Sim::DeliverLoss() {
  const auto [link, id] = lost_.front();
  lost_.erase(lost_.begin());
  const Worker* before = ById(id);
  const bool bound =
      before != nullptr && before->bound == link && before->in_crew;
  Log("  link " + std::to_string(link) + " of worker " + std::to_string(id) +
      " is lost");
  lost_link_ = link;
  Event(Call::kLost, [&] { machine_->OnLost(link, now_); });
  if (bound != (drops_.size() == 1) || drops_.size() > 1) {
    Violation("a lost link was not exactly one drop of its worker");
  }
}

// Time passes; busy workers beat every kWorkerHeartbeatSeconds unless the
// jump is one the supervisor slept through.
void Sim::Advance(double dt, bool beat) {
  now_ += dt;
  if (!beat) return;
  for (size_t i = 0; i < workers_.size() && !inproc_; ++i) {
    Worker& w = workers_[i];
    if (!w.alive || w.hung || w.link == 0 || w.bound != w.link || !w.have ||
        w.result_sent || now_ - w.last_beat_sent < kWorkerHeartbeatSeconds) {
      continue;
    }
    w.last_beat_sent = now_;
    const uint64_t link = w.link;
    Frame frame{MessageType::kHeartbeat, ""};
    Event(Call::kFrame, [&] { machine_->OnFrame(link, &frame, now_); });
    if (!drops_.empty()) Violation("a heartbeat dropped a worker");
  }
}

// A remote worker whose link failed dials again: a plain hello, and a job
// to install once admitted.
void Sim::Redial(Worker& w) {
  w.link = next_link_++;
  w.hello_due = true;
  w.installed = false;
  ++(*coverage_)["redial"];
  Log("  worker " + std::to_string(w.id) + " redials on link " +
      std::to_string(w.link));
  const uint64_t link = w.link;
  Event(Call::kOffer, [&] { machine_->OnOffer(link, now_); });
}

void Sim::InjectFault() {
  --faults_left_;
  const uint64_t kind = Draw(10);
  auto any = [this](bool (*want)(const Worker&)) -> Worker* {
    std::vector<Worker*> c = Pick(want);
    return c.empty() ? nullptr : c[Draw(c.size())];
  };
  if (kind <= 2 && inproc_) {
    // An in-process attempt cannot crash its thread or break a protocol;
    // it can dawdle, until cancelled or long after.
    if (Worker* w = any([](const Worker& x) {
          return x.have && !x.result_sent;
        })) {
      Log("  fault: worker " + std::to_string(w->id) + " dawdles");
      ++(*coverage_)["in-process dawdle"];
      w->dawdle_until = now_ + 5.0;
    }
  } else if (kind == 0 && ForkedOrCrewSpare()) {
    if (Worker* w = any([](const Worker& x) { return x.alive; })) {
      Log("  fault: worker " + std::to_string(w->id) + " crashes");
      ++(*coverage_)["crash"];
      Die(*w);
    }
  } else if (kind == 1 && ForkedOrCrewSpare()) {
    if (Worker* w = any([](const Worker& x) { return x.alive && !x.hung; })) {
      Log("  fault: worker " + std::to_string(w->id) + " hangs");
      ++(*coverage_)["hang"];
      w->hung = true;
    }
  } else if (kind == 2) {
    if (Worker* w = any([](const Worker& x) {
          return x.alive && x.have && !x.result_sent;
        })) {
      w->fault = static_cast<Fault>(1 + Draw(4));
      Log("  fault: worker " + std::to_string(w->id) + " will break protocol " +
          std::to_string(static_cast<int>(w->fault)));
    }
  } else if (kind == 3 && remote_) {
    if (Worker* w =
            any([](const Worker& x) { return x.alive && x.link != 0; })) {
      Log("  fault: worker " + std::to_string(w->id) + "'s connection drops");
      ++(*coverage_)["connection drop"];
      lost_.emplace_back(w->link, w->id);
      w->link = 0;
      Release(*w);  // the worker lets its attempt go with its link
    }
  } else if (kind == 4) {
    if (Worker* w = any([](const Worker& x) { return x.alive; })) {
      (Draw(8) == 0 ? w->ioerror_next : w->fail_next) = true;
      Log("  fault: worker " + std::to_string(w->id) + "'s next attempt fails");
    }
  } else if (kind == 5) {
    Log("  fault: the next shuffle-file append fails");
    append_fault_ = true;
  } else if (kind == 6 && remote_) {
    const uint64_t link = next_link_++;
    strays_.insert(link);
    const bool speaks = Draw(2) == 0;
    Log("  fault: a stranger connects on link " + std::to_string(link) +
        (speaks ? " and sends a heartbeat" : " and says nothing"));
    Event(Call::kOffer, [&] { machine_->OnOffer(link, now_); });
    if (speaks) {
      lost_link_ = link;  // its close is a rejection, not a timeout
      Frame frame{MessageType::kHeartbeat, ""};
      Event(Call::kFrame, [&] { machine_->OnFrame(link, &frame, now_); });
      if (strays_.count(link) > 0) Violation("a non-hello first frame kept");
    }
  } else if (kind == 7 && remote_) {
    if (Worker* w = any([](const Worker& x) {
          return x.alive && !x.hung && x.link != 0 && x.bound == x.link;
        })) {
      Log("  fault: worker " + std::to_string(w->id) + " says hello again");
      w->hello_due = true;
    }
  } else if (kind >= 8 && lost_.empty()) {
    const uint64_t which = Draw(3);
    const double dt =
        which == 0 ? PhaseMachine::kHeartbeatGraceSeconds + 0.05
        : which == 1 ? kDeadline + 0.05
                     : PhaseMachine::kConnectGraceSeconds + 0.05;
    ++(*coverage_)[which == 0   ? "jump past the heartbeat grace"
                   : which == 1 ? "jump past the task deadline"
                                : "jump past the connect grace"];
    Log("  fault: the clock jumps " + std::to_string(dt) + " s");
    Advance(dt, /*beat=*/false);
  }
}

void Sim::CheckOutcome(const Status& status) {
  if (status.ok()) {
    if (committed_.size() != phase_.num_tasks) {
      Violation("the phase succeeded with " +
                std::to_string(committed_.size()) + " of " +
                std::to_string(phase_.num_tasks) + " tasks committed");
    }
    for (const auto& [task, runs] : committed_) {
      if (!(runs == Reference()[task])) {
        Violation("task " + std::to_string(task) +
                  " committed runs that differ from the fault-free run");
      }
    }
    ++(*coverage_)[inproc_ ? "in-process phase committed" : "phase committed"];
    return;
  }
  const std::string why = status.ToString();
  auto says = [&why](const char* what) {
    return why.find(what) != std::string::npos;
  };
  size_t most_charges = 0;
  for (size_t c : charges_) most_charges = std::max(most_charges, c);
  size_t crew = 0;
  for (const Worker& w : workers_) crew += w.in_crew ? 1 : 0;
  const bool earned =
      (says("injected shuffle append failure") && append_failed_) ||
      (status.IsIoError() && says("injected corrupt input") && ioerror_sent_) ||
      (says("restart budget") && !remote_ &&
       forked_drops_ > options_.max_worker_restarts) ||
      (says("poisonous record") && !options_.skip_bad_records &&
       *std::max_element(consecutive_.begin(), consecutive_.end()) >=
           options_.quarantine_after_crashes) ||
      (says("failed after") && most_charges >= options_.max_task_attempts) ||
      (says("connect grace") && remote_ && crew == 0 &&
       now_ - last_crew_tick_ > PhaseMachine::kConnectGraceSeconds);
  if (!earned) Violation("the phase failed without cause: " + why);
  ++(*coverage_)[says("restart budget")       ? "restart budget exhausted"
                 : says("poisonous record")   ? "poison fails the phase"
                 : says("failed after")       ? "attempts exhausted"
                 : says("connect grace")      ? "empty remote crew"
                                              : "other policy failure"];
}

std::string Sim::Run() {
  machine_ = std::make_unique<PhaseMachine>(
      options_, phase_,
      [this](size_t task, bool, double, std::string payload,
             std::vector<SpillRun> runs) {
        if (inproc_) {
          // The verdict carries no slot: the driver's commit takes it.
          if (!payload.empty() || !runs.empty()) {
            Violation("an in-process commit carried a payload or runs");
          }
          payload = std::move(reported_payload_);
          runs = std::move(reported_runs_);
        }
        if (committed_.count(task) > 0) Violation("a task committed twice");
        if (payload != "task-" + std::to_string(task)) {
          Violation("task " + std::to_string(task) + " committed payload " +
                    payload);
        }
        committed_[task] = Flatten(runs);
        return Status::OK();
      },
      &counters_, this);
  std::vector<std::pair<uint64_t, uint64_t>> parked;
  std::vector<uint64_t> dialing;
  const uint64_t crew = remote_ ? 2 + Draw(2) : 0;
  for (uint64_t i = 0; i < crew; ++i) {
    Worker w;
    w.id = (uint64_t{1} << 63) | (100 + i);
    w.link = next_link_++;
    if (Draw(2) == 0) {
      w.bound = w.link;
      parked.emplace_back(w.link, w.id);
    } else {
      w.hello_due = true;
      dialing.push_back(w.link);
    }
    workers_.push_back(std::move(w));
  }
  Status started;
  Event(Call::kStart, [&] { started = machine_->Start(parked, now_); });
  if (!started.ok()) return "Start failed: " + started.ToString();
  for (uint64_t link : dialing) {
    Event(Call::kOffer, [&] { machine_->OnOffer(link, now_); });
  }
  Event(Call::kTick, [&] { machine_->Tick(now_); });
  size_t step = 0;
  while (!machine_->done() && violation_.empty()) {
    if (++step > kMaxSteps || now_ > kMaxSimSeconds) {
      Violation("the phase did not end within " + std::to_string(step) +
                " steps and " + std::to_string(now_) + " simulated seconds");
      break;
    }
    std::vector<Worker*> senders;
    for (Worker& w : workers_) {
      if (CanSend(w)) senders.push_back(&w);
    }
    std::vector<Worker*> redialers;
    for (Worker& w : workers_) {
      if (remote_ && w.alive && !w.hung && w.link == 0) redialers.push_back(&w);
    }
    const uint64_t roll = Draw(100);
    if (!lost_.empty() && (roll < 30 || senders.empty())) {
      DeliverLoss();  // owed losses arrive before time moves
    } else if (faults_left_ > 0 && roll < 34) {
      InjectFault();
    } else if (!redialers.empty() && roll < 40) {
      Redial(*redialers[Draw(redialers.size())]);
    } else if (!senders.empty() && roll < 90) {
      Deliver(*senders[Draw(senders.size())]);
    } else if (lost_.empty()) {
      Advance(0.001 * static_cast<double>(1 + Draw(200)), /*beat=*/true);
    }
    Event(Call::kTick, [&] { machine_->Tick(now_); });
  }
  if (!violation_.empty()) return violation_;
  Status status;
  teardown_ = true;
  Event(Call::kTeardown, [&] { status = machine_->Teardown(); });
  CheckOutcome(status);
  // The machine holds no run past teardown: the shuffle file's one owner
  // left is this simulator's writer.
  if (shuffle_handle_.use_count() > 1) {
    Violation("teardown left " +
              std::to_string(shuffle_handle_.use_count() - 1) +
              " shuffle-file handle(s) open");
  }
  if (counters_.worker_kills != real_kills_) {
    Violation("worker_kills " + std::to_string(counters_.worker_kills) +
              " but " + std::to_string(real_kills_) + " live kills");
  }
  // Every attempt after a task's first is a retry, one per charge at most,
  // or its one backup.
  const size_t backups = options_.speculative_execution ? 1 : 0;
  for (size_t t = 0; t < phase_.num_tasks; ++t) {
    if (dispatches_[t] > 1 + backups + charges_[t]) {
      Violation("task " + std::to_string(t) + " was dispatched " +
                std::to_string(dispatches_[t]) + " times on " +
                std::to_string(charges_[t]) + " charges");
    }
  }
  if (counters_.speculative_launches > backups * phase_.num_tasks ||
      counters_.speculative_wins > counters_.speculative_launches) {
    Violation("speculative launches " +
              std::to_string(counters_.speculative_launches) + ", wins " +
              std::to_string(counters_.speculative_wins));
  }
  if (counters_.quarantined_tasks > 0) ++(*coverage_)["quarantine"];
  Log(std::string("  outcome: ") + status.ToString());
  return violation_;
}

/// Runs one schedule, a pure function of `seed`: by seed mod 3 on a forked,
/// a remote or an in-process crew. Empty when every check held; else the
/// failure and the schedule, which `log` always receives.
std::string SimulateSchedule(uint64_t seed, Coverage* coverage,
                             std::string* log) {
  const Crew crew = seed % 3 == 0   ? Crew::kForked
                    : seed % 3 == 1 ? Crew::kRemote
                                    : Crew::kInProc;
  Sim sim(seed, crew, coverage);
  const std::string failure = sim.Run();
  *log = sim.log();
  if (failure.empty()) return failure;
  return "seed " + std::to_string(seed) +
         (crew == Crew::kForked   ? " (forked)"
          : crew == Crew::kRemote ? " (remote)"
                                  : " (in-process)") +
         ": " + failure + "\nschedule:\n" + *log;
}

class SupervisorSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The machine warns on every quarantine; thousands of schedules would
    // bury a failure's report under them.
    saved_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    fs::remove_all(SimDir());
    fs::create_directories(SimDir());
    (void)Reference();
  }
  void TearDown() override {
    fs::remove_all(SimDir());
    SetLogLevel(saved_level_);
  }

  LogLevel saved_level_ = LogLevel::kInfo;
};

// Two thousand seeds, a third on each kind of crew. Every schedule passes
// the oracle, and together they reach every event the policy has.
TEST_F(SupervisorSimTest, SeededSchedulesKeepThePolicy) {
  Coverage coverage;
  size_t failures = 0;
  std::string log;
  for (uint64_t seed = 1; seed <= 2000 && failures < 3; ++seed) {
    const std::string failure = SimulateSchedule(seed, &coverage, &log);
    if (!failure.empty()) {
      ADD_FAILURE() << failure;
      ++failures;
    }
  }
  for (const char* event :
       {"forked kChannel", "forked kProtocol", "forked kSilence",
        "forked kDeadline", "remote kChannel", "remote kProtocol",
        "remote kSilence", "remote kDeadline",
        "a dropped remote worker dials again and is admitted",
        "a hello for an id already in the crew is closed",
        "hello never came", "non-hello first frame", "hello twice",
        "failed shuffle-file append", "jump past the heartbeat grace",
        "jump past the task deadline", "jump past the connect grace",
        "restart budget exhausted", "quarantine", "credit ack", "parked",
        "connection drop", "phase committed", "backup launched",
        "backup won", "loser's result discarded", "loser cancelled",
        "cancel at teardown", "in-process deadline cancel",
        "in-process dawdle", "in-process phase committed"}) {
    EXPECT_GT(coverage[event], 0) << "no schedule reached: " << event;
  }
  std::string seen;
  for (const auto& [event, n] : coverage) {
    seen += event + " " + std::to_string(n) + "\n";
  }
  RecordProperty("coverage", seen);
}

// A seed is its whole schedule: replayed alone, it takes the same steps.
TEST_F(SupervisorSimTest, ASeedReplaysItsSchedule) {
  for (uint64_t seed : {uint64_t{6}, uint64_t{7}, uint64_t{8}}) {
    Coverage coverage;
    std::string first;
    std::string second;
    EXPECT_EQ(SimulateSchedule(seed, &coverage, &first), "");
    EXPECT_EQ(SimulateSchedule(seed, &coverage, &second), "");
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

// ------------------------------------------------- scripted remote drops

// PhaseIo for a remote crew the test plays by hand: every send succeeds and
// is kept per link.
class ScriptIo : public PhaseIo {
 public:
  Status Send(uint64_t link, const Frame& frame) override {
    sent[link].push_back(frame);
    return Status::OK();
  }
  Result<std::pair<uint64_t, uint64_t>> Spawn(uint64_t) override {
    return Status::Internal("a remote phase forks no workers");
  }
  bool KillAndReap(uint64_t, double) override { return false; }
  void Close(uint64_t) override {}
  void Park(uint64_t, uint64_t) override {}
  Result<SpillRun> AppendRun(const RunBeginMsg&, std::string_view) override {
    return Status::Internal("the script ships no disk runs");
  }

  std::map<uint64_t, std::vector<Frame>> sent;
};

// One single-task remote phase whose workers the test plays frame by frame
// on a simulated clock. A task that kills two workers in a row is poison,
// and skip_bad_records is off, so a second worker-killing drop fails it.
struct ScriptedPhase {
  explicit ScriptedPhase(double deadline) {
    options.exec_mode = ExecMode::kRemote;
    options.task_deadline_seconds = deadline;
    options.quarantine_after_crashes = 2;
    phase.job_name = "scripted";
    phase.num_tasks = 1;
    phase.remote_setup = JobSetupMsg{}.Encode();
    phase.remote_input = [](size_t) -> Result<std::string> {
      return std::string();
    };
    machine = std::make_unique<PhaseMachine>(
        options, phase,
        [this](size_t, bool, double, std::string payload,
               std::vector<SpillRun>) {
          committed = std::move(payload);
          return Status::OK();
        },
        &counters, &io);
    EXPECT_TRUE(machine->Start({}, now).ok());
  }

  void Deliver(uint64_t link, MessageType type, std::string payload) {
    Frame frame{type, std::move(payload)};
    machine->OnFrame(link, &frame, now);
  }

  // Worker `id` dials on `link` and says hello; the clock runs until the
  // task is handed to it, and its assignment is returned.
  TaskAssignMsg Join(uint64_t link, uint64_t id) {
    machine->OnOffer(link, now);
    HelloMsg hello;
    hello.worker_id = id;
    Deliver(link, MessageType::kHello, hello.Encode());
    TaskAssignMsg assign;
    while (!machine->done()) {
      machine->Tick(now);
      for (const Frame& f : io.sent[link]) {
        if (f.type == MessageType::kTaskAssign) {
          EXPECT_TRUE(TaskAssignMsg::Decode(f.payload, &assign).ok());
          return assign;
        }
      }
      now += 0.01;
    }
    return assign;
  }

  // Runs the clock `seconds` on in quarter-second ticks; the worker on
  // `beating` (0 for none) heartbeats before each.
  void Pass(double seconds, uint64_t beating) {
    for (const double end = now + seconds; now < end && !machine->done();) {
      now += 0.25;
      if (beating != 0) Deliver(beating, MessageType::kHeartbeat, "");
      machine->Tick(now);
    }
  }

  Options options;
  SupervisedPhase phase;
  JobCounters counters;
  ScriptIo io;
  std::string committed;
  std::unique_ptr<PhaseMachine> machine;
  double now = 0.0;
};

// A remote worker dropped for overrunning the task deadline, or for going
// silent, is charged as a hang, as a forked one is: two such drops in a row
// are not a poisonous record, and the task commits on a third worker.
TEST(RemoteDropChargeTest, DeadlineAndSilenceDropsAreHangs) {
  for (const bool silent : {false, true}) {
    SCOPED_TRACE(silent ? "silent workers" : "workers past the deadline");
    ScriptedPhase p(/*deadline=*/3.0);
    for (uint64_t link = 1; link <= 2; ++link) {
      p.Join(link, 100 + link);
      p.Pass(3.5, silent ? 0 : link);
    }
    const TaskAssignMsg assign = p.Join(3, 103);
    ResultMsg result;
    result.task = assign.task;
    result.attempt = assign.attempt;
    result.payload = "done";
    p.Deliver(3, MessageType::kResult, result.Encode());
    const Status st = p.machine->Teardown();
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(p.committed, "done");
    EXPECT_EQ(p.counters.deadline_kills, silent ? 0u : 2u);
    EXPECT_EQ(p.counters.workers_evicted, 2u);
    EXPECT_EQ(p.counters.tasks_reassigned, 2u);
    EXPECT_EQ(p.counters.map_task_retries, 2u);
    EXPECT_EQ(p.counters.worker_hangs + p.counters.worker_crashes, 0u);
  }
}

// A remote worker whose link fails may be dead: no waitpid can tell. It is
// dropped at once and its attempt charged as a crash, so two link losses in
// a row make the task poison, with no grace waited out.
TEST(RemoteDropChargeTest, TwoLinkLossesInARowArePoison) {
  ScriptedPhase p(/*deadline=*/0.0);
  for (uint64_t link = 1; link <= 2 && !p.machine->done(); ++link) {
    p.Join(link, 100 + link);
    p.machine->OnLost(link, p.now);
  }
  EXPECT_TRUE(p.machine->done());
  const Status st = p.machine->Teardown();
  EXPECT_NE(st.ToString().find("2 consecutive workers (poisonous record"),
            std::string::npos)
      << st.ToString();
  EXPECT_EQ(p.committed, "");
  EXPECT_EQ(p.counters.workers_evicted, 2u);
  EXPECT_EQ(p.counters.tasks_reassigned, 2u);
  EXPECT_LT(p.now, 1.0);
}

}  // namespace
}  // namespace mr
}  // namespace ddp
