#include "mapreduce/supervisor.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/backoff.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/serde.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/spill.h"
#include "obs/heartbeat.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
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
  w.PutVarint64(generation);
  return bytes;
}

Status HelloMsg::Decode(const std::string& bytes, HelloMsg* out) {
  BufferReader r(bytes);
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->worker_id));
  DDP_RETURN_NOT_OK(r.GetVarint64(&out->generation));
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

/// A busy worker silent for more than this many heartbeat intervals is
/// declared hung.
constexpr double kHeartbeatGrace = 8.0;
/// Seeded exponential backoff before a failed task's next attempt and
/// before each replacement worker is forked.
constexpr ExponentialBackoff::Params kRetryBackoff{0.002, 2.0, 0.25, 0.25};
constexpr ExponentialBackoff::Params kRespawnBackoff{0.002, 2.0, 0.25, 0.25};
/// How long a disconnected remote worker is held (attempt and committed
/// runs kept) before it is evicted and its task reassigned.
constexpr double kReconnectGraceSeconds = 5.0;

double SecondsSince(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration<double>(now - then).count();
}

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(std::max(s, 0.0)));
}

Status StatusFromWire(int32_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case StatusCode::kIoError:
      return Status::IoError(std::move(message));
    case StatusCode::kNotImplemented:
      return Status::NotImplemented(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kInternal:
      break;
  }
  return Status::Internal(std::move(message));
}

/// A run currently arriving over the channel.
struct OpenRun {
  RunBeginMsg begin;
  std::string buf;  // accumulated run bytes, trailer included
  Clock::time_point started{};
};

/// Per-attempt commit state on the supervisor side: runs committed so far
/// (disk-backed ones in a supervisor-owned spill file), ack bookkeeping,
/// and the run in flight. Discarded wholesale when the attempt fails —
/// dropping `writer`'s last handle reference unlinks the file.
struct AttemptStream {
  std::vector<SpillRun> committed;
  uint64_t committed_bytes = 0;
  uint64_t last_acked_bytes = 0;
  std::unique_ptr<SpillFileWriter> writer;
  std::optional<OpenRun> open;
};

struct Worker {
  pid_t pid = -1;  // -1 for remote workers: their process is not our child
  uint64_t id = 0;
  /// Remote workers run a registered job in an exec'd ddp_worker process;
  /// they are fed kTaskAssign frames and evicted (never killed or reaped)
  /// when they disappear.
  bool remote = false;
  /// Null while a remote worker is reconnecting after a drop.
  std::unique_ptr<CommChannel> ch;
  bool busy = false;
  size_t task = 0;
  size_t attempt = 0;
  Clock::time_point dispatched{};
  Clock::time_point last_beat{};
  AttemptStream stream;
  std::unique_ptr<obs::Span> span;
};

struct TaskState {
  size_t failed_attempts = 0;
  size_t next_attempt = 0;
  bool done = false;
  bool in_flight = false;
  bool quarantined = false;
  size_t consecutive_crashes = 0;
  Clock::time_point not_before{};  // backoff gate for the next attempt
};

void ReapPid(pid_t pid) {
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

Status WorkerSupervisor::RunPhase(const SupervisorConfig& cfg,
                                  const WorkerTaskFn& fn, const CommitFn& commit,
                                  SupervisorStats* stats) {
  if (cfg.num_tasks == 0) return Status::OK();
  const char* phase_name = cfg.phase == 0 ? "map" : "reduce";

  DDP_TRACE_SPAN(phase_span, obs::kCatMr, obs::kSpanSupervisedPhase);
  if (phase_span.active()) {
    phase_span.AddArg("job", cfg.job_name);
    phase_span.AddArg("phase", std::string_view(phase_name));
    phase_span.AddArg("tasks", static_cast<uint64_t>(cfg.num_tasks));
  }
  obs::Histogram* crash_hist = obs::MetricsRegistry::Global().GetHistogram(
      obs::kMetricMrWorkerCrashLatencySeconds);
  obs::Histogram* ship_hist =
      obs::MetricsRegistry::Global().GetHistogram(obs::kMetricMrRunShipSeconds);

  // Remote workers dial the pool's phase-outliving listener, so they keep
  // one stable endpoint across phases; forked workers need none.
  TcpListener* listener =
      cfg.remote_pool != nullptr ? cfg.remote_pool->listener() : nullptr;

  const uint64_t window = cfg.stream_window_bytes > 0
                              ? cfg.stream_window_bytes
                              : (uint64_t{4} << 20);
  const uint64_t ack_threshold = std::max<uint64_t>(1, window / 2);
  // How long a disconnected remote worker (or an empty remote crew) is
  // waited for before it is evicted (or the phase fails).
  const double connect_grace = kReconnectGraceSeconds + 1.0;

  std::vector<Worker> workers;
  std::vector<TaskState> tasks(cfg.num_tasks);
  std::atomic<size_t> completed{0};
  size_t restarts_used = 0;
  uint64_t next_worker_id = 1;
  Status job_error;

  // A remote phase forks no workers; a fork phase needs at least one.
  const size_t fork_target =
      cfg.remote_pool != nullptr
          ? 0
          : std::max<size_t>(1, std::min(cfg.num_workers, cfg.num_tasks));
  const ExponentialBackoff respawn_backoff(
      kRespawnBackoff, SplitSeed(cfg.backoff_seed, 0x5e5u));
  auto task_backoff = [&cfg](size_t t) {
    return ExponentialBackoff(kRetryBackoff, SplitSeed(cfg.backoff_seed, t));
  };

  auto spawn_worker = [&]() -> Status {
    const uint64_t id = next_worker_id++;
    WorkerMainConfig wc;
    wc.worker_id = id;

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
      for (Worker& w : workers) {
        if (w.ch != nullptr) w.ch->Close();
      }
      WorkerMain(std::move(ends.second), fn, wc);
    }
    ends.second->Close();
    Worker w;
    w.pid = pid;
    w.id = id;
    w.ch = std::move(ends.first);
    w.last_beat = Clock::now();
    w.span = std::make_unique<obs::Span>(obs::kCatMr, obs::kSpanWorker);
    if (w.span->active()) {
      w.span->AddArg("job", cfg.job_name);
      w.span->AddArg("phase", std::string_view(phase_name));
      w.span->AddArg("pid", static_cast<uint64_t>(pid));
    }
    workers.push_back(std::move(w));
    return Status::OK();
  };

  // Charges a failed attempt of `t` and decides retry / quarantine / abort.
  // `crashed` marks worker-killing failures (they feed the poison counter).
  auto charge_failure = [&](size_t t, bool crashed, const Status& why) {
    TaskState& ts = tasks[t];
    ts.in_flight = false;
    if (ts.done) return;
    if (crashed) {
      ++ts.consecutive_crashes;
    } else {
      ts.consecutive_crashes = 0;
    }
    ++ts.failed_attempts;
    if (!ts.quarantined &&
        ts.consecutive_crashes >= cfg.quarantine_after_crashes) {
      if (cfg.skip_bad_records) {
        // Poisonous record: re-run the task in quarantine with a fresh
        // attempt budget — Hadoop's skip-mode re-execution.
        ts.quarantined = true;
        ts.failed_attempts = 0;
        ts.consecutive_crashes = 0;
        ++stats->quarantined_tasks;
        DDP_METRIC_COUNTER_ADD(obs::kMetricMrQuarantinedTasks, 1);
        DDP_LOG(Warning) << cfg.job_name << " " << phase_name << " task " << t
                         << " crashed " << cfg.quarantine_after_crashes
                         << " consecutive workers; quarantining";
      } else {
        job_error = Status::Internal(
            std::string(phase_name) + " task " + std::to_string(t) +
            " crashed " + std::to_string(ts.consecutive_crashes) +
            " consecutive workers (poisonous record; enable "
            "skip_bad_records to quarantine): " +
            why.ToString());
        return;
      }
    } else if (ts.failed_attempts >= cfg.max_task_attempts) {
      job_error = Status::Internal(
          std::string(phase_name) + " task " + std::to_string(t) +
          " failed after " + std::to_string(cfg.max_task_attempts) +
          " attempts; last error: " + why.ToString());
      return;
    }
    ++stats->retries;
    ts.not_before =
        Clock::now() +
        FromSeconds(task_backoff(t).DelaySeconds(
            ts.failed_attempts == 0 ? 0 : ts.failed_attempts - 1));
  };

  // Tears down worker `wi` after its death or kill. `hang` marks workers we
  // SIGKILLed for deadline/heartbeat silence; everything else is a crash.
  auto handle_worker_death = [&](size_t wi, bool hang, bool deadline_hit) {
    Worker w = std::move(workers[wi]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(wi));
    if (w.ch != nullptr) w.ch->Close();
    ReapPid(w.pid);
    if (hang) {
      ++stats->worker_hangs;
      if (deadline_hit) ++stats->deadline_kills;
    } else {
      ++stats->worker_crashes;
      DDP_METRIC_COUNTER_ADD(obs::kMetricMrWorkerCrashes, 1);
    }
    if (w.span != nullptr) {
      if (w.span->active()) {
        w.span->AddArg("exit", hang ? "hang" : "crash");
        w.span->MarkCancelled();
      }
      w.span.reset();
    }
    if (w.busy) {
      crash_hist->RecordSeconds(SecondsSince(w.dispatched, Clock::now()));
      charge_failure(w.task, /*crashed=*/!hang,
                     hang ? Status::DeadlineExceeded("worker hang")
                          : Status::Internal("worker crashed"));
    }
    // `w.stream` dies with the worker: its partially-streamed runs and the
    // supervisor-side spill file of this attempt are dropped (the writer
    // handle unlinks on destruction), and the dead worker's own files are
    // orphans the reaper collects.
    if (!cfg.spill_dir.empty()) {
      stats->spill_files_reaped += ReapOrphanSpillFiles(cfg.spill_dir);
    }
  };

  // Drops remote worker `wi` from the phase. Its process is not our child —
  // no SIGKILL, no waitpid, no local spill orphans — so "death" is an
  // eviction: the worker is forgotten and its in-flight task (if any) is
  // reassigned to a surviving worker through the normal retry path.
  auto evict_remote = [&](size_t wi, bool deadline_hit) {
    Worker w = std::move(workers[wi]);
    workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(wi));
    if (w.ch != nullptr) w.ch->Close();
    ++stats->workers_evicted;
    DDP_METRIC_COUNTER_ADD(obs::kMetricMrWorkersEvicted, 1);
    if (deadline_hit) ++stats->deadline_kills;
    if (w.span != nullptr) {
      if (w.span->active()) {
        w.span->AddArg("exit", "evicted");
        w.span->MarkCancelled();
      }
      w.span.reset();
    }
    if (w.busy) {
      crash_hist->RecordSeconds(SecondsSince(w.dispatched, Clock::now()));
      ++stats->tasks_reassigned;
      DDP_METRIC_COUNTER_ADD(obs::kMetricMrTasksReassigned, 1);
      charge_failure(w.task, /*crashed=*/true,
                     deadline_hit
                         ? Status::DeadlineExceeded("remote worker deadline")
                         : Status::Internal("remote worker lost"));
    }
  };

  auto kill_worker = [&](size_t wi, bool hang, bool deadline_hit) {
    if (workers[wi].remote) {
      evict_remote(wi, deadline_hit);
      return;
    }
    ::kill(workers[wi].pid, SIGKILL);
    ++stats->worker_kills;
    DDP_METRIC_COUNTER_ADD(obs::kMetricMrWorkerKills, 1);
    handle_worker_death(wi, hang, deadline_hit);
  };

  // Discards the run that was arriving when a connection dropped; the
  // worker re-ships it from the committed boundary after reconnecting.
  auto discard_open_run = [&](Worker& w) {
    if (!w.stream.open.has_value()) return;
    w.stream.open.reset();
    ++stats->shuffle_resent_runs;
    DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleResentRuns, 1);
  };

  // Admits a remote worker: install the phase's registered job over
  // kJobSetup, then schedule it like any other crew member. A worker whose
  // prior registration was evicted redials with generation > 0 and gets a
  // kNoTask resume ack first, telling it to drop any pending attempt.
  auto admit_remote = [&](uint64_t id, std::unique_ptr<CommChannel> ch,
                          bool resumed) {
    if (resumed) {
      RunAckMsg ack;
      ack.task = RunAckMsg::kNoTask;
      if (!ch->Send(Frame{MessageType::kRunAck, ack.Encode()}).ok()) {
        ch->Close();
        return;
      }
    }
    if (!ch->Send(Frame{MessageType::kJobSetup, cfg.remote_setup_payload})
             .ok()) {
      ch->Close();
      return;
    }
    Worker w;
    w.remote = true;
    w.id = id;
    w.ch = std::move(ch);
    w.last_beat = Clock::now();
    w.span = std::make_unique<obs::Span>(obs::kCatMr, obs::kSpanRemoteWorker);
    if (w.span->active()) {
      w.span->AddArg("job", cfg.job_name);
      w.span->AddArg("phase", std::string_view(phase_name));
      w.span->AddArg("worker_id", id);
    }
    workers.push_back(std::move(w));
    ++stats->workers_registered;
    DDP_METRIC_COUNTER_ADD(obs::kMetricMrWorkersRegistered, 1);
  };

  // Accepts one pending connection off the pool's listener: a remote worker
  // redialing after a drop is matched to its held slot by hello worker id
  // and gets a resume kRunAck; any other hello is a new admission (only
  // ddp_worker processes dial this listener).
  auto accept_connection = [&]() {
    auto accepted = listener->Accept(/*timeout_seconds=*/0.25);
    if (!accepted.ok()) return;
    std::unique_ptr<TcpChannel> ch = std::move(accepted).value();
    Frame hello_frame;
    HelloMsg hello;
    if (!ch->Recv(&hello_frame, /*timeout_seconds=*/2.0).ok() ||
        hello_frame.type != MessageType::kHello ||
        !HelloMsg::Decode(hello_frame.payload, &hello).ok()) {
      ch->Close();  // not one of ours (or it died mid-handshake)
      return;
    }
    Worker* w = nullptr;
    for (Worker& cand : workers) {
      if (cand.remote && cand.id == hello.worker_id) {
        w = &cand;
        break;
      }
    }
    if (w == nullptr) {
      admit_remote(hello.worker_id, std::move(ch), hello.generation > 0);
      return;
    }
    if (w->ch != nullptr) w->ch->Close();
    w->ch = std::move(ch);
    w->last_beat = Clock::now();
    if (hello.generation > 0) {
      ++stats->channel_reconnects;
      DDP_METRIC_COUNTER_ADD(obs::kMetricMrChannelReconnects, 1);
      discard_open_run(*w);
      RunAckMsg ack;
      if (w->busy) {
        ack.task = w->task;
        ack.attempt = w->attempt;
        ack.acked_runs = w->stream.committed.size();
        ack.acked_bytes = w->stream.committed_bytes;
        w->stream.last_acked_bytes = w->stream.committed_bytes;
      } else {
        ack.task = RunAckMsg::kNoTask;
      }
      (void)w->ch->Send(Frame{MessageType::kRunAck, ack.Encode()});
    }
  };

  // ---- Streamed-shuffle frame handlers. A protocol violation (bad seq,
  // size overrun, CRC mismatch) means record boundaries are unreliable:
  // kill the worker and retry its attempt from scratch.

  auto handle_run_begin = [&](Worker& w, const std::string& payload) -> bool {
    RunBeginMsg msg;
    if (!RunBeginMsg::Decode(payload, &msg).ok() || !w.busy ||
        msg.task != w.task || msg.attempt != w.attempt ||
        msg.seq != w.stream.committed.size() || w.stream.open.has_value()) {
      return false;
    }
    // The declared length comes from another process, so reserve at most
    // the credit window, a bound this supervisor set; handle_run_data
    // rejects bytes past the declared length. Reserving the run's size up
    // front keeps a held in-memory run from carrying growth slack.
    OpenRun open;
    open.begin = msg;
    open.buf.reserve(static_cast<size_t>(std::min(msg.length, window)));
    open.started = Clock::now();
    w.stream.open.emplace(std::move(open));
    return true;
  };

  auto handle_run_data = [&](Worker& w, std::string& payload) -> bool {
    if (!w.stream.open.has_value()) return false;
    OpenRun& open = *w.stream.open;
    if (open.buf.size() + payload.size() > open.begin.length) return false;
    open.buf.append(payload);
    return true;
  };

  auto handle_run_end = [&](Worker& w, const std::string& payload) -> bool {
    RunEndMsg msg;
    if (!RunEndMsg::Decode(payload, &msg).ok() || !w.stream.open.has_value()) {
      return false;
    }
    OpenRun open = std::move(*w.stream.open);
    w.stream.open.reset();
    if (msg.task != open.begin.task || msg.attempt != open.begin.attempt ||
        msg.seq != open.begin.seq || open.buf.size() != open.begin.length) {
      return false;
    }
    std::string run = std::move(open.buf);
    if (!VerifyAndStripRunTrailer(&run).ok()) return false;
    SpillRun cr;
    cr.partition = open.begin.partition;
    cr.spill_index = open.begin.spill_index;
    if (open.begin.spill_index == kTailRunIndex) {
      // In-memory run: kept as bare frames.
      cr.bytes = std::move(run);
      cr.length = open.begin.length;
    } else {
      // Disk-backed run: append to this attempt's supervisor-owned spill
      // file. Its EndRun writes a fresh trailer, so the committed extent
      // is a byte-faithful SpillRun.
      if (w.stream.writer == nullptr) {
        const std::string dir = internal::ResolveSpillDir(cfg.spill_dir);
        const std::string basename =
            cfg.job_name + "-" + phase_name + "-shuffle-" +
            internal::SpillOwnerTag() + "-u" +
            std::to_string(internal::NextSpillFileId()) + ".spill";
        auto created = SpillFileWriter::Create(dir, basename);
        if (!created.ok()) {
          job_error = created.status();
          return true;  // job fails; no point killing the worker over it
        }
        w.stream.writer = std::move(created).value();
      }
      w.stream.writer->BeginRun();
      w.stream.writer->Append(run.data(), run.size());
      auto extent = w.stream.writer->EndRun();
      if (!extent.ok()) {
        job_error = extent.status();
        return true;
      }
      cr.file = w.stream.writer->handle();
      cr.offset = extent.value().offset;
      cr.length = extent.value().length;
    }
    w.stream.committed.push_back(std::move(cr));
    w.stream.committed_bytes += open.begin.length;
    stats->shuffle_streamed_bytes += open.begin.length;
    DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleStreamedBytes, open.begin.length);
    ship_hist->RecordSeconds(SecondsSince(open.started, Clock::now()));
    // Credit-based backpressure: ack at least every half window so a
    // blocked worker always has a credit frame coming.
    if (w.stream.committed_bytes - w.stream.last_acked_bytes >=
        ack_threshold) {
      RunAckMsg ack;
      ack.task = w.task;
      ack.attempt = w.attempt;
      ack.acked_runs = w.stream.committed.size();
      ack.acked_bytes = w.stream.committed_bytes;
      w.stream.last_acked_bytes = w.stream.committed_bytes;
      (void)w.ch->Send(Frame{MessageType::kRunAck, ack.Encode()});
    }
    return true;
  };

  // ---- Initial crew: the remote workers parked by an earlier phase, or
  // the forked crew, of which at least the first worker must fork.
  if (cfg.remote_pool != nullptr) {
    for (RemoteWorkerPool::Parked& parked : cfg.remote_pool->TakeParked()) {
      admit_remote(parked.id, std::move(parked.channel), /*resumed=*/false);
    }
  }
  for (size_t i = 0; i < fork_target; ++i) {
    Status st = spawn_worker();
    if (!st.ok()) {
      if (workers.empty()) {
        return Status::Internal(cfg.job_name + " " + phase_name +
                                ": cannot fork a worker: " + st.ToString());
      }
      DDP_LOG(Warning) << cfg.job_name << ": spawned only " << workers.size()
                       << "/" << fork_target
                       << " workers: " << st.ToString();
      break;
    }
  }

  std::optional<obs::ProgressHeartbeat> progress;
  if (cfg.progress_heartbeat_seconds > 0.0) {
    progress.emplace(cfg.progress_heartbeat_seconds, [&completed, &cfg,
                                                      phase_name] {
      return cfg.job_name + " " + phase_name + " (fork): " +
             std::to_string(completed.load(std::memory_order_relaxed)) + "/" +
             std::to_string(cfg.num_tasks) + " tasks done";
    });
  }

  Clock::time_point next_respawn = Clock::now();
  Clock::time_point last_crew = Clock::now();

  // ---- Event loop: dispatch, poll, classify, repeat.
  while (completed.load(std::memory_order_relaxed) < cfg.num_tasks &&
         job_error.ok()) {
    const Clock::time_point now = Clock::now();

    // Respawn toward the forked target crew while the restart budget lasts.
    if (workers.size() < fork_target && now >= next_respawn) {
      if (restarts_used < cfg.max_worker_restarts) {
        Status st = spawn_worker();
        if (st.ok()) {
          ++restarts_used;
          ++stats->worker_restarts;
          DDP_METRIC_COUNTER_ADD(obs::kMetricMrWorkerRestarts, 1);
        } else if (workers.empty()) {
          job_error = Status::Internal("cannot respawn any worker: " +
                                       st.ToString());
          break;
        }
        next_respawn =
            now + FromSeconds(respawn_backoff.DelaySeconds(restarts_used));
      } else if (workers.empty()) {
        job_error = Status::Internal(
            "all workers dead and the restart budget (" +
            std::to_string(cfg.max_worker_restarts) + ") is exhausted");
        break;
      }
    }
    // Remote-crew watchdog: with a pool, an empty crew is legitimate while
    // remote workers are still dialing in, but only for the connect grace.
    if (cfg.remote_pool != nullptr) {
      if (!workers.empty()) {
        last_crew = now;
      } else if (SecondsSince(last_crew, now) > connect_grace) {
        job_error = Status::Internal(
            cfg.job_name + " " + phase_name +
            ": no remote worker within the connect grace (pool on port " +
            std::to_string(listener->port()) + ")");
        break;
      }
    }

    // Dispatch ready tasks to idle, connected workers (lowest task id
    // first, so runs are easy to reason about; commit order is by task id
    // regardless).
    for (Worker& w : workers) {
      if (!job_error.ok()) break;
      if (w.busy || w.ch == nullptr) continue;
      for (size_t t = 0; t < cfg.num_tasks; ++t) {
        TaskState& ts = tasks[t];
        if (ts.done || ts.in_flight || now < ts.not_before) continue;
        TaskAssignMsg msg{t, ts.next_attempt, ts.quarantined, window, {}};
        if (w.remote) {
          // Remote workers get the task's serialized input by value: they
          // share no address space, so nothing can ride copy-on-write.
          auto input = cfg.remote_task_input(t);
          if (!input.ok()) {
            job_error = input.status();
            break;
          }
          msg.input = std::move(input).value();
        }
        const size_t attempt = ts.next_attempt++;
        Status sent =
            w.ch->Send(Frame{MessageType::kTaskAssign, msg.Encode()});
        if (sent.ok()) {
          w.busy = true;
          w.task = t;
          w.attempt = attempt;
          w.dispatched = now;
          w.last_beat = now;
          w.stream = AttemptStream{};
          ts.in_flight = true;
        } else {
          // A dead socket shows up as a failed send; the poll pass below
          // will see the EOF and run the death path. Re-arm the attempt.
          --ts.next_attempt;
        }
        break;
      }
    }

    // Wait for worker traffic; the 10ms cap bounds backoff-gate, respawn,
    // and hang-scan latency. The remote pool's listener polls alongside the
    // workers.
    std::vector<struct pollfd> pfds;
    std::vector<uint64_t> pfd_ids;  // worker ids; remote workers have no pid
    pfds.reserve(workers.size() + 1);
    for (const Worker& w : workers) {
      if (w.ch == nullptr) continue;
      pfds.push_back({w.ch->fd(), POLLIN, 0});
      pfd_ids.push_back(w.id);
    }
    size_t listener_slot = pfds.size();
    if (listener != nullptr) {
      pfds.push_back({listener->fd(), POLLIN, 0});
      pfd_ids.push_back(0);  // worker ids start at 1; 0 is the listener
    }
    if (!pfds.empty()) {
      const int rc = ::poll(pfds.data(),
                            static_cast<nfds_t>(pfds.size()), /*timeout=*/10);
      if (rc < 0 && errno != EINTR) {
        job_error = Status::Internal(std::string("supervisor poll failed: ") +
                                     std::strerror(errno));
        break;
      }
    }

    // Attach fresh connections first, so a reconnecting worker's frames
    // are read from its new channel this very iteration.
    if (listener != nullptr && listener_slot < pfds.size() &&
        (pfds[listener_slot].revents & POLLIN) != 0) {
      accept_connection();
    }

    for (size_t i = 0; i < pfds.size() && job_error.ok(); ++i) {
      if (i == listener_slot) continue;
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Re-find the worker: earlier death handling may have reshuffled.
      size_t wi = workers.size();
      for (size_t j = 0; j < workers.size(); ++j) {
        if (workers[j].id == pfd_ids[i]) {
          wi = j;
          break;
        }
      }
      if (wi == workers.size()) continue;
      Worker& w = workers[wi];
      // Stale-descriptor guard: a reconnect may have replaced the channel
      // after this poll set was built.
      if (w.ch == nullptr || w.ch->fd() != pfds[i].fd) continue;
      Frame frame;
      Status received = w.ch->Recv(&frame, /*timeout_seconds=*/30.0);
      if (!received.ok()) {
        if (w.remote) {
          // No waitpid can tell a remote crash from a network drop: hold
          // the attempt and committed runs for the reconnect grace; the
          // hang scan evicts (and reassigns) if no redial arrives.
          w.ch->Close();
          w.ch.reset();
          w.last_beat = Clock::now();
          discard_open_run(w);
          continue;
        }
        // EOF or a corrupt frame on a forked worker's socketpair: record
        // boundaries are gone and the worker is unusable. Make sure it is
        // dead, then classify.
        ::kill(w.pid, SIGKILL);
        handle_worker_death(wi, /*hang=*/false, /*deadline_hit=*/false);
        continue;
      }
      w.last_beat = Clock::now();
      if (frame.type == MessageType::kRunBegin ||
          frame.type == MessageType::kRunData ||
          frame.type == MessageType::kRunEnd) {
        bool protocol_ok = false;
        if (frame.type == MessageType::kRunBegin) {
          protocol_ok = handle_run_begin(w, frame.payload);
        } else if (frame.type == MessageType::kRunData) {
          protocol_ok = handle_run_data(w, frame.payload);
        } else {
          protocol_ok = handle_run_end(w, frame.payload);
        }
        if (!protocol_ok) {
          if (w.remote) {
            evict_remote(wi, /*deadline_hit=*/false);
          } else {
            ::kill(w.pid, SIGKILL);
            ++stats->worker_kills;
            handle_worker_death(wi, /*hang=*/false, /*deadline_hit=*/false);
          }
        }
        continue;
      }
      if (frame.type == MessageType::kResult) {
        ResultMsg msg;
        Status decoded = ResultMsg::Decode(frame.payload, &msg);
        if (!decoded.ok() || msg.task >= cfg.num_tasks ||
            w.stream.open.has_value()) {
          if (w.remote) {
            evict_remote(wi, /*deadline_hit=*/false);
          } else {
            ::kill(w.pid, SIGKILL);
            ++stats->worker_kills;
            handle_worker_death(wi, /*hang=*/false, /*deadline_hit=*/false);
          }
          continue;
        }
        w.busy = false;
        AttemptStream stream = std::move(w.stream);
        w.stream = AttemptStream{};
        TaskState& ts = tasks[msg.task];
        // The worker survived the attempt, whatever its verdict: the
        // poison counter tracks worker-killing records only.
        ts.consecutive_crashes = 0;
        Status attempt_status =
            StatusFromWire(msg.status_code, msg.status_message);
        if (ts.done) continue;  // defensive: no duplicate commits
        if (attempt_status.ok()) {
          if (stream.writer != nullptr) {
            Status closed = stream.writer->Close();
            if (!closed.ok()) {
              job_error = closed;
              continue;
            }
          }
          ts.done = true;
          ts.in_flight = false;
          completed.fetch_add(1, std::memory_order_relaxed);
          stats->durations.push_back(msg.seconds);
          Status committed =
              commit(msg.task, ts.quarantined, msg.seconds,
                     std::move(msg.payload), std::move(stream.committed));
          if (!committed.ok()) job_error = committed;
        } else if (attempt_status.IsIoError()) {
          // Deterministically corrupt input: retrying re-reads the same
          // bytes. Fail fast, matching the in-process scheduler.
          job_error = attempt_status;
        } else {
          charge_failure(msg.task, /*crashed=*/false, attempt_status);
        }
      }
      // kHello and kHeartbeat only refresh last_beat, done above.
    }
    if (!job_error.ok()) break;

    // Hang scan: deadline overruns, heartbeat silence, and remote workers
    // that out-stayed the reconnect grace are killed (forked) or evicted
    // (remote) and charged like an in-process deadline kill.
    const Clock::time_point scan_now = Clock::now();
    for (size_t wi = workers.size(); wi-- > 0;) {
      Worker& w = workers[wi];
      if (w.ch == nullptr) {
        if (SecondsSince(w.last_beat, scan_now) > connect_grace) {
          kill_worker(wi, /*hang=*/true, /*deadline_hit=*/false);
        }
        continue;
      }
      if (!w.busy) continue;
      const bool deadline_hit =
          cfg.task_deadline_seconds > 0.0 &&
          SecondsSince(w.dispatched, scan_now) > cfg.task_deadline_seconds;
      const bool silent = SecondsSince(w.last_beat, scan_now) >
                          kHeartbeatGrace * kWorkerHeartbeatSeconds;
      if (deadline_hit || silent) {
        kill_worker(wi, /*hang=*/true, deadline_hit);
      }
    }
  }

  // ---- Teardown: polite shutdown, bounded wait, then force. The pool's
  // listener is left open — it outlives the phase.
  // Remote workers outlive the phase: park healthy idle ones back into the
  // pool for the next phase; anything mid-attempt or disconnected is told
  // to shut down instead (its process is not our child — nothing to reap).
  for (Worker& w : workers) {
    if (!w.remote) continue;
    if (w.ch != nullptr && !w.busy) {
      cfg.remote_pool->Park(w.id, std::move(w.ch));
    } else if (w.ch != nullptr) {
      (void)w.ch->Send(Frame{MessageType::kShutdown, ""});
      w.ch->Close();
    }
    if (w.span != nullptr) w.span.reset();
  }
  workers.erase(std::remove_if(workers.begin(), workers.end(),
                               [](const Worker& w) { return w.remote; }),
                workers.end());
  for (Worker& w : workers) {
    if (w.ch != nullptr) (void)w.ch->Send(Frame{MessageType::kShutdown, ""});
  }
  for (Worker& w : workers) {
    if (w.ch != nullptr) w.ch->Close();
  }
  for (Worker& w : workers) {
    const Clock::time_point give_up = Clock::now() + FromSeconds(2.0);
    bool reaped = false;
    while (Clock::now() < give_up) {
      int wstatus = 0;
      const pid_t got = ::waitpid(w.pid, &wstatus, WNOHANG);
      if (got == w.pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::poll(nullptr, 0, 5);  // 5ms nap between reap polls
    }
    if (!reaped) {
      ::kill(w.pid, SIGKILL);
      ++stats->worker_kills;
      ReapPid(w.pid);
    }
    if (w.span != nullptr) w.span.reset();
  }
  workers.clear();
  if (!job_error.ok() && !cfg.spill_dir.empty()) {
    stats->spill_files_reaped += ReapOrphanSpillFiles(cfg.spill_dir);
  }
  if (!job_error.ok() && phase_span.active()) phase_span.MarkCancelled();
  if (phase_span.active()) {
    phase_span.AddArg("worker_crashes", stats->worker_crashes);
    phase_span.AddArg("worker_restarts", stats->worker_restarts);
    phase_span.AddArg("streamed_bytes", stats->shuffle_streamed_bytes);
    phase_span.AddArg("reconnects", stats->channel_reconnects);
    phase_span.AddArg("workers_registered", stats->workers_registered);
    phase_span.AddArg("tasks_reassigned", stats->tasks_reassigned);
  }
  return job_error;
}

}  // namespace mr
}  // namespace ddp
