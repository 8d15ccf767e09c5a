#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include <unistd.h>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "mapreduce/supervisor.h"
#include "obs/heartbeat.h"

/// \file worker_main.cc
/// The worker side of multi-process execution, one loop for both kinds of
/// worker. A forked child inherits the job's typed closures and input
/// copy-on-write; an exec'd ddp_worker (remote_worker.h) installs a
/// registered job from kJobSetup and gets each task's input by value. Both
/// speak one protocol: the loop answers each kTaskAssign frame by running
/// the task body, streaming every run of its output (kRunBegin / kRunData*
/// / kRunEnd, raw spill bytes) under the credit window the frame carries,
/// then sending a slim kResult frame, and beats kHeartbeat every
/// kWorkerHeartbeatSeconds while an attempt runs or ships.
///
/// A successful attempt stays pending — runs, spill files and all — until
/// the next kTaskAssign arrives: the supervisor dispatches a new task only
/// after committing the previous result, so receiving one doubles as the
/// commit acknowledgement. Until then a dropped connection (TCP) is
/// survivable: reconnect with a bumped hello generation, read the resume
/// kRunAck, and re-ship from the last committed run boundary.
///
/// Exit discipline: the child leaves ONLY through _exit. Running the
/// parent's static destructors (thread pools, metric registries) in a
/// forked image would touch state whose owning threads do not exist here.
/// Pending spill files are released explicitly before _exit; files of a
/// SIGKILLed worker are recovered by the supervisor's orphan reaper.

namespace ddp {
namespace mr {

namespace {

/// The channel, shared between the task loop and the heartbeat thread.
/// Only the task loop replaces the pointer (on reconnect); the heartbeat
/// thread only sends, holding the mutex across the whole Send.
struct ChannelHolder {
  std::mutex mu;
  std::unique_ptr<CommChannel> ch;

  Status Send(const Frame& frame) {
    std::lock_guard<std::mutex> lock(mu);
    if (ch == nullptr) return Status::IoError("channel detached");
    // ddp-lint: allow(lock-across-blocking) -- holding mu across the Send is
    // the whole point of this wrapper: frames from the task loop and the
    // heartbeat thread must not interleave mid-frame on the shared channel.
    return ch->Send(frame);
  }

  /// Task-loop use only: the task loop is the sole replacer, so the raw
  /// pointer stays valid in its hands between replacements.
  CommChannel* get() {
    std::lock_guard<std::mutex> lock(mu);
    return ch.get();
  }

  void Replace(std::unique_ptr<CommChannel> next) {
    std::unique_ptr<CommChannel> old;
    {
      std::lock_guard<std::mutex> lock(mu);
      old = std::move(ch);
      ch = std::move(next);
    }
    if (old != nullptr) old->Close();
  }

  /// Drops the connection on purpose (chaos injection) with an orderly
  /// half-close: the supervisor reads every frame already in flight, then a
  /// clean EOF. An abrupt close() would race — unread acks in our receive
  /// buffer turn it into a TCP RST, which can flush the partial run out of
  /// the supervisor's receive buffer before it is seen, making the
  /// resent-run accounting nondeterministic. The descriptor stays open (we
  /// can still Recv) until the reconnect path replaces it.
  void ShutdownWriteCurrent() {
    std::lock_guard<std::mutex> lock(mu);
    if (ch != nullptr) ch->ShutdownWrite();
  }
};

/// A committed attempt waiting for its supervisor-side commit (signalled by
/// the next kTaskAssign). Holds the runs so a reconnect can re-ship them.
struct PendingAttempt {
  uint64_t task = 0;
  uint64_t attempt = 0;
  uint64_t window = 0;  // the credit window its kTaskAssign granted
  TaskResult result;
  std::string result_frame;  // encoded ResultMsg
  bool dropped = false;      // chaos drop already injected once
};

}  // namespace

int WorkerLoop(std::unique_ptr<CommChannel> channel, const WorkerTaskFn& fn,
               const WorkerMainConfig& cfg) {
  // Workers inherit the parent's stderr; only warnings and errors are worth
  // duplicating num_workers times.
  SetLogLevel(LogLevel::kWarning);
  // Forked children watch getppid() to notice supervisor death; an exec'd
  // remote worker (check_parent == false) has no parent to watch and relies
  // on channel errors instead.
  const pid_t supervisor_pid = cfg.check_parent ? ::getppid() : -1;

  ChannelHolder holder;
  holder.ch = std::move(channel);
  uint64_t generation = 0;

  // Liveness beats ride on a ProgressHeartbeat: its timer thread fires
  // `report`, which sends a kHeartbeat frame whenever a task is running or
  // streaming. Sends go through the holder, so the beat thread survives
  // channel replacement on reconnect.
  std::atomic<uint64_t> current_task{UINT64_MAX};
  std::optional<obs::ProgressHeartbeat> beat;
  beat.emplace(kWorkerHeartbeatSeconds, [&holder, &current_task] {
    const uint64_t t = current_task.load(std::memory_order_relaxed);
    if (t != UINT64_MAX) {
      (void)holder.Send(Frame{MessageType::kHeartbeat, std::string()});
    }
    return std::string("worker beat");
  });

  std::optional<PendingAttempt> pending;
  int exit_code = 0;

  // Ships `p`'s runs starting at run index `from_run` with `acked_bytes` of
  // credit already granted, then the result frame. kShutdown mid-stream is
  // Cancelled; a channel error bubbles up for the reconnect path.
  auto ship = [&](PendingAttempt& p, uint64_t from_run,
                  uint64_t acked_bytes) -> Status {
    const uint64_t total_runs = p.result.runs.size();
    const bool want_crash = p.result.crash_after_runs >= 0;
    const uint64_t crash_at =
        want_crash ? std::min<uint64_t>(
                         static_cast<uint64_t>(p.result.crash_after_runs),
                         total_runs)
                   : 0;
    const bool want_drop =
        p.result.drop_after_runs >= 0 && cfg.reconnect != nullptr;
    const uint64_t drop_at =
        want_drop ? std::min<uint64_t>(
                        static_cast<uint64_t>(p.result.drop_after_runs),
                        total_runs == 0 ? 0 : total_runs - 1)
                  : 0;
    uint64_t sent_bytes = acked_bytes;

    // Blocks until un-acked bytes fit under `cap`, draining queued acks.
    auto drain_until = [&](uint64_t cap) -> Status {
      while (sent_bytes - acked_bytes > cap) {
        Frame f;
        DDP_RETURN_NOT_OK(holder.get()->Recv(&f, /*timeout_seconds=*/30.0));
        if (f.type == MessageType::kShutdown) {
          return Status::Cancelled("shutdown mid-stream");
        }
        if (f.type != MessageType::kRunAck) continue;
        RunAckMsg ack;
        DDP_RETURN_NOT_OK(RunAckMsg::Decode(f.payload, &ack));
        if (ack.task == p.task && ack.attempt == p.attempt) {
          acked_bytes = ack.acked_bytes;
        }
      }
      return Status::OK();
    };

    constexpr size_t kChunk = 256 * 1024;
    for (uint64_t i = from_run; i < total_runs; ++i) {
      if (want_crash && i >= crash_at) CrashSelf();
      DDP_RETURN_NOT_OK(drain_until(p.window));
      const SpillRun& run = p.result.runs[i];
      std::string data;
      if (run.file != nullptr) {
        DDP_ASSIGN_OR_RETURN(
            data, ReadFileExtent(run.file->path(), run.offset, run.length));
      } else {
        // Copied (a reconnect may need to re-ship it) into room for the
        // trailer, so appending it does not reallocate the run.
        data.reserve(run.bytes.size() + 4);
        data.assign(run.bytes);
        AppendRunTrailer(&data);
      }
      RunBeginMsg begin;
      begin.task = p.task;
      begin.attempt = p.attempt;
      begin.seq = i;
      begin.partition = run.partition;
      begin.spill_index = run.spill_index;
      begin.length = data.size();
      DDP_RETURN_NOT_OK(
          holder.Send(Frame{MessageType::kRunBegin, begin.Encode()}));
      const bool drop_here = want_drop && !p.dropped && i == drop_at;
      size_t off = 0;
      do {
        const size_t n = std::min(kChunk, data.size() - off);
        DDP_RETURN_NOT_OK(
            holder.Send(Frame{MessageType::kRunData, data.substr(off, n)}));
        off += n;
        if (drop_here) {
          // Chaos: vanish mid-run after the first chunk. The partial run is
          // discarded by the supervisor and re-shipped after reconnect.
          p.dropped = true;
          holder.ShutdownWriteCurrent();
          return Status::IoError("injected channel drop");
        }
      } while (off < data.size());
      RunEndMsg end;
      end.task = p.task;
      end.attempt = p.attempt;
      end.seq = i;
      DDP_RETURN_NOT_OK(holder.Send(Frame{MessageType::kRunEnd, end.Encode()}));
      sent_bytes += data.size();
    }
    if (want_crash && crash_at >= total_runs) CrashSelf();
    if (want_drop && total_runs == 0 && !p.dropped) {
      p.dropped = true;
      holder.ShutdownWriteCurrent();
      return Status::IoError("injected channel drop");
    }
    return holder.Send(Frame{MessageType::kResult, p.result_frame});
  };

  // Re-establishes the channel and re-identifies. False: unrecoverable.
  auto reconnect = [&]() -> bool {
    if (cfg.reconnect == nullptr) return false;
    if (cfg.check_parent && ::getppid() != supervisor_pid) {
      return false;  // orphaned
    }
    auto next = cfg.reconnect();
    if (!next.ok()) return false;
    holder.Replace(std::move(next).value());
    ++generation;
    HelloMsg hello;
    hello.worker_id = cfg.worker_id;
    hello.generation = generation;
    return holder.Send(Frame{MessageType::kHello, hello.Encode()}).ok();
  };

  {
    HelloMsg hello;
    hello.worker_id = cfg.worker_id;
    (void)holder.Send(Frame{MessageType::kHello, hello.Encode()});
  }

  // Runs one attempt, ships its runs and result, and leaves the successful
  // attempt pending until the next task commits it. False: the loop should
  // exit (shutdown mid-stream).
  auto run_attempt = [&](const TaskAssignMsg& assign) -> bool {
    // A new task means the previous result was committed: its runs (and
    // their spill files) can finally go.
    pending.reset();
    current_task.store(assign.task, std::memory_order_relaxed);
    PendingAttempt p;
    p.task = assign.task;
    p.attempt = assign.attempt;
    p.window = assign.window_bytes;
    ResultMsg result;
    result.task = assign.task;
    result.attempt = assign.attempt;
    Stopwatch watch;
    Status st;
    try {
      st = fn(assign.task, assign.attempt, assign.quarantined, assign.input,
              &p.result);
    } catch (const std::exception& e) {
      st = Status::Internal(std::string("worker task threw: ") + e.what());
    } catch (...) {
      st = Status::Internal("worker task threw a non-std exception");
    }
    result.seconds = watch.ElapsedSeconds();
    result.status_code = static_cast<int32_t>(st.code());
    result.status_message = st.message();
    if (st.ok()) {
      result.payload = p.result.payload;
    } else {
      // A failed attempt ships nothing; drop its runs (and files) now.
      p.result = TaskResult{};
    }
    p.result_frame = result.Encode();

    Status shipped = ship(p, 0, 0);
    current_task.store(UINT64_MAX, std::memory_order_relaxed);
    if (shipped.IsCancelled()) return false;
    if (st.ok()) {
      pending.emplace(std::move(p));
    }
    // When the ship failed (dropped mid-stream) the next loop iteration's
    // Recv fails fast and runs the reconnect/resume path.
    return true;
  };

  for (;;) {
    Frame frame;
    Status received = holder.get()->Recv(&frame, /*timeout_seconds=*/1.0);
    if (received.IsDeadlineExceeded()) {
      // Idle tick: if the supervisor died we are an orphan — exit rather
      // than wait forever on a socket nobody will write to again.
      if (cfg.check_parent && ::getppid() != supervisor_pid) {
        exit_code = 1;
        break;
      }
      continue;
    }
    if (!received.ok()) {
      // The connection dropped. On a reconnecting transport: re-identify,
      // read the resume ack, and re-ship the pending attempt from the last
      // committed run boundary. Otherwise the worker is done.
      if (!reconnect()) {
        exit_code = pending.has_value() ? 1 : 0;
        break;
      }
      Frame resume;
      Status rst = holder.get()->Recv(&resume, /*timeout_seconds=*/5.0);
      if (!rst.ok()) continue;  // loop classifies the next failure
      if (resume.type != MessageType::kRunAck) continue;
      RunAckMsg ack;
      if (!RunAckMsg::Decode(resume.payload, &ack).ok()) continue;
      if (pending.has_value() && ack.task == pending->task &&
          ack.attempt == pending->attempt) {
        current_task.store(pending->task, std::memory_order_relaxed);
        Status shipped = ship(*pending, ack.acked_runs, ack.acked_bytes);
        current_task.store(UINT64_MAX, std::memory_order_relaxed);
        if (shipped.IsCancelled()) break;
      } else {
        // Nothing in flight for us: the last result is committed (or
        // stale). Release its runs and spill files.
        pending.reset();
      }
      continue;
    }
    if (frame.type == MessageType::kShutdown) break;
    if (frame.type == MessageType::kJobSetup) {
      // Remote workers: install the phase's registered job. A worker that
      // cannot serve the job (unknown registry id, bad context blob) is
      // useless to this supervisor — exit so it gets evicted cleanly.
      JobSetupMsg setup;
      if (cfg.on_job_setup == nullptr ||
          !JobSetupMsg::Decode(frame.payload, &setup).ok()) {
        exit_code = 1;
        break;
      }
      Status installed = cfg.on_job_setup(setup);
      if (!installed.ok()) {
        DDP_LOG(Warning) << "worker " << cfg.worker_id
                         << " cannot install job '" << setup.job_id
                         << "': " << installed.ToString();
        exit_code = 1;
        break;
      }
      continue;
    }
    if (frame.type != MessageType::kTaskAssign) continue;  // stray acks etc.
    TaskAssignMsg assign;
    if (!TaskAssignMsg::Decode(frame.payload, &assign).ok()) {
      exit_code = 1;
      break;
    }
    if (!run_attempt(assign)) break;
  }
  pending.reset();  // unlink this worker's spill files before exiting
  beat.reset();     // join the beat thread before tearing the process down
  return exit_code;
}

void WorkerMain(std::unique_ptr<CommChannel> channel, const WorkerTaskFn& fn,
                const WorkerMainConfig& cfg) {
  // Exit discipline: a forked child leaves ONLY through _exit — running the
  // parent's static destructors in a forked image would touch state whose
  // owning threads do not exist here.
  ::_exit(WorkerLoop(std::move(channel), fn, cfg));
}

}  // namespace mr
}  // namespace ddp
