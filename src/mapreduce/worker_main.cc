#include <atomic>
#include <optional>
#include <string>
#include <string_view>
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
/// The supervisor keeps its own copy of every run it commits, so an
/// attempt's runs and spill files go as soon as its kResult is sent, and
/// nothing of an attempt outlives it. A worker whose link fails leaves the
/// loop: a forked one exits, and a remote one dials again and joins as a new
/// worker, while its attempt is retried elsewhere.
///
/// Exit discipline: the child leaves ONLY through _exit. Running the
/// parent's static destructors (thread pools, metric registries) in a
/// forked image would touch state whose owning threads do not exist here.
/// An attempt's spill files are released before its worker leaves the
/// loop; those of a SIGKILLed worker have no names and close with its
/// descriptors.

namespace ddp {
namespace mr {

int WorkerLoop(std::unique_ptr<CommChannel> channel, const WorkerTaskFn& fn,
               const WorkerMainConfig& cfg) {
  // Workers inherit the parent's stderr; only warnings and errors are worth
  // duplicating num_workers times.
  SetLogLevel(LogLevel::kWarning);
  // Only a remote worker redials after its link fails, so only it acts on
  // the drop marker. A forked child watches getppid() to notice supervisor
  // death; an exec'd remote worker has no parent to watch and relies on
  // channel errors and its dial deadline instead.
  const bool remote = cfg.on_job_setup != nullptr;
  const pid_t supervisor_pid = remote ? -1 : ::getppid();
  CommChannel* const ch = channel.get();

  // Liveness beats ride on a ProgressHeartbeat: its timer thread fires
  // `report`, which sends a kHeartbeat frame whenever an attempt is running
  // or streaming. FdChannel::Send serializes its frames with the task
  // loop's.
  std::atomic<bool> busy{false};
  std::optional<obs::ProgressHeartbeat> beat;
  beat.emplace(kWorkerHeartbeatSeconds, [ch, &busy] {
    if (busy.load(std::memory_order_relaxed)) {
      (void)ch->Send(Frame{MessageType::kHeartbeat, std::string()});
    }
    return std::string("worker beat");
  });

  // Ships `result`'s runs under `assign`'s credit window, then the result
  // frame. kShutdown mid-stream is Cancelled; any other failure leaves the
  // supervisor a broken stream.
  auto ship = [&](const TaskAssignMsg& assign, const TaskResult& result,
                  const std::string& result_frame) -> Status {
    const uint64_t total_runs = result.runs.size();
    const bool want_crash = result.crash_after_runs >= 0;
    const uint64_t crash_at =
        want_crash ? std::min<uint64_t>(
                         static_cast<uint64_t>(result.crash_after_runs),
                         total_runs)
                   : 0;
    const bool want_drop = result.drop_after_runs >= 0 && remote;
    const uint64_t drop_at =
        want_drop ? std::min<uint64_t>(
                        static_cast<uint64_t>(result.drop_after_runs),
                        total_runs == 0 ? 0 : total_runs - 1)
                  : 0;
    // Chaos: close the link mid-run, as a lost network would, and leave.
    auto drop = [ch] {
      ch->Close();
      return Status::IoError("injected channel drop");
    };
    uint64_t sent_bytes = 0;
    uint64_t acked_bytes = 0;

    // Blocks until un-acked bytes fit under `cap`, draining queued acks.
    auto drain_until = [&](uint64_t cap) -> Status {
      while (sent_bytes - acked_bytes > cap) {
        Frame f;
        DDP_RETURN_NOT_OK(ch->Recv(&f, /*timeout_seconds=*/30.0));
        if (f.type == MessageType::kShutdown) {
          return Status::Cancelled("shutdown mid-stream");
        }
        if (f.type != MessageType::kRunAck) continue;
        RunAckMsg ack;
        DDP_RETURN_NOT_OK(RunAckMsg::Decode(f.payload, &ack));
        if (ack.task == assign.task && ack.attempt == assign.attempt) {
          acked_bytes = ack.acked_bytes;
        }
      }
      return Status::OK();
    };

    constexpr size_t kChunk = 256 * 1024;
    for (uint64_t i = 0; i < total_runs; ++i) {
      if (want_crash && i >= crash_at) CrashSelf();
      DDP_RETURN_NOT_OK(drain_until(assign.window_bytes));
      const SpillRun& run = result.runs[i];
      // A disk run ships its file extent as it is; an in-memory run ships
      // its frames and then their CRC trailer, the shape of a disk run.
      const bool on_disk = run.file != nullptr;
      const uint64_t length = on_disk ? run.length : run.bytes.size() + 4;
      const std::string trailer =
          on_disk ? std::string() : RunTrailer(run.bytes);
      RunBeginMsg begin;
      begin.task = assign.task;
      begin.attempt = assign.attempt;
      begin.seq = i;
      begin.partition = run.partition;
      begin.spill_index = run.spill_index;
      begin.length = length;
      DDP_RETURN_NOT_OK(ch->Send(Frame{MessageType::kRunBegin, begin.Encode()}));
      uint64_t off = 0;
      do {
        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(kChunk, length - off));
        Frame chunk{MessageType::kRunData, std::string()};
        if (on_disk) {
          chunk.payload.resize(n);
          DDP_RETURN_NOT_OK(
              run.file->ReadAt(run.offset + off, chunk.payload.data(), n));
        } else {
          // Bytes [off, off + n) of the frames followed by the trailer.
          const std::string_view frames = run.bytes;
          const size_t from = static_cast<size_t>(off);
          chunk.payload.reserve(n);
          chunk.payload.append(frames.substr(std::min(from, frames.size()), n));
          const size_t have = chunk.payload.size();
          if (have < n) {
            chunk.payload.append(trailer, from + have - frames.size(),
                                 n - have);
          }
        }
        DDP_RETURN_NOT_OK(ch->Send(chunk));
        off += n;
        // The drop lands after the run's first chunk.
        if (want_drop && i == drop_at) return drop();
      } while (off < length);
      RunEndMsg end;
      end.task = assign.task;
      end.attempt = assign.attempt;
      end.seq = i;
      DDP_RETURN_NOT_OK(ch->Send(Frame{MessageType::kRunEnd, end.Encode()}));
      sent_bytes += length;
    }
    if (want_crash && crash_at >= total_runs) CrashSelf();
    if (want_drop) return drop();  // no run to drop mid-way
    return ch->Send(Frame{MessageType::kResult, result_frame});
  };

  // Runs one attempt and ships its runs and result. The runs, and their
  // spill files, go when this returns.
  auto run_attempt = [&](const TaskAssignMsg& assign) -> Status {
    busy.store(true, std::memory_order_relaxed);
    TaskResult result;
    ResultMsg msg;
    msg.task = assign.task;
    msg.attempt = assign.attempt;
    Stopwatch watch;
    Status st;
    try {
      st = fn(assign.task, assign.attempt, assign.quarantined, assign.input,
              &result);
    } catch (const std::exception& e) {
      st = Status::Internal(std::string("worker task threw: ") + e.what());
    } catch (...) {
      st = Status::Internal("worker task threw a non-std exception");
    }
    msg.seconds = watch.ElapsedSeconds();
    msg.status_code = static_cast<int32_t>(st.code());
    msg.status_message = st.message();
    if (st.ok()) {
      msg.payload = result.payload;
    } else {
      result = TaskResult{};  // a failed attempt ships nothing
    }
    const Status shipped = ship(assign, result, msg.Encode());
    busy.store(false, std::memory_order_relaxed);
    return shipped;
  };

  {
    HelloMsg hello;
    hello.worker_id = cfg.worker_id;
    (void)ch->Send(Frame{MessageType::kHello, hello.Encode()});
  }

  int exit_code = 0;
  for (;;) {
    Frame frame;
    Status received = ch->Recv(&frame, /*timeout_seconds=*/1.0);
    if (received.IsDeadlineExceeded()) {
      // Idle tick: if the supervisor died we are an orphan — exit rather
      // than wait forever on a socket nobody will write to again.
      if (!remote && ::getppid() != supervisor_pid) {
        exit_code = 1;
        break;
      }
      continue;
    }
    if (!received.ok()) {
      exit_code = kWorkerLinkLost;
      break;
    }
    if (frame.type == MessageType::kShutdown) break;
    if (frame.type == MessageType::kJobSetup) {
      // Remote workers: install the phase's registered job. A worker that
      // cannot serve the job (unknown registry id, bad context blob) is
      // useless to this supervisor — exit so it gets evicted cleanly.
      JobSetupMsg setup;
      if (!remote || !JobSetupMsg::Decode(frame.payload, &setup).ok()) {
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
    const Status shipped = run_attempt(assign);
    if (shipped.IsCancelled()) break;
    if (!shipped.ok()) {
      // The stream broke midway: the supervisor holds a partial attempt and
      // drops this worker once the link goes.
      exit_code = kWorkerLinkLost;
      break;
    }
  }
  beat.reset();  // join the beat thread before the channel goes
  return exit_code;
}

}  // namespace mr
}  // namespace ddp
