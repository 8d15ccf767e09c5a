// Remote worker subsystem suite (mapreduce/remote_worker.h): the wire
// payloads that carry the registered-job model (kHello, kJobSetup; the
// kTaskAssign codec lives in multiprocess_test.cc), the process-global
// JobRegistry,
// and — the contract the subsystem exists for — multi-host bit-identity:
// the same seed and dataset run under inproc, fork, and remote execution
// (two separately exec'd ddp_worker processes on localhost) must produce
// byte-identical assignments for all three DDP drivers, including when one
// remote worker dies mid-shuffle, when a 4 KiB spill budget forces every
// task out of core, and when remote connections drop mid-run and the
// dropped workers dial again.
//
// Remote/fork tests skip themselves where forked workers are unsupported
// (ForkExecutionSupported() == false, e.g. under TSan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/serde.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "ddp/remote_jobs.h"
#include "mapreduce/remote_job.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "open_fds.h"

#ifndef DDP_WORKER_BIN
#error "DDP_WORKER_BIN must point at the ddp_worker executable"
#endif

namespace ddp {
namespace {

// ------------------------------------------------------------- wire codecs

// A hello is a worker id and nothing after it: a trailing varint is
// rejected.
TEST(RemoteCodecTest, HelloRoundTripRejectsTrailingVarint) {
  mr::HelloMsg hello;
  hello.worker_id = (uint64_t{1} << 63) | 4242;
  mr::HelloMsg decoded;
  ASSERT_TRUE(mr::HelloMsg::Decode(hello.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.worker_id, hello.worker_id);

  std::string trailing = hello.Encode();
  BufferWriter w(&trailing);
  w.PutVarint64(1);
  EXPECT_FALSE(mr::HelloMsg::Decode(trailing, &decoded).ok());
}

TEST(RemoteCodecTest, JobSetupRoundTrip) {
  mr::JobSetupMsg setup;
  setup.job_id = "lsh-rho-local";
  setup.job_name = "assign-jump-3";
  setup.phase = 1;
  setup.ctx = std::string("\x00\x01\xff"
                          "ctx",
                          6);
  setup.num_partitions = 8;
  setup.memory_budget_bytes = 4096;
  setup.spill_dir = "/tmp/spill";
  setup.skip_bad_records = true;
  setup.faults.seed = 20260808;
  setup.faults.map_failure_rate = 0.25;
  setup.faults.worker_crash_rate = 0.125;
  setup.faults.straggler_slowdown = 3.0;
  setup.faults.channel_drop_rate = 0.5;

  mr::JobSetupMsg decoded;
  ASSERT_TRUE(mr::JobSetupMsg::Decode(setup.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.job_id, setup.job_id);
  EXPECT_EQ(decoded.job_name, setup.job_name);
  EXPECT_EQ(decoded.phase, setup.phase);
  EXPECT_EQ(decoded.ctx, setup.ctx);
  EXPECT_EQ(decoded.num_partitions, setup.num_partitions);
  EXPECT_EQ(decoded.memory_budget_bytes, setup.memory_budget_bytes);
  EXPECT_EQ(decoded.spill_dir, setup.spill_dir);
  EXPECT_EQ(decoded.skip_bad_records, setup.skip_bad_records);
  EXPECT_EQ(decoded.faults.seed, setup.faults.seed);
  EXPECT_EQ(decoded.faults.map_failure_rate, setup.faults.map_failure_rate);
  EXPECT_EQ(decoded.faults.worker_crash_rate,
            setup.faults.worker_crash_rate);
  EXPECT_EQ(decoded.faults.straggler_slowdown,
            setup.faults.straggler_slowdown);
  EXPECT_EQ(decoded.faults.channel_drop_rate,
            setup.faults.channel_drop_rate);

  EXPECT_FALSE(
      mr::JobSetupMsg::Decode("\x01garbage that is not a setup", &decoded)
          .ok());
}

// The task-input decoders of a registered runner bound a declared count by
// the bytes left before they reserve: a kTaskAssign input declaring 2^63 - 1
// map records or reduce sources is an IoError, not a throw.
using BoundSpec = mr::JobSpec<uint32_t, uint32_t, uint32_t, uint32_t>;

Status RunWithHugeCount(uint32_t phase) {
  BoundSpec spec;
  spec.name = "bound-check";
  spec.map = [](const uint32_t& v, mr::Emitter<uint32_t, uint32_t>* out) {
    out->Emit(v, v);
  };
  spec.reduce = [](const uint32_t& k, std::span<const uint32_t>,
                   std::vector<uint32_t>* out) { out->push_back(k); };
  mr::JobSetupMsg setup;
  setup.job_name = spec.name;
  setup.phase = phase;
  setup.num_partitions = 2;
  auto runner = mr::MakeRegisteredRunner(
      std::make_shared<const BoundSpec>(std::move(spec)), setup);
  BufferWriter w;
  w.PutVarint64(static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
  w.PutRaw("abc", 3);
  mr::TaskResult result;
  return runner(/*task=*/0, /*attempt=*/0, /*quarantined=*/false, w.data(),
                &result);
}

TEST(RemoteTaskInputTest, MapSliceDecoderRejectsCountAboveRemainingBytes) {
  EXPECT_TRUE(RunWithHugeCount(0).IsIoError());
}

TEST(RemoteTaskInputTest, ReduceSourceDecoderRejectsCountAboveRemainingBytes) {
  EXPECT_TRUE(RunWithHugeCount(1).IsIoError());
}

// ---------------------------------------------------- hostile remote peers

// A fake remote worker: dials `port`, says hello as worker 41 and answers
// each task with its whole attempt in one write (`run` as a tail run in
// 10-byte kRunData chunks, then a "done" result), until its channel closes.
void ServeWholeAttemptsInOneWrite(uint16_t port, const std::string& run) {
  auto ch = mr::TcpChannel::Connect("127.0.0.1", port, {}, /*seed=*/1,
                                    /*deadline_seconds=*/5.0);
  if (!ch.ok()) return;
  mr::HelloMsg hello;
  hello.worker_id = 41;
  if (!(*ch)->Send({mr::MessageType::kHello, hello.Encode()}).ok()) return;
  mr::Frame frame;
  while ((*ch)->Recv(&frame, /*timeout_seconds=*/30.0).ok()) {
    mr::TaskAssignMsg assign;
    if (frame.type != mr::MessageType::kTaskAssign ||
        !mr::TaskAssignMsg::Decode(frame.payload, &assign).ok()) {
      continue;
    }
    mr::RunBeginMsg begin;
    begin.task = assign.task;
    begin.attempt = assign.attempt;
    begin.spill_index = mr::kTailRunIndex;
    begin.length = run.size();
    std::string burst =
        mr::EncodeFrame({mr::MessageType::kRunBegin, begin.Encode()});
    for (size_t off = 0; off < run.size(); off += 10) {
      burst +=
          mr::EncodeFrame({mr::MessageType::kRunData, run.substr(off, 10)});
    }
    mr::RunEndMsg end;
    end.task = assign.task;
    end.attempt = assign.attempt;
    burst += mr::EncodeFrame({mr::MessageType::kRunEnd, end.Encode()});
    mr::ResultMsg result;
    result.task = assign.task;
    result.attempt = assign.attempt;
    result.payload = "done";
    burst += mr::EncodeFrame({mr::MessageType::kResult, result.Encode()});
    if (::send((*ch)->fd(), burst.data(), burst.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(burst.size())) {
      return;
    }
  }
}

// What one single-task remote phase on `pool` committed, and how long it
// took. Its kJobSetup carries a `ctx_bytes`-byte context.
struct OnePhase {
  Status status;
  std::string payload;
  std::vector<mr::SpillRun> runs;
  mr::JobCounters counters;
  double seconds = 0.0;
};

OnePhase RunOneTaskPhase(mr::RemoteWorkerPool* pool, const std::string& name,
                         size_t ctx_bytes = 0) {
  mr::Options options;
  options.exec_mode = mr::ExecMode::kRemote;
  options.remote_pool = pool;
  mr::SupervisedPhase phase;
  phase.job_name = name;
  phase.num_tasks = 1;
  mr::JobSetupMsg setup;
  setup.ctx.assign(ctx_bytes, 'c');
  phase.remote_setup = setup.Encode();
  phase.remote_input = [](size_t) -> Result<std::string> {
    return std::string();
  };
  mr::WorkerTaskFn fn = [](uint64_t, uint64_t, bool, const std::string&,
                           mr::TaskResult*) {
    return Status::Internal("a remote phase forks no workers");
  };
  OnePhase out;
  mr::CommitFn commit = [&out](size_t, bool, double, std::string p,
                               std::vector<mr::SpillRun> r) {
    out.payload = std::move(p);
    out.runs = std::move(r);
    return Status::OK();
  };
  const auto start = std::chrono::steady_clock::now();
  out.status =
      mr::WorkerSupervisor::RunPhase(options, phase, fn, commit, &out.counters);
  out.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

// A hostile remote worker declares a 2^40-byte in-memory run. The
// supervisor must not allocate that length: the run buffer reserves at most
// the credit window. The fake then ends the run at zero bytes, a protocol
// violation that evicts it and charges its attempt. Once its channel closes
// it dials again as a well-behaved worker under a new id, and the retried
// task commits there: no throw, one eviction, one retry, and no wait for
// the connect grace.
TEST(HostileRemoteWorkerTest, DeclaredRunLengthIsNotAllocated) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  const std::string frames_bytes(96, 'h');
  const std::string run = frames_bytes + mr::RunTrailer(frames_bytes);
  std::thread fake([port, &run] {
    auto ch = mr::TcpChannel::Connect("127.0.0.1", port, {}, /*seed=*/1,
                                      /*deadline_seconds=*/5.0);
    if (!ch.ok()) return;
    mr::HelloMsg hello;
    hello.worker_id = (uint64_t{1} << 63) | 17;
    if (!(*ch)->Send({mr::MessageType::kHello, hello.Encode()}).ok()) return;
    // Serve until the supervisor closes the channel.
    mr::Frame frame;
    while ((*ch)->Recv(&frame, /*timeout_seconds=*/30.0).ok()) {
      mr::TaskAssignMsg assign;
      if (frame.type != mr::MessageType::kTaskAssign ||
          !mr::TaskAssignMsg::Decode(frame.payload, &assign).ok()) {
        continue;
      }
      mr::RunBeginMsg begin;
      begin.task = assign.task;
      begin.attempt = assign.attempt;
      // A tail run: the job has no memory budget, so a disk run would be
      // refused before its length is read.
      begin.spill_index = mr::kTailRunIndex;
      begin.length = uint64_t{1} << 40;
      mr::RunEndMsg end;
      end.task = assign.task;
      end.attempt = assign.attempt;
      (void)(*ch)->Send({mr::MessageType::kRunBegin, begin.Encode()});
      (void)(*ch)->Send({mr::MessageType::kRunEnd, end.Encode()});
    }
    ServeWholeAttemptsInOneWrite(port, run);
  });
  OnePhase got;
  EXPECT_NO_THROW(got = RunOneTaskPhase(pool->get(), "hostile-run"));
  pool->reset();  // closes the parked channel, so the fake returns
  fake.join();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.payload, "done");
  ASSERT_EQ(got.runs.size(), 1u);
  EXPECT_EQ(got.runs[0].bytes, frames_bytes);
  EXPECT_EQ(got.counters.workers_registered, 2u);
  EXPECT_EQ(got.counters.workers_evicted, 1u);
  EXPECT_EQ(got.counters.map_task_retries, 1u);
  EXPECT_LT(got.seconds, 1.0);
}

// A remote worker ships part of a run and then its connection closes, as a
// crashed worker's or a lost network's would. The supervisor drops it at
// once, as it drops a forked worker whose socketpair fails: one eviction,
// one reassigned task, one retry, charged as a crash. A second worker
// commits the task, and the phase waits out no connect grace.
TEST(RemoteLinkLossTest, LostLinkMidRunIsRetriedAtOnce) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  const std::string frames_bytes(96, 'l');
  const std::string run = frames_bytes + mr::RunTrailer(frames_bytes);
  std::thread fake([port, &run] {
    auto ch = mr::TcpChannel::Connect("127.0.0.1", port, {}, /*seed=*/1,
                                      /*deadline_seconds=*/5.0);
    if (!ch.ok()) return;
    mr::HelloMsg hello;
    hello.worker_id = (uint64_t{1} << 63) | 23;
    if (!(*ch)->Send({mr::MessageType::kHello, hello.Encode()}).ok()) return;
    mr::Frame frame;
    mr::TaskAssignMsg assign;
    while (frame.type != mr::MessageType::kTaskAssign) {
      if (!(*ch)->Recv(&frame, /*timeout_seconds=*/30.0).ok()) return;
    }
    if (!mr::TaskAssignMsg::Decode(frame.payload, &assign).ok()) return;
    mr::RunBeginMsg begin;
    begin.task = assign.task;
    begin.attempt = assign.attempt;
    begin.spill_index = mr::kTailRunIndex;
    begin.length = run.size();
    (void)(*ch)->Send({mr::MessageType::kRunBegin, begin.Encode()});
    (void)(*ch)->Send({mr::MessageType::kRunData, run.substr(0, 10)});
    (*ch)->Close();
    ServeWholeAttemptsInOneWrite(port, run);
  });
  const OnePhase got = RunOneTaskPhase(pool->get(), "lost-link");
  pool->reset();  // closes the parked channel, so the fake returns
  fake.join();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.payload, "done");
  ASSERT_EQ(got.runs.size(), 1u);
  EXPECT_EQ(got.runs[0].bytes, frames_bytes);
  EXPECT_EQ(got.counters.workers_registered, 2u);
  EXPECT_EQ(got.counters.workers_evicted, 1u);
  EXPECT_EQ(got.counters.tasks_reassigned, 1u);
  EXPECT_EQ(got.counters.map_task_retries, 1u);
  EXPECT_LT(got.seconds, 1.0);
}

// A worker whose whole attempt (a run in 200 kRunData chunks, and its
// result) arrives in one write and which then says nothing more: every
// frame after the first waits in the supervisor's receive buffer, where
// poll cannot see it. The supervisor must take those frames as ready, so
// the attempt commits at once, with no eviction and no retry. Were it to
// wait in poll for each (10 ms), the phase would take over 2 s; were it to
// wait for bytes on the socket, the hang scan would evict the silent
// worker.
TEST(BufferedReceiveTest, WholeAttemptInOneWriteCommitsWithoutWaiting) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  // A 2,000-byte tail run, trailer included: 200 chunks of 10 bytes.
  const std::string frames_bytes(1996, 'f');
  const std::string run = frames_bytes + mr::RunTrailer(frames_bytes);
  std::thread fake([port, &run] { ServeWholeAttemptsInOneWrite(port, run); });
  const OnePhase got = RunOneTaskPhase(pool->get(), "one-write");
  pool->reset();  // closes the parked channel, so the fake returns
  fake.join();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.payload, "done");
  ASSERT_EQ(got.runs.size(), 1u);
  EXPECT_EQ(got.runs[0].bytes, frames_bytes);
  EXPECT_EQ(got.counters.workers_registered, 1u);
  EXPECT_EQ(got.counters.workers_evicted, 0u);
  EXPECT_EQ(got.counters.map_task_retries, 0u);
  EXPECT_LT(got.seconds, 1.0);
}

// A stranger's connection sits ahead of the worker in the listener's queue,
// having sent `first_bytes` (perhaps none) and nothing more. It waits for
// its hello in the same poll as the crew, so the worker behind it must be
// admitted at once and the phase commit in well under the hello timeout,
// with no eviction and no retry.
void ExpectStrangerStallsNothing(const std::string& first_bytes,
                                 const std::string& job_name) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  auto stranger = mr::TcpChannel::Connect("127.0.0.1", port, {}, /*seed=*/1,
                                          /*deadline_seconds=*/5.0);
  ASSERT_TRUE(stranger.ok()) << stranger.status().ToString();
  if (!first_bytes.empty()) {
    ASSERT_EQ(::write((*stranger)->fd(), first_bytes.data(),
                      first_bytes.size()),
              static_cast<ssize_t>(first_bytes.size()));
  }
  const std::string frames_bytes(96, 's');
  const std::string run = frames_bytes + mr::RunTrailer(frames_bytes);
  std::thread fake([port, &run] { ServeWholeAttemptsInOneWrite(port, run); });
  const OnePhase got = RunOneTaskPhase(pool->get(), job_name);
  pool->reset();
  fake.join();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.payload, "done");
  ASSERT_EQ(got.runs.size(), 1u);
  EXPECT_EQ(got.runs[0].bytes, frames_bytes);
  EXPECT_EQ(got.counters.workers_registered, 1u);
  EXPECT_EQ(got.counters.workers_evicted, 0u);
  EXPECT_EQ(got.counters.map_task_retries, 0u);
  EXPECT_LT(got.seconds, 1.0);
}

// A connection that never says a word is never readable: the machine
// closes it after 2 s.
TEST(BufferedReceiveTest, SilentConnectionDoesNotStallThePhase) {
  ExpectStrangerStallsNothing("", "silent-peer");
}

// One byte of a frame header: an offered connection is read without
// waiting for the rest, which never comes.
TEST(BufferedReceiveTest, HalfFrameHeaderDoesNotStallThePhase) {
  ExpectStrangerStallsNothing(std::string(1, '\x01'), "half-header-peer");
}

// A first frame that declares 1 MiB, above the 64 KiB receive buffer (a
// hello is a few bytes), and sends 10 bytes of it: closed at once, with
// nothing allocated for it.
TEST(BufferedReceiveTest, OversizedFirstFrameDoesNotStallThePhase) {
  const std::string bytes =
      mr::EncodeFrame({mr::MessageType::kHello, std::string(1 << 20, 'h')});
  const size_t header = bytes.size() - (size_t{1} << 20) - 4;
  ExpectStrangerStallsNothing(bytes.substr(0, header + 10), "oversized-peer");
}

// A pool connection that says hello and then reads nothing, ahead of a real
// worker. Its 5 MiB kJobSetup outgrows the socket buffers, so the send
// blocks; it must fail once the peer has taken no byte for the heartbeat
// grace (2 s), and the peer be closed unregistered, rather than hold the
// driver until the peer gives up (here after 10 s). The worker beside it
// then commits the task.
TEST(BoundedSendTest, PeerThatReadsNothingDoesNotHoldTheDriver) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  auto silent = mr::TcpChannel::Connect("127.0.0.1", port, {}, /*seed=*/1,
                                        /*deadline_seconds=*/5.0);
  ASSERT_TRUE(silent.ok()) << silent.status().ToString();
  mr::HelloMsg hello;
  hello.worker_id = 77;
  ASSERT_TRUE((*silent)->Send({mr::MessageType::kHello, hello.Encode()}).ok());
  std::promise<void> phase_done;
  std::thread closer([&silent, done = phase_done.get_future()] {
    done.wait_for(std::chrono::seconds(10));
    (*silent)->Close();
  });
  // A real worker dials again when its link closes, as this one's does
  // when its hello waited out the blocked send.
  const std::string frames_bytes(96, 'b');
  const std::string run = frames_bytes + mr::RunTrailer(frames_bytes);
  std::atomic<bool> stop{false};
  std::thread fake([port, &run, &stop] {
    while (!stop) ServeWholeAttemptsInOneWrite(port, run);
  });
  const OnePhase got =
      RunOneTaskPhase(pool->get(), "silent-reader", /*ctx_bytes=*/5 << 20);
  phase_done.set_value();
  closer.join();
  stop = true;
  pool->reset();
  fake.join();
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.payload, "done");
  EXPECT_EQ(got.counters.workers_registered, 1u);
  EXPECT_EQ(got.counters.map_task_retries, 0u);
  EXPECT_LT(got.seconds, 5.0);
}

// --------------------------------------------------------- worker processes

// The children of the calling thread, as the kernel lists them.
std::string ChildPids() {
  std::ifstream in("/proc/thread-self/children");
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A path execv would refuse is refused before any fork: the error names the
// path, and no child is left to exit at exec (which a supervisor would only
// see as a worker that never dials in).
TEST(SpawnWorkerProcessTest, RefusesAPathThatIsNotAnExecutableFile) {
  const std::string before = ChildPids();
  const std::string missing = "/nonexistent/ddp_worker";
  const std::string dir = std::filesystem::temp_directory_path().string();
  for (const std::string& path : {missing, dir}) {
    Result<int64_t> pid = mr::SpawnWorkerProcess(path, {"--connect", "x"});
    ASSERT_FALSE(pid.ok()) << path;
    EXPECT_NE(pid.status().message().find(path), std::string::npos)
        << pid.status().ToString();
  }
  EXPECT_EQ(ChildPids(), before);
}

// --dial-deadline bounds how long a worker keeps redialing a supervisor
// that is not there. A flag the worker does not know is a usage error: it
// exits 2 at once.
TEST(SpawnWorkerProcessTest, WorkerGivesUpAtItsDialDeadline) {
  uint16_t port = 0;
  {
    auto listener = mr::TcpListener::Listen("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    port = (*listener)->port();
  }  // closed: nothing listens on `port` any more
  const auto start = std::chrono::steady_clock::now();
  Result<int64_t> pid = mr::SpawnWorkerProcess(
      DDP_WORKER_BIN, {"--connect", "127.0.0.1:" + std::to_string(port),
                       "--dial-deadline", "0.2"});
  ASSERT_TRUE(pid.ok()) << pid.status().ToString();
  EXPECT_NE(mr::WaitWorkerProcess(*pid), 0);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            1.5);
  Result<int64_t> bogus = mr::SpawnWorkerProcess(DDP_WORKER_BIN, {"--bogus"});
  ASSERT_TRUE(bogus.ok()) << bogus.status().ToString();
  EXPECT_EQ(mr::WaitWorkerProcess(*bogus), 2);
}

// ------------------------------------------------------------ job registry

TEST(JobRegistryTest, UnknownIdIsNotFound) {
  mr::JobSetupMsg setup;
  setup.job_id = "job-that-was-never-registered";
  auto runner = mr::JobRegistry::Global().Create(setup);
  ASSERT_FALSE(runner.ok());
  EXPECT_EQ(runner.status().code(), StatusCode::kNotFound);
}

TEST(JobRegistryTest, RegisterAllRemoteJobsCoversEveryDriverJob) {
  RegisterAllRemoteJobs();
  std::vector<std::string> ids = mr::JobRegistry::Global().RegisteredIds();
  for (const char* id :
       {"lsh-rho-local", "lsh-rho-aggregate", "lsh-delta-local",
        "lsh-delta-aggregate", "basic-rho-local", "basic-rho-aggregate",
        "basic-delta-local", "basic-delta-aggregate", "eddpc-rho",
        "eddpc-delta-bound", "eddpc-delta-refine", "eddpc-delta-aggregate",
        "choose-dc", "assign-jump", "kmeans-iter"}) {
    bool found = false;
    for (const std::string& have : ids) found = found || have == id;
    EXPECT_TRUE(found) << "missing registered job " << id;
  }
}

TEST(JobRegistryTest, RegisteredFactoryRejectsMalformedCtx) {
  RegisterAllRemoteJobs();
  mr::JobSetupMsg setup;
  setup.job_id = "lsh-rho-local";
  setup.ctx = "definitely not an encoded LshJobsCtx";
  EXPECT_FALSE(mr::JobRegistry::Global().Create(setup).ok());
}

// ------------------------------------------------- multi-host bit-identity

enum class Mode { kInProc, kFork, kRemote };

struct ModeResult {
  std::vector<int> assignment;
  double dc = 0.0;
  mr::RunStats stats;
};

using Counters = mr::JobCounters;

// The registry's mr.jobs and the mr.* counters JobCounters feeds, by name.
std::map<std::string, uint64_t> RegistryCounters() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::map<std::string, uint64_t> out;
  out[obs::kMetricMrJobs] = registry.GetCounter(obs::kMetricMrJobs)->value();
  for (const mr::CounterField& c : mr::CounterFields()) {
    if (c.metric == nullptr) continue;
    out[c.metric] = registry.GetCounter(c.metric)->value();
  }
  return out;
}

// The registry's counters are the jobs' JobCounters, published once as each
// job ends: over a successful pipeline each moves by exactly the run's
// total of its field, and mr.jobs by its job count.
void ExpectRegistryMovedByTotals(std::map<std::string, uint64_t> before,
                                 const mr::RunStats& stats) {
  std::map<std::string, uint64_t> after = RegistryCounters();
  EXPECT_EQ(after[obs::kMetricMrJobs] - before[obs::kMetricMrJobs],
            stats.jobs.size());
  for (const mr::CounterField& c : mr::CounterFields()) {
    if (c.metric == nullptr) continue;
    EXPECT_EQ(after[c.metric] - before[c.metric], stats.Total(c.field))
        << c.metric;
  }
}

// Runs the full pipeline for `algo` under `mode` and returns the
// assignment. Remote mode binds a pool on an ephemeral port, execs
// `workers` ddp_worker processes against it (the first gets
// `crash_task` >= 0 as --chaos-crash-task), and reaps them afterwards.
// `faults`, `spill_dir`, `deadline` (task_deadline_seconds) and
// `speculate` (speculative_execution) pass through to the MapReduce options.
// Every successful run checks that the registry moved by the run's totals.
Result<ModeResult> RunPipeline(const std::string& algo, const Dataset& ds,
                               Mode mode, uint64_t budget = 0,
                               size_t workers = 2, int64_t crash_task = -1,
                               const mr::FaultInjection& faults = {},
                               const std::string& spill_dir = "",
                               double deadline = 0.0, bool speculate = false) {
  DdpOptions options;
  options.selector = PeakSelector::TopK(12);
  options.use_mr_assignment = true;  // assign-jump rounds go remote too
  options.mr.num_workers = 2;
  options.mr.memory_budget_bytes = budget;
  options.mr.spill_dir = spill_dir;
  options.mr.faults = faults;
  options.mr.task_deadline_seconds = deadline;
  options.mr.speculative_execution = speculate;
  if (faults.map_failure_rate > 0.0 || faults.reduce_failure_rate > 0.0 ||
      faults.worker_crash_rate > 0.0 || faults.channel_drop_rate > 0.0) {
    // Chaos must not exhaust a task's attempts anywhere in the pipeline,
    // and random worker crashes and link losses are not poison. Every link
    // loss charges a crash: under DropChaos() one reduce task of the basic
    // pipeline loses its link on its first 17 attempts.
    options.mr.max_task_attempts = 32;
    options.mr.max_worker_restarts = 256;
    options.mr.quarantine_after_crashes = 32;
  }
  switch (mode) {
    case Mode::kInProc:
      break;
    case Mode::kFork:
      options.mr.exec_mode = mr::ExecMode::kFork;
      break;
    case Mode::kRemote:
      options.mr.exec_mode = mr::ExecMode::kRemote;
      break;
  }

  std::unique_ptr<mr::RemoteWorkerPool> pool;
  std::vector<int64_t> pids;
  if (mode == Mode::kRemote) {
    DDP_ASSIGN_OR_RETURN(pool, mr::RemoteWorkerPool::Listen("127.0.0.1", 0));
    options.mr.remote_pool = pool.get();
    const std::string endpoint =
        pool->host() + ":" + std::to_string(pool->port());
    for (size_t i = 0; i < workers; ++i) {
      std::vector<std::string> args = {"--connect", endpoint};
      if (i == 0 && crash_task >= 0) {
        args.push_back("--chaos-crash-task");
        args.push_back(std::to_string(crash_task));
      }
      DDP_ASSIGN_OR_RETURN(int64_t pid,
                           mr::SpawnWorkerProcess(DDP_WORKER_BIN, args));
      pids.push_back(pid);
    }
  }

  LshDdp::Params lsh_params;
  LshDdp lsh_algo(lsh_params);
  BasicDdp::Params basic_params;
  basic_params.block_size = 100;
  BasicDdp basic_algo(basic_params);
  Eddpc::Params eddpc_params;
  Eddpc eddpc_algo(eddpc_params);
  DistributedDpAlgorithm* algorithm = nullptr;
  if (algo == "lsh") algorithm = &lsh_algo;
  if (algo == "basic") algorithm = &basic_algo;
  if (algo == "eddpc") algorithm = &eddpc_algo;

  const std::map<std::string, uint64_t> before = RegistryCounters();
  Result<DdpRunResult> run = RunDistributedDp(algorithm, ds, options);
  if (pool != nullptr) {
    pool->Shutdown();
    for (int64_t pid : pids) mr::WaitWorkerProcess(pid);
  }
  DDP_RETURN_NOT_OK(run.status());
  ExpectRegistryMovedByTotals(before, run->stats);
  ModeResult out;
  out.assignment = std::move(run->clusters.assignment);
  out.dc = run->dc;
  out.stats = std::move(run->stats);
  return out;
}

class RemoteBitIdentityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RemoteBitIdentityTest, ThreeModesAgreeByteForByte) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();

  auto inproc = RunPipeline(algo, ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto fork = RunPipeline(algo, ds, Mode::kFork);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();
  auto remote = RunPipeline(algo, ds, Mode::kRemote);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  EXPECT_EQ(inproc->dc, remote->dc);
  EXPECT_EQ(inproc->assignment, fork->assignment);
  EXPECT_EQ(inproc->assignment, remote->assignment);
}

TEST_P(RemoteBitIdentityTest, SurvivesWorkerDeathMidShuffle) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();

  auto inproc = RunPipeline(algo, ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  // Worker 0 SIGKILLs itself mid-shuffle while serving its second task; the
  // job must finish on the survivor, bit-identically, with the dead
  // worker's in-flight task reassigned as soon as its link fails: the
  // pipeline ends well within the connect grace, which it never waits out.
  const auto start = std::chrono::steady_clock::now();
  auto remote = RunPipeline(algo, ds, Mode::kRemote, /*budget=*/0,
                            /*workers=*/2, /*crash_task=*/1);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  EXPECT_EQ(remote->stats.Total(&Counters::workers_evicted), 1u);
  EXPECT_EQ(remote->stats.Total(&Counters::tasks_reassigned), 1u);
  EXPECT_LT(seconds, mr::PhaseMachine::kConnectGraceSeconds / 2);
}

TEST_P(RemoteBitIdentityTest, FourKiBSpillBudgetStaysIdentical) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();

  auto inproc = RunPipeline(algo, ds, Mode::kInProc, /*budget=*/4096);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto remote = RunPipeline(algo, ds, Mode::kRemote, /*budget=*/4096);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
}

// Remote connections drop mid-run (FaultInjection::channel_drop_rate): the
// worker closes its link, the supervisor drops it and retries its task, and
// the worker dials again and is admitted as a new worker. Output stays
// byte-identical.
mr::FaultInjection DropChaos() {
  mr::FaultInjection faults;
  faults.channel_drop_rate = 0.6;
  faults.seed = 20260808;
  return faults;
}

// Every link loss evicts a worker and reassigns its task, and the dropped
// worker comes back: without drops, each phase of a job admits the two
// workers once, so more admissions than that are re-admissions.
void ExpectDropsEvictedAndReadmitted(const mr::RunStats& stats) {
  EXPECT_GT(stats.Total(&Counters::workers_evicted), 0u);
  EXPECT_GT(stats.Total(&Counters::tasks_reassigned), 0u);
  EXPECT_GT(stats.Total(&Counters::workers_registered),
            2 * 2 * stats.jobs.size());
}

TEST_P(RemoteBitIdentityTest, DropChaosRedialsAndStaysIdentical) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();

  auto inproc = RunPipeline(algo, ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto remote = RunPipeline(algo, ds, Mode::kRemote, /*budget=*/0,
                            /*workers=*/2, /*crash_task=*/-1, DropChaos());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  ExpectDropsEvictedAndReadmitted(remote->stats);
}

// The same drops with every map task out of core, so dropped attempts
// leave disk runs behind; no spill file, worker- or supervisor-owned, may
// outlive the pipeline: the spill dir lists nothing, and this process holds
// no descriptor into it.
TEST_P(RemoteBitIdentityTest, DropChaosWithFourKiBSpillsLeavesNoFiles) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("ddp_remote_drop_spill_" + algo);
  fs::remove_all(dir);

  auto inproc = RunPipeline(algo, ds, Mode::kInProc, /*budget=*/4096);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto remote =
      RunPipeline(algo, ds, Mode::kRemote, /*budget=*/4096, /*workers=*/2,
                  /*crash_task=*/-1, DropChaos(), dir.string());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  ExpectDropsEvictedAndReadmitted(remote->stats);
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      ADD_FAILURE() << "leftover spill file " << e.path();
    }
  }
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// Injected attempt failures are one helper on every substrate: in-process,
// forked and remote attempts roll the same (task, attempt) hashes, so the
// pipeline retries exactly as often everywhere and its output is unchanged.
TEST_P(RemoteBitIdentityTest, FailureChaosRetriesMatchAcrossSubstrates) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();
  mr::FaultInjection faults;
  faults.map_failure_rate = 0.3;
  faults.reduce_failure_rate = 0.3;
  faults.seed = 20260808;

  auto clean = RunPipeline(algo, ds, Mode::kInProc);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  auto inproc = RunPipeline(algo, ds, Mode::kInProc, /*budget=*/0,
                            /*workers=*/2, /*crash_task=*/-1, faults);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  EXPECT_EQ(inproc->assignment, clean->assignment);
  EXPECT_GT(inproc->stats.Total(&Counters::map_task_retries), 0u);
  EXPECT_GT(inproc->stats.Total(&Counters::reduce_task_retries), 0u);
  for (Mode mode : {Mode::kFork, Mode::kRemote}) {
    auto run = RunPipeline(algo, ds, mode, /*budget=*/0, /*workers=*/2,
                           /*crash_task=*/-1, faults);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->assignment, clean->assignment);
    EXPECT_EQ(run->stats.Total(&Counters::map_task_retries),
              inproc->stats.Total(&Counters::map_task_retries));
    EXPECT_EQ(run->stats.Total(&Counters::reduce_task_retries),
              inproc->stats.Total(&Counters::reduce_task_retries));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, RemoteBitIdentityTest,
                         ::testing::Values("lsh", "basic", "eddpc"));

// SpeculationTest's stragglers (mapreduce_test.cc) on exec'd ddp_worker
// processes: once three attempts of a phase commit, a task whose attempt
// runs three times their median gets one backup on an idle worker. The
// first success commits; a loser's later result is discarded, and a loser
// still running at the phase's end is shut down, not parked. Output equals
// the in-process run.
TEST(RemoteSpeculationTest, BackupAttemptsRescueInjectedStragglers) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();
  mr::FaultInjection faults;
  faults.straggler_rate = 0.2;
  faults.straggler_slowdown = 10.0;
  faults.straggler_min_seconds = 0.25;
  faults.seed = 7;
  auto inproc = RunPipeline("lsh", ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto remote = RunPipeline("lsh", ds, Mode::kRemote, /*budget=*/0,
                            /*workers=*/4, /*crash_task=*/-1, faults,
                            /*spill_dir=*/"", /*deadline=*/0.0,
                            /*speculate=*/true);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  const uint64_t launches =
      remote->stats.Total(&Counters::speculative_launches);
  const uint64_t wins = remote->stats.Total(&Counters::speculative_wins);
  EXPECT_GT(launches, 0u);
  EXPECT_GT(wins, 0u);
  EXPECT_LE(wins, launches);
}

// A live ddp_worker whose attempt dawdles past the task deadline is dropped
// by the supervisor. The worker finds its link gone, dials again, is
// admitted as a new worker and serves the retry and every later task, so
// each job counts one admission per phase plus one per drop. Output equals
// the in-process run.
TEST(RemoteLinkLossTest, WorkerDroppedForADeadlineDialsAgainAndServes) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();
  mr::FaultInjection stragglers;
  stragglers.straggler_rate = 0.02;
  stragglers.straggler_slowdown = 1.0;
  stragglers.straggler_min_seconds = 1.0;
  stragglers.seed = 20260808;
  auto inproc = RunPipeline("lsh", ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto remote = RunPipeline("lsh", ds, Mode::kRemote, /*budget=*/0,
                            /*workers=*/1, /*crash_task=*/-1, stragglers,
                            /*spill_dir=*/"", /*deadline=*/0.5);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  const mr::RunStats& stats = remote->stats;
  EXPECT_GT(stats.Total(&Counters::deadline_kills), 0u);
  EXPECT_EQ(stats.Total(&Counters::workers_evicted),
            stats.Total(&Counters::deadline_kills));
  EXPECT_EQ(stats.Total(&Counters::tasks_reassigned),
            stats.Total(&Counters::deadline_kills));
  for (const Counters& job : stats.jobs) {
    EXPECT_EQ(job.workers_registered, 2 + job.workers_evicted)
        << job.job_name;
  }
}

// A forked crew that crashes and is respawned: the run's crash, kill and
// restart totals reach the registry, as RunPipeline checks. The remote
// eviction case is SurvivesWorkerDeathMidShuffle.
TEST(RegistryCountersTest, ForkedCrashesAndRespawnsMoveTheRegistry) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();
  mr::FaultInjection crashes;
  crashes.worker_crash_rate = 0.15;
  crashes.seed = 20260808;
  auto inproc = RunPipeline("lsh", ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto fork = RunPipeline("lsh", ds, Mode::kFork, /*budget=*/0,
                          /*workers=*/2, /*crash_task=*/-1, crashes);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();
  EXPECT_EQ(inproc->assignment, fork->assignment);
  EXPECT_GT(fork->stats.Total(&Counters::worker_crashes), 0u);
  EXPECT_GT(fork->stats.TotalWorkerRestarts(), 0u);
}

// Inputs whose last map tasks would start past the end: 2 workers make 8 map
// tasks, so 25 points split into tasks of 4 (task 7 would start at 28) and
// 41 into tasks of 6 (task 7 at 42). The remote task-input codec must ship
// those tasks empty slices, as the in-process split does.
TEST(RemoteMapSplitTest, ShortLastTasksMatchInProc) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  for (size_t n : {25u, 41u}) {
    Dataset ds =
        std::move(gen::GaussianMixture(n, 2, 3, 20.0, 3.0, 7)).ValueOrDie();
    auto inproc = RunPipeline("lsh", ds, Mode::kInProc);
    ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
    auto remote = RunPipeline("lsh", ds, Mode::kRemote);
    ASSERT_TRUE(remote.ok()) << "n=" << n << ": " << remote.status().ToString();
    EXPECT_EQ(inproc->assignment, remote->assignment) << "n=" << n;
  }
}

}  // namespace
}  // namespace ddp
