// Remote worker subsystem suite (mapreduce/remote_worker.h): the wire
// payloads that carry the registered-job model (kHello, kJobSetup; the
// kTaskAssign codec lives in multiprocess_test.cc), the process-global
// JobRegistry,
// and — the contract the subsystem exists for — multi-host bit-identity:
// the same seed and dataset run under inproc, fork, and remote execution
// (two separately exec'd ddp_worker processes on localhost) must produce
// byte-identical assignments for all three DDP drivers, including when one
// remote worker dies mid-shuffle, when a 4 KiB spill budget forces every
// task out of core, and when remote connections drop mid-run and resume
// from the last committed run boundary.
//
// Remote/fork tests skip themselves where forked workers are unsupported
// (ForkExecutionSupported() == false, e.g. under TSan).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "ddp/remote_jobs.h"
#include "mapreduce/remote_job.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/supervisor.h"

#ifndef DDP_WORKER_BIN
#error "DDP_WORKER_BIN must point at the ddp_worker executable"
#endif

namespace ddp {
namespace {

// ------------------------------------------------------------- wire codecs

// A hello is (worker id, generation) and nothing after it: a trailing
// varint is rejected.
TEST(RemoteCodecTest, HelloRoundTripRejectsTrailingVarint) {
  mr::HelloMsg hello;
  hello.worker_id = (uint64_t{1} << 63) | 4242;
  hello.generation = 3;
  mr::HelloMsg decoded;
  ASSERT_TRUE(mr::HelloMsg::Decode(hello.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.worker_id, hello.worker_id);
  EXPECT_EQ(decoded.generation, hello.generation);

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

// A process that dials the worker-pool listener, takes a task and declares a
// 2^40-byte run must not make the supervisor allocate that length: the run
// buffer only ever holds bytes that arrive. The fake then ends the run at
// zero bytes, a protocol violation that evicts it; with no worker left the
// phase fails once the connect grace runs out, as a Status, never a throw.
TEST(HostileRemoteWorkerTest, DeclaredRunLengthIsNotAllocated) {
  auto pool = mr::RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint16_t port = (*pool)->port();
  std::thread fake([port] {
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
      begin.length = uint64_t{1} << 40;
      mr::RunEndMsg end;
      end.task = assign.task;
      end.attempt = assign.attempt;
      (void)(*ch)->Send({mr::MessageType::kRunBegin, begin.Encode()});
      (void)(*ch)->Send({mr::MessageType::kRunEnd, end.Encode()});
    }
  });

  mr::SupervisorConfig config;
  config.job_name = "hostile-run";
  config.num_workers = 0;
  config.num_tasks = 1;
  config.remote_pool = pool->get();
  config.remote_setup_payload = mr::JobSetupMsg{}.Encode();
  config.remote_task_input = [](size_t) -> Result<std::string> {
    return std::string();
  };
  mr::WorkerTaskFn fn = [](uint64_t, uint64_t, bool, const std::string&,
                           mr::TaskResult*) {
    return Status::Internal("a remote phase forks no workers");
  };
  mr::CommitFn commit = [](size_t, bool, double, std::string,
                           std::vector<mr::SpillRun>) { return Status::OK(); };
  mr::SupervisorStats stats;
  Status st;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(st = mr::WorkerSupervisor::RunPhase(config, fn, commit,
                                                      &stats));
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  fake.join();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(stats.workers_registered, 1u);
  EXPECT_EQ(stats.workers_evicted, 1u);
  EXPECT_LT(seconds, 30.0);
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
  uint64_t tasks_reassigned = 0;
  uint64_t channel_reconnects = 0;
  uint64_t shuffle_resent_runs = 0;
  uint64_t workers_evicted = 0;
  uint64_t map_task_retries = 0;
  uint64_t reduce_task_retries = 0;
};

// Runs the full pipeline for `algo` under `mode` and returns the
// assignment. Remote mode binds a pool on an ephemeral port, execs
// `workers` ddp_worker processes against it (the first gets
// `crash_task` >= 0 as --chaos-crash-task), and reaps them afterwards.
// `faults` and `spill_dir` pass through to the MapReduce options.
Result<ModeResult> RunPipeline(const std::string& algo, const Dataset& ds,
                               Mode mode, uint64_t budget = 0,
                               size_t workers = 2, int64_t crash_task = -1,
                               const mr::FaultInjection& faults = {},
                               const std::string& spill_dir = "") {
  DdpOptions options;
  options.selector = PeakSelector::TopK(12);
  options.use_mr_assignment = true;  // assign-jump rounds go remote too
  options.mr.num_workers = 2;
  options.mr.memory_budget_bytes = budget;
  options.mr.spill_dir = spill_dir;
  options.mr.faults = faults;
  if (faults.map_failure_rate > 0.0 || faults.reduce_failure_rate > 0.0) {
    // Failure chaos must not exhaust a task's attempts anywhere in the
    // pipeline.
    options.mr.max_task_attempts = 16;
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

  Result<DdpRunResult> run = RunDistributedDp(algorithm, ds, options);
  if (pool != nullptr) {
    pool->Shutdown();
    for (int64_t pid : pids) mr::WaitWorkerProcess(pid);
  }
  DDP_RETURN_NOT_OK(run.status());
  ModeResult out;
  out.assignment = std::move(run->clusters.assignment);
  out.dc = run->dc;
  for (const mr::JobCounters& j : run->stats.jobs) {
    out.tasks_reassigned += j.tasks_reassigned;
    out.channel_reconnects += j.channel_reconnects;
    out.shuffle_resent_runs += j.shuffle_resent_runs;
    out.workers_evicted += j.workers_evicted;
    out.map_task_retries += j.map_task_retries;
    out.reduce_task_retries += j.reduce_task_retries;
  }
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
  // worker's in-flight task reassigned.
  auto remote = RunPipeline(algo, ds, Mode::kRemote, /*budget=*/0,
                            /*workers=*/2, /*crash_task=*/1);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(inproc->assignment, remote->assignment);
  EXPECT_GT(remote->tasks_reassigned, 0u);
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

// Remote connections drop mid-run (FaultInjection::channel_drop_rate): a
// dropped worker redials, the supervisor matches it to its held slot by
// worker id, discards the partial run, and the worker resumes from the last
// committed run boundary. Output stays byte-identical and nobody is evicted.
mr::FaultInjection DropChaos() {
  mr::FaultInjection faults;
  faults.channel_drop_rate = 0.6;
  faults.seed = 20260808;
  return faults;
}

TEST_P(RemoteBitIdentityTest, DropChaosReconnectsAndStaysIdentical) {
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
  EXPECT_GT(remote->channel_reconnects, 0u);
  EXPECT_GT(remote->shuffle_resent_runs, 0u);
  EXPECT_EQ(remote->workers_evicted, 0u);
}

// The same drops with every map task out of core, so resumed runs are
// disk-backed; no spill file, worker- or supervisor-owned, may outlive the
// pipeline.
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
  EXPECT_GT(remote->channel_reconnects, 0u);
  EXPECT_GT(remote->shuffle_resent_runs, 0u);
  EXPECT_EQ(remote->workers_evicted, 0u);
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      ADD_FAILURE() << "leftover spill file " << e.path();
    }
  }
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
  EXPECT_GT(inproc->map_task_retries, 0u);
  EXPECT_GT(inproc->reduce_task_retries, 0u);
  for (Mode mode : {Mode::kFork, Mode::kRemote}) {
    auto run = RunPipeline(algo, ds, mode, /*budget=*/0, /*workers=*/2,
                           /*crash_task=*/-1, faults);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->assignment, clean->assignment);
    EXPECT_EQ(run->map_task_retries, inproc->map_task_retries);
    EXPECT_EQ(run->reduce_task_retries, inproc->reduce_task_retries);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, RemoteBitIdentityTest,
                         ::testing::Values("lsh", "basic", "eddpc"));

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
