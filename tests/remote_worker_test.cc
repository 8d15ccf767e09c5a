// Remote worker subsystem suite (mapreduce/remote_worker.h): the wire
// payloads that carry the registered-job model (extended hello with
// capability flags, kJobSetup, kTaskAssign), the process-global JobRegistry,
// and — the contract the subsystem exists for — multi-host bit-identity:
// the same seed and dataset run under inproc, fork-pipe, fork-tcp, and
// remote execution (two separately exec'd ddp_worker processes on
// localhost) must produce byte-identical assignments for all three DDP
// drivers, including when one remote worker dies mid-shuffle and when a
// 4 KiB spill budget forces every task out of core.
//
// Remote/fork tests skip themselves where forked workers are unsupported
// (ForkExecutionSupported() == false, e.g. under TSan).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "ddp/remote_jobs.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/supervisor.h"

#ifndef DDP_WORKER_BIN
#error "DDP_WORKER_BIN must point at the ddp_worker executable"
#endif

namespace ddp {
namespace {

// ------------------------------------------------------------- wire codecs

TEST(RemoteCodecTest, HelloFlagsRoundTripAndBackCompat) {
  mr::HelloMsg hello;
  hello.worker_id = (uint64_t{1} << 63) | 4242;
  hello.generation = 3;
  hello.flags = mr::kWorkerHelloRemote;
  mr::HelloMsg decoded;
  ASSERT_TRUE(mr::HelloMsg::Decode(hello.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.worker_id, hello.worker_id);
  EXPECT_EQ(decoded.generation, hello.generation);
  EXPECT_EQ(decoded.flags, mr::kWorkerHelloRemote);

  // A pre-flags hello (worker_id + generation only) must still decode, with
  // flags defaulting to 0 — fork workers keep their old wire bytes.
  std::string legacy;
  BufferWriter w(&legacy);
  w.PutVarint64(17);
  w.PutVarint64(2);
  ASSERT_TRUE(mr::HelloMsg::Decode(legacy, &decoded).ok());
  EXPECT_EQ(decoded.worker_id, 17u);
  EXPECT_EQ(decoded.generation, 2u);
  EXPECT_EQ(decoded.flags, 0u);

  // A flags == 0 hello encodes byte-identically to the legacy form.
  mr::HelloMsg plain;
  plain.worker_id = 17;
  plain.generation = 2;
  EXPECT_EQ(plain.Encode(), legacy);
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
  setup.fault_seed = 20260808;
  setup.map_failure_rate = 0.25;
  setup.worker_crash_rate = 0.125;
  setup.straggler_slowdown = 3.0;

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
  EXPECT_EQ(decoded.fault_seed, setup.fault_seed);
  EXPECT_EQ(decoded.map_failure_rate, setup.map_failure_rate);
  EXPECT_EQ(decoded.worker_crash_rate, setup.worker_crash_rate);
  EXPECT_EQ(decoded.straggler_slowdown, setup.straggler_slowdown);

  EXPECT_FALSE(
      mr::JobSetupMsg::Decode("\x01garbage that is not a setup", &decoded)
          .ok());
}

TEST(RemoteCodecTest, TaskAssignRoundTrip) {
  mr::TaskAssignMsg assign;
  assign.task = 12;
  assign.attempt = 2;
  assign.quarantined = true;
  assign.input = std::string("\x00serialized input\xff", 19);
  mr::TaskAssignMsg decoded;
  ASSERT_TRUE(mr::TaskAssignMsg::Decode(assign.Encode(), &decoded).ok());
  EXPECT_EQ(decoded.task, assign.task);
  EXPECT_EQ(decoded.attempt, assign.attempt);
  EXPECT_EQ(decoded.quarantined, assign.quarantined);
  EXPECT_EQ(decoded.input, assign.input);
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

enum class Mode { kInProc, kForkPipe, kForkTcp, kRemote };

struct ModeResult {
  std::vector<int> assignment;
  double dc = 0.0;
  uint64_t tasks_reassigned = 0;
};

// Runs the full pipeline for `algo` under `mode` and returns the
// assignment. Remote mode binds a pool on an ephemeral port, execs
// `workers` ddp_worker processes against it (the first gets
// `crash_task` >= 0 as --chaos-crash-task), and reaps them afterwards.
Result<ModeResult> RunPipeline(const std::string& algo, const Dataset& ds,
                               Mode mode, uint64_t budget = 0,
                               size_t workers = 2, int64_t crash_task = -1) {
  DdpOptions options;
  options.selector = PeakSelector::TopK(12);
  options.use_mr_assignment = true;  // assign-jump rounds go remote too
  options.mr.num_workers = 2;
  options.mr.memory_budget_bytes = budget;
  switch (mode) {
    case Mode::kInProc:
      break;
    case Mode::kForkPipe:
      options.mr.exec_mode = mr::ExecMode::kFork;
      break;
    case Mode::kForkTcp:
      options.mr.exec_mode = mr::ExecMode::kFork;
      options.mr.transport = mr::Transport::kTcp;
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
  }
  return out;
}

class RemoteBitIdentityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RemoteBitIdentityTest, FourModesAgreeByteForByte) {
  if (!mr::ForkExecutionSupported()) {
    GTEST_SKIP() << "forked/exec'd workers unsupported in this build";
  }
  const std::string algo = GetParam();
  Dataset ds = std::move(gen::S2Like(7, 400)).ValueOrDie();

  auto inproc = RunPipeline(algo, ds, Mode::kInProc);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();
  auto fork_pipe = RunPipeline(algo, ds, Mode::kForkPipe);
  ASSERT_TRUE(fork_pipe.ok()) << fork_pipe.status().ToString();
  auto fork_tcp = RunPipeline(algo, ds, Mode::kForkTcp);
  ASSERT_TRUE(fork_tcp.ok()) << fork_tcp.status().ToString();
  auto remote = RunPipeline(algo, ds, Mode::kRemote);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  EXPECT_EQ(inproc->dc, remote->dc);
  EXPECT_EQ(inproc->assignment, fork_pipe->assignment);
  EXPECT_EQ(inproc->assignment, fork_tcp->assignment);
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
