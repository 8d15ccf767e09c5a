// Chaos property test: every distributed DP variant, run under the full
// fault-injection gauntlet — lost attempts, stragglers with speculative
// backups, task deadlines, poisoned shuffle records under skip_bad_records,
// and a killed-and-resumed driver — must produce results bit-identical to a
// failure-free run. This is the determinism contract the whole recovery
// design rests on: tasks are pure functions of their input split, so no
// recovery path can change a single byte of output.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/checkpoint.h"
#include "obs/trace.h"

namespace ddp {
namespace {

std::unique_ptr<DistributedDpAlgorithm> MakeAlgorithm(
    const std::string& name) {
  if (name == "basic-ddp") {
    BasicDdp::Params p;
    p.block_size = 100;
    return std::make_unique<BasicDdp>(p);
  }
  if (name == "lsh-ddp") return std::make_unique<LshDdp>();
  EXPECT_EQ(name, "eddpc");
  return std::make_unique<Eddpc>();
}

DdpOptions BaseOptions() {
  DdpOptions o;
  o.mr.num_workers = 2;
  o.mr.num_partitions = 8;
  o.selector = PeakSelector::TopK(5);
  return o;
}

// The full gauntlet: failed attempts, stragglers with speculative backups,
// a task deadline, and poisoned shuffle records under skip_bad_records.
DdpOptions GauntletOptions() {
  DdpOptions chaos = BaseOptions();
  chaos.mr.faults.map_failure_rate = 0.25;
  chaos.mr.faults.reduce_failure_rate = 0.25;
  chaos.mr.faults.straggler_rate = 0.15;
  chaos.mr.faults.straggler_slowdown = 10.0;
  chaos.mr.faults.straggler_min_seconds = 0.03;
  chaos.mr.faults.corruption_rate = 0.1;
  chaos.mr.faults.seed = 20260806;
  chaos.mr.max_task_attempts = 24;
  chaos.mr.speculative_execution = true;
  chaos.mr.skip_bad_records = true;
  chaos.mr.task_deadline_seconds = 10.0;
  return chaos;
}

bool BitIdentical(const DdpRunResult& a, const DdpRunResult& b) {
  return a.dc == b.dc && a.scores.rho == b.scores.rho &&
         a.scores.delta == b.scores.delta &&
         a.scores.upslope == b.scores.upslope &&
         a.clusters.assignment == b.clusters.assignment &&
         a.clusters.peaks == b.clusters.peaks;
}

class ChaosTest : public ::testing::TestWithParam<const char*> {
 protected:
  Dataset MakeData() {
    auto ds = gen::KddLike(/*seed=*/5, 400);
    EXPECT_TRUE(ds.ok());
    return std::move(ds).value();
  }
};

TEST_P(ChaosTest, FullGauntletIsBitIdenticalToCleanRun) {
  Dataset dataset = MakeData();
  DdpOptions clean = BaseOptions();
  auto clean_algo = MakeAlgorithm(GetParam());
  auto baseline = RunDistributedDp(clean_algo.get(), dataset, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  DdpOptions chaos = GauntletOptions();
  auto algo = MakeAlgorithm(GetParam());
  auto result = RunDistributedDp(algo.get(), dataset, chaos);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(BitIdentical(*baseline, *result));
  EXPECT_GT(result->stats.TotalTaskRetries(), 0u);
  EXPECT_GT(result->stats.Total(&mr::JobCounters::skipped_records), 0u);
}

TEST_P(ChaosTest, SweepOverRatesAndSeedsStaysBitIdentical) {
  Dataset dataset = MakeData();
  DdpOptions clean = BaseOptions();
  auto clean_algo = MakeAlgorithm(GetParam());
  auto baseline = RunDistributedDp(clean_algo.get(), dataset, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const double failure_rates[] = {0.1, 0.3};
  const uint64_t seeds[] = {1, 99, 777};
  for (double rate : failure_rates) {
    for (uint64_t seed : seeds) {
      DdpOptions chaos = BaseOptions();
      chaos.mr.faults.map_failure_rate = rate;
      chaos.mr.faults.reduce_failure_rate = rate;
      chaos.mr.faults.corruption_rate = rate / 2;
      chaos.mr.faults.seed = seed;
      chaos.mr.max_task_attempts = 24;
      chaos.mr.skip_bad_records = true;
      auto algo = MakeAlgorithm(GetParam());
      auto result = RunDistributedDp(algo.get(), dataset, chaos);
      ASSERT_TRUE(result.ok())
          << GetParam() << " rate=" << rate << " seed=" << seed << ": "
          << result.status().ToString();
      EXPECT_TRUE(BitIdentical(*baseline, *result))
          << GetParam() << " diverged at rate=" << rate << " seed=" << seed;
    }
  }
}

TEST_P(ChaosTest, KilledDriverResumesBitIdentical) {
  Dataset dataset = MakeData();
  DdpOptions clean = BaseOptions();
  auto clean_algo = MakeAlgorithm(GetParam());
  auto baseline = RunDistributedDp(clean_algo.get(), dataset, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("ddp_chaos_resume_") + GetParam()))
          .string();
  std::filesystem::remove_all(dir);
  mr::CheckpointStore store(dir);

  DdpOptions resumable = BaseOptions();
  resumable.mr.checkpoint = &store;

  // Kill the driver after the first job checkpoints; everything later is
  // lost. The pipeline must surface the kill, not paper over it.
  store.SetKillAfter(1);
  auto killed_algo = MakeAlgorithm(GetParam());
  auto killed = RunDistributedDp(killed_algo.get(), dataset, resumable);
  ASSERT_FALSE(killed.ok());
  EXPECT_TRUE(killed.status().IsCancelled());

  // "New process": same store dir, kill switch off. Completed jobs replay
  // from disk; the rest re-run; the result matches the clean run exactly.
  store.SetKillAfter(-1);
  auto resumed_algo = MakeAlgorithm(GetParam());
  auto resumed = RunDistributedDp(resumed_algo.get(), dataset, resumable);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(BitIdentical(*baseline, *resumed));
  EXPECT_GT(resumed->stats.JobsLoadedFromCheckpoint(), 0u);
  std::filesystem::remove_all(dir);
}

// An in-process crew has no worker process to lose, kill, respawn, admit
// or evict, and streams no runs: under the whole gauntlet, every counter
// docs/observability.md limits to the forked or remote substrates reads 0.
TEST(ChaosSubstrateTest, InProcessGauntletMovesNoProcessCounter) {
  auto ds = gen::KddLike(/*seed=*/5, 400);
  ASSERT_TRUE(ds.ok());
  LshDdp algo;
  auto result = RunDistributedDp(&algo, *ds, GauntletOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.TotalTaskRetries(), 0u);
  for (uint64_t mr::JobCounters::*counter :
       {&mr::JobCounters::worker_crashes, &mr::JobCounters::worker_kills,
        &mr::JobCounters::worker_restarts, &mr::JobCounters::quarantined_tasks,
        &mr::JobCounters::workers_registered,
        &mr::JobCounters::workers_evicted, &mr::JobCounters::tasks_reassigned,
        &mr::JobCounters::shuffle_streamed_bytes}) {
    EXPECT_EQ(result->stats.Total(counter), 0u);
  }
}

// Observability under chaos: attempts killed by the task deadline (and
// speculative attempts cancelled before they start) must still flush their
// trace spans, marked cancelled — even though the worker pools that
// recorded them are destroyed before the snapshot is taken. The straggler
// dawdle deliberately exceeds the deadline, so the machine's tick cancels
// the dawdlers and they report DeadlineExceeded; injection is a pure
// function of the seed, so the kills are deterministic. Both are calibrated
// on the build under test: a fault-free run of the same pipeline measures
// its slowest attempt, the deadline is the larger of 0.3 s and three times
// that, and the dawdle is four times the deadline. So legitimate attempts
// stay well under the deadline at any slowdown, a Debug ThreadSanitizer
// build's included.
TEST(ChaosTraceTest, KilledAttemptSpansAreFlushedAndMarkedCancelled) {
  auto ds = gen::KddLike(/*seed=*/5, 400);
  ASSERT_TRUE(ds.ok());
  DdpOptions chaos = BaseOptions();
  chaos.mr.num_partitions = 4;  // fewer tasks: each kill waits a deadline
  chaos.mr.max_task_attempts = 24;
  chaos.mr.speculative_execution = true;
  LshDdp calibration_algo;
  auto calibration = RunDistributedDp(&calibration_algo, *ds, chaos);
  ASSERT_TRUE(calibration.ok()) << calibration.status().ToString();
  double slowest = 0.0;
  for (const mr::JobCounters& job : calibration->stats.jobs) {
    slowest = std::max(slowest, job.max_attempt_seconds);
  }
  const double deadline = std::max(0.3, 3.0 * slowest);
  RecordProperty("deadline_seconds", std::to_string(deadline));

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Clear();
  recorder.Enable();
  chaos.mr.faults.straggler_rate = 0.3;
  chaos.mr.faults.straggler_slowdown = 1.0;
  chaos.mr.faults.straggler_min_seconds = 4.0 * deadline;
  chaos.mr.faults.seed = 20260806;
  chaos.mr.task_deadline_seconds = deadline;
  LshDdp algo;
  auto result = RunDistributedDp(&algo, *ds, chaos);
  recorder.Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const uint64_t kills =
      result->stats.Total(&mr::JobCounters::deadline_kills);
  EXPECT_GT(kills, 0u);

  // The MR pools are gone by now; the recorder must still hold every
  // attempt span they recorded.
  size_t attempts = 0;
  size_t cancelled = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (e.name == "map_attempt" || e.name == "reduce_attempt") {
      ++attempts;
      if (e.cancelled) ++cancelled;
    }
  }
  EXPECT_GT(attempts, 0u);
  EXPECT_GE(cancelled, kills);
  recorder.Clear();
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ChaosTest,
                         ::testing::Values("basic-ddp", "lsh-ddp", "eddpc"),
                         [](const auto& param_info) {
                           std::string n = param_info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace ddp
