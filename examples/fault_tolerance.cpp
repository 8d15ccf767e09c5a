// Fault-tolerance demo: run the full LSH-DDP pipeline through the complete
// chaos gauntlet — lost task attempts, injected stragglers with speculative
// backups, per-attempt deadlines, corrupt shuffle records under
// skip_bad_records, and a simulated driver kill with checkpoint resume —
// then verify the clustering is bit-identical to a failure-free run.
//
// Run: ./build/examples/fault_tolerance

#include <cstdio>
#include <filesystem>
#include <string>

#include "dataset/generators.h"
#include "ddp/driver.h"
#include "ddp/lsh_ddp.h"

namespace {

bool SameResults(const ddp::DdpRunResult& a, const ddp::DdpRunResult& b) {
  return a.clusters.assignment == b.clusters.assignment &&
         a.scores.rho == b.scores.rho && a.scores.delta == b.scores.delta;
}

int Fail(const ddp::Status& status, const char* what) {
  std::printf("FAILED: %s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  ddp::Result<ddp::Dataset> data = ddp::gen::KddLike(/*seed=*/3, 1500);
  if (!data.ok()) return Fail(data.status(), "generating data set");
  ddp::Dataset dataset = std::move(data).value();
  std::printf("KDD-like data set: %zu points, %zu dims\n", dataset.size(),
              dataset.dim());

  ddp::DdpOptions clean;
  clean.selector = ddp::PeakSelector::TopK(8);

  ddp::LshDdp algo_clean;
  ddp::Result<ddp::DdpRunResult> clean_run =
      ddp::RunDistributedDp(&algo_clean, dataset, clean);
  if (!clean_run.ok()) return Fail(clean_run.status(), "failure-free run");
  const ddp::DdpRunResult& baseline = *clean_run;

  // ---- Round 1: the full chaos gauntlet in one run.
  ddp::DdpOptions chaotic = clean;
  chaotic.mr.faults.map_failure_rate = 0.25;
  chaotic.mr.faults.reduce_failure_rate = 0.25;
  chaotic.mr.faults.straggler_rate = 0.2;      // 1 in 5 attempts dawdles...
  chaotic.mr.faults.straggler_slowdown = 10.0;  // ...at ~10x its compute time
  chaotic.mr.faults.straggler_min_seconds = 0.25;
  chaotic.mr.faults.corruption_rate = 0.05;  // poisoned shuffle frames
  chaotic.mr.faults.seed = 2026;
  chaotic.mr.max_task_attempts = 20;
  chaotic.mr.speculative_execution = true;  // race backups against stragglers
  chaotic.mr.speculative_multiplier = 3.0;
  chaotic.mr.skip_bad_records = true;  // step over the poisoned frames
  // Tighter than the straggler dawdle: a straggler whose backup also
  // straggles is deadline-killed and retried instead of stalling the job.
  chaotic.mr.task_deadline_seconds = 0.2;

  ddp::LshDdp algo_chaotic;
  ddp::Result<ddp::DdpRunResult> chaotic_run =
      ddp::RunDistributedDp(&algo_chaotic, dataset, chaotic);
  if (!chaotic_run.ok()) return Fail(chaotic_run.status(), "chaotic run");

  const ddp::mr::RunStats& stats = chaotic_run->stats;
  std::printf(
      "chaotic run survived: retries=%llu speculative=%llu (won %llu) "
      "skipped_records=%llu deadline_kills=%llu\n",
      static_cast<unsigned long long>(stats.TotalTaskRetries()),
      static_cast<unsigned long long>(
          stats.Total(&ddp::mr::JobCounters::speculative_launches)),
      static_cast<unsigned long long>(
          stats.Total(&ddp::mr::JobCounters::speculative_wins)),
      static_cast<unsigned long long>(
          stats.Total(&ddp::mr::JobCounters::skipped_records)),
      static_cast<unsigned long long>(
          stats.Total(&ddp::mr::JobCounters::deadline_kills)));

  bool identical = SameResults(baseline, *chaotic_run);
  std::printf("results identical to the failure-free run: %s\n",
              identical ? "YES" : "NO (bug!)");

  // ---- Round 2: kill the driver partway through, then resume from the
  // checkpoint directory — a fresh driver process picks up where the dead
  // one stopped, replaying completed jobs from disk.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "ddp_fault_tolerance_demo")
          .string();
  std::filesystem::remove_all(ckpt_dir);

  ddp::mr::CheckpointStore store(ckpt_dir);
  ddp::DdpOptions resumable = clean;
  resumable.mr.checkpoint = &store;

  store.SetKillAfter(2);  // die after the 2nd job checkpoints
  ddp::LshDdp algo_killed;
  ddp::Result<ddp::DdpRunResult> killed_run =
      ddp::RunDistributedDp(&algo_killed, dataset, resumable);
  if (killed_run.ok()) {
    std::printf("FAILED: simulated driver kill did not stop the pipeline\n");
    return 1;
  }
  std::printf("\ndriver killed mid-pipeline: %s\n",
              killed_run.status().ToString().c_str());

  store.SetKillAfter(-1);  // new driver process: no kill switch
  ddp::LshDdp algo_resumed;
  ddp::Result<ddp::DdpRunResult> resumed_run =
      ddp::RunDistributedDp(&algo_resumed, dataset, resumable);
  if (!resumed_run.ok()) return Fail(resumed_run.status(), "resumed run");

  uint64_t replayed = resumed_run->stats.JobsLoadedFromCheckpoint();
  bool resumed_identical = SameResults(baseline, *resumed_run);
  std::printf(
      "resumed run: %llu of %zu jobs replayed from checkpoint, results "
      "identical: %s\n",
      static_cast<unsigned long long>(replayed),
      resumed_run->stats.jobs.size(), resumed_identical ? "YES" : "NO (bug!)");
  std::filesystem::remove_all(ckpt_dir);

  std::printf(
      "\nWhy: tasks are pure functions of their input split, so every\n"
      "recovery path -- retry, speculative backup, deadline kill, bad-record\n"
      "skip, checkpoint replay -- reproduces the same bytes a clean run\n"
      "produces, the guarantee a Hadoop deployment relies on.\n");
  return (identical && resumed_identical && replayed > 0) ? 0 : 1;
}
