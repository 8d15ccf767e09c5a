// Multi-process execution benchmark: what fork-mode isolation costs, what
// crash-fault tolerance costs on top of it, and what the streamed shuffle
// buys the supervisor in memory.
//
// Runs the same LSH-DDP scoring pipeline five ways — forked workers
// streaming spill runs under a 4 KiB memory budget, forked workers at an
// unlimited budget (runs arrive as in-memory tails), in-process threads,
// forked workers under a SIGKILL chaos schedule, and two separately
// exec'd ddp_worker processes serving registered jobs over TCP (one of
// them crashed mid-shuffle, so the number covers an eviction +
// reassignment cycle) — and reports wall time, jobs/sec, the supervision
// counter totals, and whether all five score sets are bit-identical
// (they must be: that is the contract the channel/supervisor layer is
// built around).
//
// The streamed configuration runs FIRST and snapshots ru_maxrss before and
// after: because peak RSS is monotonic within a process, a later, larger
// configuration can only raise it, so the first checkpoint is an honest
// upper bound on the supervisor's footprint when every run is spilled and
// streamed. The delta to the unlimited-budget checkpoint is the memory the
// supervisor spends actually holding shuffle tails — the bytes the old
// relay path used to buffer as whole map-output payloads.
//
// Emits BENCH_mp.json so the multi-process overhead is machine-trackable
// per PR, alongside BENCH_oocore.json from bench_large_scale.
//
// Run: ./build/bench/bench_multiprocess   (DDP_BENCH_SCALE to enlarge)

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_util.h"
#include "core/cutoff.h"
#include "dataset/generators.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/supervisor.h"

#ifndef DDP_WORKER_BIN
#define DDP_WORKER_BIN ""
#endif

namespace ddp {
namespace {

struct MpRun {
  double seconds = 0.0;
  DpScores scores;
  mr::RunStats stats;
};

MpRun Measure(LshDdp* algo, const Dataset& ds, double dc,
              const mr::Options& mr) {
  CountingMetric metric;
  MpRun run;
  Stopwatch timer;
  auto scores = algo->ComputeScores(ds, dc, metric, mr, &run.stats);
  scores.status().Abort("lsh-ddp scoring");
  run.seconds = timer.ElapsedSeconds();
  run.scores = std::move(scores).value();
  return run;
}

bool SameScores(const DpScores& a, const DpScores& b) {
  return a.rho == b.rho && a.delta == b.delta && a.upslope == b.upslope;
}

/// Peak RSS of this process (the supervisor) in KiB; 0 where unavailable.
uint64_t PeakRssKb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<uint64_t>(ru.ru_maxrss);
  }
  return 0;
}

int Run() {
  bench::QuietLogs quiet;
  bench::ObsFromEnv obs;
  bench::Banner("Multi-process execution overhead on LSH-DDP",
                "robustness layer; streamed shuffle + supervision");

  if (!mr::ForkExecutionSupported()) {
    std::printf("forked workers are unsupported in this build\n");
    return 1;
  }
  auto data = gen::KddLike(/*seed=*/3, bench::Scaled(8000));
  data.status().Abort("generating data set");
  const Dataset& ds = *data;
  CountingMetric metric;
  double dc = std::move(ChooseCutoff(ds, metric)).ValueOrDie();
  std::printf("data set: %zu points, %zu dims, d_c = %.3f\n\n", ds.size(),
              ds.dim(), dc);

  LshDdp stream_algo, fork_algo, inproc_algo, chaos_algo, remote_algo;

  // 1. Streamed shuffle at a 4 KiB budget, first so its RSS checkpoint is
  // untainted: every map output spills, every run ships over the channel,
  // and the supervisor's stream window shrinks to the budget.
  mr::Options streamed;
  streamed.exec_mode = mr::ExecMode::kFork;
  streamed.memory_budget_bytes = 4096;
  const uint64_t rss_before_kb = PeakRssKb();
  MpRun stream = Measure(&stream_algo, ds, dc, streamed);
  const uint64_t rss_streamed_kb = PeakRssKb();
  std::printf(
      "forked, 4 KiB budget:    %7.3f s (%llu KiB peak RSS, %llu B streamed, "
      "%llu spill files)\n",
      stream.seconds, static_cast<unsigned long long>(rss_streamed_kb),
      static_cast<unsigned long long>(stream.stats.TotalShuffleStreamedBytes()),
      static_cast<unsigned long long>(stream.stats.TotalSpillFiles()));

  // 2. Unlimited budget: the same streamed protocol, but every run is an
  // in-memory tail the supervisor must hold until the reducers take it —
  // the configuration whose footprint the old relay path always paid.
  mr::Options forked;
  forked.exec_mode = mr::ExecMode::kFork;
  MpRun fork = Measure(&fork_algo, ds, dc, forked);
  const uint64_t rss_buffered_kb = PeakRssKb();
  std::printf(
      "forked, unlimited:       %7.3f s (%llu KiB peak RSS, %llu B "
      "streamed)\n",
      fork.seconds, static_cast<unsigned long long>(rss_buffered_kb),
      static_cast<unsigned long long>(fork.stats.TotalShuffleStreamedBytes()));

  mr::Options inproc;
  MpRun base = Measure(&inproc_algo, ds, dc, inproc);
  std::printf("in-process threads:      %7.3f s (fork overhead %.2fx)\n",
              base.seconds,
              base.seconds > 0.0 ? fork.seconds / base.seconds : 0.0);

  mr::Options chaos = forked;
  chaos.faults.worker_crash_rate = 0.15;
  chaos.faults.seed = 20260808;
  chaos.max_task_attempts = 24;
  chaos.max_worker_restarts = 256;
  chaos.quarantine_after_crashes = 24;  // random crashes are not poison
  MpRun crash = Measure(&chaos_algo, ds, dc, chaos);
  std::printf(
      "forked + 15%% SIGKILLs:   %7.3f s (%.2fx; %llu crashes, %llu respawns, "
      "%llu orphan spills reaped)\n",
      crash.seconds, base.seconds > 0.0 ? crash.seconds / base.seconds : 0.0,
      static_cast<unsigned long long>(crash.stats.TotalWorkerCrashes()),
      static_cast<unsigned long long>(crash.stats.TotalWorkerRestarts()),
      static_cast<unsigned long long>(crash.stats.TotalSpillFilesReaped()));

  // 5. Remote workers: two separately exec'd ddp_worker processes dial an
  // ephemeral loopback listener and run every job by JobRegistry id; the
  // first is told to crash mid-shuffle on its second assignment, so this
  // configuration also prices a worker eviction + task reassignment. The
  // exec'd-process jobs/sec is the serving-relevant throughput number.
  MpRun remote;
  double remote_jobs_per_sec = 0.0;
  bool remote_ran = false;
  if (DDP_WORKER_BIN[0] != '\0') {
    std::unique_ptr<mr::RemoteWorkerPool> pool =
        std::move(mr::RemoteWorkerPool::Listen("127.0.0.1", 0)).ValueOrDie();
    const std::string endpoint =
        pool->host() + ":" + std::to_string(pool->port());
    std::vector<int64_t> worker_pids;
    for (int i = 0; i < 2; ++i) {
      std::vector<std::string> worker_args = {"--connect", endpoint};
      if (i == 0) {
        worker_args.push_back("--chaos-crash-task");
        worker_args.push_back("1");
      }
      worker_pids.push_back(
          std::move(mr::SpawnWorkerProcess(DDP_WORKER_BIN, worker_args))
              .ValueOrDie());
    }
    mr::Options remoted;
    remoted.exec_mode = mr::ExecMode::kRemote;
    remoted.remote_pool = pool.get();
    remote = Measure(&remote_algo, ds, dc, remoted);
    pool->Shutdown();
    for (int64_t pid : worker_pids) mr::WaitWorkerProcess(pid);
    remote_ran = true;
    remote_jobs_per_sec = remote.seconds > 0.0
                              ? static_cast<double>(remote.stats.jobs.size()) /
                                    remote.seconds
                              : 0.0;
    std::printf(
        "2 exec'd ddp_workers:    %7.3f s (%.2fx; %.2f jobs/s, "
        "%llu registered, %llu evicted, %llu tasks reassigned)\n",
        remote.seconds,
        base.seconds > 0.0 ? remote.seconds / base.seconds : 0.0,
        remote_jobs_per_sec,
        static_cast<unsigned long long>(remote.stats.TotalWorkersRegistered()),
        static_cast<unsigned long long>(remote.stats.TotalWorkersEvicted()),
        static_cast<unsigned long long>(remote.stats.TotalTasksReassigned()));
  } else {
    std::printf(
        "2 exec'd ddp_workers:    skipped (worker binary path not compiled "
        "in)\n");
  }

  // The supervisor must actually stream in fork mode: a zero here means the
  // data path regressed to relaying map outputs through result payloads.
  const bool streamed_ok = stream.stats.TotalShuffleStreamedBytes() > 0;
  const uint64_t rss_delta_kb =
      rss_buffered_kb > rss_streamed_kb ? rss_buffered_kb - rss_streamed_kb : 0;
  std::printf(
      "\nsupervisor peak RSS: %llu KiB streamed-at-4KiB vs %llu KiB "
      "unlimited (+%llu KiB to buffer tails)\n",
      static_cast<unsigned long long>(rss_streamed_kb),
      static_cast<unsigned long long>(rss_buffered_kb),
      static_cast<unsigned long long>(rss_delta_kb));

  const bool identical = SameScores(base.scores, fork.scores) &&
                         SameScores(base.scores, stream.scores) &&
                         SameScores(base.scores, crash.scores) &&
                         (!remote_ran || SameScores(base.scores, remote.scores));
  std::printf("bit-identical across all %s substrates: %s\n",
              remote_ran ? "five" : "four",
              identical ? "yes" : "NO — CONTRACT VIOLATION");
  if (!streamed_ok) {
    std::printf("streamed shuffle bytes: 0 — RELAY REGRESSION\n");
  }

  std::FILE* json = std::fopen("BENCH_mp.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"lsh_ddp_multiprocess\",\n"
        "  \"points\": %zu,\n"
        "  \"dims\": %zu,\n"
        "  \"fork_supported\": true,\n"
        "  \"inproc_seconds\": %.6f,\n"
        "  \"fork_seconds\": %.6f,\n"
        "  \"fork_overhead_ratio\": %.4f,\n"
        "  \"streamed_seconds\": %.6f,\n"
        "  \"streamed_shuffle_bytes\": %llu,\n"
        "  \"rss_start_kb\": %llu,\n"
        "  \"rss_streamed_4k_kb\": %llu,\n"
        "  \"rss_buffered_kb\": %llu,\n"
        "  \"rss_tail_buffer_delta_kb\": %llu,\n"
        "  \"chaos_seconds\": %.6f,\n"
        "  \"chaos_worker_crash_rate\": %.2f,\n"
        "  \"worker_crashes\": %llu,\n"
        "  \"worker_restarts\": %llu,\n"
        "  \"worker_hangs\": %llu,\n"
        "  \"spill_files_reaped\": %llu,\n"
        "  \"channel_reconnects\": %llu,\n"
        "  \"exec_fallbacks\": %llu,\n"
        "  \"remote_ran\": %s,\n"
        "  \"remote_seconds\": %.6f,\n"
        "  \"remote_jobs_per_sec\": %.4f,\n"
        "  \"remote_workers_registered\": %llu,\n"
        "  \"remote_workers_evicted\": %llu,\n"
        "  \"remote_tasks_reassigned\": %llu,\n"
        "  \"bit_identical\": %s\n"
        "}\n",
        ds.size(), ds.dim(), base.seconds,
        fork.seconds, base.seconds > 0.0 ? fork.seconds / base.seconds : 0.0,
        stream.seconds,
        static_cast<unsigned long long>(
            stream.stats.TotalShuffleStreamedBytes()),
        static_cast<unsigned long long>(rss_before_kb),
        static_cast<unsigned long long>(rss_streamed_kb),
        static_cast<unsigned long long>(rss_buffered_kb),
        static_cast<unsigned long long>(rss_delta_kb), crash.seconds,
        chaos.faults.worker_crash_rate,
        static_cast<unsigned long long>(crash.stats.TotalWorkerCrashes()),
        static_cast<unsigned long long>(crash.stats.TotalWorkerRestarts()),
        static_cast<unsigned long long>(crash.stats.TotalWorkerHangs()),
        static_cast<unsigned long long>(crash.stats.TotalSpillFilesReaped()),
        static_cast<unsigned long long>(
            crash.stats.TotalChannelReconnects()),
        static_cast<unsigned long long>(fork.stats.TotalExecFallbacks() +
                                        crash.stats.TotalExecFallbacks()),
        remote_ran ? "true" : "false", remote.seconds, remote_jobs_per_sec,
        static_cast<unsigned long long>(remote.stats.TotalWorkersRegistered()),
        static_cast<unsigned long long>(remote.stats.TotalWorkersEvicted()),
        static_cast<unsigned long long>(remote.stats.TotalTasksReassigned()),
        identical ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_mp.json\n");
  }
  return identical && streamed_ok ? 0 : 1;
}

}  // namespace
}  // namespace ddp

int main() { return ddp::Run(); }
