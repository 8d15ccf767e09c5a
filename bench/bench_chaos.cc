// Chaos benchmark: cost of fault tolerance on the LSH-DDP pipeline.
//
// Sweeps the chaos dial from a clean run through injected failures,
// stragglers (with and without speculative execution), and shuffle
// corruption, reporting wall time, recovery counter totals, and the
// attempt-duration straggler signal. The interesting numbers are (a) the
// overhead of the machinery when nothing goes wrong, and (b) how much of a
// straggler-stretched tail speculation claws back — the Fig. 12(a) skew
// regime is exactly where this matters.
//
// Run: ./build/bench/bench_chaos   (DDP_BENCH_SCALE=4 for a longer run)

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "dataset/generators.h"
#include "ddp/lsh_ddp.h"

namespace ddp {
namespace {

struct Scenario {
  const char* name;
  mr::Options mr;
};

mr::Options BaseMr() {
  mr::Options mr;
  mr.max_task_attempts = 24;
  return mr;
}

mr::Options WithFailures(mr::Options mr) {
  mr.faults.map_failure_rate = 0.25;
  mr.faults.reduce_failure_rate = 0.25;
  mr.faults.seed = 7;
  return mr;
}

mr::Options WithStragglers(mr::Options mr) {
  mr.faults.straggler_rate = 0.2;
  mr.faults.straggler_slowdown = 10.0;
  mr.faults.straggler_min_seconds = 0.05;
  mr.faults.seed = 7;
  return mr;
}

mr::Options WithSpeculation(mr::Options mr) {
  mr.speculative_execution = true;
  mr.speculative_multiplier = 3.0;
  return mr;
}

mr::Options WithCorruption(mr::Options mr) {
  mr.faults.corruption_rate = 0.1;
  mr.skip_bad_records = true;
  return mr;
}

int Run() {
  bench::QuietLogs quiet;
  bench::Banner("Fault-tolerance cost on LSH-DDP",
                "robustness layer; straggler regime of Fig. 12(a)");

  auto data = gen::KddLike(/*seed=*/3, bench::Scaled(2000));
  data.status().Abort("generating data set");
  const Dataset& dataset = *data;
  std::printf("data set: %zu points, %zu dims\n\n", dataset.size(),
              dataset.dim());

  std::vector<Scenario> scenarios = {
      {"clean", BaseMr()},
      {"25% task failures", WithFailures(BaseMr())},
      {"stragglers, no speculation", WithStragglers(BaseMr())},
      {"stragglers + speculation", WithSpeculation(WithStragglers(BaseMr()))},
      {"corruption + skip_bad_records", WithCorruption(BaseMr())},
      {"everything at once",
       WithSpeculation(WithCorruption(WithStragglers(WithFailures(BaseMr()))))},
  };

  std::printf("%-30s %9s %8s %9s %8s %9s %14s\n", "scenario", "seconds",
              "retries", "spec(won)", "skipped", "p99 att", "slowest/median");
  double clean_seconds = 0.0;
  for (const Scenario& s : scenarios) {
    DdpOptions options;
    options.mr = s.mr;
    options.selector = PeakSelector::TopK(8);
    LshDdp algo;
    auto result = RunDistributedDp(&algo, dataset, options);
    result.status().Abort(s.name);

    const mr::RunStats& stats = result->stats;
    double worst_ratio = 0.0, worst_p99 = 0.0;
    for (const mr::JobCounters& j : stats.jobs) {
      worst_ratio = std::max(worst_ratio, j.straggler_ratio);
      worst_p99 = std::max(worst_p99, j.p99_attempt_seconds);
    }
    char spec[32];
    std::snprintf(spec, sizeof(spec), "%llu(%llu)",
                  static_cast<unsigned long long>(
                      stats.Total(&mr::JobCounters::speculative_launches)),
                  static_cast<unsigned long long>(
                      stats.Total(&mr::JobCounters::speculative_wins)));
    std::printf("%-30s %8.3fs %8llu %9s %8llu %8.3fs %14.2f\n", s.name,
                result->total_seconds,
                static_cast<unsigned long long>(stats.TotalTaskRetries()),
                spec,
                static_cast<unsigned long long>(
                    stats.Total(&mr::JobCounters::skipped_records)),
                worst_p99, worst_ratio);
    if (clean_seconds == 0.0) clean_seconds = result->total_seconds;
  }
  std::printf(
      "\nReading: given idle workers to host the backups, 'stragglers +\n"
      "speculation' lands under 'stragglers, no speculation' -- backups\n"
      "absorb the stretched tail (on a single-core host they can only\n"
      "queue behind it). Every scenario is bit-identical to 'clean' by\n"
      "construction.\n");
  return 0;
}

}  // namespace
}  // namespace ddp

int main() { return ddp::Run(); }
