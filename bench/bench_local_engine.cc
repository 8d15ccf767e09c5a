#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/local_dp.h"
#include "dataset/generators.h"

/// \file bench_local_engine.cc
/// Sweeps the LocalDpEngine backends over group size x dimensionality,
/// reporting wall time and counted distance evaluations for the local
/// rho + delta kernels. This is the per-reducer cost model behind every
/// algorithm layer: the crossover points here justify the kAuto heuristic
/// (k-d tree for large low-dimensional groups, the packed-panel brute scan
/// for everything else). All backends produce bit-identical scores; only
/// their costs differ.

namespace ddp {
namespace {

using bench::HumanCount;
using bench::Scaled;

struct Cell {
  double rho_seconds = 0.0;
  double delta_seconds = 0.0;
  uint64_t evals = 0;
};

Cell MeasureBackend(const Dataset& ds, double dc, LocalDpBackend backend) {
  LocalDpEngineOptions options;
  options.backend = backend;
  LocalDpEngine engine(options);
  LocalPointView view = LocalPointView::AllOf(ds);
  DistanceCounter counter;
  CountingMetric metric(&counter);
  Cell cell;
  Stopwatch rho_timer;
  std::vector<uint32_t> rho =
      engine.Rho(view, dc, DensityKernel::kCutoff, metric);
  cell.rho_seconds = rho_timer.ElapsedSeconds();
  Stopwatch delta_timer;
  LocalDeltaScores delta = engine.Delta(view, rho, metric);
  cell.delta_seconds = delta_timer.ElapsedSeconds();
  cell.evals = counter.value();
  (void)delta;
  return cell;
}

int Run() {
  bench::QuietLogs quiet;
  bench::Banner("LocalDpEngine backend sweep: group size x dim",
                "the per-bucket/cell/block kernel cost model");
  const LocalDpBackend backends[] = {LocalDpBackend::kBruteForce,
                                     LocalDpBackend::kKdTree};
  std::printf("%8s %5s | %-9s %12s %10s %10s %8s\n", "group", "dim", "backend",
              "dist evals", "rho ms", "delta ms", "vs brute");
  for (size_t dim : {2u, 8u, 32u}) {
    for (size_t base_n : {128u, 512u, 2048u, 8192u}) {
      const size_t n = Scaled(base_n);
      auto ds = gen::GaussianMixture(n, dim, 4, 30.0, 3.0, 91 + dim + base_n);
      ds.status().Abort("generate");
      // d_c sized to give each point a modest neighborhood.
      const double dc = 3.0;
      uint64_t brute_evals = 0;
      for (LocalDpBackend backend : backends) {
        Cell cell = MeasureBackend(*ds, dc, backend);
        if (backend == LocalDpBackend::kBruteForce) brute_evals = cell.evals;
        const double ratio =
            brute_evals > 0 ? static_cast<double>(cell.evals) /
                                  static_cast<double>(brute_evals)
                            : 1.0;
        std::printf("%8zu %5zu | %-9s %12s %10.3f %10.3f %7.2fx\n", n, dim,
                    LocalDpBackendName(backend), HumanCount(cell.evals).c_str(),
                    cell.rho_seconds * 1e3, cell.delta_seconds * 1e3, ratio);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "kAuto picks: kdtree when n >= 256 and dim <= 16, brute otherwise.\n");
  return 0;
}

}  // namespace
}  // namespace ddp

int main() { return ddp::Run(); }
