#include "ddp/mr_kmeans.h"

#include <memory>
#include <numeric>

#include "common/random.h"
#include "common/stopwatch.h"
#include "ddp/pipeline_jobs.h"
#include "ddp/records.h"

namespace ddp {

Result<MrKmeansResult> RunMrKmeans(const Dataset& dataset,
                                   const MrKmeansOptions& options,
                                   const CountingMetric& metric) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (options.k == 0) return Status::InvalidArgument("k must be >= 1");
  if (options.k > dataset.size()) {
    return Status::InvalidArgument("k exceeds the number of points");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }

  MrKmeansResult result;
  // Initial centroids: k distinct points.
  Rng rng(options.seed);
  std::vector<size_t> init =
      SampleWithoutReplacement(dataset.size(), options.k, &rng);
  result.centroids.resize(options.k);
  for (size_t c = 0; c < options.k; ++c) {
    std::span<const double> p = dataset.point(static_cast<PointId>(init[c]));
    result.centroids[c].assign(p.begin(), p.end());
  }

  std::vector<PointId> input(dataset.size());
  std::iota(input.begin(), input.end(), 0);

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Stopwatch iter_timer;

    // The iteration's job body lives in ddp/pipeline_jobs.h so exec'd
    // ddp_worker processes can run it by name; the ctx snapshots this
    // iteration's centroids.
    auto ctx = std::make_shared<pipejobs::KmeansIterCtx>();
    ctx->centroids = result.centroids;
    ctx->dataset = &dataset;
    ctx->metric = &metric;
    auto job = pipejobs::MakeKmeansIterJob(std::move(ctx), iter);

    mr::JobCounters counters;
    DDP_ASSIGN_OR_RETURN(std::vector<pipejobs::KmeansIterOut> partials,
                         mr::RunJob(job, std::span<const PointId>(input),
                                    options.mr, &counters));
    result.stats.Add(counters);

    DDP_ASSIGN_OR_RETURN(const double max_move_sq,
                         pipejobs::ApplyCentroidPartials(partials, job.name,
                                                         &result.centroids));
    result.iteration_seconds.push_back(iter_timer.ElapsedSeconds());
    ++result.iterations_run;
    if (options.convergence_tol > 0.0 &&
        max_move_sq < options.convergence_tol) {
      break;
    }
  }

  // Final assignment pass (centralized; not timed as an iteration).
  result.assignment.resize(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    result.assignment[i] = static_cast<int>(pipejobs::NearestCentroid(
        dataset.point(static_cast<PointId>(i)), result.centroids, metric));
  }
  return result;
}

}  // namespace ddp
