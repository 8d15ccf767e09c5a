#include "ddp/eddpc.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "ddp/eddpc_jobs.h"
#include "ddp/records.h"

namespace ddp {

Result<DpScores> Eddpc::ComputeScores(const Dataset& dataset, double dc,
                                      const CountingMetric& metric,
                                      const mr::Options& mr_options,
                                      mr::RunStats* stats) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (!(dc > 0.0)) return Status::InvalidArgument("d_c must be > 0");
  const size_t n_points = dataset.size();

  // ---- Pivot sampling (centralized, as in EDDPC's preprocessing).
  size_t num_pivots = params_.num_pivots;
  if (num_pivots == 0) {
    // ddp-lint: allow(no-raw-sqrt) -- ~2*sqrt(N) pivot-count heuristic,
    // not a distance; no determinism contract applies.
    num_pivots = static_cast<size_t>(
        2.0 * std::sqrt(static_cast<double>(n_points)));
    num_pivots = std::clamp<size_t>(num_pivots, 4, 256);
  }
  num_pivots = std::min(num_pivots, n_points);
  Rng rng(params_.seed);
  std::vector<size_t> pivot_ids =
      SampleWithoutReplacement(n_points, num_pivots, &rng);
  std::sort(pivot_ids.begin(), pivot_ids.end());
  std::vector<std::vector<double>> pivots(num_pivots);
  for (size_t k = 0; k < num_pivots; ++k) {
    std::span<const double> p =
        dataset.point(static_cast<PointId>(pivot_ids[k]));
    pivots[k].assign(p.begin(), p.end());
  }

  // Job closures (local and, via JobSetupMsg ctx blobs, remote) read
  // everything through this ctx; see ddp/eddpc_jobs.h. The sampled pivots
  // ship verbatim so workers never re-sample.
  auto make_ctx = [&] {
    auto ctx = std::make_shared<eddpcjobs::EddpcJobsCtx>();
    ctx->dc = dc;
    ctx->backend = params_.local_backend;
    ctx->use_max_rho_filter = params_.use_max_rho_filter;
    ctx->pivots = pivots;
    ctx->dataset = &dataset;
    ctx->metric = &metric;
    return ctx;
  };

  std::vector<PointId> input(n_points);
  std::iota(input.begin(), input.end(), 0);

  // ---- Job 1: exact rho via home + 2*d_c support replication.
  auto rho_job = eddpcjobs::MakeEddpcRhoJob(make_ctx());
  mr::JobCounters counters;
  DDP_ASSIGN_OR_RETURN(std::vector<eddpcjobs::HomeInfo> homes,
                       mr::RunJob(rho_job, std::span<const PointId>(input),
                                  mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 2: exact-within-cell delta upper bound + cell statistics.
  auto bound_job = eddpcjobs::MakeEddpcDeltaBoundJob(make_ctx());
  DDP_ASSIGN_OR_RETURN(
      std::vector<eddpcjobs::BoundOrStats> bounds_and_stats,
      mr::RunJob(bound_job, std::span<const eddpcjobs::HomeInfo>(homes),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);
  homes.clear();
  homes.shrink_to_fit();

  // Job 3's ctx carries the cell statistics job 2 produced.
  auto refine_ctx = make_ctx();
  std::vector<eddpcjobs::BoundInfo> bounds;
  DDP_RETURN_NOT_OK(eddpcjobs::SplitBoundsAndStats(
      bounds_and_stats, n_points, bound_job.name, refine_ctx.get(), &bounds));
  bounds_and_stats.clear();
  bounds_and_stats.shrink_to_fit();

  // ---- Job 3: cross-cell delta refinement with radius/max-rho filtering.
  auto refine_job = eddpcjobs::MakeEddpcDeltaRefineJob(std::move(refine_ctx));
  DDP_ASSIGN_OR_RETURN(
      std::vector<eddpcjobs::EddpcDeltaOut> refinements,
      mr::RunJob(refine_job, std::span<const eddpcjobs::BoundInfo>(bounds),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 4: min-aggregate home bounds and refinement candidates.
  std::vector<eddpcjobs::EddpcDeltaOut> candidates;
  candidates.reserve(bounds.size() + refinements.size());
  for (const eddpcjobs::BoundInfo& b : bounds) {
    candidates.push_back(
        {b.id, ddprec::DeltaCandidate{b.delta_ub_sq, b.upslope}});
  }
  std::move(refinements.begin(), refinements.end(),
            std::back_inserter(candidates));

  auto agg_job = eddpcjobs::MakeEddpcDeltaAggregateJob();
  DDP_ASSIGN_OR_RETURN(
      std::vector<eddpcjobs::EddpcDeltaOut> delta_final,
      mr::RunJob(agg_job,
                 std::span<const eddpcjobs::EddpcDeltaOut>(candidates),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  DpScores scores;
  scores.Resize(n_points);
  for (const eddpcjobs::BoundInfo& b : bounds) scores.rho[b.id] = b.rho;
  DDP_RETURN_NOT_OK(
      ddprec::AssembleDeltas(delta_final, agg_job.name, &scores));
  return scores;
}

}  // namespace ddp
