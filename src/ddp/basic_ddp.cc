#include "ddp/basic_ddp.h"

#include <memory>
#include <numeric>
#include <vector>

#include "ddp/basic_ddp_jobs.h"
#include "ddp/records.h"

namespace ddp {

uint32_t BasicDdp::MeetingReducer(uint32_t a, uint32_t b, uint32_t n) {
  return basicjobs::MeetingReducerOf(a, b, n);
}

Result<DpScores> BasicDdp::ComputeScores(const Dataset& dataset, double dc,
                                         const CountingMetric& metric,
                                         const mr::Options& mr_options,
                                         mr::RunStats* stats) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (!(dc > 0.0)) return Status::InvalidArgument("d_c must be > 0");
  if (params_.block_size == 0) {
    return Status::InvalidArgument("block_size must be > 0");
  }
  const size_t n_points = dataset.size();
  const uint32_t num_blocks = static_cast<uint32_t>(
      (n_points + params_.block_size - 1) / params_.block_size);

  // Job closures (local and, via JobSetupMsg ctx blobs, remote) read
  // everything through this ctx; see ddp/basic_ddp_jobs.h.
  auto make_ctx = [&] {
    auto ctx = std::make_shared<basicjobs::BasicJobsCtx>();
    ctx->dc = dc;
    ctx->num_blocks = num_blocks;
    ctx->backend = params_.local_backend;
    ctx->dataset = &dataset;
    ctx->metric = &metric;
    return ctx;
  };

  std::vector<PointId> input(n_points);
  std::iota(input.begin(), input.end(), 0);

  // ---- Job 1: rho partials over circular block meetings.
  auto rho_job = basicjobs::MakeBasicRhoLocalJob(make_ctx());
  mr::JobCounters counters;
  DDP_ASSIGN_OR_RETURN(std::vector<basicjobs::BasicRhoPartial> partials,
                       mr::RunJob(rho_job, std::span<const PointId>(input),
                                  mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 2: rho = sum of partials (with a sum combiner).
  auto rho_agg = basicjobs::MakeBasicRhoAggregateJob();
  DDP_ASSIGN_OR_RETURN(
      std::vector<basicjobs::BasicRhoPartial> rho_final,
      mr::RunJob(rho_agg,
                 std::span<const basicjobs::BasicRhoPartial>(partials),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);
  partials.clear();
  partials.shrink_to_fit();

  std::vector<uint32_t> rho(n_points, 0);
  DDP_RETURN_NOT_OK(ddprec::AssembleRho(rho_final, rho_agg.name, &rho));

  // ---- Job 3: delta candidates. Same routing; values carry rho.
  auto delta_ctx = make_ctx();
  delta_ctx->rho = rho;
  auto delta_job = basicjobs::MakeBasicDeltaLocalJob(std::move(delta_ctx));
  DDP_ASSIGN_OR_RETURN(std::vector<basicjobs::BasicDeltaOut> delta_partials,
                       mr::RunJob(delta_job, std::span<const PointId>(input),
                                  mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 4: delta = min of candidates (with a min combiner).
  auto delta_agg = basicjobs::MakeBasicDeltaAggregateJob();
  DDP_ASSIGN_OR_RETURN(
      std::vector<basicjobs::BasicDeltaOut> delta_final,
      mr::RunJob(delta_agg,
                 std::span<const basicjobs::BasicDeltaOut>(delta_partials),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  DpScores scores;
  scores.Resize(n_points);
  scores.rho = std::move(rho);
  // Points without candidates keep delta = +inf / invalid upslope: exactly
  // the absolute density peak.
  DDP_RETURN_NOT_OK(
      ddprec::AssembleDeltas(delta_final, delta_agg.name, &scores));
  return scores;
}

}  // namespace ddp
