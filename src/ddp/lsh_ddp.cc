#include "ddp/lsh_ddp.h"

#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "ddp/lsh_ddp_jobs.h"
#include "ddp/records.h"
#include "lsh/partitioner.h"

namespace ddp {

Result<DpScores> LshDdp::ComputeScores(const Dataset& dataset, double dc,
                                       const CountingMetric& metric,
                                       const mr::Options& mr_options,
                                       mr::RunStats* stats) {
  if (dataset.empty()) return Status::InvalidArgument("empty dataset");
  if (!(dc > 0.0)) return Status::InvalidArgument("d_c must be > 0");

  // Resolve the width from the accuracy target when not given (Sec. V).
  lsh::LshParams lsh_params = params_.lsh;
  if (lsh_params.width <= 0.0) {
    DDP_ASSIGN_OR_RETURN(
        lsh_params.width,
        lsh::SolveMinimalWidth(params_.accuracy, lsh_params.num_layouts,
                               lsh_params.pi, dc));
  }
  DDP_ASSIGN_OR_RETURN(
      lsh::MultiLshPartitioner partitioner,
      lsh::MultiLshPartitioner::Create(dataset.dim(), lsh_params.num_layouts,
                                       lsh_params.pi, lsh_params.width,
                                       params_.seed));
  const size_t n_points = dataset.size();

  // Job closures (local and, via JobSetupMsg ctx blobs, remote) read
  // everything through this ctx; see ddp/lsh_ddp_jobs.h.
  auto make_ctx = [&] {
    auto ctx = std::make_shared<lshjobs::LshJobsCtx>();
    ctx->dc = dc;
    ctx->num_layouts = static_cast<uint32_t>(lsh_params.num_layouts);
    ctx->pi = lsh_params.pi;
    ctx->width = lsh_params.width;
    ctx->lsh_seed = params_.seed;
    ctx->kernel = params_.kernel;
    ctx->probes = params_.probes;
    ctx->max_bucket = params_.max_bucket_size;
    ctx->backend = params_.local_backend;
    ctx->dataset = &dataset;
    ctx->partitioner = &partitioner;
    ctx->metric = &metric;
    return ctx;
  };

  std::vector<PointId> input(n_points);
  std::iota(input.begin(), input.end(), 0);

  // ---- Job 1 (Map1 + Reduce1): LSH partition + local rho_hat^m.
  auto rho_job = lshjobs::MakeLshRhoLocalJob(make_ctx());
  mr::JobCounters counters;
  DDP_ASSIGN_OR_RETURN(std::vector<lshjobs::LshRhoOut> rho_locals,
                       mr::RunJob(rho_job, std::span<const PointId>(input),
                                  mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 2 (Reduce2): rho_hat = max_m rho_hat^m.
  auto rho_agg = lshjobs::MakeLshRhoAggregateJob();
  DDP_ASSIGN_OR_RETURN(
      std::vector<lshjobs::LshRhoOut> rho_final,
      mr::RunJob(rho_agg, std::span<const lshjobs::LshRhoOut>(rho_locals),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);
  rho_locals.clear();
  rho_locals.shrink_to_fit();

  std::vector<uint32_t> rho_hat(n_points, 0);
  DDP_RETURN_NOT_OK(ddprec::AssembleRho(rho_final, rho_agg.name, &rho_hat));

  // ---- Job 3 (Map3 + Reduce3): LSH partition + local delta_hat^m.
  auto delta_ctx = make_ctx();
  delta_ctx->rho_hat = rho_hat;
  auto delta_job = lshjobs::MakeLshDeltaLocalJob(std::move(delta_ctx));
  DDP_ASSIGN_OR_RETURN(std::vector<lshjobs::LshDeltaOut> delta_locals,
                       mr::RunJob(delta_job, std::span<const PointId>(input),
                                  mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  // ---- Job 4 (Reduce4): delta_hat = min_m delta_hat^m.
  auto delta_agg = lshjobs::MakeLshDeltaAggregateJob();
  DDP_ASSIGN_OR_RETURN(
      std::vector<lshjobs::LshDeltaOut> delta_final,
      mr::RunJob(delta_agg,
                 std::span<const lshjobs::LshDeltaOut>(delta_locals),
                 mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);

  DpScores scores;
  scores.Resize(n_points);
  scores.rho = std::move(rho_hat);
  DDP_RETURN_NOT_OK(
      ddprec::AssembleDeltas(delta_final, delta_agg.name, &scores));
  return scores;
}

}  // namespace ddp
