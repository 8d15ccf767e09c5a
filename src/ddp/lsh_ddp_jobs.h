#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "core/kernel.h"
#include "core/local_dp.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"
#include "ddp/job_ctx.h"
#include "ddp/records.h"
#include "lsh/partitioner.h"
#include "mapreduce/mapreduce.h"

/// \file lsh_ddp_jobs.h
/// The four LSH-DDP MapReduce jobs (Sec. IV) as reusable JobSpec factories.
/// LshDdp::ComputeScores builds each spec from a driver-side ctx (borrowed
/// dataset/partitioner/metric); ddp/remote_jobs.cc registers the same
/// factories in the worker-side JobRegistry, where the ctx is decoded from
/// the JobSetupMsg blob into owned storage. One set of map/reduce bodies
/// serves inproc, fork, and remote execution — bit-identity across exec
/// modes is structural, not re-proven per mode.

namespace ddp {
namespace lshjobs {

/// MapReduce key of one LSH bucket: (layout index m, bucket signature).
using BucketMapKey = std::pair<uint32_t, lsh::BucketKey>;
using LshRhoOut = std::pair<PointId, uint32_t>;
using LshDeltaOut = std::pair<PointId, ddprec::DeltaCandidate>;

// Borrows the coordinate rows of a (sub-)bucket straight out of the shuffled
// records — no copies. `Records` is PointRecord or ScoredPointRecord.
template <typename Records>
LocalPointView BucketView(std::span<const Records> members,
                          std::span<const size_t> group, size_t dim) {
  LocalPointView view(dim);
  view.Reserve(group.size());
  for (size_t k : group) view.Add(members[k].id, members[k].coords);
  return view;
}

// Deterministically splits indices [0, n) into ceil(n/max) balanced
// sub-groups keyed by member point id, for the skew-mitigation option.
inline std::vector<std::vector<size_t>> SplitOversized(size_t n,
                                                       size_t max_size,
                                                       auto id_of) {
  std::vector<std::vector<size_t>> groups;
  if (max_size == 0 || n <= max_size) {
    groups.emplace_back(n);
    std::iota(groups[0].begin(), groups[0].end(), 0);
    return groups;
  }
  size_t num_groups = (n + max_size - 1) / max_size;
  groups.resize(num_groups);
  for (size_t k = 0; k < n; ++k) {
    uint64_t h = id_of(k) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    groups[h % num_groups].push_back(k);
  }
  return groups;
}

/// The most hash coefficients (layouts x pi x dim) a decoded LshJobsCtx may
/// make a worker draw: 2^24 doubles, 128 MiB. The paper's settings (M = 10,
/// pi = 3) on 74-d points draw 2,220.
inline constexpr uint64_t kMaxCtxHashCoefficients = uint64_t{1} << 24;

/// Everything the LSH job closures read. The partitioner is reproducible
/// from (dim, num_layouts, pi, width, seed), so only those parameters cross
/// the wire; `rho_hat` is empty for the rho jobs and carries the aggregated
/// densities for the delta job.
struct LshJobsCtx : jobctx::DatasetCtx {
  double dc = 0.0;
  uint32_t num_layouts = 0;
  uint64_t pi = 0;
  double width = 0.0;  // resolved (never the <= 0 "derive me" sentinel)
  uint64_t lsh_seed = 0;
  DensityKernel kernel = DensityKernel::kCutoff;
  uint64_t probes = 0;
  uint64_t max_bucket = 0;
  LocalDpBackend backend = LocalDpBackend::kAuto;
  std::vector<uint32_t> rho_hat;

  const lsh::MultiLshPartitioner* partitioner = nullptr;
  std::optional<lsh::MultiLshPartitioner> owned_partitioner;

  LocalDpEngine Engine() const {
    LocalDpEngineOptions options;
    options.backend = backend;
    return LocalDpEngine(options);
  }

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.dc, s.num_layouts, s.pi, s.width, s.lsh_seed, s.kernel,
                     s.probes, s.max_bucket, s.backend, jobctx::DatasetField(s),
                     s.rho_hat);
  }

  static Result<std::shared_ptr<const LshJobsCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(auto ctx,
                         jobctx::DecodeFields<LshJobsCtx>(blob, "lsh"));
    DDP_RETURN_NOT_OK(jobctx::CheckEnum(ctx->kernel, DensityKernel::kGaussian,
                                        "lsh ctx kernel"));
    DDP_RETURN_NOT_OK(jobctx::CheckEnum(ctx->backend, LocalDpBackend::kKdTree,
                                        "lsh ctx backend"));
    // The blob sizes the partitioner this worker draws, so its layouts x
    // pi x dim coefficients are bounded before any is drawn.
    const uint64_t dim = ctx->owned_dataset->dim();
    const uint64_t cap = kMaxCtxHashCoefficients;
    if (dim > cap || ctx->num_layouts > cap / dim ||
        (ctx->num_layouts > 0 && ctx->pi > cap / (ctx->num_layouts * dim))) {
      return Status::IoError("lsh ctx asks for more than " +
                             std::to_string(cap) + " hash coefficients");
    }
    DDP_ASSIGN_OR_RETURN(
        lsh::MultiLshPartitioner partitioner,
        lsh::MultiLshPartitioner::Create(
            ctx->owned_dataset->dim(), ctx->num_layouts,
            static_cast<size_t>(ctx->pi), ctx->width, ctx->lsh_seed));
    ctx->owned_partitioner.emplace(std::move(partitioner));
    ctx->UseOwned();
    ctx->partitioner = &*ctx->owned_partitioner;
    return std::shared_ptr<const LshJobsCtx>(std::move(ctx));
  }
};

/// Job 1 (Map1 + Reduce1): LSH partition + local rho_hat^m.
inline mr::JobSpec<PointId, BucketMapKey, ddprec::PointRecord, LshRhoOut>
MakeLshRhoLocalJob(std::shared_ptr<const LshJobsCtx> ctx) {
  mr::JobSpec<PointId, BucketMapKey, ddprec::PointRecord, LshRhoOut> job;
  job.name = "lsh-rho-local";
  job.remote_task_id = "lsh-rho-local";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id,
                  mr::Emitter<BucketMapKey, ddprec::PointRecord>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    ddprec::PointRecord rec{id, {p.begin(), p.end()}};
    const size_t probes = static_cast<size_t>(ctx->probes);
    for (uint32_t m = 0; m < ctx->num_layouts; ++m) {
      for (lsh::BucketKey& key :
           ctx->partitioner->group(m).KeysWithProbes(p, probes)) {
        out->Emit({m, std::move(key)}, rec);
      }
    }
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const BucketMapKey&,
                             std::span<const ddprec::PointRecord> members,
                             std::vector<LshRhoOut>* out) {
    const size_t dim = ctx->dataset->dim();
    auto groups =
        SplitOversized(members.size(), static_cast<size_t>(ctx->max_bucket),
                       [&](size_t k) { return members[k].id; });
    for (const std::vector<size_t>& group : groups) {
      LocalPointView view = BucketView(members, group, dim);
      std::vector<uint32_t> rho =
          engine.Rho(view, ctx->dc, ctx->kernel, *ctx->metric);
      for (size_t g = 0; g < group.size(); ++g) {
        out->push_back({view.id(g), rho[g]});
      }
    }
  };
  return job;
}

/// Job 2 (Reduce2): rho_hat = max_m rho_hat^m.
inline mr::JobSpec<LshRhoOut, PointId, uint32_t, LshRhoOut>
MakeLshRhoAggregateJob() {
  mr::JobSpec<LshRhoOut, PointId, uint32_t, LshRhoOut> job;
  job.name = "lsh-rho-aggregate";
  job.remote_task_id = "lsh-rho-aggregate";
  job.map = [](const LshRhoOut& in, mr::Emitter<PointId, uint32_t>* out) {
    out->Emit(in.first, in.second);
  };
  job.combiner = [](const PointId&, std::vector<uint32_t> values) {
    uint32_t best = 0;
    for (uint32_t v : values) best = std::max(best, v);
    return std::vector<uint32_t>{best};
  };
  job.reduce = [](const PointId& id, std::span<const uint32_t> values,
                  std::vector<LshRhoOut>* out) {
    uint32_t best = 0;
    for (uint32_t v : values) best = std::max(best, v);
    out->push_back({id, best});
  };
  return job;
}

/// Job 3 (Map3 + Reduce3): LSH partition + local delta_hat^m. The ctx must
/// carry the aggregated rho_hat.
inline mr::JobSpec<PointId, BucketMapKey, ddprec::ScoredPointRecord,
                   LshDeltaOut>
MakeLshDeltaLocalJob(std::shared_ptr<const LshJobsCtx> ctx) {
  mr::JobSpec<PointId, BucketMapKey, ddprec::ScoredPointRecord, LshDeltaOut>
      job;
  job.name = "lsh-delta-local";
  job.remote_task_id = "lsh-delta-local";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id,
                  mr::Emitter<BucketMapKey, ddprec::ScoredPointRecord>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    ddprec::ScoredPointRecord rec{id, ctx->rho_hat[id], {p.begin(), p.end()}};
    const size_t probes = static_cast<size_t>(ctx->probes);
    for (uint32_t m = 0; m < ctx->num_layouts; ++m) {
      for (lsh::BucketKey& key :
           ctx->partitioner->group(m).KeysWithProbes(p, probes)) {
        out->Emit({m, std::move(key)}, rec);
      }
    }
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](
                   const BucketMapKey&,
                   std::span<const ddprec::ScoredPointRecord> members,
                   std::vector<LshDeltaOut>* out) {
    // The engine's delta kernel ranks the (sub-)bucket by the global
    // (rho_hat, id) total order, so aggregation across layouts is
    // consistent, and gives the sub-bucket's densest point
    // delta_hat^m = +infinity (Sec. IV-C).
    const size_t dim = ctx->dataset->dim();
    auto groups =
        SplitOversized(members.size(), static_cast<size_t>(ctx->max_bucket),
                       [&](size_t k) { return members[k].id; });
    for (const std::vector<size_t>& group : groups) {
      LocalPointView view = BucketView(members, group, dim);
      std::vector<uint32_t> rho(group.size());
      for (size_t g = 0; g < group.size(); ++g) rho[g] = members[group[g]].rho;
      LocalDeltaScores local = engine.Delta(view, rho, *ctx->metric);
      for (size_t g = 0; g < group.size(); ++g) {
        out->push_back({view.id(g), ddprec::DeltaCandidate{local.delta_sq[g],
                                                           local.upslope[g]}});
      }
    }
  };
  return job;
}

/// Job 4 (Reduce4): delta_hat = min_m delta_hat^m.
inline mr::JobSpec<LshDeltaOut, PointId, ddprec::DeltaCandidate, LshDeltaOut>
MakeLshDeltaAggregateJob() {
  mr::JobSpec<LshDeltaOut, PointId, ddprec::DeltaCandidate, LshDeltaOut> job;
  job.name = "lsh-delta-aggregate";
  job.remote_task_id = "lsh-delta-aggregate";
  job.map = [](const LshDeltaOut& in,
               mr::Emitter<PointId, ddprec::DeltaCandidate>* out) {
    out->Emit(in.first, in.second);
  };
  job.combiner = [](const PointId&,
                    std::vector<ddprec::DeltaCandidate> values) {
    ddprec::DeltaCandidate best = values[0];
    for (const auto& v : values) {
      if (v.BetterThan(best)) best = v;
    }
    return std::vector<ddprec::DeltaCandidate>{best};
  };
  job.reduce = [](const PointId& id,
                  std::span<const ddprec::DeltaCandidate> values,
                  std::vector<LshDeltaOut>* out) {
    ddprec::DeltaCandidate best = values[0];
    for (const auto& v : values) {
      if (v.BetterThan(best)) best = v;
    }
    out->push_back({id, best});
  };
  return job;
}

}  // namespace lshjobs
}  // namespace ddp
