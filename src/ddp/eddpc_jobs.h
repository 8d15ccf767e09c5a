#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
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
#include "mapreduce/mapreduce.h"

/// \file eddpc_jobs.h
/// The four EDDPC MapReduce jobs (Gong & Zhang [21], Table IV comparator)
/// as reusable JobSpec factories, shared by Eddpc::ComputeScores and the
/// worker-side JobRegistry (ddp/remote_jobs.cc). See lsh_ddp_jobs.h for the
/// ctx borrow/own convention. The refine job additionally needs the per-cell
/// statistics the driver collects between jobs 2 and 3 — they ride the same
/// ctx blob.

namespace ddp {
namespace eddpcjobs {

inline constexpr double kEddpcInf = std::numeric_limits<double>::infinity();

// Job 1 intermediate: a point routed to a Voronoi cell, either as one of the
// cell's own ("home") points or as a replicated neighbor-support point.
struct CellPoint {
  uint8_t is_support = 0;
  ddprec::PointRecord point;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(AsByte(s.is_support), s.point); }
  bool operator==(const CellPoint&) const = default;
};

// Job 3 intermediate: a cell member (comparison target) or a delta query.
// Queries carry their squared within-cell bound — the engine's canonical
// comparison space — as the refinement seed. The one hand-written codec:
// whether delta_ub_sq is on the wire depends on is_query, so no field list
// can say it.
struct MemberOrQuery {
  uint8_t is_query = 0;
  PointId id = 0;
  uint32_t rho = 0;
  double delta_ub_sq = 0.0;  // queries only
  std::vector<double> coords;

  void SerializeTo(BufferWriter* w) const {
    w->PutByte(is_query);
    w->PutVarint32(id);
    w->PutVarint32(rho);
    if (is_query != 0) w->PutDouble(delta_ub_sq);
    w->PutDoubles(coords);
  }
  static Status DeserializeFrom(BufferReader* r, MemberOrQuery* out) {
    DDP_RETURN_NOT_OK(r->GetByte(&out->is_query));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->id));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->rho));
    out->delta_ub_sq = 0.0;
    if (out->is_query != 0) DDP_RETURN_NOT_OK(r->GetDouble(&out->delta_ub_sq));
    return r->GetDoubles(&out->coords);
  }
  bool operator==(const MemberOrQuery&) const = default;
};

// Per-point state threaded between jobs. Never shuffled, but it is a reduce
// output type, so it names its wire fields: that is what lets the jobs
// producing it run their reduce phase in forked (and remote) workers, and
// be checkpoint-replayable.
struct HomeInfo {
  PointId id = 0;
  uint32_t rho = 0;
  uint32_t cell = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.id, s.rho, s.cell); }
};

struct BoundInfo {
  PointId id = 0;
  uint32_t rho = 0;
  uint32_t cell = 0;
  double delta_ub = kEddpcInf;     // distance space, for the radius filter
  double delta_ub_sq = kEddpcInf;  // squared space, the refinement seed
  PointId upslope = kInvalidPointId;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.id, s.rho, s.cell, s.delta_ub, s.delta_ub_sq, s.upslope);
  }
};

// Job 2 output: either a per-point bound or per-cell statistics.
struct BoundOrStats {
  bool is_stats = false;
  BoundInfo bound;       // when !is_stats
  uint32_t cell = 0;     // when is_stats
  double radius = 0.0;   // max distance member -> pivot
  uint32_t max_rho = 0;  // densest member

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.is_stats, s.bound, s.cell, s.radius, s.max_rho);
  }
};

using EddpcDeltaOut = std::pair<PointId, ddprec::DeltaCandidate>;

/// Everything the EDDPC job closures read. The pivots are sampled by the
/// driver and shipped verbatim (the worker must never re-sample); the
/// cell_* vectors are empty until the driver fills them between jobs 2 and
/// 3 for the refine job.
struct EddpcJobsCtx : jobctx::DatasetCtx {
  double dc = 0.0;
  LocalDpBackend backend = LocalDpBackend::kAuto;
  bool use_max_rho_filter = true;
  std::vector<std::vector<double>> pivots;
  std::vector<double> cell_radius;
  std::vector<uint32_t> cell_max_rho;
  std::vector<uint8_t> cell_nonempty;  // vector<bool> has no spanable form

  uint32_t p_count() const { return static_cast<uint32_t>(pivots.size()); }

  LocalDpEngine Engine() const {
    LocalDpEngineOptions options;
    options.backend = backend;
    return LocalDpEngine(options);
  }

  /// Distances from a point to every pivot; returns the home cell.
  uint32_t PivotDistances(std::span<const double> p,
                          std::vector<double>* dist) const {
    const uint32_t count = p_count();
    dist->resize(count);
    uint32_t home = 0;
    for (uint32_t k = 0; k < count; ++k) {
      (*dist)[k] = metric->Distance(p, pivots[k]);
      if ((*dist)[k] < (*dist)[home]) home = k;
    }
    return home;
  }

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.dc, s.backend, s.use_max_rho_filter, s.pivots,
                     s.cell_radius, s.cell_max_rho, s.cell_nonempty,
                     jobctx::DatasetField(s));
  }

  static Result<std::shared_ptr<const EddpcJobsCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(auto ctx,
                         jobctx::DecodeFields<EddpcJobsCtx>(blob, "eddpc"));
    DDP_RETURN_NOT_OK(jobctx::CheckEnum(ctx->backend, LocalDpBackend::kKdTree,
                                        "eddpc ctx backend"));
    ctx->UseOwned();
    return std::shared_ptr<const EddpcJobsCtx>(std::move(ctx));
  }
};

/// Splits job 2's output into the per-point `bounds` and the per-cell
/// statistics job 3 filters by, which it writes into `refine`, whose
/// pivots name the cells. Ids come from workers: a cell past the pivots or
/// a point at or past `n` fails naming `job`.
inline Status SplitBoundsAndStats(std::span<const BoundOrStats> out, size_t n,
                                  const std::string& job,
                                  EddpcJobsCtx* refine,
                                  std::vector<BoundInfo>* bounds) {
  const size_t cells = refine->pivots.size();
  refine->cell_radius.assign(cells, 0.0);
  refine->cell_max_rho.assign(cells, 0);
  refine->cell_nonempty.assign(cells, 0);
  bounds->reserve(n);
  for (const BoundOrStats& b : out) {
    if (b.is_stats) {
      DDP_RETURN_NOT_OK(ddprec::CheckId(b.cell, cells, "cell", job));
      refine->cell_radius[b.cell] = b.radius;
      refine->cell_max_rho[b.cell] = b.max_rho;
      refine->cell_nonempty[b.cell] = 1;
    } else {
      DDP_RETURN_NOT_OK(ddprec::CheckId(b.bound.id, n, "point", job));
      bounds->push_back(b.bound);
    }
  }
  return Status::OK();
}

/// Job 1: exact rho via home + 2*d_c support replication.
inline mr::JobSpec<PointId, uint32_t, CellPoint, HomeInfo> MakeEddpcRhoJob(
    std::shared_ptr<const EddpcJobsCtx> ctx) {
  mr::JobSpec<PointId, uint32_t, CellPoint, HomeInfo> job;
  job.name = "eddpc-rho";
  job.remote_task_id = "eddpc-rho";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id, mr::Emitter<uint32_t, CellPoint>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    std::vector<double> dist;
    uint32_t home = ctx->PivotDistances(p, &dist);
    CellPoint rec;
    rec.point = {id, {p.begin(), p.end()}};
    rec.is_support = 0;
    out->Emit(home, rec);
    rec.is_support = 1;
    for (uint32_t k = 0; k < ctx->p_count(); ++k) {
      if (k != home && dist[k] <= dist[home] + 2.0 * ctx->dc) {
        out->Emit(k, rec);
      }
    }
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const uint32_t& cell,
                             std::span<const CellPoint> values,
                             std::vector<HomeInfo>* out) {
    const size_t dim = ctx->dataset->dim();
    LocalPointView home_view(dim), support_view(dim);
    for (const CellPoint& v : values) {
      (v.is_support != 0 ? support_view : home_view)
          .Add(v.point.id, v.point.coords);
    }
    // Exact rho = within-cell neighbors + one-sided support neighbors (each
    // support point is counted as a home point of its own cell).
    std::vector<uint32_t> rho =
        engine.Rho(home_view, ctx->dc, DensityKernel::kCutoff, *ctx->metric);
    engine.RhoCross(home_view, support_view, ctx->dc, *ctx->metric, rho, {});
    for (size_t i = 0; i < home_view.size(); ++i) {
      out->push_back({home_view.id(i), rho[i], cell});
    }
  };
  return job;
}

/// Job 2: exact-within-cell delta upper bound + cell statistics.
inline mr::JobSpec<HomeInfo, uint32_t, ddprec::ScoredPointRecord, BoundOrStats>
MakeEddpcDeltaBoundJob(std::shared_ptr<const EddpcJobsCtx> ctx) {
  mr::JobSpec<HomeInfo, uint32_t, ddprec::ScoredPointRecord, BoundOrStats> job;
  job.name = "eddpc-delta-bound";
  job.remote_task_id = "eddpc-delta-bound";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const HomeInfo& in,
                  mr::Emitter<uint32_t, ddprec::ScoredPointRecord>* out) {
    std::span<const double> p = ctx->dataset->point(in.id);
    out->Emit(in.cell, {in.id, in.rho, {p.begin(), p.end()}});
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const uint32_t& cell,
                             std::span<const ddprec::ScoredPointRecord> members,
                             std::vector<BoundOrStats>* out) {
    const size_t dim = ctx->dataset->dim();
    LocalPointView view(dim);
    view.Reserve(members.size());
    std::vector<uint32_t> rho;
    rho.reserve(members.size());
    BoundOrStats cell_stats;
    cell_stats.is_stats = true;
    cell_stats.cell = cell;
    for (const ddprec::ScoredPointRecord& m : members) {
      view.Add(m.id, m.coords);
      rho.push_back(m.rho);
      cell_stats.radius = std::max(
          cell_stats.radius, ctx->metric->Distance(m.coords, ctx->pivots[cell]));
      cell_stats.max_rho = std::max(cell_stats.max_rho, m.rho);
    }
    // Exact within-cell delta over the density total order; the cell's
    // densest member keeps delta_ub = +inf and no upslope.
    LocalDeltaScores local = engine.Delta(view, rho, *ctx->metric);
    for (size_t k = 0; k < members.size(); ++k) {
      BoundOrStats rec;
      rec.bound = {members[k].id, members[k].rho,  cell,
                   local.delta[k], local.delta_sq[k], local.upslope[k]};
      out->push_back(rec);
    }
    out->push_back(cell_stats);
  };
  return job;
}

/// Job 3: cross-cell delta refinement with radius/max-rho filtering. The
/// ctx must carry the cell statistics job 2 produced.
inline mr::JobSpec<BoundInfo, uint32_t, MemberOrQuery, EddpcDeltaOut>
MakeEddpcDeltaRefineJob(std::shared_ptr<const EddpcJobsCtx> ctx) {
  mr::JobSpec<BoundInfo, uint32_t, MemberOrQuery, EddpcDeltaOut> job;
  job.name = "eddpc-delta-refine";
  job.remote_task_id = "eddpc-delta-refine";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const BoundInfo& in,
                  mr::Emitter<uint32_t, MemberOrQuery>* out) {
    std::span<const double> p = ctx->dataset->point(in.id);
    MemberOrQuery rec;
    rec.id = in.id;
    rec.rho = in.rho;
    rec.coords.assign(p.begin(), p.end());
    rec.is_query = 0;
    out->Emit(in.cell, rec);
    rec.is_query = 1;
    rec.delta_ub_sq = in.delta_ub_sq;
    std::vector<double> dist;
    (void)ctx->PivotDistances(p, &dist);
    for (uint32_t k = 0; k < ctx->p_count(); ++k) {
      if (k == in.cell || ctx->cell_nonempty[k] == 0) continue;
      // A denser point can exist in cell k only if its densest member
      // reaches rho_i (ties resolved by id in the reducer). This filter is
      // our extension over the published EDDPC; see Eddpc::Params.
      if (ctx->use_max_rho_filter && ctx->cell_max_rho[k] < in.rho) continue;
      // Lower bound on the distance from i to any member of cell k.
      if (dist[k] - ctx->cell_radius[k] >= in.delta_ub) continue;
      out->Emit(k, rec);
    }
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const uint32_t&,
                             std::span<const MemberOrQuery> values,
                             std::vector<EddpcDeltaOut>* out) {
    const size_t dim = ctx->dataset->dim();
    LocalPointView member_view(dim), query_view(dim);
    std::vector<uint32_t> member_rho, query_rho;
    std::vector<LocalDeltaBest> best;
    for (const MemberOrQuery& v : values) {
      if (v.is_query != 0) {
        query_view.Add(v.id, v.coords);
        query_rho.push_back(v.rho);
        // Seed with the within-cell bound; only a strict improvement (or an
        // equal distance, which wins the id tie-break against the invalid
        // seed) produces a refinement candidate.
        best.push_back({v.delta_ub_sq, kInvalidPointId});
      } else {
        member_view.Add(v.id, v.coords);
        member_rho.push_back(v.rho);
      }
    }
    engine.DeltaCross(query_view, query_rho, member_view, member_rho,
                      *ctx->metric, best);
    for (size_t k = 0; k < best.size(); ++k) {
      if (best[k].upslope == kInvalidPointId) continue;
      out->push_back({query_view.id(k),
                      ddprec::DeltaCandidate{best[k].d_sq, best[k].upslope}});
    }
  };
  return job;
}

/// Job 4: min-aggregate home bounds and refinement candidates.
inline mr::JobSpec<EddpcDeltaOut, PointId, ddprec::DeltaCandidate,
                   EddpcDeltaOut>
MakeEddpcDeltaAggregateJob() {
  mr::JobSpec<EddpcDeltaOut, PointId, ddprec::DeltaCandidate, EddpcDeltaOut>
      job;
  job.name = "eddpc-delta-aggregate";
  job.remote_task_id = "eddpc-delta-aggregate";
  job.map = [](const EddpcDeltaOut& in,
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
                  std::vector<EddpcDeltaOut>* out) {
    ddprec::DeltaCandidate best = values[0];
    for (const auto& v : values) {
      if (v.BetterThan(best)) best = v;
    }
    out->push_back({id, best});
  };
  return job;
}

}  // namespace eddpcjobs
}  // namespace ddp
