#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
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

  void SerializeTo(BufferWriter* w) const {
    w->PutByte(is_support);
    point.SerializeTo(w);
  }
  static Status DeserializeFrom(BufferReader* r, CellPoint* out) {
    DDP_RETURN_NOT_OK(r->GetByte(&out->is_support));
    return ddprec::PointRecord::DeserializeFrom(r, &out->point);
  }
  bool operator==(const CellPoint&) const = default;
};

// Job 3 intermediate: a cell member (comparison target) or a delta query.
// Queries carry their squared within-cell bound — the engine's canonical
// comparison space — as the refinement seed.
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
// output type, so it carries member serde: that is what lets the jobs
// producing it run their reduce phase in forked (and remote) workers, and
// be checkpoint-replayable.
struct HomeInfo {
  PointId id = 0;
  uint32_t rho = 0;
  uint32_t cell = 0;

  void SerializeTo(BufferWriter* w) const {
    w->PutVarint32(id);
    w->PutVarint32(rho);
    w->PutVarint32(cell);
  }
  static Status DeserializeFrom(BufferReader* r, HomeInfo* out) {
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->id));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->rho));
    return r->GetVarint32(&out->cell);
  }
};

struct BoundInfo {
  PointId id = 0;
  uint32_t rho = 0;
  uint32_t cell = 0;
  double delta_ub = kEddpcInf;     // distance space, for the radius filter
  double delta_ub_sq = kEddpcInf;  // squared space, the refinement seed
  PointId upslope = kInvalidPointId;

  void SerializeTo(BufferWriter* w) const {
    w->PutVarint32(id);
    w->PutVarint32(rho);
    w->PutVarint32(cell);
    w->PutDouble(delta_ub);
    w->PutDouble(delta_ub_sq);
    w->PutVarint32(upslope);
  }
  static Status DeserializeFrom(BufferReader* r, BoundInfo* out) {
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->id));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->rho));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->cell));
    DDP_RETURN_NOT_OK(r->GetDouble(&out->delta_ub));
    DDP_RETURN_NOT_OK(r->GetDouble(&out->delta_ub_sq));
    return r->GetVarint32(&out->upslope);
  }
};

// Job 2 output: either a per-point bound or per-cell statistics.
struct BoundOrStats {
  bool is_stats = false;
  BoundInfo bound;       // when !is_stats
  uint32_t cell = 0;     // when is_stats
  double radius = 0.0;   // max distance member -> pivot
  uint32_t max_rho = 0;  // densest member

  void SerializeTo(BufferWriter* w) const {
    w->PutByte(is_stats ? 1 : 0);
    bound.SerializeTo(w);
    w->PutVarint32(cell);
    w->PutDouble(radius);
    w->PutVarint32(max_rho);
  }
  static Status DeserializeFrom(BufferReader* r, BoundOrStats* out) {
    uint8_t s = 0;
    DDP_RETURN_NOT_OK(r->GetByte(&s));
    out->is_stats = s != 0;
    DDP_RETURN_NOT_OK(BoundInfo::DeserializeFrom(r, &out->bound));
    DDP_RETURN_NOT_OK(r->GetVarint32(&out->cell));
    DDP_RETURN_NOT_OK(r->GetDouble(&out->radius));
    return r->GetVarint32(&out->max_rho);
  }
};

using EddpcDeltaOut = std::pair<PointId, ddprec::DeltaCandidate>;

/// Everything the EDDPC job closures read. The pivots are sampled by the
/// driver and shipped verbatim (the worker must never re-sample); the
/// cell_* vectors are empty until the driver fills them between jobs 2 and
/// 3 for the refine job.
struct EddpcJobsCtx {
  double dc = 0.0;
  LocalDpBackend backend = LocalDpBackend::kAuto;
  bool use_max_rho_filter = true;
  std::vector<std::vector<double>> pivots;
  std::vector<double> cell_radius;
  std::vector<uint32_t> cell_max_rho;
  std::vector<uint8_t> cell_nonempty;  // vector<bool> has no spanable form

  const Dataset* dataset = nullptr;
  const CountingMetric* metric = nullptr;

  std::optional<Dataset> owned_dataset;
  CountingMetric owned_metric;  // null counter: workers do not count

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

  void EncodeTo(BufferWriter* w) const {
    w->PutDouble(dc);
    w->PutByte(static_cast<uint8_t>(backend));
    w->PutByte(use_max_rho_filter ? 1 : 0);
    Serde<std::vector<std::vector<double>>>::Write(w, pivots);
    Serde<std::vector<double>>::Write(w, cell_radius);
    Serde<std::vector<uint32_t>>::Write(w, cell_max_rho);
    Serde<std::vector<uint8_t>>::Write(w, cell_nonempty);
    jobctx::EncodeDataset(w, *dataset);
  }

  static Result<std::shared_ptr<const EddpcJobsCtx>> DecodeNew(
      const std::string& blob) {
    auto ctx = std::make_shared<EddpcJobsCtx>();
    BufferReader r(blob);
    DDP_RETURN_NOT_OK(r.GetDouble(&ctx->dc));
    uint8_t backend_byte = 0;
    DDP_RETURN_NOT_OK(r.GetByte(&backend_byte));
    ctx->backend = static_cast<LocalDpBackend>(backend_byte);
    uint8_t filter_byte = 0;
    DDP_RETURN_NOT_OK(r.GetByte(&filter_byte));
    ctx->use_max_rho_filter = filter_byte != 0;
    DDP_RETURN_NOT_OK(
        Serde<std::vector<std::vector<double>>>::Read(&r, &ctx->pivots));
    DDP_RETURN_NOT_OK(
        Serde<std::vector<double>>::Read(&r, &ctx->cell_radius));
    DDP_RETURN_NOT_OK(
        Serde<std::vector<uint32_t>>::Read(&r, &ctx->cell_max_rho));
    DDP_RETURN_NOT_OK(
        Serde<std::vector<uint8_t>>::Read(&r, &ctx->cell_nonempty));
    DDP_ASSIGN_OR_RETURN(Dataset dataset, jobctx::DecodeDataset(&r));
    ctx->owned_dataset.emplace(std::move(dataset));
    DDP_RETURN_NOT_OK(jobctx::ExpectExhausted(r, "eddpc"));
    ctx->dataset = &*ctx->owned_dataset;
    ctx->metric = &ctx->owned_metric;
    return std::shared_ptr<const EddpcJobsCtx>(std::move(ctx));
  }
};

/// Job 1: exact rho via home + 2*d_c support replication.
inline mr::JobSpec<PointId, uint32_t, CellPoint, HomeInfo> MakeEddpcRhoJob(
    std::shared_ptr<const EddpcJobsCtx> ctx) {
  mr::JobSpec<PointId, uint32_t, CellPoint, HomeInfo> job;
  job.name = "eddpc-rho";
  job.remote_task_id = "eddpc-rho";
  job.remote_ctx = [ctx](BufferWriter* w) { ctx->EncodeTo(w); };
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
  job.remote_ctx = [ctx](BufferWriter* w) { ctx->EncodeTo(w); };
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
  job.remote_ctx = [ctx](BufferWriter* w) { ctx->EncodeTo(w); };
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
