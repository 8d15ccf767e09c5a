#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
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

/// \file basic_ddp_jobs.h
/// The four Basic-DDP MapReduce jobs (Sec. III) as reusable JobSpec
/// factories, shared by BasicDdp::ComputeScores and the worker-side
/// JobRegistry (ddp/remote_jobs.cc). See lsh_ddp_jobs.h for the ctx
/// borrow/own convention.

namespace ddp {
namespace basicjobs {

using BasicRhoPartial = std::pair<PointId, uint32_t>;
using BasicDeltaOut = std::pair<PointId, ddprec::DeltaCandidate>;

/// A point in flight tagged with its source block.
struct BlockedPoint {
  uint32_t block = 0;
  ddprec::ScoredPointRecord point;  // rho unused (0) in the rho job

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.block, s.point); }
  bool operator==(const BlockedPoint&) const = default;
};

inline uint32_t BlockOf(PointId id, uint32_t num_blocks) {
  return id % num_blocks;
}

/// Reducers this block must be shuffled to under the circular scheme.
inline void TargetsOf(uint32_t block, uint32_t num_blocks,
                      std::vector<uint32_t>* out) {
  out->clear();
  uint32_t h = num_blocks / 2;
  for (uint32_t t = 0; t <= h; ++t) {
    out->push_back((block + t) % num_blocks);
  }
}

/// The reducer at which blocks `a` and `b` (of `n` blocks) meet.
/// BasicDdp::MeetingReducer delegates here so tests keep their entry point.
inline uint32_t MeetingReducerOf(uint32_t a, uint32_t b, uint32_t n) {
  if (a == b) return a;
  uint32_t diff = (b + n - a) % n;
  uint32_t rdiff = n - diff;
  if (diff < rdiff) return b;
  if (rdiff < diff) return a;
  return std::max(a, b);  // even n, antipodal blocks: pick one deterministically
}

/// Reducer input grouped by source block. Members preserve arrival order;
/// `present` lists the block ids in sorted order so every loop that feeds
/// reducer output walks blocks in a derivable order, never hash order.
struct BlockGroups {
  std::unordered_map<uint32_t, std::vector<const BlockedPoint*>> members;
  std::vector<uint32_t> present;
};

inline BlockGroups GroupByBlock(std::span<const BlockedPoint> values) {
  BlockGroups groups;
  for (const BlockedPoint& v : values) groups.members[v.block].push_back(&v);
  groups.present.reserve(groups.members.size());
  // Hash-order iteration is confined to this collect step; the sort below
  // is what makes downstream emission order derivable (R2).
  for (const auto& [b, pts] : groups.members) groups.present.push_back(b);
  std::sort(groups.present.begin(), groups.present.end());
  return groups;
}

/// Borrows one block's coordinate rows into an engine view, in arrival order.
inline LocalPointView BlockView(
    const std::vector<const BlockedPoint*>& members, size_t dim) {
  LocalPointView view(dim);
  view.Reserve(members.size());
  for (const BlockedPoint* p : members) view.Add(p->point.id, p->point.coords);
  return view;
}

/// Everything the Basic-DDP job closures read. `rho` is empty for the rho
/// jobs and carries the summed densities for the delta job.
struct BasicJobsCtx : jobctx::DatasetCtx {
  double dc = 0.0;
  uint32_t num_blocks = 0;
  LocalDpBackend backend = LocalDpBackend::kAuto;
  std::vector<uint32_t> rho;

  LocalDpEngine Engine() const {
    LocalDpEngineOptions options;
    options.backend = backend;
    return LocalDpEngine(options);
  }

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.dc, s.num_blocks, s.backend, jobctx::DatasetField(s),
                     s.rho);
  }

  static Result<std::shared_ptr<const BasicJobsCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(auto ctx,
                         jobctx::DecodeFields<BasicJobsCtx>(blob, "basic"));
    DDP_RETURN_NOT_OK(jobctx::CheckEnum(ctx->backend, LocalDpBackend::kKdTree,
                                        "basic ctx backend"));
    ctx->UseOwned();
    return std::shared_ptr<const BasicJobsCtx>(std::move(ctx));
  }
};

/// Job 1: rho partials. Map routes each point to its block's meeting
/// reducers; each reducer computes the distances of the block pairs it owns
/// and accumulates per-point neighbor counts.
inline mr::JobSpec<PointId, uint32_t, BlockedPoint, BasicRhoPartial>
MakeBasicRhoLocalJob(std::shared_ptr<const BasicJobsCtx> ctx) {
  mr::JobSpec<PointId, uint32_t, BlockedPoint, BasicRhoPartial> job;
  job.name = "basic-rho-local";
  job.remote_task_id = "basic-rho-local";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id, mr::Emitter<uint32_t, BlockedPoint>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    BlockedPoint rec;
    rec.block = BlockOf(id, ctx->num_blocks);
    rec.point = {id, 0, {p.begin(), p.end()}};
    std::vector<uint32_t> targets;
    TargetsOf(rec.block, ctx->num_blocks, &targets);
    for (uint32_t r : targets) out->Emit(r, rec);
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const uint32_t& reducer,
                             std::span<const BlockedPoint> values,
                             std::vector<BasicRhoPartial>* out) {
    const size_t dim = ctx->dataset->dim();
    BlockGroups blocks = GroupByBlock(values);
    // All blocks present at this reducer (sorted), with engine views and
    // position-aligned partial counts.
    const std::vector<uint32_t>& present = blocks.present;
    std::unordered_map<uint32_t, LocalPointView> views;
    std::unordered_map<uint32_t, std::vector<uint32_t>> counts;
    for (uint32_t b : present) {
      views.emplace(b, BlockView(blocks.members[b], dim));
      counts[b].assign(blocks.members[b].size(), 0);
    }
    for (size_t x = 0; x < present.size(); ++x) {
      for (size_t y = x; y < present.size(); ++y) {
        uint32_t a = present[x], b = present[y];
        if (MeetingReducerOf(a, b, ctx->num_blocks) != reducer) continue;
        if (a == b) {
          std::vector<uint32_t> self = engine.Rho(
              views.at(a), ctx->dc, DensityKernel::kCutoff, *ctx->metric);
          std::vector<uint32_t>& acc = counts.at(a);
          for (size_t k = 0; k < self.size(); ++k) acc[k] += self[k];
        } else {
          engine.RhoCross(views.at(a), views.at(b), ctx->dc, *ctx->metric,
                          counts.at(a), counts.at(b));
        }
      }
    }
    // Every received point gets a partial so that rho=0 points still appear.
    for (uint32_t b : present) {
      const LocalPointView& view = views.at(b);
      const std::vector<uint32_t>& acc = counts.at(b);
      for (size_t k = 0; k < view.size(); ++k) {
        out->push_back({view.id(k), acc[k]});
      }
    }
  };
  return job;
}

/// Job 2: rho = sum of partials (with a sum combiner).
inline mr::JobSpec<BasicRhoPartial, PointId, uint32_t, BasicRhoPartial>
MakeBasicRhoAggregateJob() {
  mr::JobSpec<BasicRhoPartial, PointId, uint32_t, BasicRhoPartial> job;
  job.name = "basic-rho-aggregate";
  job.remote_task_id = "basic-rho-aggregate";
  job.map = [](const BasicRhoPartial& in,
               mr::Emitter<PointId, uint32_t>* out) {
    out->Emit(in.first, in.second);
  };
  job.combiner = [](const PointId&, std::vector<uint32_t> values) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    return std::vector<uint32_t>{sum};
  };
  job.reduce = [](const PointId& id, std::span<const uint32_t> values,
                  std::vector<BasicRhoPartial>* out) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    out->push_back({id, sum});
  };
  return job;
}

/// Job 3: delta candidates. Same routing as job 1; values carry rho from
/// the ctx.
inline mr::JobSpec<PointId, uint32_t, BlockedPoint, BasicDeltaOut>
MakeBasicDeltaLocalJob(std::shared_ptr<const BasicJobsCtx> ctx) {
  mr::JobSpec<PointId, uint32_t, BlockedPoint, BasicDeltaOut> job;
  job.name = "basic-delta-local";
  job.remote_task_id = "basic-delta-local";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id, mr::Emitter<uint32_t, BlockedPoint>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    BlockedPoint rec;
    rec.block = BlockOf(id, ctx->num_blocks);
    rec.point = {id, ctx->rho[id], {p.begin(), p.end()}};
    std::vector<uint32_t> targets;
    TargetsOf(rec.block, ctx->num_blocks, &targets);
    for (uint32_t r : targets) out->Emit(r, rec);
  };
  const LocalDpEngine engine = ctx->Engine();
  job.reduce = [ctx, engine](const uint32_t& reducer,
                             std::span<const BlockedPoint> values,
                             std::vector<BasicDeltaOut>* out) {
    const size_t dim = ctx->dataset->dim();
    BlockGroups blocks = GroupByBlock(values);
    const std::vector<uint32_t>& present = blocks.present;
    std::unordered_map<uint32_t, LocalPointView> views;
    std::unordered_map<uint32_t, std::vector<uint32_t>> rhos;
    std::unordered_map<uint32_t, std::vector<LocalDeltaBest>> best;
    for (uint32_t b : present) {
      views.emplace(b, BlockView(blocks.members[b], dim));
      std::vector<uint32_t>& r = rhos[b];
      r.reserve(blocks.members[b].size());
      for (const BlockedPoint* p : blocks.members[b]) r.push_back(p->point.rho);
      best[b].resize(blocks.members[b].size());
    }
    for (size_t x = 0; x < present.size(); ++x) {
      for (size_t y = x; y < present.size(); ++y) {
        uint32_t a = present[x], b = present[y];
        if (MeetingReducerOf(a, b, ctx->num_blocks) != reducer) continue;
        if (a == b) {
          LocalDeltaScores self =
              engine.Delta(views.at(a), rhos.at(a), *ctx->metric);
          std::vector<LocalDeltaBest>& acc = best.at(a);
          for (size_t k = 0; k < acc.size(); ++k) {
            if (self.upslope[k] != kInvalidPointId) {
              acc[k].Improve(self.delta_sq[k], self.upslope[k]);
            }
          }
        } else {
          engine.DeltaCrossSymmetric(views.at(a), rhos.at(a), views.at(b),
                                     rhos.at(b), *ctx->metric, best.at(a),
                                     best.at(b));
        }
      }
    }
    // Emit only points that found a denser neighbor here; the absolute peak
    // keeps no candidate anywhere.
    for (uint32_t b : present) {
      const LocalPointView& view = views.at(b);
      const std::vector<LocalDeltaBest>& acc = best.at(b);
      for (size_t k = 0; k < view.size(); ++k) {
        if (acc[k].upslope == kInvalidPointId) continue;
        out->push_back(
            {view.id(k), ddprec::DeltaCandidate{acc[k].d_sq, acc[k].upslope}});
      }
    }
  };
  return job;
}

/// Job 4: delta = min of candidates (with a min combiner).
inline mr::JobSpec<BasicDeltaOut, PointId, ddprec::DeltaCandidate,
                   BasicDeltaOut>
MakeBasicDeltaAggregateJob() {
  mr::JobSpec<BasicDeltaOut, PointId, ddprec::DeltaCandidate, BasicDeltaOut>
      job;
  job.name = "basic-delta-aggregate";
  job.remote_task_id = "basic-delta-aggregate";
  job.map = [](const BasicDeltaOut& in,
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
                  std::vector<BasicDeltaOut>* out) {
    ddprec::DeltaCandidate best = values[0];
    for (const auto& v : values) {
      if (v.BetterThan(best)) best = v;
    }
    out->push_back({id, best});
  };
  return job;
}

}  // namespace basicjobs
}  // namespace ddp
