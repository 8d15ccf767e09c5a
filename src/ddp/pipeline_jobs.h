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

#include "common/random.h"
#include "common/result.h"
#include "common/serde.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"
#include "ddp/job_ctx.h"
#include "ddp/records.h"
#include "mapreduce/mapreduce.h"

/// \file pipeline_jobs.h
/// The algorithm-independent pipeline jobs as reusable JobSpec factories:
/// the d_c preprocessing sampler (driver.cc), the pointer-jumping
/// assignment rounds (mr_assignment.cc), and the K-means iteration
/// (mr_kmeans.cc). Round-suffixed job *names* ("assign-jump-3",
/// "kmeans-iter-17") vary per invocation while the registry task id stays
/// the stable prefix, so one registered factory serves every round. See
/// lsh_ddp_jobs.h for the ctx borrow/own convention.

namespace ddp {
namespace pipejobs {

/// Ctx of the "choose-dc" sampling job.
struct ChooseDcCtx : jobctx::DatasetCtx {
  double rate = 0.0;
  uint64_t seed = 0;
  double percentile = 0.0;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.rate, s.seed, s.percentile, jobctx::DatasetField(s));
  }

  static Result<std::shared_ptr<const ChooseDcCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(auto ctx,
                         jobctx::DecodeFields<ChooseDcCtx>(blob, "choose-dc"));
    ctx->UseOwned();
    return std::shared_ptr<const ChooseDcCtx>(std::move(ctx));
  }
};

/// The d_c preprocessing job (Sec. III-A): map samples points to a single
/// reducer, which computes sampled pairwise distances and returns the
/// percentile value.
inline mr::JobSpec<PointId, uint32_t, ddprec::PointRecord, double>
MakeChooseDcJob(std::shared_ptr<const ChooseDcCtx> ctx) {
  mr::JobSpec<PointId, uint32_t, ddprec::PointRecord, double> job;
  job.name = "choose-dc";
  job.remote_task_id = "choose-dc";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id,
                  mr::Emitter<uint32_t, ddprec::PointRecord>* out) {
    // Deterministic per-point coin flip.
    uint64_t s = SplitSeed(ctx->seed, id);
    double coin =
        static_cast<double>(SplitMix64(&s) >> 11) * 0x1.0p-53;  // [0,1)
    if (coin < ctx->rate) {
      std::span<const double> p = ctx->dataset->point(id);
      out->Emit(0, ddprec::PointRecord{id, {p.begin(), p.end()}});
    }
  };
  job.reduce = [ctx](const uint32_t&,
                     std::span<const ddprec::PointRecord> points,
                     std::vector<double>* out) {
    std::vector<double> distances;
    distances.reserve(points.size() * (points.size() - 1) / 2);
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = i + 1; j < points.size(); ++j) {
        distances.push_back(
            ctx->metric->Distance(points[i].coords, points[j].coords));
      }
    }
    if (distances.empty()) return;
    size_t pos = static_cast<size_t>(ctx->percentile *
                                     static_cast<double>(distances.size()));
    pos = std::min(pos, distances.size() - 1);
    std::nth_element(distances.begin(),
                     distances.begin() + static_cast<std::ptrdiff_t>(pos),
                     distances.end());
    if (distances[pos] > 0.0) {
      out->push_back(distances[pos]);
      return;
    }
    // Degenerate sample: fall back to the smallest positive distance.
    std::sort(distances.begin(), distances.end());
    for (double d : distances) {
      if (d > 0.0) {
        out->push_back(d);
        return;
      }
    }
  };
  return job;
}

/// One message of the pointer-jumping protocol, keyed by point id.
///  kState: point `key` publishes its (cluster, parent) to its own reducer.
///  kAsk:   unresolved point `asker` asks `key` (its current parent).
struct JumpMessage {
  uint8_t kind = 0;  // 0 = state, 1 = ask
  int32_t cluster = -1;
  PointId parent = kInvalidPointId;
  PointId asker = kInvalidPointId;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(AsByte(s.kind), s.cluster, s.parent, s.asker);
  }
  bool operator==(const JumpMessage&) const = default;
};

/// Reducer verdict for one asker.
struct JumpUpdate {
  PointId point = kInvalidPointId;
  int32_t cluster = -1;                  // >= 0: resolved
  PointId new_parent = kInvalidPointId;  // otherwise: jump target (or orphan)

  // Wire fields so the assignment rounds can fork their reduce phase (and
  // checkpoint-replay).
  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.point, s.cluster, s.new_parent);
  }
};

/// Ctx of one pointer-jumping round: the per-point (cluster, parent) state
/// at the start of the round.
struct AssignJumpCtx {
  const std::vector<int>* assignment = nullptr;
  const std::vector<PointId>* parent = nullptr;

  std::vector<int> owned_assignment;
  std::vector<PointId> owned_parent;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(Borrowed(s.assignment, s.owned_assignment),
                     Borrowed(s.parent, s.owned_parent));
  }

  static Result<std::shared_ptr<const AssignJumpCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(
        auto ctx, jobctx::DecodeFields<AssignJumpCtx>(blob, "assign-jump"));
    ctx->assignment = &ctx->owned_assignment;
    ctx->parent = &ctx->owned_parent;
    return std::shared_ptr<const AssignJumpCtx>(std::move(ctx));
  }
};

/// One pointer-jumping round (mr_assignment.h): unresolved points ask their
/// current parent; a parent answers with either its cluster id or its own
/// parent (pointer doubling).
inline mr::JobSpec<PointId, PointId, JumpMessage, JumpUpdate>
MakeAssignJumpJob(std::shared_ptr<const AssignJumpCtx> ctx, size_t round) {
  mr::JobSpec<PointId, PointId, JumpMessage, JumpUpdate> job;
  job.name = "assign-jump-" + std::to_string(round);
  job.remote_task_id = "assign-jump";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& i, mr::Emitter<PointId, JumpMessage>* out) {
    const std::vector<int>& assignment = *ctx->assignment;
    const std::vector<PointId>& parent = *ctx->parent;
    JumpMessage state;
    state.kind = 0;
    state.cluster = assignment[i];
    state.parent = parent[i];
    out->Emit(i, state);
    if (assignment[i] < 0 && parent[i] != kInvalidPointId) {
      JumpMessage ask;
      ask.kind = 1;
      ask.asker = i;
      out->Emit(parent[i], ask);
    }
  };
  job.reduce = [](const PointId&, std::span<const JumpMessage> messages,
                  std::vector<JumpUpdate>* out) {
    // Exactly one state message per key; any number of asks.
    JumpMessage state;
    for (const JumpMessage& m : messages) {
      if (m.kind == 0) state = m;
    }
    for (const JumpMessage& m : messages) {
      if (m.kind != 1) continue;
      JumpUpdate update;
      update.point = m.asker;
      if (state.cluster >= 0) {
        update.cluster = state.cluster;
      } else {
        // Jump over the parent (possibly to "no parent": the asker
        // becomes an orphan rooted at an unselected local peak).
        update.new_parent = state.parent;
      }
      out->push_back(update);
    }
  };
  return job;
}

/// Applies one round's updates to the (cluster, parent) state: a resolved
/// point takes its cluster and drops its parent, an unresolved one jumps to
/// its new parent. Ids come from workers: a point or new parent (other
/// than kInvalidPointId) past the state, or a cluster at or past
/// `num_clusters`, fails naming `job`.
inline Status ApplyJumpUpdates(std::span<const JumpUpdate> updates,
                               size_t num_clusters, const std::string& job,
                               std::vector<int>* assignment,
                               std::vector<PointId>* parent) {
  const size_t n = parent->size();
  for (const JumpUpdate& u : updates) {
    DDP_RETURN_NOT_OK(ddprec::CheckId(u.point, n, "point", job));
    if (u.cluster >= 0) {
      DDP_RETURN_NOT_OK(ddprec::CheckId(static_cast<uint64_t>(u.cluster),
                                        num_clusters, "cluster", job));
      (*assignment)[u.point] = u.cluster;
      (*parent)[u.point] = kInvalidPointId;
    } else {
      if (u.new_parent != kInvalidPointId) {
        DDP_RETURN_NOT_OK(
            ddprec::CheckId(u.new_parent, n, "new_parent", job));
      }
      (*parent)[u.point] = u.new_parent;
    }
  }
  return Status::OK();
}

/// (sum of member coordinates, member count) — the combinable partial.
struct CentroidPartial {
  std::vector<double> sum;
  uint64_t count = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.count, s.sum); }
  bool operator==(const CentroidPartial&) const = default;

  void Merge(const CentroidPartial& other) {
    if (sum.empty()) sum.assign(other.sum.size(), 0.0);
    for (size_t d = 0; d < sum.size(); ++d) sum[d] += other.sum[d];
    count += other.count;
  }
};

inline uint32_t NearestCentroid(std::span<const double> p,
                                const std::vector<std::vector<double>>& centroids,
                                const CountingMetric& metric) {
  uint32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (uint32_t c = 0; c < centroids.size(); ++c) {
    double d = metric.SquaredDistance(p, centroids[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

using KmeansIterOut = std::pair<uint32_t, CentroidPartial>;

/// Moves each centroid to the mean of its iteration's partial, skipping
/// centroids no point chose, and returns the largest squared move. Ids
/// come from workers: a centroid past `centroids`, or a sum whose dimension
/// is not the centroid's, fails naming `job`.
inline Result<double> ApplyCentroidPartials(
    std::span<const KmeansIterOut> partials, const std::string& job,
    std::vector<std::vector<double>>* centroids) {
  double max_move_sq = 0.0;
  for (const auto& [id, partial] : partials) {
    DDP_RETURN_NOT_OK(
        ddprec::CheckId(id, centroids->size(), "centroid", job));
    if (partial.count == 0) continue;
    std::vector<double>& c = (*centroids)[id];
    if (partial.sum.size() != c.size()) {
      return Status::IoError("job " + job + " returned a " +
                             std::to_string(partial.sum.size()) +
                             "-d sum for a " + std::to_string(c.size()) +
                             "-d centroid");
    }
    double move_sq = 0.0;
    for (size_t d = 0; d < c.size(); ++d) {
      double next = partial.sum[d] / static_cast<double>(partial.count);
      double diff = next - c[d];
      move_sq += diff * diff;
      c[d] = next;
    }
    max_move_sq = std::max(max_move_sq, move_sq);
  }
  return max_move_sq;
}

/// Ctx of one Lloyd iteration: the centroids it assigns against.
struct KmeansIterCtx : jobctx::DatasetCtx {
  std::vector<std::vector<double>> centroids;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.centroids, jobctx::DatasetField(s));
  }

  static Result<std::shared_ptr<const KmeansIterCtx>> DecodeNew(
      const std::string& blob) {
    DDP_ASSIGN_OR_RETURN(
        auto ctx, jobctx::DecodeFields<KmeansIterCtx>(blob, "kmeans-iter"));
    ctx->UseOwned();
    return std::shared_ptr<const KmeansIterCtx>(std::move(ctx));
  }
};

/// One MapReduce K-means iteration (mr_kmeans.h): map assigns each point to
/// its nearest centroid with a summing combiner; reduce recomputes
/// centroids.
inline mr::JobSpec<PointId, uint32_t, CentroidPartial, KmeansIterOut>
MakeKmeansIterJob(std::shared_ptr<const KmeansIterCtx> ctx, size_t iter) {
  mr::JobSpec<PointId, uint32_t, CentroidPartial, KmeansIterOut> job;
  job.name = "kmeans-iter-" + std::to_string(iter);
  job.remote_task_id = "kmeans-iter";
  job.remote_ctx = jobctx::CtxWriter(ctx);
  job.map = [ctx](const PointId& id,
                  mr::Emitter<uint32_t, CentroidPartial>* out) {
    std::span<const double> p = ctx->dataset->point(id);
    uint32_t c = NearestCentroid(p, ctx->centroids, *ctx->metric);
    CentroidPartial partial;
    partial.sum.assign(p.begin(), p.end());
    partial.count = 1;
    out->Emit(c, partial);
  };
  job.combiner = [](const uint32_t&, std::vector<CentroidPartial> values) {
    CentroidPartial merged;
    for (const CentroidPartial& v : values) merged.Merge(v);
    return std::vector<CentroidPartial>{merged};
  };
  job.reduce = [](const uint32_t& c, std::span<const CentroidPartial> values,
                  std::vector<KmeansIterOut>* out) {
    CentroidPartial merged;
    for (const CentroidPartial& v : values) merged.Merge(v);
    out->push_back({c, merged});
  };
  return job;
}

}  // namespace pipejobs
}  // namespace ddp
