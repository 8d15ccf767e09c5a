#include "ddp/mr_assignment.h"

#include <limits>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "ddp/pipeline_jobs.h"
#include "ddp/records.h"

namespace ddp {

Result<MrAssignmentResult> AssignClustersMapReduce(
    const DpScores& scores, std::span<const PointId> peaks,
    const mr::Options& mr_options) {
  const size_t n = scores.size();
  if (n == 0) return Status::InvalidArgument("empty scores");
  if (peaks.empty()) return Status::InvalidArgument("no peaks selected");
  std::unordered_set<PointId> seen;
  for (PointId p : peaks) {
    if (p >= n) return Status::OutOfRange("peak id out of range");
    if (!seen.insert(p).second) {
      return Status::InvalidArgument("duplicate peak id");
    }
  }

  MrAssignmentResult result;
  result.assignment.assign(n, -1);
  std::vector<PointId> parent(scores.upslope.begin(), scores.upslope.end());
  for (size_t c = 0; c < peaks.size(); ++c) {
    result.assignment[peaks[c]] = static_cast<int>(c);
    parent[peaks[c]] = kInvalidPointId;  // peaks are roots
  }

  std::vector<PointId> all(n);
  std::iota(all.begin(), all.end(), 0);

  const size_t kMaxRounds = 64;  // chains halve per round: 2^64 is plenty
  for (result.rounds = 0; result.rounds < kMaxRounds; ++result.rounds) {
    // Anything left to resolve?
    bool pending = false;
    for (size_t i = 0; i < n; ++i) {
      if (result.assignment[i] < 0 && parent[i] != kInvalidPointId) {
        pending = true;
        break;
      }
    }
    if (!pending) break;

    // The round's job body lives in ddp/pipeline_jobs.h so exec'd
    // ddp_worker processes can run it by name; the ctx snapshots this
    // round's (cluster, parent) state.
    auto ctx = std::make_shared<pipejobs::AssignJumpCtx>();
    ctx->assignment = &result.assignment;
    ctx->parent = &parent;
    auto job = pipejobs::MakeAssignJumpJob(std::move(ctx), result.rounds);
    mr::JobCounters counters;
    DDP_ASSIGN_OR_RETURN(std::vector<pipejobs::JumpUpdate> updates,
                         mr::RunJob(job, std::span<const PointId>(all),
                                    mr_options, &counters));
    result.stats.Add(counters);
    DDP_RETURN_NOT_OK(pipejobs::ApplyJumpUpdates(
        updates, peaks.size(), job.name, &result.assignment, &parent));
  }
  return result;
}

Status ResolveOrphansByNearestPeak(const Dataset& dataset,
                                   std::span<const PointId> peaks,
                                   const CountingMetric& metric,
                                   std::vector<int>* assignment) {
  if (assignment->size() != dataset.size()) {
    return Status::InvalidArgument("assignment/dataset size mismatch");
  }
  if (peaks.empty()) return Status::InvalidArgument("no peaks");
  for (size_t i = 0; i < assignment->size(); ++i) {
    if ((*assignment)[i] >= 0) continue;
    double best = std::numeric_limits<double>::infinity();
    int best_cluster = -1;
    for (size_t c = 0; c < peaks.size(); ++c) {
      double d = metric.Distance(dataset.point(static_cast<PointId>(i)),
                                 dataset.point(peaks[c]));
      if (d < best) {
        best = d;
        best_cluster = static_cast<int>(c);
      }
    }
    (*assignment)[i] = best_cluster;
  }
  return Status::OK();
}

}  // namespace ddp
