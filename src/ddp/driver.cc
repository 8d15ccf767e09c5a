#include "ddp/driver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "common/stopwatch.h"
#include "ddp/mr_assignment.h"
#include "ddp/pipeline_jobs.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {

std::vector<PointId> PeakSelector::Select(const DecisionGraph& graph) const {
  switch (mode) {
    case Mode::kThreshold:
      return graph.SelectByThreshold(rho_min, delta_min);
    case Mode::kTopK:
      return graph.SelectTopK(k);
    case Mode::kGammaGap:
      return graph.SelectByGammaGap(max_peaks);
  }
  return {};
}

Result<double> ChooseCutoffMapReduce(const Dataset& dataset,
                                     const CountingMetric& metric,
                                     const CutoffOptions& options,
                                     const mr::Options& mr_options,
                                     mr::RunStats* stats) {
  const size_t n = dataset.size();
  if (n < 2) return Status::InvalidArgument("need at least 2 points");
  if (!(options.percentile > 0.0) || !(options.percentile < 1.0)) {
    return Status::InvalidArgument("percentile must be in (0, 1)");
  }
  // Sample size s with s*(s-1)/2 ~= sample_pairs, capped at N.
  // ddp-lint: allow(no-raw-sqrt) -- sample-size arithmetic on a pair
  // budget, not a distance; no determinism contract applies.
  size_t sample_size = static_cast<size_t>(
      std::ceil(std::sqrt(2.0 * static_cast<double>(options.sample_pairs))));
  sample_size = std::clamp<size_t>(sample_size, 2, n);
  const double rate = static_cast<double>(sample_size) / static_cast<double>(n);
  const uint64_t seed = options.seed;

  // Map: sample each point independently, send to the single reducer (key 0).
  // Reduce: all sampled pairwise distances, pick the percentile position.
  // The job body lives in ddp/pipeline_jobs.h so exec'd ddp_worker
  // processes can run it by name.
  std::vector<PointId> input(n);
  std::iota(input.begin(), input.end(), 0);
  auto ctx = std::make_shared<pipejobs::ChooseDcCtx>();
  ctx->rate = rate;
  ctx->seed = seed;
  ctx->percentile = options.percentile;
  ctx->dataset = &dataset;
  ctx->metric = &metric;
  auto spec = pipejobs::MakeChooseDcJob(std::move(ctx));

  mr::JobCounters counters;
  DDP_ASSIGN_OR_RETURN(
      std::vector<double> result,
      mr::RunJob(spec, std::span<const PointId>(input), mr_options, &counters));
  if (stats != nullptr) stats->Add(counters);
  if (result.empty()) {
    return Status::OutOfRange(
        "cutoff preprocessing sampled no usable distances");
  }
  return result[0];
}

Result<DdpRunResult> RunDistributedDp(DistributedDpAlgorithm* algorithm,
                                      const Dataset& dataset,
                                      const DdpOptions& options) {
  if (algorithm == nullptr) {
    return Status::InvalidArgument("algorithm is null");
  }
  if (dataset.size() < 2) {
    return Status::InvalidArgument("need at least 2 points");
  }
  Stopwatch total_timer;
  DDP_TRACE_SPAN(pipeline_span, obs::kCatPipeline, algorithm->name());
  if (pipeline_span.active()) {
    pipeline_span.AddArg("points", static_cast<uint64_t>(dataset.size()));
    pipeline_span.AddArg("dim", static_cast<uint64_t>(dataset.dim()));
  }
  DdpRunResult result;
  DistanceCounter counter;
  CountingMetric metric(&counter);

  // Driver recovery: every job below runs against `mr.checkpoint` (when
  // set), keyed by its position in the pipeline. The sequence is rewound at
  // the start of each (re-)run so a resumed pipeline requests the same keys
  // and replays completed jobs instead of re-executing them.
  if (options.mr.checkpoint != nullptr) options.mr.checkpoint->ResetSequence();

  if (options.dc > 0.0) {
    result.dc = options.dc;
  } else {
    DDP_TRACE_SPAN(dc_span, obs::kCatPipeline, obs::kSpanChooseDc);
    DDP_ASSIGN_OR_RETURN(
        result.dc, ChooseCutoffMapReduce(dataset, metric, options.cutoff,
                                         options.mr, &result.stats));
  }

  {
    DDP_TRACE_SPAN(scores_span, obs::kCatPipeline, obs::kSpanComputeScores);
    DDP_ASSIGN_OR_RETURN(result.scores,
                         algorithm->ComputeScores(dataset, result.dc, metric,
                                                  options.mr, &result.stats));
  }

  // Final step (Sec. III Step 3): decision graph, peaks, assignment —
  // centralized by default, distributed pointer jumping on request.
  DDP_TRACE_SPAN(peaks_span, obs::kCatPipeline, obs::kSpanPeakSelection);
  DecisionGraph graph = DecisionGraph::FromScores(result.scores);
  std::vector<PointId> peaks = options.selector.Select(graph);
  if (peaks.empty()) {
    peaks_span.MarkCancelled();
    pipeline_span.MarkCancelled();
    return Status::OutOfRange("peak selector returned no peaks");
  }
  if (peaks_span.active()) {
    peaks_span.AddArg("peaks", static_cast<uint64_t>(peaks.size()));
  }
  peaks_span.End();
  DDP_METRIC_COUNTER_ADD(obs::kMetricDdpPeaksSelected, peaks.size());
  {
    DDP_TRACE_SPAN(assign_span, obs::kCatPipeline, obs::kSpanAssignment);
    if (assign_span.active() && options.use_mr_assignment) {
      assign_span.AddArg("mode", "mapreduce");
    }
    if (options.use_mr_assignment) {
      DDP_ASSIGN_OR_RETURN(MrAssignmentResult assigned,
                           AssignClustersMapReduce(result.scores, peaks,
                                                   options.mr));
      for (const mr::JobCounters& job : assigned.stats.jobs) {
        result.stats.Add(job);
      }
      DDP_RETURN_NOT_OK(ResolveOrphansByNearestPeak(dataset, peaks, metric,
                                                    &assigned.assignment));
      result.clusters.assignment = std::move(assigned.assignment);
      result.clusters.peaks.assign(peaks.begin(), peaks.end());
    } else {
      DDP_ASSIGN_OR_RETURN(
          result.clusters,
          AssignClusters(dataset, result.scores, peaks, metric));
    }
  }

  result.distance_evaluations = counter.value();
  result.total_seconds = total_timer.ElapsedSeconds();
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricDdpPipelineSeconds, result.total_seconds);
  DDP_METRIC_COUNTER_ADD(obs::kMetricDdpPipelines, 1);
  return result;
}

}  // namespace ddp
