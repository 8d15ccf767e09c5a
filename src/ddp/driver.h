#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/assignment.h"
#include "core/cutoff.h"
#include "core/decision_graph.h"
#include "core/dp_types.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"
#include "mapreduce/counters.h"
#include "mapreduce/mapreduce.h"

/// \file driver.h
/// The "driver program" of Sec. II-B: runs the preprocessing d_c job, the
/// algorithm-specific rho/delta jobs, and the centralized peak selection and
/// assignment step, collecting RunStats across all jobs.

namespace ddp {

/// Interface implemented by BasicDdp, LshDdp, and Eddpc: compute (rho, delta,
/// upslope) for every point given d_c, running MapReduce jobs whose counters
/// are appended to `stats`.
class DistributedDpAlgorithm {
 public:
  virtual ~DistributedDpAlgorithm() = default;

  virtual std::string name() const = 0;

  virtual Result<DpScores> ComputeScores(const Dataset& dataset, double dc,
                                         const CountingMetric& metric,
                                         const mr::Options& mr_options,
                                         mr::RunStats* stats) = 0;
};

/// How the centralized step picks peaks off the decision graph.
struct PeakSelector {
  enum class Mode {
    kThreshold,  // rho > rho_min and delta > delta_min
    kTopK,       // k largest gamma = rho * delta
    kGammaGap,   // automatic largest-gap cut (default)
  };
  Mode mode = Mode::kGammaGap;
  double rho_min = 0.0;
  double delta_min = 0.0;
  size_t k = 0;
  size_t max_peaks = 32;

  static PeakSelector Threshold(double rho_min, double delta_min) {
    return {Mode::kThreshold, rho_min, delta_min, 0, 32};
  }
  static PeakSelector TopK(size_t k) { return {Mode::kTopK, 0, 0, k, 32}; }
  static PeakSelector GammaGap(size_t max_peaks = 32) {
    return {Mode::kGammaGap, 0, 0, 0, max_peaks};
  }

  std::vector<PointId> Select(const DecisionGraph& graph) const;
};

struct DdpOptions {
  /// Runtime options applied to every MapReduce job the driver launches.
  /// This includes out-of-core execution: setting `mr.memory_budget_bytes`
  /// (and optionally `mr.spill_dir`) makes every job of every algorithm —
  /// preprocessing, scores, assignment — spill and merge-stream through
  /// disk, with output bit-identical to the in-memory run.
  mr::Options mr;
  /// Cutoff preprocessing (ignored when dc > 0).
  CutoffOptions cutoff;
  /// Explicit cutoff distance; <= 0 means "run the preprocessing job".
  double dc = 0.0;
  PeakSelector selector;
  /// Run the final assignment as MapReduce pointer jumping
  /// (ddp/mr_assignment.h) instead of the centralized chain walk — for
  /// regimes where even the per-point state exceeds one machine. Identical
  /// results except for descendants of unselected local peaks (orphans):
  /// the centralized walk lets them inherit their root's nearest-peak
  /// fallback, while the distributed path resolves each orphaned point to
  /// its own nearest peak.
  bool use_mr_assignment = false;
};

/// Everything a distributed run produces.
struct DdpRunResult {
  DpScores scores;
  double dc = 0.0;
  ClusterResult clusters;
  mr::RunStats stats;
  /// Distance evaluations across all phases (Fig. 10(c) axis).
  uint64_t distance_evaluations = 0;
  double total_seconds = 0.0;  // wall time incl. centralized step
};

/// The d_c preprocessing MapReduce job (Sec. III-A): map samples points to a
/// single reducer, which computes sampled pairwise distances and returns the
/// percentile value. Statistically equivalent to pair sampling with
/// s*(s-1)/2 ~= sample_pairs.
Result<double> ChooseCutoffMapReduce(const Dataset& dataset,
                                     const CountingMetric& metric,
                                     const CutoffOptions& options,
                                     const mr::Options& mr_options,
                                     mr::RunStats* stats);

/// Full pipeline: preprocessing (if needed) -> scores -> decision graph ->
/// peaks -> assignment.
Result<DdpRunResult> RunDistributedDp(DistributedDpAlgorithm* algorithm,
                                      const Dataset& dataset,
                                      const DdpOptions& options);

}  // namespace ddp

