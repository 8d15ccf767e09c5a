#pragma once

#include "common/result.h"
#include "core/dp_types.h"
#include "core/kernel.h"
#include "core/local_dp.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"

/// \file sequential_dp.h
/// The exact O(N^2) Density Peaks computation (Rodriguez & Laio, paper
/// Sec. II-A), with sorted-rho delta scanning, run through the LocalDpEngine
/// (core/local_dp.h). This is the ground-truth oracle for all distributed
/// variants and the local kernel run inside LSH buckets.

namespace ddp {

struct SequentialDpOptions {
  /// LocalDpEngine backend for both passes. Defaults to brute force — the
  /// oracle keeps its pinned evaluation counts (exactly n(n-1)/2 per pass)
  /// unless acceleration is asked for: kKdTree answers range and
  /// nearest-denser queries with a k-d tree (dataset/kdtree.h; large savings
  /// in low dimensions). Every backend gives identical results.
  LocalDpBackend backend = LocalDpBackend::kBruteForce;
  /// Density kernel (core/kernel.h). kGaussian yields quantized soft
  /// densities in the same uint32 domain.
  DensityKernel kernel = DensityKernel::kCutoff;
};

/// Exact rho for every point: the count of points j != i with d_ij < d_c
/// (cutoff kernel), or the quantized soft density (gaussian kernel).
Result<std::vector<uint32_t>> ComputeExactRho(
    const Dataset& dataset, double dc, const CountingMetric& metric,
    const SequentialDpOptions& options = {});

/// Exact delta and upslope given (exact or approximate) rho values, over the
/// density total order of dp_types.h. The order-first point gets
/// delta = +infinity and no upslope (rectified later, Sec. III Step 2 sets it
/// to max_j d_ij — DecisionGraph applies that rectification).
Result<DpScores> ComputeDeltaGivenRho(const Dataset& dataset,
                                      std::vector<uint32_t> rho,
                                      const CountingMetric& metric,
                                      const SequentialDpOptions& options = {});

/// Full exact DP: rho then delta.
Result<DpScores> ComputeExactDp(const Dataset& dataset, double dc,
                                const CountingMetric& metric,
                                const SequentialDpOptions& options = {});

/// Exact DP restricted to a subset of points, writing into caller-indexed
/// arrays. `ids` are indices into `dataset`; scores are produced for the
/// subset only, in subset order. This is the local kernel used by LSH-DDP
/// reducers (rho within a bucket) — exposed here for reuse and testing.
struct LocalDpResult {
  std::vector<uint32_t> rho;      // local rho per subset position
  std::vector<double> delta;     // +inf when no denser point in subset
  std::vector<PointId> upslope;  // global point ids; kInvalidPointId if none
};

/// Local rho within the subset: counts only subset neighbors.
LocalDpResult ComputeLocalRho(const Dataset& dataset,
                              std::span<const PointId> ids, double dc,
                              const CountingMetric& metric,
                              DensityKernel kernel = DensityKernel::kCutoff);

/// Local delta within the subset given rho values aligned with `ids`
/// (`rho[k]` belongs to point `ids[k]`). Ties broken by global point id.
LocalDpResult ComputeLocalDelta(const Dataset& dataset,
                                std::span<const PointId> ids,
                                std::span<const uint32_t> rho,
                                const CountingMetric& metric);

}  // namespace ddp

