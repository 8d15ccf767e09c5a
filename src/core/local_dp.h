#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/dp_types.h"
#include "core/kernel.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"

/// \file local_dp.h
/// The local Density Peaks engine: one backend-pluggable kernel computing
/// local rho (cutoff + gaussian) and local delta/upslope over a group of
/// points. Every algorithm layer routes its pairwise work through this
/// engine — the sequential oracle over the whole dataset, LSH-DDP over
/// bucket members, Basic-DDP over block pairs, EDDPC over Voronoi cells —
/// so the hottest loop in the system lives in exactly one place and every
/// acceleration (squared-distance comparisons, the packed-panel kernel, k-d
/// tree queries, thread-pool parallelism for oversized groups) benefits all
/// of them at once.
///
/// Determinism contract (docs/architecture.md "Local DP engine"):
///  * All backends compare in squared-distance space: a cutoff neighbor is
///    d^2 < fl(d_c * d_c); delta minimizes the lexicographic
///    (d^2, candidate id) over denser points and reports sqrt of the best.
///  * Gaussian contributions use GaussianKernelContributionSq and are
///    accumulated per point in ascending group-position order; truncated
///    terms are exact zeros, so range-searched and full scans agree.
///  * Backends therefore return bit-identical rho, delta, and upslope, and
///    backend selection (or the parallel path) can never change results.

namespace ddp {

/// Which local kernel implementation to run.
enum class LocalDpBackend {
  kAuto,        // pick by group size / dimensionality (see options)
  kBruteForce,  // packed-panel pairwise scan over squared distances
  kKdTree,      // k-d tree range/NN queries (low/moderate dimensions)
};

/// Stable lowercase name ("auto", "brute", "kdtree").
const char* LocalDpBackendName(LocalDpBackend backend);

/// Parses the names accepted by --local-backend.
Result<LocalDpBackend> ParseLocalDpBackend(std::string_view name);

/// A non-owning view of a point group: borrowed coordinate rows plus the
/// global point id of each row. This is what reducers hand the engine —
/// the rows typically point straight into shuffled records, so no
/// coordinates are copied.
class LocalPointView {
 public:
  explicit LocalPointView(size_t dim) : dim_(dim) {}

  /// View of a whole dataset (ids are the dataset point ids).
  static LocalPointView AllOf(const Dataset& dataset);

  /// View of a dataset subset, in `ids` order.
  static LocalPointView SubsetOf(const Dataset& dataset,
                                 std::span<const PointId> ids);

  void Reserve(size_t n) {
    rows_.reserve(n);
    ids_.reserve(n);
  }

  /// Appends one member. `coords` must stay alive as long as the view and
  /// hold dim() doubles.
  void Add(PointId global_id, std::span<const double> coords) {
    rows_.push_back(coords.data());
    ids_.push_back(global_id);
  }

  size_t size() const { return rows_.size(); }
  size_t dim() const { return dim_; }
  std::span<const double> point(size_t k) const { return {rows_[k], dim_}; }
  PointId id(size_t k) const { return ids_[k]; }
  std::span<const PointId> ids() const { return ids_; }
  std::span<const double* const> rows() const { return rows_; }

 private:
  size_t dim_;
  std::vector<const double*> rows_;
  std::vector<PointId> ids_;
};

struct LocalDpEngineOptions {
  LocalDpBackend backend = LocalDpBackend::kAuto;
  /// kAuto picks the k-d tree for groups of at least this size when the
  /// dimensionality is at most kd_max_dim, and brute force otherwise (space
  /// partitioning degrades to a scan in high dimensions, and the index setup
  /// costs more than it saves on small groups).
  size_t kd_min_group = 256;
  size_t kd_max_dim = 16;
  /// Groups of at least this size spread their per-point kernel work over
  /// the process-wide thread pool. 0 disables parallelism. Parallelism never
  /// changes results; the parallel brute rho path evaluates each pair from
  /// both sides, so its *counted evaluations* (not results) differ from the
  /// sequential half-loop.
  size_t parallel_min_group = 4096;
  size_t kd_leaf_size = 16;
};

/// Delta scores for one group, group-position aligned. The group's densest
/// point keeps delta = +infinity and an invalid upslope (the "+inf local
/// max" rule every aggregation layer relies on).
struct LocalDeltaScores {
  std::vector<double> delta;     // sqrt of delta_sq; +inf for the densest
  std::vector<double> delta_sq;  // squared-space minimum, same minimizer
  std::vector<PointId> upslope;  // global ids; kInvalidPointId if none
};

/// A running (squared distance, upslope) minimum for cross-group delta
/// passes. Improve() applies the engine's lexicographic tie-break.
struct LocalDeltaBest {
  double d_sq = std::numeric_limits<double>::infinity();
  PointId upslope = kInvalidPointId;

  bool Improve(double cand_sq, PointId cand_id) {
    if (cand_sq < d_sq || (cand_sq == d_sq && cand_id < upslope)) {
      d_sq = cand_sq;
      upslope = cand_id;
      return true;
    }
    return false;
  }

  // ddp-lint: allow(no-raw-sqrt) -- the one final-assembly sqrt of the
  // squared-space contract: delta leaves d^2 space only here.
  double Delta() const { return std::sqrt(d_sq); }
};

/// The engine. Stateless apart from options; one instance can be shared by
/// concurrent reducers.
class LocalDpEngine {
 public:
  LocalDpEngine() = default;
  explicit LocalDpEngine(LocalDpEngineOptions options) : options_(options) {}

  const LocalDpEngineOptions& options() const { return options_; }

  /// The backend kAuto resolves to for a group of `group_size` points in
  /// `dim` dimensions (explicit backends resolve to themselves).
  LocalDpBackend Resolve(size_t group_size, size_t dim) const;

  /// Local rho of every view member against the view (self pairs excluded):
  /// the cutoff neighbor count, or the quantized gaussian density.
  std::vector<uint32_t> Rho(const LocalPointView& view, double dc,
                            DensityKernel kernel,
                            const CountingMetric& metric) const;

  /// Local delta/upslope given view-aligned rho values, under the global
  /// (rho, id) density total order.
  LocalDeltaScores Delta(const LocalPointView& view,
                         std::span<const uint32_t> rho,
                         const CountingMetric& metric) const;

  /// Cutoff-kernel neighbor counting across two disjoint groups: bumps
  /// counts_left[i] for every right member within d_c of left i, and (when
  /// counts_right is non-empty) vice versa. Used by Basic-DDP block pairs
  /// and EDDPC home-vs-support counting (one-sided).
  void RhoCross(const LocalPointView& left, const LocalPointView& right,
                double dc, const CountingMetric& metric,
                std::span<uint32_t> counts_left,
                std::span<uint32_t> counts_right) const;

  /// One-sided cross delta: improves best[k] for each query against the
  /// denser candidates, starting from the caller's seed (e.g. EDDPC's
  /// within-cell upper bound). Candidates tie-break by global id.
  void DeltaCross(const LocalPointView& queries,
                  std::span<const uint32_t> query_rho,
                  const LocalPointView& candidates,
                  std::span<const uint32_t> candidate_rho,
                  const CountingMetric& metric,
                  std::span<LocalDeltaBest> best) const;

  /// Two-sided cross delta over disjoint groups: each pair's distance feeds
  /// both sides' minima. The brute path evaluates each pair exactly once —
  /// the Basic-DDP block-pair cost model.
  void DeltaCrossSymmetric(const LocalPointView& left,
                           std::span<const uint32_t> rho_left,
                           const LocalPointView& right,
                           std::span<const uint32_t> rho_right,
                           const CountingMetric& metric,
                           std::span<LocalDeltaBest> best_left,
                           std::span<LocalDeltaBest> best_right) const;

 private:
  LocalDpEngineOptions options_;
};

namespace internal {

/// The brute kernel's panel: kTile candidates stored dim-major, so
/// coordinate d of member t sits at panel[d * kTile + t].
inline constexpr size_t kTile = 8;

/// Queries compared with one panel at once. In the AVX body, 4 queries x 2
/// accumulators, the 2 panel rows of a dimension and 1 broadcast query
/// coordinate fit AVX's 16 ymm registers.
inline constexpr size_t kBlock = 4;

/// The panel kernel's two bodies, declared here so a test can run both on
/// one machine. Each sets out[b * kTile + t] to SquaredEuclidean(queries[b],
/// member t of `panel`), bit for bit, for every b < count (1 to kBlock); the
/// rows of `out` past count are unspecified. The engine runs
/// PanelDistancesAvx when CpuHasAvx(), and PanelDistancesBaseline (2-lane
/// SSE2 on x86-64) otherwise.
void PanelDistancesBaseline(const double* const* queries, size_t count,
                            const double* panel, size_t dim, double* out);
#if defined(__x86_64__)
void PanelDistancesAvx(const double* const* queries, size_t count,
                       const double* panel, size_t dim, double* out);
#endif

/// Whether this CPU runs AVX, asked once per process (false off x86-64).
bool CpuHasAvx();

}  // namespace internal

}  // namespace ddp

