#include "core/local_dp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include <unistd.h>

#include "common/thread_pool.h"
#include "dataset/kdtree.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Observability for one kernel invocation. Counters are always recorded;
// a trace span (timing + per-group distance-eval count) is created only
// for groups of at least this many members, so the millions of tiny LSH
// buckets a large run produces never flood the trace buffer or pay clock
// reads.
constexpr size_t kKernelSpanMinGroup = 16;

class KernelScope {
 public:
  KernelScope(const char* name, size_t group_size, LocalDpBackend backend,
              const CountingMetric& metric)
      : outer_(metric.counter()), local_metric_(&local_counter_) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricLocalDpGroups, 1);
    DDP_METRIC_HISTOGRAM_RECORD(obs::kMetricLocalDpGroupSize, group_size);
#ifndef DDP_OBS_NO_TRACING
    if (group_size >= kKernelSpanMinGroup &&
        obs::TraceRecorder::Global().enabled()) {
      span_.emplace(obs::kCatLocalDp, name);
      span_->AddArg("group_size", static_cast<uint64_t>(group_size));
      span_->AddArg("backend", LocalDpBackendName(backend));
    }
#endif
  }

  ~KernelScope() {
    const uint64_t evals = local_counter_.value();
    DDP_METRIC_COUNTER_ADD(obs::kMetricLocalDpDistanceEvals, evals);
    if (outer_ != nullptr) outer_->Add(evals);
#ifndef DDP_OBS_NO_TRACING
    if (span_.has_value()) span_->AddArg("distance_evals", evals);
#endif
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Metric the kernel body must report to: evaluations land in this scope's
  /// local counter (so the per-group count is exact even when other groups
  /// run concurrently) and are forwarded to the caller's counter by the
  /// destructor. Pairwise loops add their trip count once per call; k-d tree
  /// queries add theirs once per query.
  const CountingMetric& metric() const { return local_metric_; }

 private:
  DistanceCounter* outer_;
  DistanceCounter local_counter_;
  CountingMetric local_metric_;
#ifndef DDP_OBS_NO_TRACING
  std::optional<obs::Span> span_;
#endif
};

long KernelPoolPid() { return static_cast<long>(::getpid()); }

// Process-wide pool for within-group kernel parallelism. Deliberately
// separate from the per-job MapReduce pools: engine calls originate on MR
// workers, and blocking one pool's worker while waiting on a *different*
// pool cannot deadlock. The pool is pid-stamped: a forked MR worker
// (ExecMode::kFork) inherits this static but none of its threads, so the
// child must rebuild it — the inherited object is released unjoined (joining
// threads that do not exist in this image would hang; the child exits via
// _exit, so no destructors or leak checks run there). The supervising parent
// keeps the original pool, whose static unique_ptr still joins cleanly at
// exit. The rebuild branch only ever runs on a freshly forked,
// single-threaded child, so the unsynchronized statics are safe.
ThreadPool* SharedKernelPool() {
  static long owner_pid = KernelPoolPid();
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(DefaultParallelism());
  if (owner_pid != KernelPoolPid()) {
    (void)pool.release();
    pool = std::make_unique<ThreadPool>(DefaultParallelism());
    owner_pid = KernelPoolPid();
  }
  return pool.get();
}

// Runs body(k) for k in [0, n), on the shared pool when asked, and returns
// the sum of the bodies' results (their distance evaluations), so a kernel
// reports its count once per call. Concurrent calls from different reducer
// threads are safe (each ParallelFor has its own cursor; Wait over-waits at
// worst).
uint64_t ForEachIndex(size_t n, bool parallel,
                      const std::function<uint64_t(size_t)>& body) {
  if (parallel && n > 1) {
    std::vector<uint64_t> evals(n);
    SharedKernelPool()->ParallelFor(n, [&](size_t k) { evals[k] = body(k); });
    return std::accumulate(evals.begin(), evals.end(), uint64_t{0});
  }
  uint64_t evals = 0;
  for (size_t k = 0; k < n; ++k) evals += body(k);
  return evals;
}

// Pivot projections for the triangle-inequality filter: distances from every
// group member to the group centroid. |proj_i - proj_j| <= d_ij for any
// metric pivot, so pairs with a large projection gap can be skipped. The
// projections are counted evaluations (one per member).
std::vector<double> CentroidProjections(const LocalPointView& view,
                                        const CountingMetric& metric) {
  const size_t n = view.size();
  std::vector<double> centroid(view.dim(), 0.0);
  for (size_t k = 0; k < n; ++k) {
    std::span<const double> p = view.point(k);
    for (size_t d = 0; d < view.dim(); ++d) centroid[d] += p[d];
  }
  for (double& c : centroid) c /= static_cast<double>(n);
  std::vector<double> proj(n);
  for (size_t k = 0; k < n; ++k) proj[k] = Euclidean(view.point(k), centroid);
  metric.AddEvaluations(n);
  return proj;
}

// ---- The packed-panel distance kernel.
//
// Candidate rows are copied kTile at a time into panels stored dim-major,
// and one query is compared with a whole panel at once. Vector lanes hold
// different *pairs*, never different dimensions: every lane runs
// SquaredEuclidean's exact operation sequence (s = 0; for d ascending:
// s += (q[d] - x[d])^2), so each distance is bit-identical to the scalar
// kernel the k-d tree uses. The library builds with -ffp-contract=off, so
// neither side can fuse the multiply-add differently.
constexpr size_t kTile = 8;

// Two doubles: SSE2 is the x86-64 baseline, so no -march flag is needed.
// Four of them cover one dimension of a panel with independent accumulators.
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

Lanes2 Load2(const double* p) {
  Lanes2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store2(double* p, Lanes2 v) { std::memcpy(p, &v, sizeof(v)); }

// Rows of a point group packed into panels of kTile members. Member m of the
// packing order is lane m % kTile of panel m / kTile, whose coordinate d sits
// at panel[d * kTile + lane]. The tail panel is zero-padded; padding lanes
// are computed and discarded like any other lane that is not kept.
class PackedPanels {
 public:
  // Packs the view's rows in `order` (view positions), or in position order
  // when `order` is empty.
  PackedPanels(const LocalPointView& view, std::span<const uint32_t> order)
      : dim_(view.dim()) {
    const size_t n = order.empty() ? view.size() : order.size();
    data_.assign((n + kTile - 1) / kTile * kTile * dim_, 0.0);
    for (size_t m = 0; m < n; ++m) {
      std::span<const double> row = view.point(order.empty() ? m : order[m]);
      double* panel = data_.data() + m / kTile * kTile * dim_ + m % kTile;
      for (size_t d = 0; d < dim_; ++d) panel[d * kTile] = row[d];
    }
  }

  // Walks members [begin, end) for query `q` in ascending order. For each
  // member m, keep(m) decides whether the pair is evaluated, against
  // whatever state earlier visits left; kept members are passed to
  // visit(m, d_sq). A panel is computed only if at least one of its members
  // is kept at the panel's start (the callers' filters can only tighten as
  // visits accumulate). Returns the number of evaluated pairs.
  template <typename Keep, typename Visit>
  uint64_t Scan(const double* q, size_t begin, size_t end, const Keep& keep,
                const Visit& visit) const {
    uint64_t evals = 0;
    double d_sq[kTile] = {};
    for (size_t base = begin / kTile * kTile; base < end; base += kTile) {
      const size_t lo = std::max(begin, base);
      const size_t hi = std::min(end, base + kTile);
      bool any = false;
      for (size_t m = lo; m < hi && !any; ++m) any = keep(m);
      if (!any) continue;
      PanelSquaredDistances(q, data_.data() + base * dim_, d_sq);
      for (size_t m = lo; m < hi; ++m) {
        if (!keep(m)) continue;
        ++evals;
        visit(m, d_sq[m - base]);
      }
    }
    return evals;
  }

 private:
  // out[t] = SquaredEuclidean(q, lane t of `panel`) for every lane.
  void PanelSquaredDistances(const double* q, const double* panel,
                             double* out) const {
    Lanes2 s0 = {0.0, 0.0};
    Lanes2 s1 = s0;
    Lanes2 s2 = s0;
    Lanes2 s3 = s0;
    for (size_t d = 0; d < dim_; ++d, panel += kTile) {
      const Lanes2 qd = {q[d], q[d]};
      const Lanes2 e0 = qd - Load2(panel);
      const Lanes2 e1 = qd - Load2(panel + 2);
      const Lanes2 e2 = qd - Load2(panel + 4);
      const Lanes2 e3 = qd - Load2(panel + 6);
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    Store2(out, s0);
    Store2(out + 2, s1);
    Store2(out + 4, s2);
    Store2(out + 6, s3);
  }

  size_t dim_;
  std::vector<double> data_;
};

constexpr auto kKeepAll = [](size_t) { return true; };

}  // namespace

const char* LocalDpBackendName(LocalDpBackend backend) {
  switch (backend) {
    case LocalDpBackend::kAuto:
      return "auto";
    case LocalDpBackend::kBruteForce:
      return "brute";
    case LocalDpBackend::kKdTree:
      return "kdtree";
    case LocalDpBackend::kTriangleFilter:
      return "triangle";
  }
  return "unknown";
}

Result<LocalDpBackend> ParseLocalDpBackend(std::string_view name) {
  if (name == "auto") return LocalDpBackend::kAuto;
  if (name == "brute") return LocalDpBackend::kBruteForce;
  if (name == "kdtree") return LocalDpBackend::kKdTree;
  if (name == "triangle") return LocalDpBackend::kTriangleFilter;
  return Status::InvalidArgument("unknown local backend '" +
                                 std::string(name) +
                                 "' (want auto|brute|kdtree|triangle)");
}

LocalPointView LocalPointView::AllOf(const Dataset& dataset) {
  LocalPointView view(dataset.dim());
  view.Reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    PointId id = static_cast<PointId>(i);
    view.Add(id, dataset.point(id));
  }
  return view;
}

LocalPointView LocalPointView::SubsetOf(const Dataset& dataset,
                                        std::span<const PointId> ids) {
  LocalPointView view(dataset.dim());
  view.Reserve(ids.size());
  for (PointId id : ids) view.Add(id, dataset.point(id));
  return view;
}

LocalDpBackend LocalDpEngine::Resolve(size_t group_size, size_t dim) const {
  if (options_.backend != LocalDpBackend::kAuto) return options_.backend;
  if (group_size >= options_.kd_min_group && dim <= options_.kd_max_dim) {
    return LocalDpBackend::kKdTree;
  }
  if (group_size >= options_.triangle_min_group) {
    return LocalDpBackend::kTriangleFilter;
  }
  return LocalDpBackend::kBruteForce;
}

std::vector<uint32_t> LocalDpEngine::Rho(const LocalPointView& view, double dc,
                                         DensityKernel kernel,
                                         const CountingMetric& outer_metric)
    const {
  const size_t n = view.size();
  std::vector<uint32_t> rho(n, 0);
  if (n == 0) return rho;
  const LocalDpBackend backend = Resolve(n, view.dim());
  KernelScope scope(obs::kSpanRho, n, backend, outer_metric);
  const CountingMetric& metric = scope.metric();
  const bool gaussian = kernel == DensityKernel::kGaussian;
  const double dc_sq = dc * dc;
  // Radius beyond which a pair cannot contribute: d_c for the cutoff
  // kernel, the truncation radius for the gaussian one. reach * reach is
  // the same expression GaussianKernelContributionSq truncates against.
  const double reach = gaussian ? kGaussianKernelCut * dc : dc;
  const double reach_sq = reach * reach;
  const bool parallel = options_.parallel_min_group > 0 &&
                        n >= options_.parallel_min_group;
  std::vector<double> soft;
  if (gaussian) soft.assign(n, 0.0);

  if (backend == LocalDpBackend::kKdTree) {
    Result<KdTree> tree =
        KdTree::BuildFromRows(view.rows(), view.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;  // cannot fail: view non-empty, leaf_size >= 1
    // The tree counts its own evaluations.
    ForEachIndex(n, parallel, [&](size_t k) -> uint64_t {
      if (gaussian) {
        std::vector<std::pair<PointId, double>> hits;
        t.FindWithinSq(view.point(k), reach_sq, static_cast<PointId>(k),
                       metric, &hits);
        // Accumulate in ascending group-position order, the engine-wide
        // summation order, so the result matches the pairwise scans
        // bit-for-bit.
        std::sort(hits.begin(), hits.end());
        double s = 0.0;
        for (const auto& [pos, d_sq] : hits) {
          s += GaussianKernelContributionSq(d_sq, dc);
        }
        soft[k] = s;
      } else {
        rho[k] = static_cast<uint32_t>(t.CountWithin(
            view.point(k), dc, static_cast<PointId>(k), metric));
      }
      return 0;
    });
  } else {
    // Brute force and the triangle filter share one loop; the filter skips
    // pairs whose projection gap proves them out of reach.
    const bool triangle = backend == LocalDpBackend::kTriangleFilter;
    std::vector<double> proj;
    if (triangle) proj = CentroidProjections(view, metric);
    auto in_reach = [&](size_t i, size_t j) {
      return !triangle || !(std::abs(proj[i] - proj[j]) >= reach);
    };
    const PackedPanels panels(view, {});
    uint64_t evals = 0;
    if (parallel) {
      // Full-row scans: each point accumulates its own row (ascending
      // position order), so rows are independent and bit-identical to the
      // sequential half-loop. Each surviving pair is evaluated from both
      // sides.
      evals = ForEachIndex(n, true, [&](size_t k) {
        double s = 0.0;
        uint32_t count = 0;
        const uint64_t row_evals = panels.Scan(
            view.point(k).data(), 0, n,
            [&](size_t j) { return j != k && in_reach(k, j); },
            [&](size_t, double d_sq) {
              if (gaussian) {
                s += GaussianKernelContributionSq(d_sq, dc);
              } else if (d_sq < dc_sq) {
                ++count;
              }
            });
        if (gaussian) {
          soft[k] = s;
        } else {
          rho[k] = count;
        }
        return row_evals;
      });
    } else {
      for (size_t i = 0; i < n; ++i) {
        evals += panels.Scan(
            view.point(i).data(), i + 1, n,
            [&](size_t j) { return in_reach(i, j); },
            [&](size_t j, double d_sq) {
              if (gaussian) {
                double w = GaussianKernelContributionSq(d_sq, dc);
                soft[i] += w;
                soft[j] += w;
              } else if (d_sq < dc_sq) {
                ++rho[i];
                ++rho[j];
              }
            });
      }
    }
    metric.AddEvaluations(evals);
  }
  if (gaussian) {
    for (size_t k = 0; k < n; ++k) rho[k] = QuantizeDensity(soft[k]);
  }
  return rho;
}

LocalDeltaScores LocalDpEngine::Delta(const LocalPointView& view,
                                      std::span<const uint32_t> rho,
                                      const CountingMetric& outer_metric)
    const {
  const size_t n = view.size();
  LocalDeltaScores out;
  out.delta.assign(n, kInf);
  out.delta_sq.assign(n, kInf);
  out.upslope.assign(n, kInvalidPointId);
  if (n <= 1) return out;
  const LocalDpBackend backend = Resolve(n, view.dim());
  KernelScope scope(obs::kSpanDelta, n, backend, outer_metric);
  const CountingMetric& metric = scope.metric();

  // Rank positions by the density total order: the candidates denser than
  // the point at rank r are exactly ranks [0, r). Rank 0 is the group's
  // densest point and keeps delta = +inf (the local-max rule).
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return DenserThan(rho[a], view.id(a), rho[b], view.id(b));
  });

  const bool parallel = options_.parallel_min_group > 0 &&
                        n >= options_.parallel_min_group;
  auto commit = [&](size_t k, const LocalDeltaBest& best) {
    if (best.upslope == kInvalidPointId) return;
    out.delta_sq[k] = best.d_sq;
    out.delta[k] = best.Delta();
    out.upslope[k] = best.upslope;
  };

  if (backend == LocalDpBackend::kKdTree) {
    Result<KdTree> tree =
        KdTree::BuildFromRows(view.rows(), view.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;
    // The tree counts its own evaluations.
    ForEachIndex(n - 1, parallel, [&](size_t r1) -> uint64_t {
      const size_t k = order[r1 + 1];
      const uint32_t rho_k = rho[k];
      const PointId id_k = view.id(k);
      KdTree::Nearest res = t.FindNearestAccepted(
          view.point(k), metric, view.ids(), [&](PointId pos) {
            return DenserThan(rho[pos], view.id(pos), rho_k, id_k);
          });
      LocalDeltaBest best;
      if (res.index != kInvalidPointId) {
        best.d_sq = res.distance_sq;
        best.upslope = res.tie_id;
      }
      commit(k, best);
      return 0;
    });
    return out;
  }

  // Brute force and the triangle filter share one loop over panels packed in
  // rank order, so the point at rank r scans panel members [0, r). The filter
  // skips a candidate whose projection gap cannot improve on the running
  // minimum.
  const bool triangle = backend == LocalDpBackend::kTriangleFilter;
  std::vector<double> proj;
  if (triangle) proj = CentroidProjections(view, metric);
  const PackedPanels panels(view, order);
  metric.AddEvaluations(ForEachIndex(n - 1, parallel, [&](size_t r1) {
    const size_t r = r1 + 1;
    const size_t k = order[r];
    LocalDeltaBest best;
    const uint64_t evals = panels.Scan(
        view.point(k).data(), 0, r,
        [&](size_t s) {
          if (!triangle) return true;
          double gap = std::abs(proj[k] - proj[order[s]]);
          return !(gap * gap > best.d_sq);
        },
        [&](size_t s, double d_sq) { best.Improve(d_sq, view.id(order[s])); });
    commit(k, best);
    return evals;
  }));
  return out;
}

void LocalDpEngine::RhoCross(const LocalPointView& left,
                             const LocalPointView& right, double dc,
                             const CountingMetric& outer_metric,
                             std::span<uint32_t> counts_left,
                             std::span<uint32_t> counts_right) const {
  const size_t nl = left.size();
  const size_t nr = right.size();
  if (nl == 0 || nr == 0) return;
  KernelScope scope(obs::kSpanRhoCross, nl + nr, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  const double dc_sq = dc * dc;
  const bool both = !counts_right.empty();
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        return nr >= options_.kd_min_group && left.dim() <= options_.kd_max_dim;
      default:
        return false;  // triangle has no cross-group pivot; use brute
    }
  }();
  // Parallelizing the both-sided pass would race on counts_right; the
  // one-sided pass shards cleanly over left rows.
  const bool parallel = !both && options_.parallel_min_group > 0 &&
                        nl * nr >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (kd) {
    Result<KdTree> tree =
        KdTree::BuildFromRows(right.rows(), right.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;
    if (both) {
      std::vector<std::pair<PointId, double>> hits;
      for (size_t i = 0; i < nl; ++i) {
        hits.clear();
        t.FindWithinSq(left.point(i), dc_sq, kInvalidPointId, metric, &hits);
        counts_left[i] += static_cast<uint32_t>(hits.size());
        for (const auto& [pos, d_sq] : hits) ++counts_right[pos];
      }
    } else {
      // The tree counts its own evaluations.
      ForEachIndex(nl, parallel, [&](size_t i) -> uint64_t {
        counts_left[i] += static_cast<uint32_t>(
            t.CountWithin(left.point(i), dc, kInvalidPointId, metric));
        return 0;
      });
    }
    return;
  }
  const PackedPanels panels(right, {});
  if (both) {
    uint64_t evals = 0;
    for (size_t i = 0; i < nl; ++i) {
      evals += panels.Scan(left.point(i).data(), 0, nr, kKeepAll,
                           [&](size_t j, double d_sq) {
                             if (d_sq < dc_sq) {
                               ++counts_left[i];
                               ++counts_right[j];
                             }
                           });
    }
    metric.AddEvaluations(evals);
  } else {
    metric.AddEvaluations(ForEachIndex(nl, parallel, [&](size_t i) {
      uint32_t count = 0;
      const uint64_t evals =
          panels.Scan(left.point(i).data(), 0, nr, kKeepAll,
                      [&](size_t, double d_sq) {
                        if (d_sq < dc_sq) ++count;
                      });
      counts_left[i] += count;
      return evals;
    }));
  }
}

void LocalDpEngine::DeltaCross(const LocalPointView& queries,
                               std::span<const uint32_t> query_rho,
                               const LocalPointView& candidates,
                               std::span<const uint32_t> candidate_rho,
                               const CountingMetric& outer_metric,
                               std::span<LocalDeltaBest> best) const {
  const size_t nq = queries.size();
  const size_t nc = candidates.size();
  if (nq == 0 || nc == 0) return;
  KernelScope scope(obs::kSpanDeltaCross, nq + nc, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        return nc >= options_.kd_min_group &&
               queries.dim() <= options_.kd_max_dim;
      default:
        return false;
    }
  }();
  const bool parallel = options_.parallel_min_group > 0 &&
                        nq * nc >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (kd) {
    Result<KdTree> tree = KdTree::BuildFromRows(
        candidates.rows(), candidates.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;
    // The tree counts its own evaluations.
    ForEachIndex(nq, parallel, [&](size_t k) -> uint64_t {
      const uint32_t rho_k = query_rho[k];
      const PointId id_k = queries.id(k);
      KdTree::Nearest seed;
      seed.distance_sq = best[k].d_sq;
      seed.tie_id = best[k].upslope;
      KdTree::Nearest res = t.FindNearestAccepted(
          queries.point(k), metric, candidates.ids(),
          [&](PointId pos) {
            return DenserThan(candidate_rho[pos], candidates.id(pos), rho_k,
                              id_k);
          },
          seed);
      if (res.index != kInvalidPointId) {
        best[k].d_sq = res.distance_sq;
        best[k].upslope = res.tie_id;
      }
      return 0;
    });
    return;
  }
  const PackedPanels panels(candidates, {});
  metric.AddEvaluations(ForEachIndex(nq, parallel, [&](size_t k) {
    const uint32_t rho_k = query_rho[k];
    const PointId id_k = queries.id(k);
    LocalDeltaBest b = best[k];
    const uint64_t evals = panels.Scan(
        queries.point(k).data(), 0, nc,
        [&](size_t l) {
          return DenserThan(candidate_rho[l], candidates.id(l), rho_k, id_k);
        },
        [&](size_t l, double d_sq) { b.Improve(d_sq, candidates.id(l)); });
    best[k] = b;
    return evals;
  }));
}

void LocalDpEngine::DeltaCrossSymmetric(
    const LocalPointView& left, std::span<const uint32_t> rho_left,
    const LocalPointView& right, std::span<const uint32_t> rho_right,
    const CountingMetric& outer_metric, std::span<LocalDeltaBest> best_left,
    std::span<LocalDeltaBest> best_right) const {
  const size_t nl = left.size();
  const size_t nr = right.size();
  if (nl == 0 || nr == 0) return;
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        // Two one-sided tree passes re-evaluate shared pairs, so they must
        // both be large enough for pruning to beat the brute half price.
        return std::min(nl, nr) >= options_.kd_min_group &&
               left.dim() <= options_.kd_max_dim;
      default:
        return false;
    }
  }();
  if (kd) {
    // The two one-sided passes carry their own kernel scopes.
    DeltaCross(left, rho_left, right, rho_right, outer_metric, best_left);
    DeltaCross(right, rho_right, left, rho_left, outer_metric, best_right);
    return;
  }
  KernelScope scope(obs::kSpanDeltaCrossSym, nl + nr, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  // Brute: each cross pair's distance is evaluated exactly once and feeds
  // both sides — the Basic-DDP block-pair cost model.
  const PackedPanels panels(right, {});
  uint64_t evals = 0;
  for (size_t i = 0; i < nl; ++i) {
    const uint32_t rho_i = rho_left[i];
    const PointId id_i = left.id(i);
    evals += panels.Scan(
        left.point(i).data(), 0, nr, kKeepAll, [&](size_t j, double d_sq) {
          if (DenserThan(rho_right[j], right.id(j), rho_i, id_i)) {
            best_left[i].Improve(d_sq, right.id(j));
          }
          if (DenserThan(rho_i, id_i, rho_right[j], right.id(j))) {
            best_right[j].Improve(d_sq, id_i);
          }
        });
  }
  metric.AddEvaluations(evals);
}

}  // namespace ddp
