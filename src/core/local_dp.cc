#include "core/local_dp.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include <unistd.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/thread_pool.h"
#include "dataset/kdtree.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {

// ---- The packed-panel distance kernel.
//
// Candidate rows are copied kTile at a time into panels stored dim-major,
// and a block of up to kBlock queries is compared with a whole panel at
// once. Vector lanes hold different *pairs*, never different dimensions:
// every lane runs SquaredEuclidean's exact operation sequence (s = 0; for d
// ascending: s += (q[d] - x[d])^2), so each distance is bit-identical to
// the scalar kernel the k-d tree uses. Neither body can fuse a multiply and
// an add: the baseline targets SSE2 and the other "avx", neither of which
// has FMA, and the root build also sets -ffp-contract=off. A body for a
// target with FMA (avx2,fma or avx512f) would contract the builds without
// that flag, such as ddp_bench's.
namespace internal {

namespace {

// Two doubles: SSE2 is the x86-64 baseline, so no -march flag is needed.
// Four of them cover one dimension of a panel with independent accumulators.
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

Lanes2 Load2(const double* p) {
  Lanes2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store2(double* p, Lanes2 v) { std::memcpy(p, &v, sizeof(v)); }

// out[t] = SquaredEuclidean(q, member t of `panel`) for every member.
void PanelSquaredDistances(const double* q, const double* panel, size_t dim,
                           double* out) {
  Lanes2 s0 = {0.0, 0.0};
  Lanes2 s1 = s0;
  Lanes2 s2 = s0;
  Lanes2 s3 = s0;
  for (size_t d = 0; d < dim; ++d, panel += kTile) {
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

#if defined(__x86_64__)
// lo, hi += (q[0] - x_lo)^2, (q[0] - x_hi)^2, lane by lane.
__attribute__((target("avx"), always_inline)) inline void AccumulateAvx(
    const double* q, __m256d x_lo, __m256d x_hi, __m256d& lo, __m256d& hi) {
  const __m256d qd = _mm256_broadcast_sd(q);
  const __m256d e_lo = _mm256_sub_pd(qd, x_lo);
  const __m256d e_hi = _mm256_sub_pd(qd, x_hi);
  lo = _mm256_add_pd(lo, _mm256_mul_pd(e_lo, e_lo));
  hi = _mm256_add_pd(hi, _mm256_mul_pd(e_hi, e_hi));
}
#endif

}  // namespace

void PanelDistancesBaseline(const double* const* queries, size_t count,
                            const double* panel, size_t dim, double* out) {
  for (size_t b = 0; b < count; ++b) {
    PanelSquaredDistances(queries[b], panel, dim, out + b * kTile);
  }
}

#if defined(__x86_64__)
// Always kBlock queries: a short block repeats its last query, and the
// repeats' lanes are discarded.
__attribute__((target("avx"))) void PanelDistancesAvx(
    const double* const* queries, size_t count, const double* panel,
    size_t dim, double* out) {
  static_assert(kBlock == 4 && kTile == 8, "one ymm pair per query");
  const double* q0 = queries[0];
  const double* q1 = queries[std::min<size_t>(1, count - 1)];
  const double* q2 = queries[std::min<size_t>(2, count - 1)];
  const double* q3 = queries[std::min<size_t>(3, count - 1)];
  __m256d lo0 = _mm256_setzero_pd();
  __m256d hi0 = lo0, lo1 = lo0, hi1 = lo0, lo2 = lo0, hi2 = lo0, lo3 = lo0,
          hi3 = lo0;
  for (size_t d = 0; d < dim; ++d, panel += kTile) {
    const __m256d x_lo = _mm256_loadu_pd(panel);
    const __m256d x_hi = _mm256_loadu_pd(panel + 4);
    AccumulateAvx(q0 + d, x_lo, x_hi, lo0, hi0);
    AccumulateAvx(q1 + d, x_lo, x_hi, lo1, hi1);
    AccumulateAvx(q2 + d, x_lo, x_hi, lo2, hi2);
    AccumulateAvx(q3 + d, x_lo, x_hi, lo3, hi3);
  }
  _mm256_storeu_pd(out, lo0);
  _mm256_storeu_pd(out + 4, hi0);
  _mm256_storeu_pd(out + 8, lo1);
  _mm256_storeu_pd(out + 12, hi1);
  _mm256_storeu_pd(out + 16, lo2);
  _mm256_storeu_pd(out + 20, hi2);
  _mm256_storeu_pd(out + 24, lo3);
  _mm256_storeu_pd(out + 28, hi3);
}
#endif

bool CpuHasAvx() {
#if defined(__x86_64__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx");
  }();
  return has;
#else
  return false;
#endif
}

}  // namespace internal

namespace {

using internal::kBlock;
using internal::kTile;

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

// Runs body(first, count) over the n queries in consecutive blocks of up to
// kBlock, on the shared pool when asked, and returns the sum of the bodies'
// results, as ForEachIndex does.
uint64_t ForEachBlock(size_t n, bool parallel,
                      const std::function<uint64_t(size_t, size_t)>& body) {
  return ForEachIndex((n + kBlock - 1) / kBlock, parallel, [&](size_t t) {
    const size_t first = t * kBlock;
    return body(first, std::min(kBlock, n - first));
  });
}

// The panel body this process runs: AVX when the CPU has it.
void PanelDistances(const double* const* queries, size_t count,
                    const double* panel, size_t dim, double* out) {
#if defined(__x86_64__)
  if (internal::CpuHasAvx()) {
    internal::PanelDistancesAvx(queries, count, panel, dim, out);
    return;
  }
#endif
  internal::PanelDistancesBaseline(queries, count, panel, dim, out);
}

// Candidate rows packed into panels of kTile members. Member m is lane
// m % kTile of panel m / kTile. The tail panel is zero-padded; padding lanes
// are computed and discarded like any other pair that is not kept.
class PackedPanels {
 public:
  PackedPanels(std::span<const double* const> rows, size_t dim) : dim_(dim) {
    data_.assign((rows.size() + kTile - 1) / kTile * kTile * dim_, 0.0);
    for (size_t m = 0; m < rows.size(); ++m) {
      double* panel = data_.data() + m / kTile * kTile * dim_ + m % kTile;
      for (size_t d = 0; d < dim_; ++d) panel[d * kTile] = rows[m][d];
    }
  }

  // Compares a block of 1 to kBlock queries with members [begin, end).
  // keep(b, m) says whether the pair of query b and member m is evaluated;
  // it must not depend on visits. A panel with no kept pair is skipped.
  // Kept pairs go to visit(b, m, d_sq) query by query, each query's members
  // in ascending order. Returns the number of kept pairs.
  template <typename Keep, typename Visit>
  uint64_t Scan(std::span<const double* const> queries, size_t begin,
                size_t end, const Keep& keep, const Visit& visit) const {
    uint64_t evals = 0;
    double d_sq[kBlock * kTile];
    for (size_t base = begin / kTile * kTile; base < end; base += kTile) {
      const size_t lo = std::max(begin, base);
      const size_t hi = std::min(end, base + kTile);
      bool any = false;
      for (size_t b = 0; b < queries.size() && !any; ++b) {
        for (size_t m = lo; m < hi && !any; ++m) any = keep(b, m);
      }
      if (!any) continue;
      PanelDistances(queries.data(), queries.size(),
                     data_.data() + base * dim_, dim_, d_sq);
      for (size_t b = 0; b < queries.size(); ++b) {
        for (size_t m = lo; m < hi; ++m) {
          if (!keep(b, m)) continue;
          ++evals;
          visit(b, m, d_sq[b * kTile + m - base]);
        }
      }
    }
    return evals;
  }

 private:
  size_t dim_;
  std::vector<double> data_;
};

constexpr auto kKeepAll = [](size_t, size_t) { return true; };

}  // namespace

const char* LocalDpBackendName(LocalDpBackend backend) {
  switch (backend) {
    case LocalDpBackend::kAuto:
      return "auto";
    case LocalDpBackend::kBruteForce:
      return "brute";
    case LocalDpBackend::kKdTree:
      return "kdtree";
  }
  return "unknown";
}

Result<LocalDpBackend> ParseLocalDpBackend(std::string_view name) {
  if (name == "auto") return LocalDpBackend::kAuto;
  if (name == "brute") return LocalDpBackend::kBruteForce;
  if (name == "kdtree") return LocalDpBackend::kKdTree;
  return Status::InvalidArgument("unknown local backend '" +
                                 std::string(name) +
                                 "' (want auto|brute|kdtree)");
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
  const bool parallel = options_.parallel_min_group > 0 &&
                        n >= options_.parallel_min_group;
  std::vector<double> soft;
  if (gaussian) soft.assign(n, 0.0);

  if (backend == LocalDpBackend::kKdTree) {
    // Radius beyond which a pair cannot contribute: d_c for the cutoff
    // kernel, the truncation radius for the gaussian one. reach * reach is
    // the same expression GaussianKernelContributionSq truncates against.
    const double reach = gaussian ? kGaussianKernelCut * dc : dc;
    const double reach_sq = reach * reach;
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
    const PackedPanels panels(view.rows(), view.dim());
    if (parallel) {
      // Full-row scans: each point accumulates its own row (ascending
      // position order), so rows are independent and bit-identical to the
      // sequential half-loop. Each pair is evaluated from both sides.
      metric.AddEvaluations(
          ForEachBlock(n, true, [&](size_t first, size_t count) {
            double s[kBlock] = {};
            uint32_t c[kBlock] = {};
            const uint64_t evals = panels.Scan(
                view.rows().subspan(first, count), 0, n,
                [&](size_t b, size_t j) { return j != first + b; },
                [&](size_t b, size_t, double d_sq) {
                  if (gaussian) {
                    s[b] += GaussianKernelContributionSq(d_sq, dc);
                  } else if (d_sq < dc_sq) {
                    ++c[b];
                  }
                });
            for (size_t b = 0; b < count; ++b) {
              if (gaussian) {
                soft[first + b] = s[b];
              } else {
                rho[first + b] = c[b];
              }
            }
            return evals;
          }));
    } else {
      // The half-loop: point i scans the points after it. A block scans
      // from its first query on and drops each query's pairs at or before
      // its own position. Every point still gets its terms in ascending
      // position order: the pairs with earlier queries of its block land in
      // its own panel, whose visits run query by query, before its own.
      metric.AddEvaluations(
          ForEachBlock(n, false, [&](size_t first, size_t count) {
            return panels.Scan(
                view.rows().subspan(first, count), first + 1, n,
                [&](size_t b, size_t j) { return j > first + b; },
                [&](size_t b, size_t j, double d_sq) {
                  const size_t i = first + b;
                  if (gaussian) {
                    double w = GaussianKernelContributionSq(d_sq, dc);
                    soft[i] += w;
                    soft[j] += w;
                  } else if (d_sq < dc_sq) {
                    ++rho[i];
                    ++rho[j];
                  }
                });
          }));
    }
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

  // Panels packed in rank order, so the point at rank r scans members
  // [0, r). A block of ranks scans up to its last query and drops each
  // query's pairs at or past its own rank.
  std::vector<const double*> ranked(n);
  for (size_t r = 0; r < n; ++r) ranked[r] = view.rows()[order[r]];
  const PackedPanels panels(ranked, view.dim());
  metric.AddEvaluations(
      ForEachBlock(n - 1, parallel, [&](size_t first, size_t count) {
        const size_t r0 = first + 1;  // rank of the block's first query
        LocalDeltaBest best[kBlock];
        const uint64_t evals = panels.Scan(
            std::span<const double* const>(ranked).subspan(r0, count), 0,
            r0 + count - 1, [&](size_t b, size_t s) { return s < r0 + b; },
            [&](size_t b, size_t s, double d_sq) {
              best[b].Improve(d_sq, view.id(order[s]));
            });
        for (size_t b = 0; b < count; ++b) commit(order[r0 + b], best[b]);
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
  // Parallelizing the both-sided pass would race on counts_right; the
  // one-sided pass shards cleanly over left rows.
  const bool parallel = !both && options_.parallel_min_group > 0 &&
                        nl * nr >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (Resolve(nr, left.dim()) == LocalDpBackend::kKdTree) {
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
  const PackedPanels panels(right.rows(), right.dim());
  metric.AddEvaluations(
      ForEachBlock(nl, parallel, [&](size_t first, size_t count) {
        uint32_t c[kBlock] = {};
        const uint64_t evals = panels.Scan(
            left.rows().subspan(first, count), 0, nr, kKeepAll,
            [&](size_t b, size_t j, double d_sq) {
              if (d_sq < dc_sq) {
                ++c[b];
                if (both) ++counts_right[j];
              }
            });
        for (size_t b = 0; b < count; ++b) counts_left[first + b] += c[b];
        return evals;
      }));
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
  const bool parallel = options_.parallel_min_group > 0 &&
                        nq * nc >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (Resolve(nc, queries.dim()) == LocalDpBackend::kKdTree) {
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
  const PackedPanels panels(candidates.rows(), candidates.dim());
  metric.AddEvaluations(
      ForEachBlock(nq, parallel, [&](size_t first, size_t count) {
        const std::span<LocalDeltaBest> mine = best.subspan(first, count);
        LocalDeltaBest block_best[kBlock];
        std::copy(mine.begin(), mine.end(), block_best);
        const uint64_t evals = panels.Scan(
            queries.rows().subspan(first, count), 0, nc,
            [&](size_t b, size_t l) {
              return DenserThan(candidate_rho[l], candidates.id(l),
                                query_rho[first + b], queries.id(first + b));
            },
            [&](size_t b, size_t l, double d_sq) {
              block_best[b].Improve(d_sq, candidates.id(l));
            });
        std::copy_n(block_best, count, mine.begin());
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
  // Two one-sided tree passes re-evaluate shared pairs, so they must both be
  // large enough for pruning to beat the brute half price.
  if (Resolve(std::min(nl, nr), left.dim()) == LocalDpBackend::kKdTree) {
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
  const PackedPanels panels(right.rows(), right.dim());
  metric.AddEvaluations(
      ForEachBlock(nl, false, [&](size_t first, size_t count) {
        return panels.Scan(
            left.rows().subspan(first, count), 0, nr, kKeepAll,
            [&](size_t b, size_t j, double d_sq) {
              const size_t i = first + b;
              if (DenserThan(rho_right[j], right.id(j), rho_left[i],
                             left.id(i))) {
                best_left[i].Improve(d_sq, right.id(j));
              }
              if (DenserThan(rho_left[i], left.id(i), rho_right[j],
                             right.id(j))) {
                best_right[j].Improve(d_sq, left.id(i));
              }
            });
      }));
}

}  // namespace ddp
