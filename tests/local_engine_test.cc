#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/local_dp.h"
#include "core/sequential_dp.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"

namespace ddp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr LocalDpBackend kAllBackends[] = {LocalDpBackend::kBruteForce,
                                           LocalDpBackend::kKdTree};

mr::Options FastMr() {
  mr::Options o;
  o.num_workers = 2;
  o.num_partitions = 8;
  return o;
}

LocalDpEngine EngineWith(LocalDpBackend backend, size_t parallel_min = 4096) {
  LocalDpEngineOptions options;
  options.backend = backend;
  options.parallel_min_group = parallel_min;
  return LocalDpEngine(options);
}

// ------------------------------------------------- Backend name parsing

TEST(LocalDpBackendTest, ParseRoundTrip) {
  for (LocalDpBackend b : kAllBackends) {
    auto parsed = ParseLocalDpBackend(LocalDpBackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, b);
  }
  auto a = ParseLocalDpBackend("auto");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, LocalDpBackend::kAuto);
  EXPECT_FALSE(ParseLocalDpBackend("quadtree").ok());
  EXPECT_FALSE(ParseLocalDpBackend("triangle").ok());
}

TEST(LocalDpBackendTest, AutoResolvesByGroupSizeAndDim) {
  LocalDpEngine engine;  // defaults: kd >= 256 & dim <= 16, else brute
  EXPECT_EQ(engine.Resolve(10, 2), LocalDpBackend::kBruteForce);
  EXPECT_EQ(engine.Resolve(1000, 2), LocalDpBackend::kKdTree);
  EXPECT_EQ(engine.Resolve(1000, 300), LocalDpBackend::kBruteForce);
  EXPECT_EQ(engine.Resolve(300, 300), LocalDpBackend::kBruteForce);
  LocalDpEngineOptions pinned;
  pinned.backend = LocalDpBackend::kKdTree;
  EXPECT_EQ(LocalDpEngine(pinned).Resolve(10, 300), LocalDpBackend::kKdTree);
}

// --------------------------------------------- Cross-backend equivalence

// Every backend (and the parallel path) must produce bit-identical rho,
// delta, and upslope — the determinism contract all aggregation layers
// rely on.
TEST(LocalEngineEquivalenceTest, BackendsAgreeBitIdentically) {
  CountingMetric metric;
  for (size_t dim : {2u, 8u}) {
    for (size_t n : {3u, 17u, 300u, 700u}) {
      auto ds = gen::GaussianMixture(n, dim, 3, 20.0, 3.0, 17 + n + dim);
      ASSERT_TRUE(ds.ok());
      LocalPointView view = LocalPointView::AllOf(*ds);
      const double dc = 2.5;
      for (DensityKernel kernel :
           {DensityKernel::kCutoff, DensityKernel::kGaussian}) {
        std::vector<uint32_t> ref_rho =
            EngineWith(LocalDpBackend::kBruteForce).Rho(view, dc, kernel,
                                                        metric);
        LocalDeltaScores ref_delta =
            EngineWith(LocalDpBackend::kBruteForce).Delta(view, ref_rho,
                                                          metric);
        for (LocalDpBackend backend : kAllBackends) {
          // Sequential and forced-parallel (parallel_min_group=2) paths.
          for (size_t parallel_min : {4096u, 2u}) {
            LocalDpEngine engine = EngineWith(backend, parallel_min);
            std::vector<uint32_t> rho = engine.Rho(view, dc, kernel, metric);
            EXPECT_EQ(rho, ref_rho)
                << "rho mismatch: backend=" << LocalDpBackendName(backend)
                << " n=" << n << " dim=" << dim
                << " kernel=" << static_cast<int>(kernel)
                << " parallel_min=" << parallel_min;
            LocalDeltaScores d = engine.Delta(view, ref_rho, metric);
            EXPECT_EQ(d.delta, ref_delta.delta);
            EXPECT_EQ(d.delta_sq, ref_delta.delta_sq);
            EXPECT_EQ(d.upslope, ref_delta.upslope)
                << "delta mismatch: backend=" << LocalDpBackendName(backend)
                << " n=" << n << " dim=" << dim
                << " parallel_min=" << parallel_min;
          }
        }
      }
    }
  }
}

// The sequential oracle must give the same scores whichever backend is
// selected through its options.
TEST(LocalEngineEquivalenceTest, SequentialDpBackendsAgree) {
  auto ds = gen::GaussianMixture(400, 3, 4, 25.0, 2.0, 41);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto ref = ComputeExactDp(*ds, 2.0, metric);
  ASSERT_TRUE(ref.ok());
  for (LocalDpBackend backend : kAllBackends) {
    SequentialDpOptions options;
    options.backend = backend;
    auto scores = ComputeExactDp(*ds, 2.0, metric, options);
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(scores->rho, ref->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(scores->delta, ref->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(scores->upslope, ref->upslope) << LocalDpBackendName(backend);
  }
}

// LSH-DDP must produce identical scores under every backend, with and
// without the SplitOversized sub-group path (the cap changes the scores, but
// never the backend equivalence).
TEST(LocalEngineEquivalenceTest, LshDdpBackendsAgreeWithAndWithoutSplit) {
  auto ds = gen::GaussianMixture(600, 4, 2, 20.0, 4.0, 23);  // fat buckets
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  for (size_t cap : {0u, 40u}) {
    DpScores ref;
    for (size_t b = 0; b < std::size(kAllBackends); ++b) {
      LshDdp::Params params;
      params.max_bucket_size = cap;
      params.local_backend = kAllBackends[b];
      LshDdp algo(params);
      auto scores = algo.ComputeScores(*ds, 2.0, metric, FastMr(), nullptr);
      ASSERT_TRUE(scores.ok());
      if (b == 0) {
        ref = *std::move(scores);
        continue;
      }
      EXPECT_EQ(scores->rho, ref.rho)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
      EXPECT_EQ(scores->delta, ref.delta)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
      EXPECT_EQ(scores->upslope, ref.upslope)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
    }
  }
}

// Basic-DDP and EDDPC are exact: under every backend they must match the
// sequential oracle bit-for-bit.
TEST(LocalEngineEquivalenceTest, ExactAlgorithmsMatchOracleUnderAllBackends) {
  auto ds = gen::GaussianMixture(350, 3, 3, 25.0, 2.5, 57);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  const double dc = 2.0;
  auto oracle = ComputeExactDp(*ds, dc, metric);
  ASSERT_TRUE(oracle.ok());
  for (LocalDpBackend backend : kAllBackends) {
    BasicDdp::Params bparams;
    bparams.block_size = 64;
    bparams.local_backend = backend;
    BasicDdp basic(bparams);
    auto bscores = basic.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
    ASSERT_TRUE(bscores.ok());
    EXPECT_EQ(bscores->rho, oracle->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(bscores->delta, oracle->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(bscores->upslope, oracle->upslope) << LocalDpBackendName(backend);

    Eddpc::Params eparams;
    eparams.local_backend = backend;
    Eddpc eddpc(eparams);
    auto escores = eddpc.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
    ASSERT_TRUE(escores.ok());
    EXPECT_EQ(escores->rho, oracle->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(escores->delta, oracle->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(escores->upslope, oracle->upslope) << LocalDpBackendName(backend);
  }
}

// ------------------------------------- Packed-panel kernel vs scalar loops

// The engine compares blocks of up to 4 queries with panels of 8 candidates
// at once. These tests pin it to a plain per-pair SquaredEuclidean loop
// written here, in the engine's documented order: outputs bit for bit, and
// counted evaluations exactly (the trip count of the pairs each backend
// evaluates). Group sizes straddle the 4-query block, the 8-member panel and
// the kd/parallel thresholds. They run whichever kernel body the CPU picks;
// BothBodiesMatchScalarDistances runs each body.
constexpr size_t kPanelSizes[] = {0,  1,  2,  7,  8,   9,   15, 16,
                                  17, 63, 64, 65, 511, 512, 513};
constexpr size_t kPanelDims[] = {1, 2, 3, 74, 300};

// Points on a 1/4 grid with every fifth point a copy of an earlier one, so
// distance ties and zero distances exercise the id tie-breaks.
Dataset GridPoints(size_t n, size_t dim, uint64_t seed) {
  Dataset ds(dim);
  uint64_t state = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>((state >> 33) % 16) * 0.25;
  };
  std::vector<double> p(dim);
  for (size_t i = 0; i < n; ++i) {
    if (i % 5 == 4) {
      std::span<const double> copy = ds.point(static_cast<PointId>(i / 2));
      p.assign(copy.begin(), copy.end());
    } else {
      for (double& x : p) x = next();
    }
    ds.Add(p);
  }
  return ds;
}

// A dc that leaves some pairs inside and some outside, at any dim.
double GridDc(size_t dim) { return 0.9 * std::sqrt(static_cast<double>(dim)); }

struct ScalarRho {
  std::vector<uint32_t> rho;
  uint64_t pair_evals = 0;  // sequential half-loop
};

ScalarRho ScalarRhoOf(const LocalPointView& view, double dc,
                      DensityKernel kernel) {
  const size_t n = view.size();
  const bool gaussian = kernel == DensityKernel::kGaussian;
  ScalarRho out;
  out.rho.assign(n, 0);
  std::vector<double> soft(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      ++out.pair_evals;
      const double d_sq = SquaredEuclidean(view.point(i), view.point(j));
      if (gaussian) {
        const double w = GaussianKernelContributionSq(d_sq, dc);
        soft[i] += w;
        soft[j] += w;
      } else if (d_sq < dc * dc) {
        ++out.rho[i];
        ++out.rho[j];
      }
    }
  }
  if (gaussian) {
    for (size_t k = 0; k < n; ++k) out.rho[k] = QuantizeDensity(soft[k]);
  }
  return out;
}

struct ScalarDelta {
  LocalDeltaScores scores;
  uint64_t evals = 0;
};

ScalarDelta ScalarDeltaOf(const LocalPointView& view,
                          const std::vector<uint32_t>& rho) {
  const size_t n = view.size();
  ScalarDelta out;
  out.scores.delta.assign(n, kInf);
  out.scores.delta_sq.assign(n, kInf);
  out.scores.upslope.assign(n, kInvalidPointId);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return DenserThan(rho[a], view.id(a), rho[b], view.id(b));
  });
  for (size_t r = 1; r < n; ++r) {
    const size_t k = order[r];
    LocalDeltaBest best;
    for (size_t s = 0; s < r; ++s) {
      const size_t l = order[s];
      ++out.evals;
      best.Improve(SquaredEuclidean(view.point(k), view.point(l)),
                   view.id(l));
    }
    if (best.upslope == kInvalidPointId) continue;
    out.scores.delta_sq[k] = best.d_sq;
    out.scores.delta[k] = best.Delta();
    out.scores.upslope[k] = best.upslope;
  }
  return out;
}

TEST(PanelKernelTest, RhoAndDeltaMatchScalarLoops) {
  for (size_t dim : kPanelDims) {
    for (size_t n : kPanelSizes) {
      Dataset ds = GridPoints(n, dim, 1000 * dim + n);
      LocalPointView view = LocalPointView::AllOf(ds);
      const double dc = GridDc(dim);
      for (DensityKernel kernel :
           {DensityKernel::kCutoff, DensityKernel::kGaussian}) {
        const ScalarRho brute_rho = ScalarRhoOf(view, dc, kernel);
        const ScalarDelta brute_delta = ScalarDeltaOf(view, brute_rho.rho);
        for (LocalDpBackend backend : kAllBackends) {
          uint64_t kd_evals[2] = {0, 0};
          for (size_t parallel_min : {0u, 32u}) {
            const std::string where =
                std::string(LocalDpBackendName(backend)) +
                " n=" + std::to_string(n) + " dim=" + std::to_string(dim) +
                " kernel=" + std::to_string(static_cast<int>(kernel)) +
                " parallel_min=" + std::to_string(parallel_min);
            LocalDpEngine engine = EngineWith(backend, parallel_min);
            const bool parallel = parallel_min > 0 && n >= parallel_min;
            DistanceCounter rho_counter;
            CountingMetric rho_metric(&rho_counter);
            EXPECT_EQ(engine.Rho(view, dc, kernel, rho_metric), brute_rho.rho)
                << where;
            DistanceCounter delta_counter;
            CountingMetric delta_metric(&delta_counter);
            LocalDeltaScores d = engine.Delta(view, brute_rho.rho,
                                              delta_metric);
            EXPECT_EQ(d.delta, brute_delta.scores.delta) << where;
            EXPECT_EQ(d.delta_sq, brute_delta.scores.delta_sq) << where;
            EXPECT_EQ(d.upslope, brute_delta.scores.upslope) << where;

            // The parallel rho path scans full rows: every pair twice.
            const uint64_t rho_factor = parallel ? 2 : 1;
            switch (backend) {
              case LocalDpBackend::kBruteForce:
                EXPECT_EQ(brute_rho.pair_evals, n * (n - 1) / 2);
                EXPECT_EQ(brute_delta.evals, n * (n - 1) / 2);
                EXPECT_EQ(rho_counter.value(),
                          rho_factor * brute_rho.pair_evals)
                    << where;
                EXPECT_EQ(delta_counter.value(), brute_delta.evals) << where;
                break;
              default:
                // The tree prunes, so only its stability is pinned here:
                // per-query counts never depend on the parallel path.
                kd_evals[parallel_min > 0] =
                    rho_counter.value() + delta_counter.value();
                break;
            }
          }
          EXPECT_EQ(kd_evals[0], kd_evals[1])
              << "kdtree n=" << n << " dim=" << dim;
        }
      }
    }
  }
}

TEST(PanelKernelTest, CrossKernelsMatchScalarLoops) {
  constexpr size_t kRightSizes[] = {1, 7, 8, 9, 65};
  for (size_t dim : kPanelDims) {
    for (size_t nl : kPanelSizes) {
      for (size_t nr : kRightSizes) {
        // Disjoint left and right groups cut from one dataset.
        Dataset ds = GridPoints(nl + nr, dim, 7 * dim + nl + 100 * nr);
        std::vector<PointId> left_ids(nl);
        std::vector<PointId> right_ids(nr);
        std::iota(left_ids.begin(), left_ids.end(), 0);
        std::iota(right_ids.begin(), right_ids.end(),
                  static_cast<PointId>(nl));
        LocalPointView left = LocalPointView::SubsetOf(ds, left_ids);
        LocalPointView right = LocalPointView::SubsetOf(ds, right_ids);
        const double dc = GridDc(dim);
        // Few rho levels, so DenserThan often falls back to the id order.
        std::vector<uint32_t> rho_left(nl);
        std::vector<uint32_t> rho_right(nr);
        for (size_t i = 0; i < nl; ++i) rho_left[i] = (i * 7) % 5;
        for (size_t j = 0; j < nr; ++j) rho_right[j] = (j * 3) % 5;

        // Scalar reference: one SquaredEuclidean per (left, right) pair.
        std::vector<uint32_t> ref_counts_left(nl, 0);
        std::vector<uint32_t> ref_counts_right(nr, 0);
        std::vector<LocalDeltaBest> ref_best_left(nl);
        std::vector<LocalDeltaBest> ref_best_right(nr);
        std::vector<LocalDeltaBest> ref_one_sided(nl);
        uint64_t ref_one_sided_evals = 0;
        for (size_t i = 0; i < nl; ++i) {
          for (size_t j = 0; j < nr; ++j) {
            const double d_sq =
                SquaredEuclidean(left.point(i), right.point(j));
            if (d_sq < dc * dc) {
              ++ref_counts_left[i];
              ++ref_counts_right[j];
            }
            if (DenserThan(rho_right[j], right.id(j), rho_left[i],
                           left.id(i))) {
              ref_best_left[i].Improve(d_sq, right.id(j));
              ref_one_sided[i].Improve(d_sq, right.id(j));
              ++ref_one_sided_evals;
            }
            if (DenserThan(rho_left[i], left.id(i), rho_right[j],
                           right.id(j))) {
              ref_best_right[j].Improve(d_sq, left.id(i));
            }
          }
        }
        auto same = [](const std::vector<LocalDeltaBest>& a,
                       const std::vector<LocalDeltaBest>& b) {
          if (a.size() != b.size()) return false;
          for (size_t k = 0; k < a.size(); ++k) {
            if (a[k].d_sq != b[k].d_sq || a[k].upslope != b[k].upslope) {
              return false;
            }
          }
          return true;
        };

        for (LocalDpBackend backend : kAllBackends) {
          const bool kd = backend == LocalDpBackend::kKdTree;
          for (size_t parallel_min : {0u, 32u}) {
            const std::string where =
                std::string(LocalDpBackendName(backend)) +
                " nl=" + std::to_string(nl) + " nr=" + std::to_string(nr) +
                " dim=" + std::to_string(dim) +
                " parallel_min=" + std::to_string(parallel_min);
            LocalDpEngine engine = EngineWith(backend, parallel_min);

            DistanceCounter counter;
            CountingMetric metric(&counter);
            std::vector<uint32_t> counts_left(nl, 0);
            std::vector<uint32_t> counts_right(nr, 0);
            engine.RhoCross(left, right, dc, metric, counts_left,
                            counts_right);
            EXPECT_EQ(counts_left, ref_counts_left) << where;
            EXPECT_EQ(counts_right, ref_counts_right) << where;
            if (!kd) {
              EXPECT_EQ(counter.value(), nl * nr) << where;
            }

            counter.Reset();
            std::vector<uint32_t> one_sided_counts(nl, 0);
            engine.RhoCross(left, right, dc, metric, one_sided_counts, {});
            EXPECT_EQ(one_sided_counts, ref_counts_left) << where;
            if (!kd) {
              EXPECT_EQ(counter.value(), nl * nr) << where;
            }

            counter.Reset();
            std::vector<LocalDeltaBest> one_sided(nl);
            engine.DeltaCross(left, rho_left, right, rho_right, metric,
                              one_sided);
            EXPECT_TRUE(same(one_sided, ref_one_sided)) << where;
            if (!kd) {
              EXPECT_EQ(counter.value(), ref_one_sided_evals) << where;
            }

            counter.Reset();
            std::vector<LocalDeltaBest> best_left(nl);
            std::vector<LocalDeltaBest> best_right(nr);
            engine.DeltaCrossSymmetric(left, rho_left, right, rho_right,
                                       metric, best_left, best_right);
            EXPECT_TRUE(same(best_left, ref_best_left)) << where;
            EXPECT_TRUE(same(best_right, ref_best_right)) << where;
            if (!kd) {
              EXPECT_EQ(counter.value(), nl * nr) << where;
            }
          }
        }
      }
    }
  }
}

// Each kernel body, run directly on random panels, against scalar
// SquaredEuclidean: every lane of every query of a block of 1 to 4, bit for
// bit. A body that fused the multiply and add would differ in the last bits.
using PanelBody = void (*)(const double* const*, size_t, const double*,
                           size_t, double*);

void ExpectBodyMatchesScalar(PanelBody body, const char* name) {
  using internal::kBlock;
  using internal::kTile;
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> coord(-4.0, 4.0);
  for (size_t dim : {1u, 2u, 3u, 7u, 8u, 9u, 74u, 300u}) {
    for (size_t count = 1; count <= kBlock; ++count) {
      std::vector<std::vector<double>> members(kTile, std::vector<double>(dim));
      std::vector<double> panel(kTile * dim);
      for (size_t t = 0; t < kTile; ++t) {
        for (size_t d = 0; d < dim; ++d) {
          members[t][d] = coord(rng);
          panel[d * kTile + t] = members[t][d];
        }
      }
      std::vector<std::vector<double>> queries(count,
                                               std::vector<double>(dim));
      std::vector<const double*> rows;
      for (std::vector<double>& q : queries) {
        for (double& x : q) x = coord(rng);
        rows.push_back(q.data());
      }
      std::vector<double> out(kBlock * kTile,
                              std::numeric_limits<double>::quiet_NaN());
      body(rows.data(), count, panel.data(), dim, out.data());
      for (size_t b = 0; b < count; ++b) {
        for (size_t t = 0; t < kTile; ++t) {
          const double want = SquaredEuclidean(queries[b], members[t]);
          EXPECT_EQ(std::bit_cast<uint64_t>(out[b * kTile + t]),
                    std::bit_cast<uint64_t>(want))
              << name << " dim=" << dim << " count=" << count << " query=" << b
              << " lane=" << t;
        }
      }
    }
  }
}

TEST(PanelKernelTest, BothBodiesMatchScalarDistances) {
  ExpectBodyMatchesScalar(&internal::PanelDistancesBaseline, "baseline");
#if defined(__x86_64__)
  if (!internal::CpuHasAvx()) {
    GTEST_SKIP() << "no AVX on this CPU; only the baseline body ran";
  }
  ExpectBodyMatchesScalar(&internal::PanelDistancesAvx, "avx");
#else
  GTEST_SKIP() << "the AVX body is compiled only on x86-64";
#endif
}

// ------------------------------------------------------------ Edge cases

TEST(LocalEngineEdgeTest, SinglePointGroup) {
  Dataset ds(2);
  ds.Add(std::vector<double>{1.0, 2.0});
  CountingMetric metric;
  for (LocalDpBackend backend : kAllBackends) {
    LocalDpEngine engine = EngineWith(backend);
    LocalPointView view = LocalPointView::AllOf(ds);
    std::vector<uint32_t> rho =
        engine.Rho(view, 1.0, DensityKernel::kCutoff, metric);
    ASSERT_EQ(rho.size(), 1u);
    EXPECT_EQ(rho[0], 0u);
    LocalDeltaScores d = engine.Delta(view, rho, metric);
    EXPECT_EQ(d.delta[0], kInf);
    EXPECT_EQ(d.delta_sq[0], kInf);
    EXPECT_EQ(d.upslope[0], kInvalidPointId);
  }
}

TEST(LocalEngineEdgeTest, AllCoincidentPoints) {
  const size_t n = 300;  // above kd_min_group so every backend really runs
  Dataset ds(3);
  for (size_t i = 0; i < n; ++i) ds.Add(std::vector<double>{4.0, 5.0, 6.0});
  CountingMetric metric;
  for (LocalDpBackend backend : kAllBackends) {
    LocalDpEngine engine = EngineWith(backend);
    LocalPointView view = LocalPointView::AllOf(ds);
    std::vector<uint32_t> rho =
        engine.Rho(view, 0.5, DensityKernel::kCutoff, metric);
    ASSERT_EQ(rho.size(), n);
    for (uint32_t r : rho) EXPECT_EQ(r, n - 1);
    // Equal rho everywhere: density order is by ascending id, so point 0 is
    // the local peak and everyone else sits at distance 0 from the smallest
    // denser id.
    LocalDeltaScores d = engine.Delta(view, rho, metric);
    EXPECT_EQ(d.delta[0], kInf);
    EXPECT_EQ(d.upslope[0], kInvalidPointId);
    for (size_t i = 1; i < n; ++i) {
      EXPECT_EQ(d.delta[i], 0.0) << LocalDpBackendName(backend) << " " << i;
      EXPECT_EQ(d.delta_sq[i], 0.0);
      EXPECT_EQ(d.upslope[i], 0u) << LocalDpBackendName(backend) << " " << i;
    }
  }
}

TEST(LocalEngineEdgeTest, SubsetViewUsesGlobalIds) {
  auto ds = gen::GaussianMixture(50, 2, 2, 10.0, 2.0, 7);
  ASSERT_TRUE(ds.ok());
  std::vector<PointId> ids;
  for (PointId i = 5; i < 25; ++i) ids.push_back(i);
  CountingMetric metric;
  LocalPointView view = LocalPointView::SubsetOf(*ds, ids);
  ASSERT_EQ(view.size(), ids.size());
  std::vector<uint32_t> rho =
      LocalDpEngine().Rho(view, 2.0, DensityKernel::kCutoff, metric);
  LocalDeltaScores d = LocalDpEngine().Delta(view, rho, metric);
  for (size_t k = 0; k < ids.size(); ++k) {
    if (d.upslope[k] == kInvalidPointId) continue;
    // Upslopes are global point ids drawn from the subset.
    EXPECT_GE(d.upslope[k], 5u);
    EXPECT_LT(d.upslope[k], 25u);
    EXPECT_NE(d.upslope[k], ids[k]);
  }
}

}  // namespace
}  // namespace ddp
