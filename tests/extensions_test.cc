#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/random.h"

#include "core/assignment.h"
#include "core/decision_graph.h"
#include "core/halo.h"
#include "core/kernel.h"
#include "core/sequential_dp.h"
#include "dataset/kdtree.h"
#include "lsh/hash_group.h"
#include "dataset/generators.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "eval/metrics.h"
#include "eval/tau.h"

namespace ddp {
namespace {

mr::Options FastMr() {
  mr::Options o;
  o.num_workers = 2;
  o.num_partitions = 8;
  return o;
}

// ---------------------------------------------------------------- Kernel

TEST(KernelTest, ContributionKnownValues) {
  EXPECT_DOUBLE_EQ(GaussianKernelContribution(0.0, 1.0), 1.0);
  EXPECT_NEAR(GaussianKernelContribution(1.0, 1.0), std::exp(-1.0), 1e-15);
  EXPECT_NEAR(GaussianKernelContribution(2.0, 1.0), std::exp(-4.0), 1e-15);
  // Truncated at 3 d_c by definition.
  EXPECT_DOUBLE_EQ(GaussianKernelContribution(3.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(GaussianKernelContribution(100.0, 1.0), 0.0);
}

TEST(KernelTest, QuantizationRoundsAndSaturates) {
  EXPECT_EQ(QuantizeDensity(0.0), 0u);
  EXPECT_EQ(QuantizeDensity(1.0), static_cast<uint32_t>(kDensityQuantScale));
  EXPECT_EQ(QuantizeDensity(1.0 / kDensityQuantScale), 1u);
  EXPECT_EQ(QuantizeDensity(1e18), 4294967295u);  // saturation
}

TEST(KernelTest, ExactRhoGaussianOnTwoPoints) {
  Dataset ds(1);
  ds.Add(std::vector<double>{0.0});
  ds.Add(std::vector<double>{1.0});
  CountingMetric metric;
  SequentialDpOptions options;
  options.kernel = DensityKernel::kGaussian;
  auto rho = ComputeExactRho(ds, 2.0, metric, options);
  ASSERT_TRUE(rho.ok());
  uint32_t expected = QuantizeDensity(std::exp(-0.25));  // (1/2)^2
  EXPECT_EQ((*rho)[0], expected);
  EXPECT_EQ((*rho)[1], expected);
}

TEST(KernelTest, GaussianBreaksIntegerTies) {
  // With the cutoff kernel many points share integer rho; soft densities
  // should produce strictly more distinct values on continuous data.
  auto ds = gen::GaussianMixture(300, 2, 3, 30.0, 2.0, 5);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  SequentialDpOptions cutoff_opts, gauss_opts;
  gauss_opts.kernel = DensityKernel::kGaussian;
  auto hard = ComputeExactRho(*ds, 2.0, metric, cutoff_opts);
  auto soft = ComputeExactRho(*ds, 2.0, metric, gauss_opts);
  ASSERT_TRUE(hard.ok() && soft.ok());
  std::set<uint32_t> hard_distinct(hard->begin(), hard->end());
  std::set<uint32_t> soft_distinct(soft->begin(), soft->end());
  EXPECT_GT(soft_distinct.size(), hard_distinct.size());
}

TEST(KernelTest, LocalGaussianRhoUnderestimates) {
  auto ds = gen::GaussianMixture(200, 2, 2, 20.0, 2.0, 9);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  SequentialDpOptions gauss;
  gauss.kernel = DensityKernel::kGaussian;
  auto exact = ComputeExactRho(*ds, 2.0, metric, gauss);
  ASSERT_TRUE(exact.ok());
  std::vector<PointId> subset;
  for (PointId i = 0; i < 120; ++i) subset.push_back(i);
  LocalDpResult local =
      ComputeLocalRho(*ds, subset, 2.0, metric, DensityKernel::kGaussian);
  for (size_t k = 0; k < subset.size(); ++k) {
    // Quantization happens after accumulation on both sides; the subset sum
    // of non-negative contributions cannot exceed the full sum, so the
    // quantized values obey <= up to the half-step rounding.
    EXPECT_LE(local.rho[k], (*exact)[subset[k]] + 1);
  }
}

TEST(KernelTest, LshDdpGaussianKernelClustersWell) {
  auto ds = gen::GaussianMixture(400, 2, 4, 300.0, 2.0, 11);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  LshDdp::Params params;
  params.kernel = DensityKernel::kGaussian;
  LshDdp algo(params);
  auto scores = algo.ComputeScores(*ds, 3.0, metric, FastMr(), nullptr);
  ASSERT_TRUE(scores.ok());
  DecisionGraph graph = DecisionGraph::FromScores(*scores);
  auto clusters =
      AssignClusters(*ds, *scores, graph.SelectTopK(4), metric);
  ASSERT_TRUE(clusters.ok());
  auto ari = eval::AdjustedRandIndex(clusters->assignment, ds->labels());
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.95);
}

TEST(KernelTest, GaussianAndCutoffAgreeOnSeparatedBlobs) {
  auto ds = gen::GaussianMixture(300, 2, 3, 400.0, 2.0, 13);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  SequentialDpOptions gauss;
  gauss.kernel = DensityKernel::kGaussian;
  auto hard = ComputeExactDp(*ds, 3.0, metric);
  auto soft = ComputeExactDp(*ds, 3.0, metric, gauss);
  ASSERT_TRUE(hard.ok() && soft.ok());
  auto cluster = [&](const DpScores& scores) {
    DecisionGraph graph = DecisionGraph::FromScores(scores);
    return std::move(AssignClusters(*ds, scores, graph.SelectTopK(3), metric))
        .ValueOrDie()
        .assignment;
  };
  auto agreement = eval::AdjustedRandIndex(cluster(*hard), cluster(*soft));
  ASSERT_TRUE(agreement.ok());
  EXPECT_GT(*agreement, 0.95);
}

// ------------------------------------------------------------------ Halo

TEST(HaloTest, NoForeignNeighborsMeansNoHalo) {
  // Two far-apart blobs: no cross-cluster pair within d_c, so border
  // densities stay 0 and nothing is halo.
  auto ds = gen::GaussianMixture(100, 2, 2, 1000.0, 1.0, 15);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto scores = ComputeExactDp(*ds, 2.0, metric);
  ASSERT_TRUE(scores.ok());
  DecisionGraph graph = DecisionGraph::FromScores(*scores);
  auto clusters = AssignClusters(*ds, *scores, graph.SelectTopK(2), metric);
  ASSERT_TRUE(clusters.ok());
  auto halo = ComputeHalo(*ds, *scores, *clusters, 2.0, metric);
  ASSERT_TRUE(halo.ok());
  for (double b : halo->border_density) EXPECT_EQ(b, 0.0);
  for (bool h : halo->halo) EXPECT_FALSE(h);
}

TEST(HaloTest, TouchingClustersProduceHalo) {
  // Two overlapping blobs: border points (low rho near the boundary) should
  // be flagged.
  Dataset ds(1);
  Rng rng(17);
  for (int i = 0; i < 150; ++i) {
    ds.Add(std::vector<double>{rng.Gaussian(0.0, 1.0)}, 0);
  }
  for (int i = 0; i < 150; ++i) {
    ds.Add(std::vector<double>{rng.Gaussian(5.0, 1.0)}, 1);
  }
  CountingMetric metric;
  auto scores = ComputeExactDp(ds, 0.5, metric);
  ASSERT_TRUE(scores.ok());
  DecisionGraph graph = DecisionGraph::FromScores(*scores);
  auto clusters = AssignClusters(ds, *scores, graph.SelectTopK(2), metric);
  ASSERT_TRUE(clusters.ok());
  auto halo = ComputeHalo(ds, *scores, *clusters, 0.5, metric);
  ASSERT_TRUE(halo.ok());
  size_t halo_count = 0;
  for (bool h : halo->halo) halo_count += h ? 1 : 0;
  EXPECT_GT(halo_count, 0u);
  EXPECT_LT(halo_count, ds.size());  // cores survive
  // Cluster cores (the peaks themselves) must not be halo.
  for (PointId peak : clusters->peaks) EXPECT_FALSE(halo->halo[peak]);
}

TEST(HaloTest, UnassignedPointsAreAlwaysHalo) {
  Dataset ds(1);
  for (double x : {0.0, 1.0, 2.0}) ds.Add(std::vector<double>{x});
  DpScores scores;
  scores.Resize(3);
  scores.rho = {3, 2, 1};
  ClusterResult clusters;
  clusters.peaks = {0};
  clusters.assignment = {0, 0, -1};
  CountingMetric metric;
  auto halo = ComputeHalo(ds, scores, clusters, 1.5, metric);
  ASSERT_TRUE(halo.ok());
  EXPECT_TRUE(halo->halo[2]);
}

TEST(HaloTest, Validation) {
  Dataset ds(1);
  ds.Add(std::vector<double>{0.0});
  DpScores scores;
  scores.Resize(1);
  ClusterResult clusters;
  clusters.assignment = {0};
  CountingMetric metric;
  // No peaks.
  EXPECT_FALSE(ComputeHalo(ds, scores, clusters, 1.0, metric).ok());
  clusters.peaks = {0};
  // Bad d_c.
  EXPECT_FALSE(ComputeHalo(ds, scores, clusters, 0.0, metric).ok());
  // Size mismatch.
  DpScores bad;
  bad.Resize(2);
  EXPECT_FALSE(ComputeHalo(ds, bad, clusters, 1.0, metric).ok());
}

// ---------------------------------------------------------------- KdTree

TEST(KdTreeTest, CountMatchesBruteForce) {
  auto ds = gen::GaussianMixture(400, 3, 4, 30.0, 2.0, 41);
  ASSERT_TRUE(ds.ok());
  auto tree = KdTree::Build(*ds);
  ASSERT_TRUE(tree.ok());
  CountingMetric metric;
  for (double radius : {0.5, 2.0, 10.0}) {
    for (PointId i = 0; i < 50; ++i) {
      size_t brute = 0;
      for (size_t j = 0; j < ds->size(); ++j) {
        if (static_cast<PointId>(j) == i) continue;
        if (Euclidean(ds->point(i), ds->point(static_cast<PointId>(j))) <
            radius) {
          ++brute;
        }
      }
      EXPECT_EQ(tree->CountWithin(ds->point(i), radius, i, metric), brute)
          << "i=" << i << " r=" << radius;
    }
  }
}

TEST(KdTreeTest, FindMatchesBruteForceSet) {
  auto ds = gen::GaussianMixture(300, 2, 3, 20.0, 2.0, 43);
  ASSERT_TRUE(ds.ok());
  auto tree = KdTree::Build(*ds, /*leaf_size=*/4);
  ASSERT_TRUE(tree.ok());
  CountingMetric metric;
  for (PointId i = 0; i < 20; ++i) {
    std::vector<PointId> found = tree->FindWithin(ds->point(i), 3.0, i, metric);
    std::set<PointId> found_set(found.begin(), found.end());
    EXPECT_EQ(found_set.size(), found.size());  // no duplicates
    for (size_t j = 0; j < ds->size(); ++j) {
      if (static_cast<PointId>(j) == i) continue;
      bool within =
          Euclidean(ds->point(i), ds->point(static_cast<PointId>(j))) < 3.0;
      EXPECT_EQ(found_set.count(static_cast<PointId>(j)) > 0, within);
    }
  }
}

TEST(KdTreeTest, Validation) {
  Dataset empty(2);
  EXPECT_FALSE(KdTree::Build(empty).ok());
  Dataset one(1);
  one.Add(std::vector<double>{0.0});
  EXPECT_FALSE(KdTree::Build(one, 0).ok());
  EXPECT_TRUE(KdTree::Build(one, 1).ok());
}

TEST(KdTreeTest, DuplicatePointsHandled) {
  Dataset ds(2);
  for (int i = 0; i < 40; ++i) ds.Add(std::vector<double>{1.0, 2.0});
  auto tree = KdTree::Build(ds, 4);
  ASSERT_TRUE(tree.ok());
  CountingMetric metric;
  EXPECT_EQ(tree->CountWithin(ds.point(0), 0.5, 0, metric), 39u);
}

TEST(KdTreeTest, RhoPathIdenticalAndCheaperInLowDim) {
  auto ds = gen::SpatialLike(47, 2000);
  ASSERT_TRUE(ds.ok());
  const double dc = 10.0;
  DistanceCounter plain_counter, tree_counter;
  SequentialDpOptions plain, with_tree;
  with_tree.backend = LocalDpBackend::kKdTree;
  auto a = ComputeExactRho(*ds, dc, CountingMetric(&plain_counter), plain);
  auto b = ComputeExactRho(*ds, dc, CountingMetric(&tree_counter), with_tree);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_LT(tree_counter.value(), plain_counter.value() / 2);
}

TEST(KdTreeTest, GaussianKernelRhoPathIdentical) {
  auto ds = gen::GaussianMixture(300, 3, 3, 60.0, 2.0, 53);
  ASSERT_TRUE(ds.ok());
  SequentialDpOptions plain, with_tree;
  plain.kernel = with_tree.kernel = DensityKernel::kGaussian;
  with_tree.backend = LocalDpBackend::kKdTree;
  CountingMetric metric;
  auto a = ComputeExactRho(*ds, 2.0, metric, plain);
  auto b = ComputeExactRho(*ds, 2.0, metric, with_tree);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

// ---------------------------------------------------------- Multi-probe

TEST(MultiProbeTest, KeyStructure) {
  Rng rng(3);
  lsh::HashGroup g = lsh::HashGroup::Random(4, 3, 2.0, &rng);
  std::vector<double> p = rng.GaussianVector(4);
  auto keys0 = g.KeysWithProbes(p, 0);
  ASSERT_EQ(keys0.size(), 1u);
  EXPECT_EQ(keys0[0], g.Key(p));
  auto keys2 = g.KeysWithProbes(p, 2);
  ASSERT_EQ(keys2.size(), 3u);
  for (size_t q = 1; q < keys2.size(); ++q) {
    // Each probe differs from the base in exactly one coordinate, by +-1.
    size_t diffs = 0;
    for (size_t t = 0; t < 3; ++t) {
      if (keys2[q][t] != keys2[0][t]) {
        ++diffs;
        EXPECT_EQ(std::abs(keys2[q][t] - keys2[0][t]), 1);
      }
    }
    EXPECT_EQ(diffs, 1u);
  }
  // Probe count clamps at 2*pi.
  EXPECT_EQ(g.KeysWithProbes(p, 100).size(), 1u + 6u);
}

TEST(MultiProbeTest, ImprovesTau2AtFixedLayouts) {
  auto ds = gen::BigCrossLike(61, 800);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto dc_result = ChooseCutoff(*ds, metric);
  ASSERT_TRUE(dc_result.ok());
  auto exact = ComputeExactRho(*ds, *dc_result, metric);
  ASSERT_TRUE(exact.ok());
  auto tau2_with_probes = [&](size_t probes) {
    LshDdp::Params params;
    params.accuracy = 0.6;  // low accuracy: room for probing to help
    params.lsh.num_layouts = 3;
    params.lsh.pi = 3;
    params.probes = probes;
    LshDdp algo(params);
    auto scores = algo.ComputeScores(*ds, *dc_result, metric, FastMr(), nullptr);
    EXPECT_TRUE(scores.ok());
    for (size_t i = 0; i < ds->size(); ++i) {
      EXPECT_LE(scores->rho[i], (*exact)[i]);  // invariant holds with probes
    }
    return std::move(eval::Tau2(scores->rho, *exact)).ValueOrDie();
  };
  double base = tau2_with_probes(0);
  double probed = tau2_with_probes(2);
  EXPECT_GE(probed, base - 1e-12);
}

TEST(MultiProbeTest, ProbesIncreaseShuffleProportionally) {
  auto ds = gen::KddLike(67, 400);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto run_with = [&](size_t probes) {
    LshDdp::Params params;
    params.probes = probes;
    LshDdp algo(params);
    mr::RunStats stats;
    EXPECT_TRUE(algo.ComputeScores(*ds, 10.0, metric, FastMr(), &stats).ok());
    return stats.jobs[0].shuffle_records;
  };
  uint64_t base = run_with(0);
  uint64_t probed = run_with(1);
  EXPECT_EQ(probed, 2 * base);  // one extra bucket per layout
}

// --------------------------------------------- Bucket splitting (skew)

TEST(BucketSplitTest, CapReducesDistanceWork) {
  auto ds = gen::GaussianMixture(600, 4, 2, 20.0, 4.0, 23);  // fat buckets
  ASSERT_TRUE(ds.ok());
  auto cost_with_cap = [&](size_t cap) {
    LshDdp::Params params;
    params.max_bucket_size = cap;
    LshDdp algo(params);
    DistanceCounter counter;
    EXPECT_TRUE(algo.ComputeScores(*ds, 2.0, CountingMetric(&counter),
                                   FastMr(), nullptr)
                    .ok());
    return counter.value();
  };
  uint64_t uncapped = cost_with_cap(0);
  uint64_t capped = cost_with_cap(40);
  EXPECT_LT(capped, uncapped);
}

TEST(BucketSplitTest, RhoStillUnderestimates) {
  auto ds = gen::GaussianMixture(400, 3, 3, 30.0, 3.0, 29);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto exact = ComputeExactRho(*ds, 2.0, metric);
  ASSERT_TRUE(exact.ok());
  LshDdp::Params params;
  params.max_bucket_size = 30;
  LshDdp algo(params);
  auto approx = algo.ComputeScores(*ds, 2.0, metric, FastMr(), nullptr);
  ASSERT_TRUE(approx.ok());
  for (size_t i = 0; i < ds->size(); ++i) {
    EXPECT_LE(approx->rho[i], (*exact)[i]);
  }
}

TEST(BucketSplitTest, DeterministicAndStillClusters) {
  auto ds = gen::GaussianMixture(500, 2, 4, 400.0, 2.0, 31);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  LshDdp::Params params;
  params.max_bucket_size = 50;
  LshDdp a(params), b(params);
  auto ra = a.ComputeScores(*ds, 4.0, metric, FastMr(), nullptr);
  auto rb = b.ComputeScores(*ds, 4.0, metric, FastMr(), nullptr);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->rho, rb->rho);
  EXPECT_EQ(ra->delta, rb->delta);
  DecisionGraph graph = DecisionGraph::FromScores(*ra);
  auto clusters = AssignClusters(*ds, *ra, graph.SelectTopK(4), metric);
  ASSERT_TRUE(clusters.ok());
  auto ari = eval::AdjustedRandIndex(clusters->assignment, ds->labels());
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.9);
}

// ------------------------------------------- EDDPC published-filter mode

TEST(EddpcVariantTest, PublishedFilterIsStillExact) {
  auto ds = gen::GaussianMixture(300, 3, 4, 60.0, 2.0, 19);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  const double dc = 3.0;
  auto exact = ComputeExactDp(*ds, dc, metric);
  ASSERT_TRUE(exact.ok());
  Eddpc::Params params;
  params.use_max_rho_filter = false;
  Eddpc algo(params);
  auto scores = algo.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->rho, exact->rho);
  EXPECT_EQ(scores->delta, exact->delta);
  EXPECT_EQ(scores->upslope, exact->upslope);
}

TEST(EddpcVariantTest, MaxRhoFilterReducesShuffleAndDistances) {
  auto ds = gen::KddLike(21, 600);
  ASSERT_TRUE(ds.ok());
  CountingMetric unused;
  auto dc = ChooseCutoff(*ds, unused);
  ASSERT_TRUE(dc.ok());
  auto run = [&](bool filter) {
    Eddpc::Params params;
    params.use_max_rho_filter = filter;
    Eddpc algo(params);
    DistanceCounter counter;
    mr::RunStats stats;
    EXPECT_TRUE(algo.ComputeScores(*ds, *dc, CountingMetric(&counter),
                                   FastMr(), &stats)
                    .ok());
    return std::pair<uint64_t, uint64_t>{stats.TotalShuffleBytes(),
                                         counter.value()};
  };
  auto [shuffle_off, dist_off] = run(false);
  auto [shuffle_on, dist_on] = run(true);
  EXPECT_LE(shuffle_on, shuffle_off);
  EXPECT_LE(dist_on, dist_off);
}

}  // namespace
}  // namespace ddp
