#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "core/assignment.h"
#include "core/cutoff.h"
#include "core/decision_graph.h"
#include "core/dp_types.h"
#include "core/sequential_dp.h"
#include "dataset/generators.h"

namespace ddp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A tiny hand-checkable 1-D dataset: two groups around 0 and 100.
Dataset TwoGroups() {
  Dataset ds(1);
  for (double x : {0.0, 1.0, 2.0, 100.0, 101.0}) {
    ds.Add(std::vector<double>{x});
  }
  return ds;
}

// ------------------------------------------------------------- DenserThan

TEST(DpTypesTest, DenserThanTotalOrder) {
  EXPECT_TRUE(DenserThan(5, 1, 3, 0));    // higher rho wins
  EXPECT_FALSE(DenserThan(3, 0, 5, 1));
  EXPECT_TRUE(DenserThan(5, 0, 5, 1));    // ties: smaller id wins
  EXPECT_FALSE(DenserThan(5, 1, 5, 0));
  EXPECT_FALSE(DenserThan(5, 1, 5, 1));   // irreflexive
}

TEST(DpTypesTest, ScoresResize) {
  DpScores s;
  s.Resize(3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.rho[0], 0u);
  EXPECT_EQ(s.delta[2], kInf);
  EXPECT_EQ(s.upslope[1], kInvalidPointId);
}

TEST(DpTypesTest, ClusterResultSummary) {
  ClusterResult r;
  r.peaks = {0, 3};
  r.assignment = {0, 0, 1, 1, -1};
  std::string s = r.Summary();
  EXPECT_NE(s.find("2 clusters"), std::string::npos);
  EXPECT_NE(s.find("unassigned=1"), std::string::npos);
}

// ---------------------------------------------------------- Sequential DP

TEST(SequentialDpTest, RhoOnHandCheckedData) {
  Dataset ds = TwoGroups();
  CountingMetric metric;
  auto rho = ComputeExactRho(ds, 1.5, metric);
  ASSERT_TRUE(rho.ok());
  // d_c = 1.5: neighbors strictly closer than 1.5.
  // Point 0 (x=0): neighbor {1}. Point 1 (x=1): {0, 2}. Point 2: {1}.
  // Point 3 (x=100): {4}. Point 4: {3}.
  EXPECT_EQ((*rho)[0], 1u);
  EXPECT_EQ((*rho)[1], 2u);
  EXPECT_EQ((*rho)[2], 1u);
  EXPECT_EQ((*rho)[3], 1u);
  EXPECT_EQ((*rho)[4], 1u);
}

TEST(SequentialDpTest, DeltaAndUpslopeOnHandCheckedData) {
  Dataset ds = TwoGroups();
  CountingMetric metric;
  auto scores = ComputeExactDp(ds, 1.5, metric);
  ASSERT_TRUE(scores.ok());
  // Density order: point 1 (rho=2) first, then 0, 2, 3, 4 (rho=1, id asc).
  // Point 1 is the absolute peak: delta = +inf (pre-rectification).
  EXPECT_EQ(scores->delta[1], kInf);
  EXPECT_EQ(scores->upslope[1], kInvalidPointId);
  // Point 0: nearest denser is 1 at distance 1.
  EXPECT_DOUBLE_EQ(scores->delta[0], 1.0);
  EXPECT_EQ(scores->upslope[0], 1u);
  // Point 2: nearest denser is 1 at distance 1.
  EXPECT_DOUBLE_EQ(scores->delta[2], 1.0);
  EXPECT_EQ(scores->upslope[2], 1u);
  // Point 3: denser points are {1, 0, 2} (all with smaller id at same or
  // higher rho): nearest is 2 at distance 98.
  EXPECT_DOUBLE_EQ(scores->delta[3], 98.0);
  EXPECT_EQ(scores->upslope[3], 2u);
  // Point 4 (x=101): denser includes 3 at distance 1.
  EXPECT_DOUBLE_EQ(scores->delta[4], 1.0);
  EXPECT_EQ(scores->upslope[4], 3u);
}

TEST(SequentialDpTest, InputValidation) {
  Dataset empty(2);
  CountingMetric metric;
  EXPECT_FALSE(ComputeExactRho(empty, 1.0, metric).ok());
  Dataset ds = TwoGroups();
  EXPECT_FALSE(ComputeExactRho(ds, 0.0, metric).ok());
  EXPECT_FALSE(ComputeExactRho(ds, -1.0, metric).ok());
  EXPECT_FALSE(
      ComputeDeltaGivenRho(ds, std::vector<uint32_t>{1, 2}, metric).ok());
}

TEST(SequentialDpTest, RhoCountsEachPairOnce) {
  auto ds = gen::GaussianMixture(100, 3, 2, 10.0, 1.0, 1);
  ASSERT_TRUE(ds.ok());
  DistanceCounter counter;
  CountingMetric metric(&counter);
  ASSERT_TRUE(ComputeExactRho(*ds, 1.0, metric).ok());
  EXPECT_EQ(counter.value(), 100u * 99u / 2u);
}

TEST(SequentialDpTest, ExactlyOneAbsolutePeak) {
  auto ds = gen::GaussianMixture(200, 2, 3, 20.0, 1.0, 31);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto scores = ComputeExactDp(*ds, 1.0, metric);
  ASSERT_TRUE(scores.ok());
  size_t inf_count = 0;
  for (double d : scores->delta) {
    if (std::isinf(d)) ++inf_count;
  }
  EXPECT_EQ(inf_count, 1u);
}

TEST(SequentialDpTest, UpslopeIsAlwaysDenser) {
  auto ds = gen::GaussianMixture(200, 3, 4, 30.0, 2.0, 37);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto scores = ComputeExactDp(*ds, 2.0, metric);
  ASSERT_TRUE(scores.ok());
  for (size_t i = 0; i < scores->size(); ++i) {
    PointId u = scores->upslope[i];
    if (u == kInvalidPointId) continue;
    EXPECT_TRUE(DenserThan(scores->rho[u], u, scores->rho[i],
                           static_cast<PointId>(i)));
  }
}

TEST(SequentialDpTest, LocalKernelsMatchGlobalOnFullIdSet) {
  auto ds = gen::GaussianMixture(150, 3, 3, 20.0, 1.5, 41);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  std::vector<PointId> all(ds->size());
  std::iota(all.begin(), all.end(), 0);
  const double dc = 2.0;
  LocalDpResult local_rho = ComputeLocalRho(*ds, all, dc, metric);
  auto global_rho = ComputeExactRho(*ds, dc, metric);
  ASSERT_TRUE(global_rho.ok());
  EXPECT_EQ(local_rho.rho, *global_rho);

  LocalDpResult local_delta =
      ComputeLocalDelta(*ds, all, local_rho.rho, metric);
  auto global = ComputeDeltaGivenRho(*ds, *global_rho, metric);
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(local_delta.delta, global->delta);
  EXPECT_EQ(local_delta.upslope, global->upslope);
}

TEST(SequentialDpTest, LocalRhoOnSubsetUndercounts) {
  auto ds = gen::GaussianMixture(200, 2, 2, 10.0, 2.0, 43);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  const double dc = 2.0;
  auto global = ComputeExactRho(*ds, dc, metric);
  ASSERT_TRUE(global.ok());
  // Any strict subset can only see fewer neighbors.
  std::vector<PointId> subset;
  for (PointId i = 0; i < 100; ++i) subset.push_back(i);
  LocalDpResult local = ComputeLocalRho(*ds, subset, dc, metric);
  for (size_t k = 0; k < subset.size(); ++k) {
    EXPECT_LE(local.rho[k], (*global)[subset[k]]);
  }
}

// ----------------------------------------------------------------- Cutoff

TEST(CutoffTest, ExactPercentileOnTinySet) {
  // 3 points on a line: pairwise distances {1, 1, 2}.
  Dataset ds(1);
  ds.Add(std::vector<double>{0.0});
  ds.Add(std::vector<double>{1.0});
  ds.Add(std::vector<double>{2.0});
  CountingMetric metric;
  CutoffOptions options;
  options.percentile = 0.5;
  options.sample_pairs = 1000;  // covers all 3 pairs exactly
  auto dc = ChooseCutoff(ds, metric, options);
  ASSERT_TRUE(dc.ok());
  EXPECT_DOUBLE_EQ(*dc, 1.0);
}

TEST(CutoffTest, PercentileMonotone) {
  auto ds = gen::GaussianMixture(500, 3, 4, 50.0, 2.0, 51);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  CutoffOptions lo, hi;
  lo.percentile = 0.01;
  hi.percentile = 0.20;
  auto d_lo = ChooseCutoff(*ds, metric, lo);
  auto d_hi = ChooseCutoff(*ds, metric, hi);
  ASSERT_TRUE(d_lo.ok() && d_hi.ok());
  EXPECT_LT(*d_lo, *d_hi);
}

TEST(CutoffTest, TargetsNeighborhoodFraction) {
  // With the 2% percentile, average rho should be around 2% of N.
  auto ds = gen::GaussianMixture(400, 2, 1, 1.0, 1.0, 53);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  CutoffOptions options;
  options.percentile = 0.02;
  options.sample_pairs = 1 << 20;  // exact for this N
  auto dc = ChooseCutoff(*ds, metric, options);
  ASSERT_TRUE(dc.ok());
  auto rho = ComputeExactRho(*ds, *dc, metric);
  ASSERT_TRUE(rho.ok());
  double mean_rho = 0.0;
  for (uint32_t r : *rho) mean_rho += r;
  mean_rho /= static_cast<double>(rho->size());
  double fraction = mean_rho / static_cast<double>(ds->size());
  EXPECT_GT(fraction, 0.005);
  EXPECT_LT(fraction, 0.08);
}

TEST(CutoffTest, Validation) {
  Dataset one(1);
  one.Add(std::vector<double>{0.0});
  CountingMetric metric;
  EXPECT_FALSE(ChooseCutoff(one, metric).ok());
  Dataset ds = TwoGroups();
  CutoffOptions bad;
  bad.percentile = 0.0;
  EXPECT_FALSE(ChooseCutoff(ds, metric, bad).ok());
  bad.percentile = 1.0;
  EXPECT_FALSE(ChooseCutoff(ds, metric, bad).ok());
  CutoffOptions zero_samples;
  zero_samples.sample_pairs = 0;
  EXPECT_FALSE(ChooseCutoff(ds, metric, zero_samples).ok());
}

TEST(CutoffTest, AllDuplicatePointsIsOutOfRange) {
  Dataset ds(1);
  for (int i = 0; i < 5; ++i) ds.Add(std::vector<double>{7.0});
  CountingMetric metric;
  EXPECT_TRUE(ChooseCutoff(ds, metric).status().IsOutOfRange());
}

// --------------------------------------------------------- Decision graph

TEST(DecisionGraphTest, RectifiesInfiniteDelta) {
  DpScores scores;
  scores.Resize(3);
  scores.rho = {5, 3, 1};
  scores.delta = {kInf, 2.0, 1.0};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  EXPECT_DOUBLE_EQ(graph.max_finite_delta(), 2.0);
  EXPECT_DOUBLE_EQ(graph.delta()[0], 2.0);  // inf -> max finite
  EXPECT_DOUBLE_EQ(graph.delta()[1], 2.0);
}

TEST(DecisionGraphTest, AllInfiniteFallsBackToOne) {
  DpScores scores;
  scores.Resize(2);
  scores.rho = {1, 1};
  scores.delta = {kInf, kInf};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  EXPECT_DOUBLE_EQ(graph.delta()[0], 1.0);
}

TEST(DecisionGraphTest, ThresholdSelection) {
  DpScores scores;
  scores.Resize(4);
  scores.rho = {10, 8, 2, 9};
  scores.delta = {5.0, 0.5, 6.0, 4.0};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  auto peaks = graph.SelectByThreshold(5.0, 3.0);
  // rho > 5 and delta > 3: points 0 (10, 5) and 3 (9, 4).
  EXPECT_EQ(peaks, (std::vector<PointId>{0, 3}));
}

TEST(DecisionGraphTest, TopKByGamma) {
  DpScores scores;
  scores.Resize(4);
  scores.rho = {10, 1, 8, 2};
  scores.delta = {10.0, 1.0, 9.0, 30.0};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  // gamma: 100, 1, 72, 60.
  auto top2 = graph.SelectTopK(2);
  EXPECT_EQ(top2, (std::vector<PointId>{0, 2}));
  auto top_all = graph.SelectTopK(10);  // clamped to n
  EXPECT_EQ(top_all.size(), 4u);
}

TEST(DecisionGraphTest, GammaGapFindsObviousPeaks) {
  // Two dominant gamma values, then noise an order of magnitude below.
  DpScores scores;
  scores.Resize(6);
  scores.rho = {100, 90, 5, 4, 3, 2};
  scores.delta = {50.0, 40.0, 1.0, 1.0, 1.0, 1.0};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  auto peaks = graph.SelectByGammaGap();
  EXPECT_EQ(peaks, (std::vector<PointId>{0, 1}));
}

TEST(DecisionGraphTest, GammaGapSinglePointDataset) {
  DpScores scores;
  scores.Resize(1);
  scores.rho = {1};
  scores.delta = {kInf};
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  EXPECT_EQ(graph.SelectByGammaGap().size(), 1u);
}

TEST(DecisionGraphTest, TsvHasHeaderAndAllRows) {
  DpScores scores;
  scores.Resize(2);
  scores.rho = {1, 2};
  scores.delta = {0.5, kInf};
  std::string tsv = DecisionGraph::FromScores(scores).ToTsv();
  EXPECT_EQ(static_cast<size_t>(
                std::count(tsv.begin(), tsv.end(), '\n')),
            3u);  // header + 2 rows
  EXPECT_NE(tsv.find("id\trho\tdelta\tgamma"), std::string::npos);
}

// ------------------------------------------------------------- Assignment

TEST(AssignmentTest, FollowsUpslopeChains) {
  Dataset ds = TwoGroups();
  CountingMetric metric;
  auto scores = ComputeExactDp(ds, 1.5, metric);
  ASSERT_TRUE(scores.ok());
  // Peaks: the absolute peak (1) and point 3 (center of second group).
  std::vector<PointId> peaks = {1, 3};
  auto result = AssignClusters(ds, *scores, peaks, metric);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignment[0], 0);
  EXPECT_EQ(result->assignment[1], 0);
  EXPECT_EQ(result->assignment[2], 0);
  EXPECT_EQ(result->assignment[3], 1);
  EXPECT_EQ(result->assignment[4], 1);
}

TEST(AssignmentTest, ChainThroughIntermediatePoints) {
  // A monotone density ridge: 4 points where each upslopes to the previous.
  DpScores scores;
  scores.Resize(4);
  scores.rho = {10, 8, 6, 4};
  scores.delta = {kInf, 1.0, 1.0, 1.0};
  scores.upslope = {kInvalidPointId, 0, 1, 2};
  Dataset ds(1);
  for (double x : {0.0, 1.0, 2.0, 3.0}) ds.Add(std::vector<double>{x});
  CountingMetric metric;
  auto result = AssignClusters(ds, scores, std::vector<PointId>{0}, metric);
  ASSERT_TRUE(result.ok());
  for (int c : result->assignment) EXPECT_EQ(c, 0);
}

TEST(AssignmentTest, OrphanFallsBackToNearestPeak) {
  // Point 2 has no upslope (an unselected LSH local peak) and is closer to
  // peak 3 than to peak 0.
  Dataset ds(1);
  for (double x : {0.0, 1.0, 50.0, 60.0}) ds.Add(std::vector<double>{x});
  DpScores scores;
  scores.Resize(4);
  scores.rho = {10, 5, 4, 8};
  scores.delta = {kInf, 1.0, kInf, 2.0};
  scores.upslope = {kInvalidPointId, 0, kInvalidPointId, 0};
  CountingMetric metric;
  auto result = AssignClusters(ds, scores, std::vector<PointId>{0, 3}, metric);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignment[2], 1);  // nearest peak is 3 (cluster 1)
}

TEST(AssignmentTest, Validation) {
  Dataset ds = TwoGroups();
  CountingMetric metric;
  auto scores = ComputeExactDp(ds, 1.5, metric);
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(AssignClusters(ds, *scores, std::vector<PointId>{}, metric)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AssignClusters(ds, *scores, std::vector<PointId>{99}, metric)
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(AssignClusters(ds, *scores, std::vector<PointId>{1, 1}, metric)
                  .status()
                  .IsInvalidArgument());
}

TEST(AssignmentTest, EveryPointAssignedWithValidPeaks) {
  auto ds = gen::GaussianMixture(300, 2, 3, 60.0, 2.0, 61);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto scores = ComputeExactDp(*ds, 3.0, metric);
  ASSERT_TRUE(scores.ok());
  DecisionGraph graph = DecisionGraph::FromScores(*scores);
  auto peaks = graph.SelectTopK(3);
  auto result = AssignClusters(*ds, *scores, peaks, metric);
  ASSERT_TRUE(result.ok());
  for (int c : result->assignment) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

}  // namespace
}  // namespace ddp
