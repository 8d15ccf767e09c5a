#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "baselines/dbscan.h"
#include "baselines/kmeans.h"
#include "core/assignment.h"
#include "core/cutoff.h"
#include "core/decision_graph.h"
#include "core/sequential_dp.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "eval/metrics.h"

namespace ddp {
namespace {

mr::Options FastMr() {
  mr::Options o;
  o.num_workers = 2;
  o.num_partitions = 8;
  // CI's low-budget smoke job sets DDP_TEST_MEMORY_BUDGET (e.g. 4096) to
  // force every MapReduce job in this suite through the out-of-core
  // spill/merge path; results must not change (the spill determinism
  // contract), so every assertion below doubles as a spill-path check.
  if (const char* budget = std::getenv("DDP_TEST_MEMORY_BUDGET")) {
    o.memory_budget_bytes = static_cast<uint64_t>(std::atoll(budget));
  }
  // DDP_TEST_EXEC_MODE=fork reruns the whole suite on forked worker
  // processes (CI does this combined with the 4 KiB budget above); every
  // bit-identity assertion then doubles as a multi-process determinism
  // check. A build that cannot fork workers (TSan) fails fork-mode jobs.
  if (const char* mode = std::getenv("DDP_TEST_EXEC_MODE")) {
    if (std::string(mode) == "fork") o.exec_mode = mr::ExecMode::kFork;
  }
  return o;
}

// Full sequential-DP clustering for reference.
Result<ClusterResult> SequentialDpClustering(const Dataset& ds, size_t k,
                                             double percentile = 0.02) {
  CountingMetric metric;
  CutoffOptions cutoff;
  cutoff.percentile = percentile;
  DDP_ASSIGN_OR_RETURN(double dc, ChooseCutoff(ds, metric, cutoff));
  DDP_ASSIGN_OR_RETURN(DpScores scores, ComputeExactDp(ds, dc, metric));
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  return AssignClusters(ds, scores, graph.SelectTopK(k), metric);
}

// ------------------------------------------------- DP quality (Fig. 8)

TEST(IntegrationTest, DpRecoversAggregationShapes) {
  // The paper's headline qualitative claim: DP correctly identifies all 7
  // clusters of the Aggregation data set, including non-oval shapes.
  auto ds = gen::AggregationLike(42);
  ASSERT_TRUE(ds.ok());
  auto clusters = SequentialDpClustering(*ds, 7);
  ASSERT_TRUE(clusters.ok());
  auto ari = eval::AdjustedRandIndex(clusters->assignment, ds->labels());
  ASSERT_TRUE(ari.ok());
  EXPECT_GT(*ari, 0.75) << "DP should recover most of the 7 shaped clusters";
}

TEST(IntegrationTest, DpBeatsKmeansOnShapedData) {
  // K-means assumes oval clusters; on the crescent-containing Aggregation
  // layout DP should score at least as well (Fig. 8(b) vs 8(d)).
  auto ds = gen::AggregationLike(42);
  ASSERT_TRUE(ds.ok());
  auto dp = SequentialDpClustering(*ds, 7);
  ASSERT_TRUE(dp.ok());
  CountingMetric metric;
  baselines::KmeansOptions kopts;
  kopts.k = 7;
  kopts.seed = 1;
  auto km = baselines::RunKmeans(*ds, kopts, metric);
  ASSERT_TRUE(km.ok());
  double dp_ari =
      std::move(eval::AdjustedRandIndex(dp->assignment, ds->labels()))
          .ValueOrDie();
  double km_ari =
      std::move(eval::AdjustedRandIndex(km->assignment, ds->labels()))
          .ValueOrDie();
  EXPECT_GE(dp_ari, km_ari - 0.05);
}

TEST(IntegrationTest, DpNailsClassicShapedSets) {
  // The paper: "we compare the algorithms using 7 other shaped data sets
  // and see similar trends". Three classics as regression anchors: DP must
  // recover them perfectly at the 2% cutoff rule.
  struct Case {
    const char* name;
    Result<Dataset> ds;
    size_t k;
  };
  Case cases[] = {
      {"spiral", gen::SpiralLike(42), 3},
      {"flame", gen::FlameLike(42), 2},
      {"r15", gen::R15Like(42), 15},
  };
  for (Case& c : cases) {
    ASSERT_TRUE(c.ds.ok()) << c.name;
    auto clusters = SequentialDpClustering(*c.ds, c.k);
    ASSERT_TRUE(clusters.ok()) << c.name;
    double ari =
        std::move(eval::AdjustedRandIndex(clusters->assignment, c.ds->labels()))
            .ValueOrDie();
    EXPECT_GT(ari, 0.98) << c.name;
  }
}

// ------------------------------- The three distributed variants agree

TEST(IntegrationTest, ExactVariantsAgreeBitForBit) {
  auto ds = gen::KddLike(3, 400);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto dc = ChooseCutoff(*ds, metric);
  ASSERT_TRUE(dc.ok());

  auto exact = ComputeExactDp(*ds, *dc, metric);
  ASSERT_TRUE(exact.ok());
  BasicDdp::Params bp;
  bp.block_size = 64;
  BasicDdp basic(bp);
  auto basic_scores = basic.ComputeScores(*ds, *dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(basic_scores.ok());
  Eddpc eddpc;
  auto eddpc_scores = eddpc.ComputeScores(*ds, *dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(eddpc_scores.ok());

  EXPECT_EQ(basic_scores->rho, exact->rho);
  EXPECT_EQ(eddpc_scores->rho, exact->rho);
  EXPECT_EQ(basic_scores->delta, exact->delta);
  EXPECT_EQ(eddpc_scores->delta, exact->delta);
  EXPECT_EQ(basic_scores->upslope, exact->upslope);
  EXPECT_EQ(eddpc_scores->upslope, exact->upslope);
}

TEST(IntegrationTest, LshDdpClusteringMatchesBasicDdpClustering) {
  // Sec. VI-C: "the cluster results of Basic-DDP and LSH-DDP are almost the
  // same" — compare end-to-end assignments on an S2-like set.
  auto ds = gen::S2Like(5, 1200);
  ASSERT_TRUE(ds.ok());

  DdpOptions options;
  options.mr = FastMr();
  options.selector = PeakSelector::TopK(15);
  options.cutoff.percentile = 0.02;

  BasicDdp basic;
  auto basic_run = RunDistributedDp(&basic, *ds, options);
  ASSERT_TRUE(basic_run.ok());
  LshDdp lsh;
  auto lsh_run = RunDistributedDp(&lsh, *ds, options);
  ASSERT_TRUE(lsh_run.ok());

  auto agreement = eval::AdjustedRandIndex(basic_run->clusters.assignment,
                                           lsh_run->clusters.assignment);
  ASSERT_TRUE(agreement.ok());
  EXPECT_GT(*agreement, 0.8) << "approximate clustering must track exact";
}

TEST(IntegrationTest, AllThreeVariantsRecoverPlantedClusters) {
  auto ds = gen::GaussianMixture(500, 3, 4, 300.0, 2.0, 303);
  ASSERT_TRUE(ds.ok());
  DdpOptions options;
  options.mr = FastMr();
  options.selector = PeakSelector::TopK(4);

  BasicDdp basic;
  LshDdp lsh;
  Eddpc eddpc;
  for (DistributedDpAlgorithm* algo :
       std::vector<DistributedDpAlgorithm*>{&basic, &lsh, &eddpc}) {
    auto run = RunDistributedDp(algo, *ds, options);
    ASSERT_TRUE(run.ok()) << algo->name();
    auto ari = eval::AdjustedRandIndex(run->clusters.assignment, ds->labels());
    ASSERT_TRUE(ari.ok());
    EXPECT_GT(*ari, 0.95) << algo->name();
  }
}

// ----------------------------------- Decision-graph behaviour (Fig. 7)

TEST(IntegrationTest, LshDecisionGraphKeepsPeaksSelectable) {
  // Fig. 7: LSH-DDP's decision graph shows the same number of selectable
  // peaks; some have delta saturated at the top of the chart.
  auto ds = gen::S2Like(7, 1000);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto dc = ChooseCutoff(*ds, metric);
  ASSERT_TRUE(dc.ok());

  auto exact = ComputeExactDp(*ds, *dc, metric);
  ASSERT_TRUE(exact.ok());
  LshDdp lsh;
  auto approx = lsh.ComputeScores(*ds, *dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(approx.ok());

  DecisionGraph exact_graph = DecisionGraph::FromScores(*exact);
  DecisionGraph approx_graph = DecisionGraph::FromScores(*approx);
  std::vector<PointId> exact_peaks = exact_graph.SelectTopK(15);
  std::vector<PointId> approx_peaks = approx_graph.SelectTopK(15);

  // The peak sets should overlap substantially (identical is not required:
  // a cluster's representative may shift to a near-duplicate point).
  std::set<PointId> e(exact_peaks.begin(), exact_peaks.end());
  size_t common = 0;
  for (PointId p : approx_peaks) common += e.count(p);
  EXPECT_GE(common, 9u) << "at least ~2/3 of the 15 peaks should coincide";
}

// --------------------------------------------------- Cost shape checks

TEST(IntegrationTest, BasicDdpCostGrowsQuadratically) {
  // Fig. 10(c): Basic-DDP distance count is quadratic; doubling N roughly
  // quadruples the work. The DistanceCounter is shared driver-side state
  // incremented inside task bodies, which cannot cross the fork boundary,
  // so this measurement pins the in-process executor regardless of
  // DDP_TEST_EXEC_MODE.
  mr::Options mr_opts = FastMr();
  mr_opts.exec_mode = mr::ExecMode::kInProc;
  CountingMetric unused;
  auto count_for = [&](size_t n) {
    auto ds = gen::BigCrossLike(9, n);
    EXPECT_TRUE(ds.ok());
    DistanceCounter counter;
    CountingMetric metric(&counter);
    BasicDdp::Params params;
    params.block_size = 64;
    BasicDdp algo(params);
    EXPECT_TRUE(algo.ComputeScores(*ds, 20.0, metric, mr_opts, nullptr).ok());
    return counter.value();
  };
  uint64_t n400 = count_for(400);
  uint64_t n800 = count_for(800);
  double ratio = static_cast<double>(n800) / static_cast<double>(n400);
  EXPECT_NEAR(ratio, 4.0, 0.1);
}

TEST(IntegrationTest, LshDdpSavingsOverBasicDoNotShrinkWithScale) {
  // Fig. 10(c)'s operative claim at fixed distribution: LSH-DDP computes a
  // K-fold fewer distances than Basic-DDP (K ~= effective bucket count /
  // 2M), and the savings factor holds or grows as N grows. (On a fixed
  // distribution both costs are ~N^2; LSH's constant is much smaller.)
  // In-process executor pinned: the DistanceCounters are shared driver-side
  // state that forked workers cannot update.
  mr::Options mr_opts = FastMr();
  mr_opts.exec_mode = mr::ExecMode::kInProc;
  auto costs_for = [&](size_t n) {
    auto ds = gen::BigCrossLike(9, n);
    EXPECT_TRUE(ds.ok());
    auto dc = ChooseCutoff(*ds, CountingMetric());
    EXPECT_TRUE(dc.ok());
    DistanceCounter basic_counter, lsh_counter;
    BasicDdp::Params bp;
    bp.block_size = 64;
    BasicDdp basic(bp);
    EXPECT_TRUE(basic
                    .ComputeScores(*ds, *dc, CountingMetric(&basic_counter),
                                   mr_opts, nullptr)
                    .ok());
    LshDdp lsh;
    EXPECT_TRUE(lsh.ComputeScores(*ds, *dc, CountingMetric(&lsh_counter),
                                  mr_opts, nullptr)
                    .ok());
    return std::pair<uint64_t, uint64_t>{basic_counter.value(),
                                         lsh_counter.value()};
  };
  auto [basic400, lsh400] = costs_for(400);
  auto [basic800, lsh800] = costs_for(800);
  double savings400 = static_cast<double>(basic400) / lsh400;
  double savings800 = static_cast<double>(basic800) / lsh800;
  EXPECT_GT(savings400, 1.5);
  EXPECT_GT(savings800, 1.5);
  EXPECT_GT(savings800, 0.8 * savings400)
      << "savings must not collapse as N grows";
}

// ------------------------------------------------------- Repeatability

TEST(IntegrationTest, EndToEndRunsAreDeterministic) {
  auto ds = gen::KddLike(13, 300);
  ASSERT_TRUE(ds.ok());
  DdpOptions options;
  options.mr = FastMr();
  options.dc = 10.0;
  options.selector = PeakSelector::GammaGap();
  LshDdp lsh1, lsh2;
  auto a = RunDistributedDp(&lsh1, *ds, options);
  auto b = RunDistributedDp(&lsh2, *ds, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->scores.rho, b->scores.rho);
  EXPECT_EQ(a->scores.delta, b->scores.delta);
  EXPECT_EQ(a->clusters.assignment, b->clusters.assignment);
}

TEST(IntegrationTest, InjectedTaskFailuresDoNotChangeResults) {
  // Run the full LSH-DDP pipeline with aggressive task-failure injection:
  // every job's map and reduce tasks fail 30% of the time and are retried.
  // The final scores and clustering must be bit-identical to a clean run.
  auto ds = gen::KddLike(23, 250);
  ASSERT_TRUE(ds.ok());
  DdpOptions clean, faulty;
  clean.mr = faulty.mr = FastMr();
  faulty.mr.faults.map_failure_rate = 0.3;
  faulty.mr.faults.reduce_failure_rate = 0.3;
  faulty.mr.max_task_attempts = 16;
  clean.dc = faulty.dc = 10.0;
  clean.selector = faulty.selector = PeakSelector::TopK(5);
  LshDdp algo1, algo2;
  auto a = RunDistributedDp(&algo1, *ds, clean);
  auto b = RunDistributedDp(&algo2, *ds, faulty);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->scores.rho, b->scores.rho);
  EXPECT_EQ(a->scores.delta, b->scores.delta);
  EXPECT_EQ(a->clusters.assignment, b->clusters.assignment);
  // The faulty run must actually have retried something.
  uint64_t retries = 0;
  for (const auto& job : b->stats.jobs) {
    retries += job.map_task_retries + job.reduce_task_retries;
  }
  EXPECT_GT(retries, 0u);
}

TEST(IntegrationTest, WorkerCountDoesNotChangeResults) {
  auto ds = gen::KddLike(17, 250);
  ASSERT_TRUE(ds.ok());
  DdpOptions one, four;
  one.mr.num_workers = 1;
  one.mr.num_partitions = 8;
  four.mr.num_workers = 4;
  four.mr.num_partitions = 8;
  one.dc = four.dc = 10.0;
  one.selector = four.selector = PeakSelector::TopK(5);
  LshDdp algo1, algo2;
  auto a = RunDistributedDp(&algo1, *ds, one);
  auto b = RunDistributedDp(&algo2, *ds, four);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->scores.rho, b->scores.rho);
  EXPECT_EQ(a->scores.delta, b->scores.delta);
  EXPECT_EQ(a->clusters.assignment, b->clusters.assignment);
}

}  // namespace
}  // namespace ddp
