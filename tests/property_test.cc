#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "core/cutoff.h"
#include "core/sequential_dp.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/basic_ddp_jobs.h"
#include "ddp/eddpc_jobs.h"
#include "ddp/records.h"
#include "ddp/lsh_ddp.h"
#include "ddp/lsh_ddp_jobs.h"
#include "ddp/pipeline_jobs.h"
#include "eval/tau.h"
#include "lsh/partitioner.h"
#include "lsh/theory.h"
#include "lsh/tuning.h"
#include "mapreduce/supervisor.h"
#include "server/protocol.h"

namespace ddp {
namespace {

mr::Options FastMr() {
  mr::Options o;
  o.num_workers = 2;
  o.num_partitions = 8;
  return o;
}

// =====================================================================
// Property sweep 1: LSH collision probability matches Lemma 3's formula
// across (distance, width) combinations, validated by Monte Carlo.
// =====================================================================

class CollisionModelTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CollisionModelTest, EmpiricalMatchesTheory) {
  const auto [distance, width] = GetParam();
  Rng rng(1234);
  const int trials = 20000;
  int collisions = 0;
  for (int t = 0; t < trials; ++t) {
    lsh::PStableHash h = lsh::PStableHash::Random(8, width, &rng);
    std::vector<double> p = rng.GaussianVector(8);
    std::vector<double> dir = rng.GaussianVector(8);
    double norm = 0.0;
    for (double x : dir) norm += x * x;
    norm = std::sqrt(norm);
    std::vector<double> q = p;
    for (size_t d = 0; d < 8; ++d) q[d] += distance * dir[d] / norm;
    if (h.Hash(p) == h.Hash(q)) ++collisions;
  }
  double empirical = static_cast<double>(collisions) / trials;
  double theory = lsh::PCollision(distance, width);
  EXPECT_NEAR(empirical, theory, 0.015)
      << "d=" << distance << " w=" << width;
}

INSTANTIATE_TEST_SUITE_P(
    DistanceWidthGrid, CollisionModelTest,
    ::testing::Values(std::make_tuple(0.5, 1.0), std::make_tuple(1.0, 1.0),
                      std::make_tuple(2.0, 1.0), std::make_tuple(0.5, 4.0),
                      std::make_tuple(2.0, 4.0), std::make_tuple(8.0, 4.0),
                      std::make_tuple(1.0, 16.0), std::make_tuple(8.0, 16.0)));

// =====================================================================
// Property sweep 2: the closed-form width solver satisfies Eq. (5) over a
// grid of (accuracy, M, pi).
// =====================================================================

class WidthSolverTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, size_t>> {};

TEST_P(WidthSolverTest, AchievesRequestedAccuracy) {
  const auto [accuracy, layouts, pi] = GetParam();
  const double dc = 3.7;
  auto w = lsh::SolveMinimalWidth(accuracy, layouts, pi, dc);
  ASSERT_TRUE(w.ok());
  EXPECT_GT(*w, 0.0);
  EXPECT_NEAR(lsh::ExpectedRhoAccuracy(*w, pi, layouts, dc), accuracy, 1e-9);
  // Minimality: a slightly narrower width must fall short of the target.
  EXPECT_LT(lsh::ExpectedRhoAccuracy(*w * 0.99, pi, layouts, dc), accuracy);
}

INSTANTIATE_TEST_SUITE_P(
    AccuracyGrid, WidthSolverTest,
    ::testing::Combine(::testing::Values(0.5, 0.8, 0.95, 0.99),
                       ::testing::Values<size_t>(1, 5, 10, 20),
                       ::testing::Values<size_t>(1, 3, 10)));

// =====================================================================
// Property sweep 3: per-layout local rho never exceeds exact rho, on all
// generator families.
// =====================================================================

class RhoUnderestimateTest : public ::testing::TestWithParam<int> {};

TEST_P(RhoUnderestimateTest, LocalRhoIsLowerBoundPerLayout) {
  const int family = GetParam();
  Result<Dataset> ds = [&]() -> Result<Dataset> {
    switch (family) {
      case 0:
        return gen::S2Like(21, 400);
      case 1:
        return gen::KddLike(21, 400);
      case 2:
        return gen::SpatialLike(21, 400);
      default:
        return gen::BigCrossLike(21, 400);
    }
  }();
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto dc_result = ChooseCutoff(*ds, metric);
  ASSERT_TRUE(dc_result.ok());
  const double dc = *dc_result;
  auto exact = ComputeExactRho(*ds, dc, metric);
  ASSERT_TRUE(exact.ok());

  auto part = lsh::MultiLshPartitioner::Create(ds->dim(), 3, 3,
                                               /*width=*/dc * 8, 99);
  ASSERT_TRUE(part.ok());
  for (const auto& layout : part->PartitionAll(*ds)) {
    for (const auto& [key, ids] : layout) {
      LocalDpResult local = ComputeLocalRho(*ds, ids, dc, metric);
      for (size_t k = 0; k < ids.size(); ++k) {
        ASSERT_LE(local.rho[k], (*exact)[ids[k]]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratorFamilies, RhoUnderestimateTest,
                         ::testing::Values(0, 1, 2, 3));

// =====================================================================
// Property sweep 4: Basic-DDP is exact for every (N, block size) combo.
// =====================================================================

class BasicExactnessTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BasicExactnessTest, MatchesSequential) {
  const auto [n, block_size] = GetParam();
  auto ds = gen::GaussianMixture(n, 3, 3, 40.0, 2.0, 55 + n);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  const double dc = 3.0;
  auto exact = ComputeExactDp(*ds, dc, metric);
  ASSERT_TRUE(exact.ok());
  BasicDdp::Params params;
  params.block_size = block_size;
  BasicDdp algo(params);
  auto scores = algo.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->rho, exact->rho);
  EXPECT_EQ(scores->delta, exact->delta);
  EXPECT_EQ(scores->upslope, exact->upslope);
}

INSTANTIATE_TEST_SUITE_P(
    SizeBlockGrid, BasicExactnessTest,
    ::testing::Combine(::testing::Values<size_t>(50, 101, 256),
                       ::testing::Values<size_t>(10, 33, 100, 500)));

// =====================================================================
// Property sweep 5: LSH-DDP invariants across accuracy targets.
// =====================================================================

class LshAccuracySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(LshAccuracySweepTest, RhoUnderestimatesAndTau2TracksTarget) {
  const double accuracy = GetParam();
  auto ds = gen::BigCrossLike(31, 500);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto dc_result = ChooseCutoff(*ds, metric);
  ASSERT_TRUE(dc_result.ok());
  const double dc = *dc_result;
  auto exact = ComputeExactRho(*ds, dc, metric);
  ASSERT_TRUE(exact.ok());

  LshDdp::Params params;
  params.accuracy = accuracy;
  params.lsh.num_layouts = 10;
  params.lsh.pi = 3;
  LshDdp algo(params);
  auto approx = algo.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
  ASSERT_TRUE(approx.ok());

  for (size_t i = 0; i < ds->size(); ++i) {
    ASSERT_LE(approx->rho[i], (*exact)[i]);
  }
  auto tau2 = eval::Tau2(approx->rho, *exact);
  ASSERT_TRUE(tau2.ok());
  // Fig. 9(b): tau2 stays at or above the expected accuracy (with slack for
  // sampling noise on a scaled-down set).
  EXPECT_GT(*tau2, accuracy - 0.15) << "A=" << accuracy;
}

INSTANTIATE_TEST_SUITE_P(AccuracyTargets, LshAccuracySweepTest,
                         ::testing::Values(0.5, 0.7, 0.9, 0.99));

// =====================================================================
// Property sweep 6: DecisionGraph rectification and selector sanity under
// random score vectors.
// =====================================================================

class DecisionGraphPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecisionGraphPropertyTest, RectificationAndSelectorInvariants) {
  Rng rng(GetParam());
  const size_t n = 200;
  DpScores scores;
  scores.Resize(n);
  for (size_t i = 0; i < n; ++i) {
    scores.rho[i] = static_cast<uint32_t>(rng.UniformInt(50));
    scores.delta[i] = rng.Uniform() < 0.05
                          ? std::numeric_limits<double>::infinity()
                          : rng.Uniform(0.0, 10.0);
  }
  DecisionGraph graph = DecisionGraph::FromScores(scores);
  // All rectified deltas are finite and bounded by the max finite delta.
  for (double d : graph.delta()) {
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_LE(d, graph.max_finite_delta());
  }
  // TopK returns k strictly-decreasing-gamma ids.
  auto top = graph.SelectTopK(10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(graph.gamma(top[i - 1]), graph.gamma(top[i]));
  }
  // Threshold selection returns only qualifying points.
  for (PointId p : graph.SelectByThreshold(25.0, 5.0)) {
    EXPECT_GT(graph.rho()[p], 25.0);
    EXPECT_GT(graph.delta()[p], 5.0);
  }
  // GammaGap returns a non-empty prefix of TopK.
  auto peaks = graph.SelectByGammaGap();
  ASSERT_FALSE(peaks.empty());
  auto prefix = graph.SelectTopK(peaks.size());
  EXPECT_EQ(peaks, prefix);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionGraphPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// =====================================================================
// Property sweep 7: serde round-trips random values of every record type
// used by the shuffle.
// =====================================================================

class SerdeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    // Random PointRecord.
    ddprec::PointRecord point;
    point.id = static_cast<PointId>(rng.UniformInt(1u << 31));
    point.coords = rng.GaussianVector(rng.UniformInt(20));
    // Random ScoredPointRecord.
    ddprec::ScoredPointRecord scored;
    scored.id = static_cast<PointId>(rng.UniformInt(1u << 31));
    scored.rho = static_cast<uint32_t>(rng.UniformInt(1u << 20));
    scored.coords = rng.GaussianVector(rng.UniformInt(20));
    // Random DeltaCandidate (sometimes infinite).
    ddprec::DeltaCandidate cand;
    cand.delta_sq = rng.Uniform() < 0.1
                        ? std::numeric_limits<double>::infinity()
                        : rng.Uniform(0.0, 1e9);
    cand.upslope = rng.Uniform() < 0.1
                       ? kInvalidPointId
                       : static_cast<PointId>(rng.UniformInt(1u << 31));

    BufferWriter w;
    Serde<ddprec::PointRecord>::Write(&w, point);
    Serde<ddprec::ScoredPointRecord>::Write(&w, scored);
    Serde<ddprec::DeltaCandidate>::Write(&w, cand);
    BufferReader r(w.data());
    ddprec::PointRecord point2;
    ddprec::ScoredPointRecord scored2;
    ddprec::DeltaCandidate cand2;
    ASSERT_TRUE(Serde<ddprec::PointRecord>::Read(&r, &point2).ok());
    ASSERT_TRUE(Serde<ddprec::ScoredPointRecord>::Read(&r, &scored2).ok());
    ASSERT_TRUE(Serde<ddprec::DeltaCandidate>::Read(&r, &cand2).ok());
    EXPECT_TRUE(r.exhausted());
    EXPECT_EQ(point, point2);
    EXPECT_EQ(scored, scored2);
    EXPECT_EQ(cand, cand2);
  }
}

TEST_P(SerdeFuzzTest, TruncatedPrefixesNeverCrash) {
  Rng rng(GetParam() + 100);
  ddprec::ScoredPointRecord scored;
  scored.id = 12345;
  scored.rho = 678;
  scored.coords = rng.GaussianVector(8);
  BufferWriter w;
  Serde<ddprec::ScoredPointRecord>::Write(&w, scored);
  const std::string& bytes = w.data();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    BufferReader r(bytes.data(), cut);
    ddprec::ScoredPointRecord out;
    Status st = Serde<ddprec::ScoredPointRecord>::Read(&r, &out);
    EXPECT_TRUE(st.IsIoError()) << "cut=" << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzzTest,
                         ::testing::Values(11, 22, 33, 44));

// =====================================================================
// Decoders bound a declared element count by the bytes left before they
// size a container: a short input declaring a huge count is an IoError,
// never a throw from the allocation.
// =====================================================================

// A 9-byte varint declaring 2^63 - 1 elements, then `tail`.
std::string HugeCountThen(const std::string& tail) {
  BufferWriter w;
  w.PutVarint64(static_cast<uint64_t>(std::numeric_limits<int64_t>::max()));
  w.PutRaw(tail.data(), tail.size());
  return w.Release();
}

TEST(DecoderBoundTest, SerdeVectorRejectsCountAboveRemainingBytes) {
  const std::string bytes = HugeCountThen("abc");
  BufferReader r(bytes);
  std::vector<uint32_t> out;
  EXPECT_TRUE(Serde<std::vector<uint32_t>>::Read(&r, &out).IsIoError());
}

TEST(DecoderBoundTest, PointRecordRejectsCoordinateCountAboveRemainingBytes) {
  BufferWriter w;
  w.PutVarint32(7);
  const std::string bytes = w.Release() + HugeCountThen("12345678");
  BufferReader r(bytes);
  ddprec::PointRecord out;
  EXPECT_TRUE(Serde<ddprec::PointRecord>::Read(&r, &out).IsIoError());
}

TEST(DecoderBoundTest,
     ScoredPointRecordRejectsCoordinateCountAboveRemainingBytes) {
  BufferWriter w;
  w.PutVarint32(7);
  w.PutVarint32(3);
  const std::string bytes = w.Release() + HugeCountThen("12345678");
  BufferReader r(bytes);
  ddprec::ScoredPointRecord out;
  EXPECT_TRUE(Serde<ddprec::ScoredPointRecord>::Read(&r, &out).IsIoError());
}

TEST(DecoderBoundTest, MemberOrQueryRejectsCoordinateCountAboveRemainingBytes) {
  BufferWriter w;
  w.PutByte(0);  // a member: no delta bound follows
  w.PutVarint32(7);
  w.PutVarint32(3);
  const std::string bytes = w.Release() + HugeCountThen("12345678");
  BufferReader r(bytes);
  eddpcjobs::MemberOrQuery out;
  EXPECT_TRUE(
      eddpcjobs::MemberOrQuery::DeserializeFrom(&r, &out).IsIoError());
}

// The driver-context decoders: a short blob declaring 2^40 elements.
constexpr uint64_t kHugeCount = uint64_t{1} << 40;

TEST(DecoderBoundTest, CtxDatasetRejectsValueCountAboveRemainingBytes) {
  BufferWriter w;
  w.PutVarint64(2);  // dim
  w.PutVarint64(kHugeCount);
  w.PutDouble(1.0);
  BufferReader r(w.data());
  EXPECT_TRUE(jobctx::DecodeDataset(&r).status().IsIoError());
}

TEST(DecoderBoundTest, AssignJumpCtxRejectsCountsAboveRemainingBytes) {
  BufferWriter huge_assignment;
  huge_assignment.PutVarint64(kHugeCount);
  huge_assignment.PutSignedVarint64(-1);
  EXPECT_TRUE(pipejobs::AssignJumpCtx::DecodeNew(huge_assignment.data())
                  .status()
                  .IsIoError());

  BufferWriter huge_parent;
  huge_parent.PutVarint64(1);
  huge_parent.PutSignedVarint64(-1);
  huge_parent.PutVarint64(kHugeCount);
  huge_parent.PutVarint32(0);
  EXPECT_TRUE(pipejobs::AssignJumpCtx::DecodeNew(huge_parent.data())
                  .status()
                  .IsIoError());
}

// The job-context decoders read each enum from one byte. A byte past the
// enum's last value is refused, never cast to a backend or kernel that does
// not exist.
TEST(DecoderBoundTest, CtxDecodersRejectOutOfRangeEnumBytes) {
  const Dataset dataset =
      Dataset::FromValues(2, {0.0, 1.0, 2.0, 3.0}).ValueOrDie();
  auto lsh_blob = [&](uint8_t kernel, uint8_t backend) {
    lshjobs::LshJobsCtx ctx;
    ctx.dc = 1.0;
    ctx.num_layouts = 1;
    ctx.pi = 1;
    ctx.width = 1.0;
    ctx.kernel = static_cast<DensityKernel>(kernel);
    ctx.backend = static_cast<LocalDpBackend>(backend);
    ctx.dataset = &dataset;
    BufferWriter w;
    Serde<lshjobs::LshJobsCtx>::Write(&w, ctx);
    return w.Release();
  };
  auto basic_blob = [&](uint8_t backend) {
    basicjobs::BasicJobsCtx ctx;
    ctx.dc = 1.0;
    ctx.num_blocks = 1;
    ctx.backend = static_cast<LocalDpBackend>(backend);
    ctx.dataset = &dataset;
    BufferWriter w;
    Serde<basicjobs::BasicJobsCtx>::Write(&w, ctx);
    return w.Release();
  };
  auto eddpc_blob = [&](uint8_t backend) {
    eddpcjobs::EddpcJobsCtx ctx;
    ctx.dc = 1.0;
    ctx.backend = static_cast<LocalDpBackend>(backend);
    ctx.dataset = &dataset;
    BufferWriter w;
    Serde<eddpcjobs::EddpcJobsCtx>::Write(&w, ctx);
    return w.Release();
  };
  const uint8_t kdtree = static_cast<uint8_t>(LocalDpBackend::kKdTree);
  const uint8_t gaussian = static_cast<uint8_t>(DensityKernel::kGaussian);
  EXPECT_TRUE(lshjobs::LshJobsCtx::DecodeNew(lsh_blob(gaussian, kdtree)).ok());
  EXPECT_TRUE(basicjobs::BasicJobsCtx::DecodeNew(basic_blob(kdtree)).ok());
  EXPECT_TRUE(eddpcjobs::EddpcJobsCtx::DecodeNew(eddpc_blob(kdtree)).ok());
  for (uint8_t backend : {3, 255}) {
    Status lsh = lshjobs::LshJobsCtx::DecodeNew(lsh_blob(0, backend)).status();
    Status basic =
        basicjobs::BasicJobsCtx::DecodeNew(basic_blob(backend)).status();
    Status eddpc =
        eddpcjobs::EddpcJobsCtx::DecodeNew(eddpc_blob(backend)).status();
    for (const Status& s : {lsh, basic, eddpc}) {
      EXPECT_TRUE(s.IsIoError()) << int{backend} << ": " << s.ToString();
      EXPECT_NE(s.message().find("backend"), std::string::npos)
          << s.ToString();
    }
  }
  Status kernel = lshjobs::LshJobsCtx::DecodeNew(lsh_blob(2, 0)).status();
  EXPECT_TRUE(kernel.IsIoError()) << kernel.ToString();
  EXPECT_NE(kernel.message().find("kernel"), std::string::npos)
      << kernel.ToString();
}

TEST(DecoderBoundTest, CentroidPartialRejectsSumCountAboveRemainingBytes) {
  BufferWriter w;
  w.PutVarint64(3);  // member count
  w.PutVarint64(kHugeCount);
  w.PutDouble(1.0);
  BufferReader r(w.data());
  pipejobs::CentroidPartial out;
  EXPECT_TRUE(Serde<pipejobs::CentroidPartial>::Read(&r, &out).IsIoError());
}


// Every integer narrower than 64 bits decodes through one range-checked
// read: a value its type cannot hold is an IoError, never a cast (a remote
// worker's id of 2^32 + 5 must not read as 5).
std::string Varint(uint64_t v) {
  BufferWriter w;
  w.PutVarint64(v);
  return w.Release();
}

std::string ZigZag(int64_t v) {
  BufferWriter w;
  w.PutSignedVarint64(v);
  return w.Release();
}

template <typename T>
Status ReadOne(const std::string& bytes) {
  BufferReader r(bytes);
  T out{};
  return Serde<T>::Read(&r, &out);
}

TEST(DecoderBoundTest, NarrowIntegersRejectValuesOutOfRange) {
  const int64_t int32_min = std::numeric_limits<int32_t>::min();
  const int64_t int32_max = std::numeric_limits<int32_t>::max();
  EXPECT_TRUE(ReadOne<uint8_t>(Varint(255)).ok());
  EXPECT_TRUE(ReadOne<uint8_t>(Varint(256)).IsIoError());
  EXPECT_TRUE(ReadOne<uint32_t>(Varint(UINT32_MAX)).ok());
  EXPECT_TRUE(ReadOne<uint32_t>(Varint((uint64_t{1} << 32) + 5)).IsIoError());
  EXPECT_TRUE(ReadOne<int32_t>(ZigZag(int32_min)).ok());
  EXPECT_TRUE(ReadOne<int32_t>(ZigZag(int32_max)).ok());
  EXPECT_TRUE(ReadOne<int32_t>(ZigZag(int32_max + 1)).IsIoError());
  EXPECT_TRUE(ReadOne<int32_t>(ZigZag(int32_min - 1)).IsIoError());
}

// A uint8 field: EDDPC's per-cell nonempty flags.
TEST(DecoderBoundTest, Uint8FieldRejectsValueOutOfRange) {
  BufferWriter w;
  w.PutDouble(1.0);  // dc
  w.PutByte(0);      // backend
  w.PutByte(1);      // use_max_rho_filter
  w.PutVarint64(0);  // pivots
  w.PutVarint64(0);  // cell_radius
  w.PutVarint64(0);  // cell_max_rho
  w.PutVarint64(1);  // cell_nonempty: one flag of 256
  w.PutVarint64(256);
  w.PutVarint64(1);  // dataset dim
  w.PutDoubles({0.5});
  EXPECT_TRUE(
      eddpcjobs::EddpcJobsCtx::DecodeNew(w.data()).status().IsIoError());
}

// uint32 fields: a run's partition and spill index, a setup's phase.
TEST(DecoderBoundTest, Uint32FieldsRejectValuesOutOfRange) {
  const uint64_t huge = (uint64_t{1} << 32) + 5;
  for (int field = 0; field < 2; ++field) {
    // task, attempt, seq, partition, spill_index, length
    BufferWriter w;
    w.PutVarint64(1);
    w.PutVarint64(0);
    w.PutVarint64(0);
    w.PutVarint64(field == 0 ? huge : 0);
    w.PutVarint64(field == 1 ? huge : 0);
    w.PutVarint64(8);
    mr::RunBeginMsg begin;
    EXPECT_TRUE(mr::RunBeginMsg::Decode(w.data(), &begin).IsIoError())
        << field;
  }
  mr::JobSetupMsg setup;
  setup.phase = 1;
  std::string bytes = setup.Encode();
  ASSERT_EQ(bytes.substr(0, 3), std::string("\0\0\1", 3));
  bytes = bytes.substr(0, 2) + Varint(huge) + bytes.substr(3);
  EXPECT_TRUE(mr::JobSetupMsg::Decode(bytes, &setup).IsIoError());
}

// int32 fields: an attempt's status code, a jump message's and a jump
// update's cluster, a served assignment and a pointer-jumping round's.
TEST(DecoderBoundTest, Int32FieldsRejectValuesOutOfRange) {
  const std::string above = ZigZag(int64_t{1} << 31);
  const std::string below = ZigZag(-(int64_t{1} << 31) - 1);
  {
    BufferWriter w;
    w.PutVarint64(1);  // task
    w.PutVarint64(0);  // attempt
    w.PutRaw(above.data(), above.size());
    w.PutString("");
    w.PutDouble(0.0);
    w.PutString("");
    mr::ResultMsg result;
    EXPECT_TRUE(mr::ResultMsg::Decode(w.data(), &result).IsIoError());
  }
  {
    BufferWriter w;
    w.PutByte(0);  // kind
    w.PutRaw(below.data(), below.size());
    w.PutVarint32(1);  // parent
    w.PutVarint32(2);  // asker
    EXPECT_TRUE(ReadOne<pipejobs::JumpMessage>(w.data()).IsIoError());
  }
  {
    BufferWriter w;
    w.PutVarint32(1);  // point
    w.PutRaw(above.data(), above.size());
    w.PutVarint32(2);  // new_parent
    EXPECT_TRUE(ReadOne<pipejobs::JumpUpdate>(w.data()).IsIoError());
  }
  {
    BufferWriter w;
    w.PutDouble(0.5);  // dc
    w.PutVarint64(1);  // num_clusters
    w.PutVarint64(1);  // one assignment
    w.PutRaw(above.data(), above.size());
    w.PutVarint64(0);  // distance_evaluations
    w.PutDouble(0.0);  // total_seconds
    w.PutVarint64(0);  // mr_jobs
    server::JobResultPayload payload;
    EXPECT_TRUE(
        server::JobResultPayload::Decode(w.data(), &payload).IsIoError());
  }
  {
    BufferWriter w;
    w.PutVarint64(1);  // one assignment
    w.PutRaw(below.data(), below.size());
    w.PutVarint64(1);  // one parent
    w.PutVarint32(0);
    EXPECT_TRUE(
        pipejobs::AssignJumpCtx::DecodeNew(w.data()).status().IsIoError());
  }
}

// An LSH ctx sizes the partitioner a worker draws: more than
// kMaxCtxHashCoefficients coefficients is refused before any is drawn.
TEST(DecoderBoundTest, LshCtxRejectsAPartitionerAboveTheCap) {
  const Dataset dataset =
      Dataset::FromValues(2, {0.0, 1.0, 2.0, 3.0}).ValueOrDie();
  lshjobs::LshJobsCtx ctx;
  ctx.dc = 1.0;
  ctx.num_layouts = 1;
  ctx.pi = 1;
  ctx.width = 1.0;
  ctx.dataset = &dataset;
  BufferWriter ok;
  Serde<lshjobs::LshJobsCtx>::Write(&ok, ctx);
  EXPECT_TRUE(lshjobs::LshJobsCtx::DecodeNew(ok.data()).ok());
  for (uint64_t pi : {lshjobs::kMaxCtxHashCoefficients, uint64_t{1} << 40}) {
    ctx.pi = pi;
    BufferWriter w;
    Serde<lshjobs::LshJobsCtx>::Write(&w, ctx);
    Status st = lshjobs::LshJobsCtx::DecodeNew(w.data()).status();
    EXPECT_TRUE(st.IsIoError()) << pi << ": " << st.ToString();
  }
}


// The drivers index arrays by the ids their jobs return, which under
// --exec-mode remote come from whatever dialed the pool. Every id is
// checked first: one past its array is an IoError naming the job.
bool NamesJob(const Status& st) {
  return st.IsIoError() && st.message().find("job test-job") == 0;
}

TEST(ReturnedIdCheckTest, RhoAndDeltaAssemblyRejectIdsPastThePoints) {
  std::vector<uint32_t> rho(3, 0);
  const std::vector<std::pair<PointId, uint32_t>> good = {{2, 7}};
  ASSERT_TRUE(ddprec::AssembleRho(good, "test-job", &rho).ok());
  EXPECT_EQ(rho[2], 7u);
  const std::vector<std::pair<PointId, uint32_t>> bad = {{3, 7}};
  EXPECT_TRUE(NamesJob(ddprec::AssembleRho(bad, "test-job", &rho)));

  DpScores scores;
  scores.Resize(3);
  using Out = std::pair<PointId, ddprec::DeltaCandidate>;
  const std::vector<Out> deltas = {{0, {4.0, 1}}, {1, {9.0, kInvalidPointId}}};
  ASSERT_TRUE(ddprec::AssembleDeltas(deltas, "test-job", &scores).ok());
  EXPECT_EQ(scores.delta[0], 2.0);
  EXPECT_EQ(scores.upslope[0], 1u);
  EXPECT_EQ(scores.upslope[1], kInvalidPointId);
  EXPECT_TRUE(NamesJob(ddprec::AssembleDeltas(std::vector<Out>{{3, {1.0, 0}}},
                                              "test-job", &scores)));
  EXPECT_TRUE(NamesJob(ddprec::AssembleDeltas(std::vector<Out>{{0, {1.0, 3}}},
                                              "test-job", &scores)));
}

TEST(ReturnedIdCheckTest, EddpcBoundsRejectCellsAndPointsOutOfRange) {
  eddpcjobs::EddpcJobsCtx refine;
  refine.pivots = {{0.0}, {1.0}};
  eddpcjobs::BoundOrStats stats;
  stats.is_stats = true;
  stats.cell = 1;
  stats.max_rho = 9;
  eddpcjobs::BoundOrStats bound;
  bound.bound.id = 2;
  std::vector<eddpcjobs::BoundInfo> bounds;
  ASSERT_TRUE(eddpcjobs::SplitBoundsAndStats(
                  std::vector<eddpcjobs::BoundOrStats>{stats, bound}, 3,
                  "test-job", &refine, &bounds)
                  .ok());
  EXPECT_EQ(refine.cell_max_rho, (std::vector<uint32_t>{0, 9}));
  EXPECT_EQ(refine.cell_nonempty, (std::vector<uint8_t>{0, 1}));
  ASSERT_EQ(bounds.size(), 1u);
  stats.cell = 2;
  EXPECT_TRUE(NamesJob(eddpcjobs::SplitBoundsAndStats(
      std::vector<eddpcjobs::BoundOrStats>{stats}, 3, "test-job", &refine,
      &bounds)));
  bound.bound.id = 3;
  EXPECT_TRUE(NamesJob(eddpcjobs::SplitBoundsAndStats(
      std::vector<eddpcjobs::BoundOrStats>{bound}, 3, "test-job", &refine,
      &bounds)));
}

TEST(ReturnedIdCheckTest, JumpUpdatesRejectPointsClustersAndParents) {
  std::vector<int> assignment(3, -1);
  std::vector<PointId> parent = {kInvalidPointId, 0, 1};
  auto apply = [&](pipejobs::JumpUpdate u) {
    return pipejobs::ApplyJumpUpdates(std::vector<pipejobs::JumpUpdate>{u},
                                      /*num_clusters=*/2, "test-job",
                                      &assignment, &parent);
  };
  ASSERT_TRUE(apply({1, 1, kInvalidPointId}).ok());
  EXPECT_EQ(assignment[1], 1);
  EXPECT_EQ(parent[1], kInvalidPointId);
  ASSERT_TRUE(apply({2, -1, 0}).ok());
  EXPECT_EQ(parent[2], 0u);
  ASSERT_TRUE(apply({2, -1, kInvalidPointId}).ok());
  EXPECT_TRUE(NamesJob(apply({3, 0, kInvalidPointId})));
  EXPECT_TRUE(NamesJob(apply({0, 2, kInvalidPointId})));
  EXPECT_TRUE(NamesJob(apply({0, -1, 3})));
}

TEST(ReturnedIdCheckTest, CentroidPartialsRejectIdsAndDimensions) {
  std::vector<std::vector<double>> centroids = {{0.0, 0.0}, {1.0, 1.0}};
  using Out = pipejobs::KmeansIterOut;
  pipejobs::CentroidPartial partial;
  partial.sum = {4.0, 6.0};
  partial.count = 2;
  Result<double> moved = pipejobs::ApplyCentroidPartials(
      std::vector<Out>{{0, partial}}, "test-job", &centroids);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, 13.0);
  EXPECT_EQ(centroids[0], (std::vector<double>{2.0, 3.0}));
  EXPECT_TRUE(NamesJob(pipejobs::ApplyCentroidPartials(
                           std::vector<Out>{{2, partial}}, "test-job",
                           &centroids)
                           .status()));
  partial.sum = {4.0};
  EXPECT_TRUE(NamesJob(pipejobs::ApplyCentroidPartials(
                           std::vector<Out>{{1, partial}}, "test-job",
                           &centroids)
                           .status()));
}

}  // namespace
}  // namespace ddp
