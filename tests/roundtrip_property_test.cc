#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/cutoff.h"
#include "core/sequential_dp.h"
#include "dataset/binary_io.h"
#include "dataset/csv.h"
#include "dataset/generators.h"
#include "dataset/kdtree.h"

namespace ddp {
namespace {

// One instance per generator family, exercised by every property below.
struct Family {
  const char* name;
  Result<Dataset> (*make)(uint64_t seed, size_t n);
  size_t n;
};

class GeneratorFamilyTest : public ::testing::TestWithParam<Family> {
 protected:
  Dataset Make() const {
    const Family& family = GetParam();
    return std::move(family.make(12345, family.n)).ValueOrDie();
  }
};

TEST_P(GeneratorFamilyTest, BinarySerializationRoundTripsExactly) {
  Dataset ds = Make();
  auto loaded = DeserializeDataset(SerializeDataset(ds));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dim(), ds.dim());
  EXPECT_EQ(loaded->values(), ds.values());  // bit-exact doubles
  EXPECT_EQ(loaded->labels(), ds.labels());
}

TEST_P(GeneratorFamilyTest, CsvRoundTripsExactly) {
  // WriteCsvFile prints 17 significant digits, which round-trips IEEE
  // doubles exactly.
  Dataset ds = Make();
  std::string path = (std::filesystem::temp_directory_path() /
                      (std::string("ddp_rt_") + GetParam().name + ".csv"))
                         .string();
  ASSERT_TRUE(WriteCsvFile(path, ds).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values(), ds.values());
  EXPECT_EQ(loaded->labels(), ds.labels());
  std::remove(path.c_str());
}

TEST_P(GeneratorFamilyTest, KdTreeRhoMatchesScanAtChosenCutoff) {
  Dataset ds = Make();
  CountingMetric metric;
  double dc = std::move(ChooseCutoff(ds, metric)).ValueOrDie();
  SequentialDpOptions scan, tree;
  tree.backend = LocalDpBackend::kKdTree;
  auto a = ComputeExactRho(ds, dc, metric, scan);
  auto b = ComputeExactRho(ds, dc, metric, tree);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_P(GeneratorFamilyTest, CutoffSamplerIsStableAcrossSeeds) {
  // Different sampling seeds must land in the same ballpark (the percentile
  // of a fixed distribution).
  Dataset ds = Make();
  CountingMetric metric;
  CutoffOptions a, b;
  a.seed = 1;
  b.seed = 999;
  double dc_a = std::move(ChooseCutoff(ds, metric, a)).ValueOrDie();
  double dc_b = std::move(ChooseCutoff(ds, metric, b)).ValueOrDie();
  EXPECT_GT(dc_b, 0.5 * dc_a);
  EXPECT_LT(dc_b, 2.0 * dc_a);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GeneratorFamilyTest,
    ::testing::Values(Family{"aggregation", &gen::AggregationLike, 300},
                      Family{"s2", &gen::S2Like, 300},
                      Family{"facial", &gen::FacialLike, 200},
                      Family{"kdd", &gen::KddLike, 300},
                      Family{"spatial", &gen::SpatialLike, 300},
                      Family{"bigcross", &gen::BigCrossLike, 300}),
    [](const ::testing::TestParamInfo<Family>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace ddp
