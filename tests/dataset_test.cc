#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/serde.h"
#include "dataset/binary_io.h"
#include "dataset/csv.h"
#include "dataset/dataset.h"
#include "dataset/distance.h"
#include "dataset/generators.h"
#include "dataset/sharded_io.h"

namespace ddp {
namespace {

// ---------------------------------------------------------------- Dataset

TEST(DatasetTest, AddAndAccess) {
  Dataset ds(2);
  PointId a = ds.Add(std::vector<double>{1.0, 2.0});
  PointId b = ds.Add(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.point(0)[1], 2.0);
  EXPECT_EQ(ds.point(1)[0], 3.0);
}

TEST(DatasetTest, FromValuesValidatesMultiple) {
  auto ok = Dataset::FromValues(3, {1, 2, 3, 4, 5, 6});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);
  auto bad = Dataset::FromValues(3, {1, 2, 3, 4});
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  auto zero_dim = Dataset::FromValues(0, {});
  EXPECT_TRUE(zero_dim.status().IsInvalidArgument());
}

TEST(DatasetTest, LabelsTrackPoints) {
  Dataset ds(1);
  ds.Add(std::vector<double>{0.0}, 5);
  ds.Add(std::vector<double>{1.0}, 7);
  EXPECT_TRUE(ds.has_labels());
  EXPECT_EQ(ds.label(0), 5);
  EXPECT_EQ(ds.label(1), 7);
}

TEST(DatasetTest, UnlabeledReportsMinusOne) {
  Dataset ds(1);
  ds.Add(std::vector<double>{0.0});
  EXPECT_FALSE(ds.has_labels());
  EXPECT_EQ(ds.label(0), -1);
}

TEST(DatasetTest, BoundingBox) {
  Dataset ds(2);
  ds.Add(std::vector<double>{-1.0, 5.0});
  ds.Add(std::vector<double>{3.0, -2.0});
  std::vector<double> lo, hi;
  ASSERT_TRUE(ds.BoundingBox(&lo, &hi).ok());
  EXPECT_EQ(lo[0], -1.0);
  EXPECT_EQ(lo[1], -2.0);
  EXPECT_EQ(hi[0], 3.0);
  EXPECT_EQ(hi[1], 5.0);
}

TEST(DatasetTest, BoundingBoxEmptyErrors) {
  Dataset ds(2);
  std::vector<double> lo, hi;
  EXPECT_TRUE(ds.BoundingBox(&lo, &hi).IsInvalidArgument());
}

TEST(DatasetTest, SubsetCarriesLabels) {
  Dataset ds(1);
  for (int i = 0; i < 5; ++i) {
    ds.Add(std::vector<double>{static_cast<double>(i)}, i * 10);
  }
  std::vector<PointId> ids = {4, 0, 2};
  Dataset sub = ds.Subset(ids);
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.point(0)[0], 4.0);
  EXPECT_EQ(sub.label(0), 40);
  EXPECT_EQ(sub.label(2), 20);
}

// --------------------------------------------------------------- Distance

TEST(DistanceTest, EuclideanKnownValues) {
  std::vector<double> a = {0.0, 0.0};
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(Euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclidean(a, b), 25.0);
}

TEST(DistanceTest, CountingMetricCountsEvaluations) {
  DistanceCounter counter;
  CountingMetric metric(&counter);
  std::vector<double> a = {1.0}, b = {2.0};
  metric.Distance(a, b);
  metric.SquaredDistance(a, b);
  metric.AddEvaluations(10);
  EXPECT_EQ(counter.value(), 12u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(DistanceTest, NullCounterIsSafe) {
  CountingMetric metric;
  std::vector<double> a = {1.0}, b = {4.0};
  EXPECT_DOUBLE_EQ(metric.Distance(a, b), 3.0);
  metric.AddEvaluations(5);  // no crash
}

TEST(DistanceTest, MetricSymmetryAndIdentity) {
  CountingMetric metric;
  std::vector<double> a = {1.0, -2.0, 0.5}, b = {0.0, 4.0, 2.5};
  EXPECT_DOUBLE_EQ(metric.Distance(a, b), metric.Distance(b, a));
  EXPECT_DOUBLE_EQ(metric.Distance(a, a), 0.0);
}

// -------------------------------------------------------------------- CSV

TEST(CsvTest, ParseBasic) {
  auto ds = ParseCsv("1.0,2.0\n3.0,4.0\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dim(), 2u);
  EXPECT_EQ(ds->point(1)[1], 4.0);
}

TEST(CsvTest, ParseMixedSeparatorsAndComments) {
  auto ds = ParseCsv("# header comment\n1 2\t3\n\n4,5,6\n");
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dim(), 3u);
}

TEST(CsvTest, ParseWithLabelColumn) {
  CsvOptions opts;
  opts.last_column_is_label = true;
  auto ds = ParseCsv("1.0,2.0,0\n3.0,4.0,1\n", opts);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 2u);
  EXPECT_TRUE(ds->has_labels());
  EXPECT_EQ(ds->label(1), 1);
}

TEST(CsvTest, InconsistentWidthIsError) {
  auto ds = ParseCsv("1,2\n1,2,3\n");
  EXPECT_TRUE(ds.status().IsIoError());
}

TEST(CsvTest, MalformedNumberIsError) {
  auto ds = ParseCsv("1,abc\n");
  EXPECT_TRUE(ds.status().IsIoError());
}

TEST(CsvTest, EmptyInputIsError) {
  EXPECT_TRUE(ParseCsv("").status().IsIoError());
  EXPECT_TRUE(ParseCsv("# only comments\n").status().IsIoError());
}

TEST(CsvTest, FileRoundTrip) {
  Dataset ds(2);
  ds.Add(std::vector<double>{1.5, -2.25}, 0);
  ds.Add(std::vector<double>{1e-12, 3e8}, 1);
  std::string path =
      (std::filesystem::temp_directory_path() / "ddp_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(path, ds).ok());
  CsvOptions opts;
  opts.last_column_is_label = true;
  auto loaded = ReadCsvFile(path, opts);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_DOUBLE_EQ(loaded->point(0)[0], 1.5);
  EXPECT_DOUBLE_EQ(loaded->point(1)[1], 3e8);
  EXPECT_EQ(loaded->label(1), 1);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadCsvFile("/nonexistent/nowhere.csv").status().IsIoError());
}

// -------------------------------------------------------------- Binary IO

TEST(BinaryIoTest, RoundTripLabeled) {
  Dataset ds(3);
  ds.Add(std::vector<double>{1.0, -2.5, 3e100}, 4);
  ds.Add(std::vector<double>{0.0, 1e-300, -0.0}, -1);
  std::string bytes = SerializeDataset(ds);
  auto loaded = DeserializeDataset(bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values(), ds.values());
  EXPECT_EQ(loaded->labels(), ds.labels());
}

TEST(BinaryIoTest, RoundTripUnlabeled) {
  Dataset ds(2);
  ds.Add(std::vector<double>{1.0, 2.0});
  auto loaded = DeserializeDataset(SerializeDataset(ds));
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_labels());
  EXPECT_EQ(loaded->values(), ds.values());
}

TEST(BinaryIoTest, RejectsBadMagicAndTruncation) {
  Dataset ds(1);
  ds.Add(std::vector<double>{1.0});
  std::string bytes = SerializeDataset(ds);
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_TRUE(DeserializeDataset(bad).status().IsIoError());
  EXPECT_TRUE(
      DeserializeDataset(bytes.substr(0, bytes.size() - 3)).status().IsIoError());
  EXPECT_TRUE(DeserializeDataset(bytes + "junk").status().IsIoError());
}

TEST(BinaryIoTest, FileRoundTripMatchesGenerator) {
  auto ds = gen::KddLike(9, 300);
  ASSERT_TRUE(ds.ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "ddp_bin_test.ddpb").string();
  ASSERT_TRUE(WriteBinaryFile(path, *ds).ok());
  auto loaded = ReadBinaryFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->values(), ds->values());
  EXPECT_EQ(loaded->labels(), ds->labels());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(ReadBinaryFile("/nonexistent/x.ddpb").status().IsIoError());
}

TEST(BinaryIoTest, ChecksumCatchesFlippedBit) {
  Dataset ds(2);
  ds.Add(std::vector<double>{1.0, 2.0}, 3);
  ds.Add(std::vector<double>{4.0, 5.0}, 6);
  std::string bytes = SerializeDataset(ds);
  ASSERT_TRUE(DeserializeDataset(bytes).ok());
  // Flip one bit in the value block: a corruption v1 would load silently.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x20;
  Status st = DeserializeDataset(corrupt).status();
  EXPECT_TRUE(st.IsIoError());
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(BinaryIoTest, StillReadsVersion1Files) {
  // Hand-crafted v1 image (no CRC trailer), as PR-seed-era writers emitted.
  BufferWriter w;
  w.PutRaw("DDPB", 4);
  w.PutVarint32(1);  // version
  w.PutVarint64(2);  // dim
  w.PutVarint64(1);  // n
  w.PutByte(1);      // labeled
  w.PutDouble(1.5);
  w.PutDouble(-2.5);
  w.PutSignedVarint64(-7);
  auto loaded = DeserializeDataset(w.data());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 1u);
  EXPECT_EQ(loaded->point(0)[0], 1.5);
  EXPECT_EQ(loaded->point(0)[1], -2.5);
  EXPECT_EQ(loaded->label(0), -7);
}

TEST(BinaryIoTest, PeekReadsHeaderOnly) {
  auto ds = gen::KddLike(3, 200);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  std::string path =
      (std::filesystem::temp_directory_path() / "ddp_peek_test.ddpb").string();
  ASSERT_TRUE(WriteBinaryFile(path, *ds).ok());
  auto info = PeekBinaryFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, 2u);
  EXPECT_EQ(info->dim, ds->dim());
  EXPECT_EQ(info->num_points, ds->size());
  EXPECT_EQ(info->has_labels, ds->has_labels());
  std::remove(path.c_str());
}

// ------------------------------------------------------------- Sharded IO

class ShardedIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "ddp_sharded_test")
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ShardedIoTest, WriteReadRoundTripPreservesGlobalOrder) {
  auto ds = gen::KddLike(11, 257);  // deliberately not a multiple of 50
  ASSERT_TRUE(ds.ok());
  auto paths = WriteShardedDataset(dir_ + "/kdd", *ds, 50);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  EXPECT_EQ(paths->size(), 6u);  // 5 full shards + 7-point remainder

  auto reader = ShardedDatasetReader::OpenDirectory(dir_);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->dim(), ds->dim());
  EXPECT_EQ(reader->total_points(), ds->size());
  EXPECT_EQ(reader->num_shards(), 6u);
  EXPECT_TRUE(reader->has_labels());

  // ReadAll reproduces the unsharded dataset exactly, ids included.
  auto all = reader->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->values(), ds->values());
  EXPECT_EQ(all->labels(), ds->labels());

  // Streaming visits points in global id order with correct bases.
  uint64_t expect_base = 0;
  Status st = reader->ForEachShard(
      [&](const Dataset& shard, uint64_t base) -> Status {
        EXPECT_EQ(base, expect_base);
        for (PointId i = 0; i < shard.size(); ++i) {
          EXPECT_EQ(shard.point(i)[0], ds->point(base + i)[0]);
        }
        expect_base += shard.size();
        return Status::OK();
      });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(expect_base, ds->size());
}

TEST_F(ShardedIoTest, ContentDigestIsStableAndByteSensitive) {
  auto ds = gen::KddLike(11, 120);
  ASSERT_TRUE(ds.ok());
  auto paths = WriteShardedDataset(dir_ + "/kdd", *ds, 50);
  ASSERT_TRUE(paths.ok());

  auto reader = ShardedDatasetReader::OpenDirectory(dir_);
  ASSERT_TRUE(reader.ok());
  auto digest = reader->ContentDigest();
  ASSERT_TRUE(digest.ok()) << digest.status().ToString();
  // "crc32:<8 hex>.<total bytes>" — rendered, greppable, fixed-width crc.
  EXPECT_EQ(digest->rfind("crc32:", 0), 0u);
  EXPECT_EQ(digest->find('.'), 14u);

  // The free function over the directory agrees with the open reader, and
  // a second pass is stable.
  auto again = DatasetContentDigest(dir_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *digest);

  // A single-byte flip in any shard changes the digest.
  {
    std::fstream f((*paths)[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(32);
    char b = 0;
    f.seekg(32);
    f.get(b);
    f.seekp(32);
    f.put(static_cast<char>(b ^ 1));
  }
  auto flipped = DatasetContentDigest(dir_);
  ASSERT_TRUE(flipped.ok());
  EXPECT_NE(*flipped, *digest);

  // Unreadable path errors instead of digesting nothing.
  EXPECT_FALSE(DatasetContentDigest(dir_ + "/missing.ddpb").ok());
}

// A DDPB v2 file ends in the CRC32 of its content, and a CRC32 over a message
// followed by its own CRC32 is one constant. The digest must leave the
// trailer out, or every equal-size file, and every directory of equal-size
// shards, would share one digest (and one server cache entry).
TEST_F(ShardedIoTest, EqualSizeDatasetsGetDifferentDigests) {
  auto a = gen::KddLike(11, 120);
  auto b = gen::KddLike(12, 120);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/a.ddpb", *a).ok());
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/b.ddpb", *b).ok());
  ASSERT_EQ(std::filesystem::file_size(dir_ + "/a.ddpb"),
            std::filesystem::file_size(dir_ + "/b.ddpb"));
  auto file_a = DatasetContentDigest(dir_ + "/a.ddpb");
  auto file_b = DatasetContentDigest(dir_ + "/b.ddpb");
  ASSERT_TRUE(file_a.ok());
  ASSERT_TRUE(file_b.ok());
  EXPECT_NE(*file_a, *file_b);

  std::filesystem::create_directories(dir_ + "/sa");
  std::filesystem::create_directories(dir_ + "/sb");
  ASSERT_TRUE(WriteShardedDataset(dir_ + "/sa/kdd", *a, 50).ok());
  ASSERT_TRUE(WriteShardedDataset(dir_ + "/sb/kdd", *b, 50).ok());
  auto dir_a = DatasetContentDigest(dir_ + "/sa");
  auto dir_b = DatasetContentDigest(dir_ + "/sb");
  ASSERT_TRUE(dir_a.ok());
  ASSERT_TRUE(dir_b.ok());
  EXPECT_NE(*dir_a, *dir_b);
}

TEST_F(ShardedIoTest, RefusesDimensionMismatch) {
  Dataset two(2);
  two.Add(std::vector<double>{1.0, 2.0});
  Dataset three(3);
  three.Add(std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/a-00000.ddpb", two).ok());
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/a-00001.ddpb", three).ok());
  Status st = ShardedDatasetReader::OpenDirectory(dir_).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("dimension"), std::string::npos)
      << st.ToString();
}

TEST_F(ShardedIoTest, RefusesLabelFlagMismatch) {
  Dataset labeled(2);
  labeled.Add(std::vector<double>{1.0, 2.0}, 1);
  Dataset unlabeled(2);
  unlabeled.Add(std::vector<double>{3.0, 4.0});
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/b-00000.ddpb", labeled).ok());
  ASSERT_TRUE(WriteBinaryFile(dir_ + "/b-00001.ddpb", unlabeled).ok());
  Status st = ShardedDatasetReader::OpenDirectory(dir_).status();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("unlabeled"), std::string::npos)
      << st.ToString();
}

TEST_F(ShardedIoTest, EmptyDirectoryIsAnError) {
  EXPECT_FALSE(ShardedDatasetReader::OpenDirectory(dir_).ok());
  EXPECT_FALSE(ShardedDatasetReader::Open({}).ok());
}

// --------------------------------------------------------------- Generators

TEST(GeneratorsTest, GaussianMixtureShapeAndLabels) {
  auto ds = gen::GaussianMixture(300, 5, 3, 100.0, 1.0, 1);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 300u);
  EXPECT_EQ(ds->dim(), 5u);
  ASSERT_TRUE(ds->has_labels());
  std::set<int> labels(ds->labels().begin(), ds->labels().end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(GeneratorsTest, GaussianMixtureValidatesArgs) {
  EXPECT_FALSE(gen::GaussianMixture(0, 2, 2, 1, 1, 1).ok());
  EXPECT_FALSE(gen::GaussianMixture(10, 0, 2, 1, 1, 1).ok());
  EXPECT_FALSE(gen::GaussianMixture(10, 2, 0, 1, 1, 1).ok());
}

TEST(GeneratorsTest, AggregationLikeMatchesPaperShape) {
  auto ds = gen::AggregationLike(42);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 788u);
  EXPECT_EQ(ds->dim(), 2u);
  std::set<int> labels(ds->labels().begin(), ds->labels().end());
  EXPECT_EQ(labels.size(), 7u);  // seven ground-truth clusters
}

TEST(GeneratorsTest, AggregationLikeDeterministicInSeed) {
  auto a = gen::AggregationLike(42);
  auto b = gen::AggregationLike(42);
  auto c = gen::AggregationLike(43);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->values(), b->values());
  EXPECT_NE(a->values(), c->values());
}

TEST(GeneratorsTest, S2LikeShape) {
  auto ds = gen::S2Like(1, 5000);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 5000u);
  EXPECT_EQ(ds->dim(), 2u);
  std::set<int> labels(ds->labels().begin(), ds->labels().end());
  EXPECT_EQ(labels.size(), 15u);
  // Coordinates roughly in the S-set range.
  std::vector<double> lo, hi;
  ASSERT_TRUE(ds->BoundingBox(&lo, &hi).ok());
  EXPECT_GT(hi[0] - lo[0], 1e5);
}

TEST(GeneratorsTest, FacialLikeIsHighDimensional) {
  auto ds = gen::FacialLike(1, 500);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 300u);
  EXPECT_EQ(ds->size(), 500u);
}

TEST(GeneratorsTest, KddLikeHasSkewedClusterSizes) {
  auto ds = gen::KddLike(1, 4000);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 74u);
  std::vector<size_t> sizes(32, 0);
  for (int l : ds->labels()) ++sizes[static_cast<size_t>(l)];
  size_t biggest = 0, smallest = SIZE_MAX;
  for (size_t s : sizes) {
    if (s == 0) continue;
    biggest = std::max(biggest, s);
    smallest = std::min(smallest, s);
  }
  EXPECT_GT(biggest, 4 * smallest);  // power-law skew
}

TEST(GeneratorsTest, SpatialLikeDimensionsAndRoads) {
  auto ds = gen::SpatialLike(1, 2400);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 4u);
  std::set<int> labels(ds->labels().begin(), ds->labels().end());
  EXPECT_EQ(labels.size(), 40u);  // one label per road
}

TEST(GeneratorsTest, BigCrossLikeHasProductClusters) {
  auto ds = gen::BigCrossLike(1, 3000);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->dim(), 57u);
  std::set<int> labels(ds->labels().begin(), ds->labels().end());
  EXPECT_GT(labels.size(), 30u);  // up to 7*7 product clusters
  EXPECT_LE(labels.size(), 49u);
}

TEST(GeneratorsTest, ShapedSetsHaveExpectedStructure) {
  auto spiral = gen::SpiralLike(1);
  ASSERT_TRUE(spiral.ok());
  EXPECT_EQ(spiral->size(), 312u);
  std::set<int> arms(spiral->labels().begin(), spiral->labels().end());
  EXPECT_EQ(arms.size(), 3u);

  auto flame = gen::FlameLike(1);
  ASSERT_TRUE(flame.ok());
  EXPECT_EQ(flame->size(), 240u);
  std::set<int> flame_labels(flame->labels().begin(), flame->labels().end());
  EXPECT_EQ(flame_labels.size(), 2u);

  auto r15 = gen::R15Like(1);
  ASSERT_TRUE(r15.ok());
  EXPECT_EQ(r15->size(), 600u);
  std::set<int> r15_labels(r15->labels().begin(), r15->labels().end());
  EXPECT_EQ(r15_labels.size(), 15u);
}

TEST(GeneratorsTest, SpiralArmsAreInterleavedByRadius) {
  // Arms share the same radius range, so no radial threshold separates
  // them — the property that defeats centroid methods.
  auto ds = gen::SpiralLike(3, 600);
  ASSERT_TRUE(ds.ok());
  double min_r[3] = {1e9, 1e9, 1e9}, max_r[3] = {0, 0, 0};
  for (size_t i = 0; i < ds->size(); ++i) {
    std::span<const double> p = ds->point(static_cast<PointId>(i));
    double r = std::sqrt(p[0] * p[0] + p[1] * p[1]);
    int arm = ds->label(static_cast<PointId>(i));
    min_r[arm] = std::min(min_r[arm], r);
    max_r[arm] = std::max(max_r[arm], r);
  }
  // All three arms span overlapping radius ranges (radius alone cannot
  // separate them).
  for (int a = 0; a < 3; ++a) {
    EXPECT_LT(min_r[a], 16.0);
    EXPECT_GT(max_r[a], 22.0);
  }
}

TEST(GeneratorsTest, TooSmallSizesAreRejected) {
  EXPECT_FALSE(gen::AggregationLike(1, 10).ok());
  EXPECT_FALSE(gen::S2Like(1, 10).ok());
  EXPECT_FALSE(gen::FacialLike(1, 10).ok());
  EXPECT_FALSE(gen::KddLike(1, 10).ok());
  EXPECT_FALSE(gen::SpatialLike(1, 10).ok());
  EXPECT_FALSE(gen::BigCrossLike(1, 10).ok());
  EXPECT_FALSE(gen::SpiralLike(1, 5).ok());
  EXPECT_FALSE(gen::FlameLike(1, 5).ok());
  EXPECT_FALSE(gen::R15Like(1, 5).ok());
}

TEST(GeneratorsTest, PerformanceSuiteListsFigure10Sets) {
  auto suite = gen::PerformanceSuite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_STREQ(suite[0].name, "Facial");
  EXPECT_STREQ(suite[3].name, "BigCross500K");
  for (const auto& d : suite) {
    auto ds = d.make(7, 200 > d.default_n ? d.default_n : 200);
    ASSERT_TRUE(ds.ok()) << d.name;
    EXPECT_EQ(ds->dim(), d.dim) << d.name;
  }
}

}  // namespace
}  // namespace ddp
