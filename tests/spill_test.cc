// Out-of-core execution tests: the spill/merge subsystem (mapreduce/spill.h)
// and its RunJob integration. The load-bearing property is the determinism
// contract — every memory budget, 0 (sorted runs kept in memory) and ones
// forcing many spill runs per map task alike, must produce byte-for-byte the
// same output, with and without chaos (poisoned records, task retries,
// checkpoint kill/resume) layered on top. Spill files must also never leak.
// They have no names, so the spill dir stays empty while they live; a leak
// is a descriptor into the dir still open once a job (or a failed attempt)
// is done with it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/spill.h"
#include "open_fds.h"
#include "soft_limit.h"

namespace ddp {
namespace mr {
namespace {

namespace fs = std::filesystem;

class SpillDirGuard {
 public:
  explicit SpillDirGuard(const std::string& name)
      : dir_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(dir_);
  }
  ~SpillDirGuard() { fs::remove_all(dir_); }

  const std::string& dir() const { return dir_; }

  size_t FileCount() const {
    if (!fs::exists(dir_)) return 0;
    size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

  /// Nothing of a spill file is left: no entry in the dir, and no
  /// descriptor of this process into it.
  void ExpectClean(const std::string& where = "") const {
    EXPECT_EQ(FileCount(), 0u) << where;
    EXPECT_EQ(DescriptorsInto(dir_), std::vector<int>{}) << where;
  }

 private:
  std::string dir_;
};

// ---------------------------------------------------------------------------
// SpillFile writer/reader round trip.

TEST(SpillFileTest, RoundTripsMultipleRuns) {
  SpillDirGuard guard("ddp_spill_file_test");
  auto writer = SpillFileWriter::Create(guard.dir(), "roundtrip.spill");
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  const std::vector<std::vector<std::string>> runs = {
      {"alpha", "beta"}, {"gamma"}, {"d", "ee", "fff", "gggg"}};
  std::vector<SpillExtent> extents;
  for (const auto& run : runs) {
    (*writer)->BeginRun();
    for (const std::string& payload : run) {
      std::string frame;
      BufferWriter w(&frame);
      w.PutVarint64(payload.size());
      w.PutRaw(payload.data(), payload.size());
      (*writer)->Append(frame.data(), frame.size());
    }
    auto extent = (*writer)->EndRun();
    ASSERT_TRUE(extent.ok());
    extents.push_back(*extent);
  }
  ASSERT_TRUE((*writer)->Close().ok());
  auto handle = (*writer)->handle();

  for (size_t r = 0; r < runs.size(); ++r) {
    SpillSegmentReader reader(handle, extents[r].offset, extents[r].length);
    for (const std::string& expected : runs[r]) {
      std::string_view payload;
      bool eof = true;
      ASSERT_TRUE(reader.NextFrame(&payload, &eof).ok());
      ASSERT_FALSE(eof);
      EXPECT_EQ(payload, expected);
    }
    std::string_view payload;
    bool eof = false;
    ASSERT_TRUE(reader.NextFrame(&payload, &eof).ok());
    EXPECT_TRUE(eof);
  }
}

TEST(SpillFileTest, CorruptionFailsTheCrcCheck) {
  SpillDirGuard guard("ddp_spill_crc_test");
  auto writer = SpillFileWriter::Create(guard.dir(), "corrupt.spill");
  ASSERT_TRUE(writer.ok());
  (*writer)->BeginRun();
  std::string frame;
  BufferWriter w(&frame);
  const std::string payload(100, 'x');
  w.PutVarint64(payload.size());
  w.PutRaw(payload.data(), payload.size());
  (*writer)->Append(frame.data(), frame.size());
  auto extent = (*writer)->EndRun();
  ASSERT_TRUE(extent.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto handle = (*writer)->handle();

  // Flip one payload byte in the middle of the run, through the handle's
  // one descriptor: the file has no name to open.
  const std::vector<int> fds = DescriptorsInto(guard.dir());
  ASSERT_EQ(fds.size(), 1u);
  {
    std::fstream f(ReopenPath(fds[0]),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(extent->offset + 50));
    f.put('y');
  }

  SpillSegmentReader reader(handle, extent->offset, extent->length);
  std::string_view out;
  bool eof = false;
  Status st = reader.NextFrame(&out, &eof);  // frame still parses...
  while (st.ok() && !eof) st = reader.NextFrame(&out, &eof);
  ASSERT_FALSE(st.ok());  // ...but the end-of-run CRC check rejects the run
  EXPECT_TRUE(st.IsIoError());
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.ToString();
}

// Writes one run holding a single frame whose frame bytes (length varint
// and payload) total `frame_bytes`, after a 10-byte run, so the run starts
// at a nonzero offset. Returns the run's extent.
SpillExtent WriteOneFrameRun(SpillFileWriter* writer, size_t frame_bytes,
                             std::string* payload) {
  std::string frame;
  BufferWriter w(&frame);
  w.PutRaw("0123456789", 10);
  writer->BeginRun();
  writer->Append(frame.data(), frame.size());
  EXPECT_TRUE(writer->EndRun().ok());
  frame.clear();
  size_t header = 1;
  while (((frame_bytes - header) >> (7 * header)) != 0) ++header;
  *payload = std::string(frame_bytes - header, 'p');
  for (size_t i = 0; i < payload->size(); i += 97) (*payload)[i] = 'q';
  w.PutVarint64(payload->size());
  w.PutRaw(payload->data(), payload->size());
  EXPECT_EQ(frame.size(), frame_bytes);
  writer->BeginRun();
  writer->Append(frame.data(), frame.size());
  auto extent = writer->EndRun();
  EXPECT_TRUE(extent.ok());
  EXPECT_TRUE(writer->Close().ok());
  return *extent;
}

// A run is read in 64 KiB chunks, and the chunk that ends the run also
// reads the CRC trailer when it fits. Frame totals around 64 KiB put the
// trailer wholly inside the first 64 KiB, across the 64 KiB boundary, or
// past it; each run round-trips.
TEST(SpillFileTest, TrailerAcrossTheReadBoundaryRoundTrips) {
  SpillDirGuard guard("ddp_spill_trailer_edge_test");
  for (size_t frame_bytes = 65530; frame_bytes <= 65537; ++frame_bytes) {
    auto writer = SpillFileWriter::Create(
        guard.dir(), "edge-" + std::to_string(frame_bytes) + ".spill");
    ASSERT_TRUE(writer.ok());
    std::string payload;
    const SpillExtent extent =
        WriteOneFrameRun(writer->get(), frame_bytes, &payload);
    ASSERT_EQ(extent.length, frame_bytes + 4);
    SpillSegmentReader reader((*writer)->handle(), extent.offset,
                              extent.length);
    std::string_view out;
    bool eof = false;
    ASSERT_TRUE(reader.NextFrame(&out, &eof).ok()) << frame_bytes;
    ASSERT_FALSE(eof);
    EXPECT_TRUE(out == payload) << frame_bytes;
    const Status end = reader.NextFrame(&out, &eof);
    ASSERT_TRUE(end.ok()) << frame_bytes << ": " << end.ToString();
    EXPECT_TRUE(eof) << frame_bytes;
  }
}

// CorruptionFailsTheCrcCheck flips a payload byte; here the trailer itself
// is flipped, in a run that fits one read and in one whose trailer straddles
// the read boundary.
TEST(SpillFileTest, FlippedTrailerByteFailsTheCrcCheck) {
  SpillDirGuard guard("ddp_spill_trailer_flip_test");
  for (size_t frame_bytes : {size_t{100}, size_t{65534}}) {
    for (uint64_t byte = 0; byte < 4; ++byte) {
      auto writer = SpillFileWriter::Create(
          guard.dir(), "flip-" + std::to_string(frame_bytes) + "-" +
                           std::to_string(byte) + ".spill");
      ASSERT_TRUE(writer.ok());
      std::string payload;
      const SpillExtent extent =
          WriteOneFrameRun(writer->get(), frame_bytes, &payload);
      const std::vector<int> fds = DescriptorsInto(guard.dir());
      ASSERT_EQ(fds.size(), 1u);
      {
        std::fstream f(ReopenPath(fds[0]),
                       std::ios::binary | std::ios::in | std::ios::out);
        const auto at =
            static_cast<std::streamoff>(extent.offset + frame_bytes + byte);
        f.seekg(at);
        const char c = static_cast<char>(f.get());
        f.seekp(at);
        f.put(static_cast<char>(c ^ 0x20));
      }
      SpillSegmentReader reader((*writer)->handle(), extent.offset,
                                extent.length);
      std::string_view out;
      bool eof = false;
      Status st = reader.NextFrame(&out, &eof);
      while (st.ok() && !eof) st = reader.NextFrame(&out, &eof);
      ASSERT_FALSE(st.ok()) << frame_bytes << " byte " << byte;
      EXPECT_TRUE(st.IsIoError());
      EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// SpillingBuffer: every spill of one map attempt appends to one file.

TEST(SpillingBufferTest, SpillsOfOneTaskAppendToOneFile) {
  SpillDirGuard guard("ddp_spill_one_file_test");
  std::map<uint32_t, std::vector<uint64_t>> expected;
  {
    internal::SpillingBuffer<uint32_t, uint64_t, KeyTraits<uint32_t>> buffer(
        /*num_partitions=*/4, /*budget_bytes=*/64, guard.dir(), "one-file");
    for (uint32_t i = 0; i < 300; ++i) {
      buffer.Add(i % 23, uint64_t{i} * 7);
      expected[i % 23].push_back(uint64_t{i} * 7);
    }
    ASSERT_TRUE(buffer.Finish().ok());
    EXPECT_EQ(buffer.spill_files(), 1u);
    // One file, held by one descriptor, and listed nowhere.
    EXPECT_EQ(DescriptorsInto(guard.dir()).size(), 1u);
    EXPECT_EQ(guard.FileCount(), 0u);

    // Runs come in spill order, every spill index from 0 up, all in the
    // one file; reading them back yields each key's values in emission
    // order.
    const std::vector<SpillRun>& runs = buffer.runs();
    ASSERT_FALSE(runs.empty());
    std::set<uint32_t> indices;
    std::map<uint32_t, std::vector<uint64_t>> read;
    for (const SpillRun& run : runs) {
      EXPECT_EQ(run.file, runs.front().file);
      if (!indices.empty()) {
        EXPECT_GE(run.spill_index, *indices.rbegin());
      }
      indices.insert(run.spill_index);
      SpillSegmentReader reader(run.file, run.offset, run.length);
      std::string_view frame;
      bool eof = false;
      while (true) {
        ASSERT_TRUE(reader.NextFrame(&frame, &eof).ok());
        if (eof) break;
        BufferReader rec(frame.data(), frame.size());
        uint32_t key = 0;
        uint64_t value = 0;
        ASSERT_TRUE(Serde<uint32_t>::Read(&rec, &key).ok());
        ASSERT_TRUE(Serde<uint64_t>::Read(&rec, &value).ok());
        read[key].push_back(value);
      }
    }
    EXPECT_EQ(*indices.begin(), 0u);
    EXPECT_EQ(*indices.rbegin(), indices.size() - 1);
    EXPECT_GE(indices.size(), 10u);
    EXPECT_EQ(read, expected);
  }
  // The buffer and its runs are gone, so is the file.
  guard.ExpectClean();
}

// ---------------------------------------------------------------------------
// RunJob: bit-identical output across budgets, spill accounting, no leaks.

// A job with enough skew and volume that small budgets force many runs per
// map task: keys collide across tasks, values vary per record.
JobSpec<uint32_t, uint32_t, uint64_t, std::pair<uint32_t, uint64_t>>
SkewedSumSpec() {
  JobSpec<uint32_t, uint32_t, uint64_t, std::pair<uint32_t, uint64_t>> spec;
  spec.name = "skewed-sum";
  spec.map = [](const uint32_t& i, Emitter<uint32_t, uint64_t>* out) {
    // Each input record emits three pairs; key space is small (collisions)
    // and one hot key takes a third of all records.
    out->Emit(i % 37, i);
    out->Emit(i % 11, i * 2);
    out->Emit(0, i * 3);
  };
  spec.reduce = [](const uint32_t& key, std::span<const uint64_t> values,
                   std::vector<std::pair<uint32_t, uint64_t>>* out) {
    // Order-sensitive fold: detects any change in value order, not just
    // multiset membership.
    uint64_t acc = 0;
    for (uint64_t v : values) acc = acc * 31 + v;
    out->push_back({key, acc});
  };
  return spec;
}

std::vector<uint32_t> SkewedInput(size_t n) {
  std::vector<uint32_t> input(n);
  for (size_t i = 0; i < n; ++i) input[i] = static_cast<uint32_t>(i * 7 + 1);
  return input;
}

// SkewedSumSpec's output computed without the runtime: every key's fold over
// its values in input order (the merge-order contract), listed
// partition-major and key-sorted within a partition.
std::vector<std::pair<uint32_t, uint64_t>> SkewedSumInInputOrder(
    const std::vector<uint32_t>& input, size_t num_partitions) {
  std::map<uint32_t, uint64_t> fold;
  auto add = [&fold](uint32_t key, uint64_t v) {
    fold[key] = fold[key] * 31 + v;
  };
  for (uint32_t i : input) {
    add(i % 37, i);
    add(i % 11, uint64_t{i} * 2);
    add(0, uint64_t{i} * 3);
  }
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (size_t p = 0; p < num_partitions; ++p) {
    for (const auto& [key, acc] : fold) {
      if (KeyTraits<uint32_t>::Hash(key) % num_partitions == p) {
        out.push_back({key, acc});
      }
    }
  }
  return out;
}

TEST(SpillRunJobTest, OutputBitIdenticalAcrossBudgets) {
  SpillDirGuard guard("ddp_spill_runjob_test");
  const std::vector<uint32_t> input = SkewedInput(4000);

  Options base;
  base.num_workers = 2;
  base.num_partitions = 8;
  base.spill_dir = guard.dir();
  const auto expected = SkewedSumInInputOrder(input, base.num_partitions);

  const size_t num_map_tasks = 8;  // min(4000, 2 workers * 4)
  for (uint64_t budget :
       {uint64_t{0}, uint64_t{256}, uint64_t{4096}, uint64_t{1} << 20}) {
    Options spilling = base;
    spilling.memory_budget_bytes = budget;
    JobCounters counters;
    auto result = RunJob(SkewedSumSpec(), std::span<const uint32_t>(input),
                         spilling, &counters);
    ASSERT_TRUE(result.ok()) << "budget=" << budget << ": "
                             << result.status().ToString();
    EXPECT_EQ(*result, expected) << "budget=" << budget;
    if (budget == 0) {
      // Sorted runs kept in memory: nothing spills, nothing merges off disk.
      EXPECT_EQ(counters.spill_files, 0u);
      EXPECT_EQ(counters.merge_passes, 0u);
    } else if (budget <= 4096) {
      if (budget == 256) {
        // The tightest budget must really exercise the external path: every
        // map task spills into its one file, at least four times on average
        // (every spill but a task's last writes at least the budget), all
        // merged reduce-side.
        EXPECT_EQ(counters.spill_files, num_map_tasks);
        EXPECT_GE(counters.spilled_bytes, 4u * budget * num_map_tasks);
      }
      EXPECT_GT(counters.spill_files, 0u) << "budget=" << budget;
      EXPECT_GT(counters.spilled_bytes, 0u);
      EXPECT_GT(counters.merge_passes, 0u);
      const std::string line = counters.ToString();
      EXPECT_NE(line.find("spilled_bytes="), std::string::npos) << line;
      EXPECT_NE(line.find("merge_passes="), std::string::npos) << line;
    }
    // Every spill file is closed, and so freed, once the job is done.
    guard.ExpectClean("budget=" + std::to_string(budget));
  }
}

TEST(SpillRunJobTest, CombinerComposesWithSpilling) {
  SpillDirGuard guard("ddp_spill_combiner_test");
  auto spec = SkewedSumSpec();
  spec.combiner = [](const uint32_t&, std::vector<uint64_t> values) {
    // Identity combiner: value order through the spill path must survive.
    return values;
  };
  const std::vector<uint32_t> input = SkewedInput(2000);

  Options base;
  base.num_workers = 2;
  base.num_partitions = 8;
  base.spill_dir = guard.dir();
  auto in_memory = RunJob(spec, std::span<const uint32_t>(input), base);
  ASSERT_TRUE(in_memory.ok());

  Options spilling = base;
  spilling.memory_budget_bytes = 512;
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const uint32_t>(input), spilling, &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *in_memory);
  EXPECT_GT(counters.spill_files, 0u);
}

TEST(SpillRunJobTest, PoisonedRecordInsideSpillRunIsSkipped) {
  SpillDirGuard guard("ddp_spill_poison_test");
  const std::vector<uint32_t> input = SkewedInput(2000);

  Options base;
  base.num_workers = 2;
  base.num_partitions = 8;
  auto clean = RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), base);
  ASSERT_TRUE(clean.ok());

  Options poisoned = base;
  poisoned.spill_dir = guard.dir();
  poisoned.memory_budget_bytes = 512;
  poisoned.skip_bad_records = true;
  poisoned.faults.corruption_rate = 0.5;
  poisoned.faults.seed = 42;
  JobCounters counters;
  auto result = RunJob(SkewedSumSpec(), std::span<const uint32_t>(input),
                       poisoned, &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *clean);
  EXPECT_GT(counters.skipped_records, 0u);
  EXPECT_GT(counters.spill_files, 0u);
  guard.ExpectClean();

  // Without skip_bad_records the same poison aborts the job.
  poisoned.skip_bad_records = false;
  auto aborted =
      RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), poisoned);
  EXPECT_FALSE(aborted.ok());
  EXPECT_TRUE(aborted.status().IsIoError());
  guard.ExpectClean();
}

TEST(SpillRunJobTest, TaskRetriesRecreateSpillFilesWithoutLeaking) {
  SpillDirGuard guard("ddp_spill_retry_test");
  const std::vector<uint32_t> input = SkewedInput(2000);

  Options base;
  base.num_workers = 2;
  base.num_partitions = 8;
  auto clean = RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), base);
  ASSERT_TRUE(clean.ok());

  Options flaky = base;
  flaky.spill_dir = guard.dir();
  flaky.memory_budget_bytes = 512;
  flaky.faults.map_failure_rate = 0.4;
  flaky.faults.reduce_failure_rate = 0.3;
  flaky.faults.seed = 7;
  flaky.max_task_attempts = 24;
  JobCounters counters;
  auto result =
      RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), flaky,
             &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *clean);
  EXPECT_GT(counters.map_task_retries + counters.reduce_task_retries, 0u);
  // Failed attempts' spill files were replaced by their retries' files, and
  // everything is gone when the job finishes.
  guard.ExpectClean();
}

TEST(SpillRunJobTest, SpeculativeAttemptsShareSpillDirSafely) {
  SpillDirGuard guard("ddp_spill_spec_test");
  const std::vector<uint32_t> input = SkewedInput(2000);

  Options base;
  base.num_workers = 2;
  base.num_partitions = 8;
  auto clean = RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), base);
  ASSERT_TRUE(clean.ok());

  Options spec_opts = base;
  spec_opts.spill_dir = guard.dir();
  spec_opts.memory_budget_bytes = 512;
  spec_opts.speculative_execution = true;
  spec_opts.speculative_multiplier = 1.01;
  spec_opts.speculative_min_completed = 1;
  spec_opts.faults.straggler_rate = 0.3;
  spec_opts.faults.straggler_slowdown = 10.0;
  spec_opts.faults.straggler_min_seconds = 0.02;
  spec_opts.faults.seed = 11;
  auto result =
      RunJob(SkewedSumSpec(), std::span<const uint32_t>(input), spec_opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, *clean);
  guard.ExpectClean();
}

// ---------------------------------------------------------------------------
// Full DDP pipelines: bit-identical clustering across budgets (the
// acceptance property), counter surfacing, checkpoint resume with spilling.

bool BitIdentical(const DdpRunResult& a, const DdpRunResult& b) {
  return a.dc == b.dc && a.scores.rho == b.scores.rho &&
         a.scores.delta == b.scores.delta &&
         a.scores.upslope == b.scores.upslope &&
         a.clusters.assignment == b.clusters.assignment &&
         a.clusters.peaks == b.clusters.peaks;
}

DdpOptions BaseDdpOptions() {
  DdpOptions o;
  o.mr.num_workers = 2;
  o.mr.num_partitions = 8;
  o.selector = PeakSelector::TopK(5);
  return o;
}

class SpillDdpTest : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<DistributedDpAlgorithm> MakeAlgorithm(
      const std::string& name) {
    if (name == "basic-ddp") {
      BasicDdp::Params p;
      p.block_size = 100;
      return std::make_unique<BasicDdp>(p);
    }
    EXPECT_EQ(name, "lsh-ddp");
    return std::make_unique<LshDdp>();
  }

  Dataset MakeData() {
    auto ds = gen::KddLike(/*seed=*/5, 400);
    EXPECT_TRUE(ds.ok());
    return std::move(ds).value();
  }
};

TEST_P(SpillDdpTest, ClusteringBitIdenticalAcrossBudgets) {
  SpillDirGuard guard(std::string("ddp_spill_ddp_") + GetParam());
  Dataset dataset = MakeData();

  auto baseline_algo = MakeAlgorithm(GetParam());
  auto baseline =
      RunDistributedDp(baseline_algo.get(), dataset, BaseDdpOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (uint64_t budget : {uint64_t{256}, uint64_t{4096}}) {
    DdpOptions options = BaseDdpOptions();
    options.mr.memory_budget_bytes = budget;
    options.mr.spill_dir = guard.dir();
    auto algo = MakeAlgorithm(GetParam());
    auto result = RunDistributedDp(algo.get(), dataset, options);
    ASSERT_TRUE(result.ok())
        << GetParam() << " budget=" << budget << ": "
        << result.status().ToString();
    EXPECT_TRUE(BitIdentical(*baseline, *result))
        << GetParam() << " diverged at budget=" << budget;
    EXPECT_GT(result->stats.TotalSpilledBytes(), 0u) << "budget=" << budget;
    EXPECT_GT(result->stats.TotalMergePasses(), 0u) << "budget=" << budget;
    // The counter line of at least one job must surface the spill numbers.
    const std::string stats = result->stats.ToString();
    EXPECT_NE(stats.find("spilled_bytes="), std::string::npos) << stats;
    EXPECT_NE(stats.find("merge_passes="), std::string::npos) << stats;
    guard.ExpectClean("budget=" + std::to_string(budget));
  }
}

TEST_P(SpillDdpTest, ChaosGauntletUnderSpillingStaysBitIdentical) {
  SpillDirGuard guard(std::string("ddp_spill_chaos_") + GetParam());
  Dataset dataset = MakeData();

  auto baseline_algo = MakeAlgorithm(GetParam());
  auto baseline =
      RunDistributedDp(baseline_algo.get(), dataset, BaseDdpOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  DdpOptions chaos = BaseDdpOptions();
  chaos.mr.memory_budget_bytes = 512;
  chaos.mr.spill_dir = guard.dir();
  chaos.mr.faults.map_failure_rate = 0.25;
  chaos.mr.faults.reduce_failure_rate = 0.25;
  chaos.mr.faults.corruption_rate = 0.1;
  chaos.mr.faults.seed = 20260807;
  chaos.mr.max_task_attempts = 24;
  chaos.mr.skip_bad_records = true;
  auto algo = MakeAlgorithm(GetParam());
  auto result = RunDistributedDp(algo.get(), dataset, chaos);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(BitIdentical(*baseline, *result));
  EXPECT_GT(result->stats.TotalTaskRetries(), 0u);
  EXPECT_GT(result->stats.Total(&mr::JobCounters::skipped_records), 0u);
  EXPECT_GT(result->stats.TotalSpilledBytes(), 0u);
  guard.ExpectClean();
}

TEST_P(SpillDdpTest, KilledDriverResumesWithPopulatedSpillDir) {
  SpillDirGuard guard(std::string("ddp_spill_resume_") + GetParam());
  Dataset dataset = MakeData();

  auto baseline_algo = MakeAlgorithm(GetParam());
  auto baseline =
      RunDistributedDp(baseline_algo.get(), dataset, BaseDdpOptions());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string ckpt_dir =
      (fs::temp_directory_path() /
       (std::string("ddp_spill_ckpt_") + GetParam()))
          .string();
  fs::remove_all(ckpt_dir);
  CheckpointStore store(ckpt_dir);

  DdpOptions resumable = BaseDdpOptions();
  resumable.mr.checkpoint = &store;
  resumable.mr.memory_budget_bytes = 512;
  resumable.mr.spill_dir = guard.dir();

  // Seed the spill dir with a stale file from a "previous crashed run":
  // resume must neither trip over it nor delete it (it is not ours).
  fs::create_directories(guard.dir());
  { std::ofstream(guard.dir() + "/stale-old-run.spill") << "leftover"; }

  store.SetKillAfter(1);
  {
    auto killed_algo = MakeAlgorithm(GetParam());
    auto killed = RunDistributedDp(killed_algo.get(), dataset, resumable);
    ASSERT_FALSE(killed.ok());
    EXPECT_TRUE(killed.status().IsCancelled()) << killed.status().ToString();
  }

  store.SetKillAfter(-1);  // no further kills
  auto resumed_algo = MakeAlgorithm(GetParam());
  auto resumed = RunDistributedDp(resumed_algo.get(), dataset, resumable);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(BitIdentical(*baseline, *resumed));
  EXPECT_GT(resumed->stats.JobsLoadedFromCheckpoint(), 0u);
  // Only the stale file we planted remains, and nothing holds a spill file.
  EXPECT_EQ(guard.FileCount(), 1u);
  EXPECT_EQ(DescriptorsInto(guard.dir()), std::vector<int>{});
  fs::remove_all(ckpt_dir);
}

INSTANTIATE_TEST_SUITE_P(Pipelines, SpillDdpTest,
                         ::testing::Values("lsh-ddp", "basic-ddp"));

// The open descriptors of the calling process.
rlim_t OpenDescriptors() {
  rlim_t n = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

// An in-process LSH pipeline at 4 KiB spills hundreds of runs into every
// reduce partition, and four reducers merge at once. Under a descriptor
// limit far below one partition's run count it must still match the
// unbudgeted run byte for byte: a merge holds one descriptor per map
// attempt's spill file, not one per run.
TEST(SpillDescriptorTest, FourKiBPipelineRunsUnderASmallDescriptorLimit) {
  SpillDirGuard guard("ddp_spill_fd_limit");
  auto dataset = gen::KddLike(/*seed=*/1, 1500);
  ASSERT_TRUE(dataset.ok());
  DdpOptions options = BaseDdpOptions();
  options.mr.num_workers = 4;
  LshDdp unbudgeted_algo;
  auto unbudgeted = RunDistributedDp(&unbudgeted_algo, *dataset, options);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();

  constexpr uint64_t kBudget = 4096;
  options.mr.memory_budget_bytes = kBudget;
  options.mr.spill_dir = guard.dir();
  // Room for 16 map attempts' files and a few more.
  const rlim_t limit = OpenDescriptors() + 32;
  Result<DdpRunResult> budgeted = Status::Internal("not run");
  {
    SoftLimit lowered(RLIMIT_NOFILE, limit);
    ASSERT_TRUE(lowered.ok());
    LshDdp algo;
    budgeted = RunDistributedDp(&algo, *dataset, options);
  }
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(BitIdentical(*unbudgeted, *budgeted));
  guard.ExpectClean();
  // A partition's run holds at most the budget plus one record (smaller
  // than the budget here), so the largest partition spilled more runs than
  // this bound, which the limit must sit below.
  uint64_t max_partition_bytes = 0;
  for (const JobCounters& job : budgeted->stats.jobs) {
    max_partition_bytes =
        std::max(max_partition_bytes, job.max_partition_bytes);
  }
  EXPECT_GT(max_partition_bytes / (2 * kBudget), limit);
}

// A disk that refuses a write. With SIGXFSZ ignored, a soft RLIMIT_FSIZE
// makes every write past it fail with EFBIG; here the limit sits far below
// one map attempt's spill file of a 4 KiB LSH pipeline. A failed spill write
// fails its attempt, which is retried like any failed attempt until
// max_task_attempts, so the job fails carrying the errno text. Forked
// workers inherit the limit and fail the same way. Either way, nothing of a
// spill file outlives the job.
void ExpectSpillWriteFailureFailsTheJob(ExecMode mode) {
  SpillDirGuard guard("ddp_spill_fsize_limit");
  auto dataset = gen::KddLike(/*seed=*/5, 400);
  ASSERT_TRUE(dataset.ok());
  DdpOptions options = BaseDdpOptions();
  options.mr.exec_mode = mode;
  options.mr.memory_budget_bytes = 4096;
  options.mr.spill_dir = guard.dir();
  Result<DdpRunResult> result = Status::Internal("RLIMIT_FSIZE not lowered");
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_NE(saved_handler, SIG_ERR);
  {
    SoftLimit lowered(RLIMIT_FSIZE, 3 * 4096);
    if (lowered.ok()) {
      LshDdp algo;
      result = RunDistributedDp(&algo, *dataset, options);
    }
  }
  std::signal(SIGXFSZ, saved_handler);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(std::strerror(EFBIG)),
            std::string::npos)
      << result.status().ToString();
  guard.ExpectClean();
}

TEST(SpillWriteFaultTest, InProcessJobFailsWithTheErrnoAndLeaksNothing) {
  ExpectSpillWriteFailureFailsTheJob(ExecMode::kInProc);
}

TEST(SpillWriteFaultTest, ForkedJobFailsWithTheErrnoAndLeaksNothing) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  ExpectSpillWriteFailureFailsTheJob(ExecMode::kFork);
}

}  // namespace
}  // namespace mr
}  // namespace ddp
