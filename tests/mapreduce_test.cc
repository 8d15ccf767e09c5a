#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mapreduce/checkpoint.h"
#include "mapreduce/counters.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/supervisor.h"

namespace ddp {
namespace mr {
namespace {

// Classic word count over small documents.
JobSpec<std::string, std::string, uint32_t, std::pair<std::string, uint32_t>>
WordCountSpec() {
  JobSpec<std::string, std::string, uint32_t, std::pair<std::string, uint32_t>>
      spec;
  spec.name = "wordcount";
  spec.map = [](const std::string& doc, Emitter<std::string, uint32_t>* out) {
    size_t pos = 0;
    while (pos < doc.size()) {
      size_t end = doc.find(' ', pos);
      if (end == std::string::npos) end = doc.size();
      if (end > pos) out->Emit(doc.substr(pos, end - pos), 1);
      pos = end + 1;
    }
  };
  spec.reduce = [](const std::string& word, std::span<const uint32_t> counts,
                   std::vector<std::pair<std::string, uint32_t>>* out) {
    uint32_t total = 0;
    for (uint32_t c : counts) total += c;
    out->push_back({word, total});
  };
  return spec;
}

std::map<std::string, uint32_t> ToMap(
    const std::vector<std::pair<std::string, uint32_t>>& kv) {
  return {kv.begin(), kv.end()};
}

TEST(MapReduceTest, WordCountBasic) {
  std::vector<std::string> docs = {"a b a", "b c", "a"};
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs));
  ASSERT_TRUE(result.ok());
  auto counts = ToMap(*result);
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 1u);
  EXPECT_EQ(counts.size(), 3u);
}

TEST(MapReduceTest, EmptyInputProducesEmptyOutput) {
  std::vector<std::string> docs;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(MapReduceTest, MissingMapOrReduceIsInvalidArgument) {
  auto spec = WordCountSpec();
  spec.map = nullptr;
  std::vector<std::string> docs = {"a"};
  EXPECT_TRUE(RunJob(spec, std::span<const std::string>(docs))
                  .status()
                  .IsInvalidArgument());
  spec = WordCountSpec();
  spec.reduce = nullptr;
  EXPECT_TRUE(RunJob(spec, std::span<const std::string>(docs))
                  .status()
                  .IsInvalidArgument());
}

TEST(MapReduceTest, CountersAreAccurate) {
  std::vector<std::string> docs = {"x y", "x"};
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       Options{}, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(counters.job_name, "wordcount");
  EXPECT_EQ(counters.map_input_records, 2u);
  EXPECT_EQ(counters.map_output_records, 3u);  // x, y, x
  EXPECT_EQ(counters.shuffle_records, 3u);
  EXPECT_EQ(counters.reduce_input_groups, 2u);  // x, y
  EXPECT_EQ(counters.reduce_output_records, 2u);
  EXPECT_GT(counters.shuffle_bytes, 0u);
  EXPECT_GE(counters.total_seconds, 0.0);
}

TEST(MapReduceTest, CombinerShrinksShuffleWithoutChangingResult) {
  // 200 copies of the same word: the combiner should collapse per-task
  // duplicates and shrink the shuffle.
  std::vector<std::string> docs(200, "same");
  Options options;
  options.num_workers = 2;

  JobCounters no_comb, with_comb;
  auto plain = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                      options, &no_comb);
  auto spec = WordCountSpec();
  spec.combiner = [](const std::string&, std::vector<uint32_t> values) {
    uint32_t sum = 0;
    for (uint32_t v : values) sum += v;
    return std::vector<uint32_t>{sum};
  };
  auto combined =
      RunJob(spec, std::span<const std::string>(docs), options, &with_comb);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(ToMap(*plain), ToMap(*combined));
  EXPECT_LT(with_comb.shuffle_bytes, no_comb.shuffle_bytes);
  EXPECT_LT(with_comb.shuffle_records, no_comb.shuffle_records);
  EXPECT_EQ(with_comb.combine_input_records, 200u);
}

TEST(MapReduceTest, DeterministicAcrossWorkerCounts) {
  std::vector<uint64_t> input(5000);
  std::iota(input.begin(), input.end(), 0);
  JobSpec<uint64_t, uint64_t, uint64_t, std::pair<uint64_t, uint64_t>> spec;
  spec.name = "mod-sum";
  spec.map = [](const uint64_t& v, Emitter<uint64_t, uint64_t>* out) {
    out->Emit(v % 37, v);
  };
  spec.reduce = [](const uint64_t& k, std::span<const uint64_t> values,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    out->push_back({k, s});
  };
  Options o1, o4;
  o1.num_workers = 1;
  o1.num_partitions = 8;
  o4.num_workers = 4;
  o4.num_partitions = 8;
  auto r1 = RunJob(spec, std::span<const uint64_t>(input), o1);
  auto r4 = RunJob(spec, std::span<const uint64_t>(input), o4);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(*r1, *r4);  // identical order, not just identical content
}

TEST(MapReduceTest, AllValuesForKeyArriveTogether) {
  std::vector<uint32_t> input(1000);
  std::iota(input.begin(), input.end(), 0);
  JobSpec<uint32_t, uint32_t, uint32_t, std::pair<uint32_t, size_t>> spec;
  spec.name = "group-size";
  spec.map = [](const uint32_t& v, Emitter<uint32_t, uint32_t>* out) {
    out->Emit(v % 10, v);
  };
  spec.reduce = [](const uint32_t& k, std::span<const uint32_t> values,
                   std::vector<std::pair<uint32_t, size_t>>* out) {
    out->push_back({k, values.size()});
  };
  auto result = RunJob(spec, std::span<const uint32_t>(input));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (const auto& [k, size] : *result) EXPECT_EQ(size, 100u);
}

TEST(MapReduceTest, VectorKeysWork) {
  // Keys are LSH-style signatures: vectors of int64.
  using Key = std::vector<int64_t>;
  std::vector<int64_t> input = {1, 2, 3, 4, 5, 6};
  JobSpec<int64_t, Key, int64_t, std::pair<Key, int64_t>> spec;
  spec.name = "vector-keys";
  spec.map = [](const int64_t& v, Emitter<Key, int64_t>* out) {
    out->Emit({v % 2, v % 3}, v);
  };
  spec.reduce = [](const Key& k, std::span<const int64_t> values,
                   std::vector<std::pair<Key, int64_t>>* out) {
    int64_t s = 0;
    for (int64_t v : values) s += v;
    out->push_back({k, s});
  };
  auto result = RunJob(spec, std::span<const int64_t>(input));
  ASSERT_TRUE(result.ok());
  // 6 inputs, keys (v%2, v%3): 1->(1,1) 2->(0,2) 3->(1,0) 4->(0,1) 5->(1,2)
  // 6->(0,0): all distinct.
  EXPECT_EQ(result->size(), 6u);
  int64_t total = 0;
  for (const auto& [k, s] : *result) total += s;
  EXPECT_EQ(total, 21);
}

TEST(MapReduceTest, MapCanEmitNothing) {
  std::vector<int> input = {1, 2, 3};
  JobSpec<int, int, int, int> spec;
  spec.name = "filter-all";
  spec.map = [](const int&, Emitter<int, int>*) {};
  spec.reduce = [](const int&, std::span<const int>, std::vector<int>* out) {
    out->push_back(1);
  };
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const int>(input), Options{}, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(counters.shuffle_bytes, 0u);
}

TEST(MapReduceTest, ReduceCanFanOut) {
  std::vector<int> input = {5};
  JobSpec<int, int, int, int> spec;
  spec.name = "fan-out";
  spec.map = [](const int& v, Emitter<int, int>* out) { out->Emit(0, v); };
  spec.reduce = [](const int&, std::span<const int> values,
                   std::vector<int>* out) {
    for (int v : values) {
      for (int i = 0; i < v; ++i) out->push_back(i);
    }
  };
  auto result = RunJob(spec, std::span<const int>(input));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 5u);
}

TEST(MapReduceTest, SinglePartitionStillGroupsCorrectly) {
  std::vector<std::string> docs = {"a b", "b c", "c d"};
  Options options;
  options.num_partitions = 1;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), options);
  ASSERT_TRUE(result.ok());
  auto counts = ToMap(*result);
  EXPECT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts["b"], 2u);
}

TEST(MapReduceTest, ManyPartitionsStillGroupCorrectly) {
  std::vector<std::string> docs = {"a b a b", "a"};
  Options options;
  options.num_partitions = 64;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), options);
  ASSERT_TRUE(result.ok());
  auto counts = ToMap(*result);
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
}

TEST(MapReduceTest, ShuffleBytesScaleWithPayload) {
  // Doubling the payload per record should increase shuffle volume.
  using Payload = std::vector<double>;
  auto make_spec = [](size_t width) {
    JobSpec<int, int, Payload, int> spec;
    spec.name = "payload";
    spec.map = [width](const int& v, Emitter<int, Payload>* out) {
      out->Emit(v % 4, Payload(width, 1.0));
    };
    spec.reduce = [](const int&, std::span<const Payload>,
                     std::vector<int>* out) { out->push_back(0); };
    return spec;
  };
  std::vector<int> input(100);
  std::iota(input.begin(), input.end(), 0);
  JobCounters narrow, wide;
  ASSERT_TRUE(RunJob(make_spec(10), std::span<const int>(input), Options{},
                     &narrow)
                  .ok());
  ASSERT_TRUE(
      RunJob(make_spec(20), std::span<const int>(input), Options{}, &wide)
          .ok());
  EXPECT_GT(wide.shuffle_bytes, narrow.shuffle_bytes);
  // 100 records x 10 extra doubles x 8 bytes = 8000 extra bytes exactly.
  EXPECT_EQ(wide.shuffle_bytes - narrow.shuffle_bytes, 100u * 10u * 8u);
}

// Map-task splitting. RunJob cuts n records into min(n, 4 * workers) tasks of
// ceil(n / tasks) records, which leaves the last tasks starting past the end
// for many (n, workers) pairs (n = 100 at 4 workers: 16 tasks of 7 records).
// Every record must still be mapped exactly once, on every substrate and
// whatever the machine's core count.
using SplitSpec = JobSpec<uint64_t, uint64_t, uint64_t,
                          std::pair<uint64_t, uint64_t>>;
using SumMap = std::map<uint64_t, uint64_t>;

SplitSpec SumByResidueSpec() {
  SplitSpec spec;
  spec.name = "split-sweep";
  spec.map = [](const uint64_t& v, Emitter<uint64_t, uint64_t>* out) {
    out->Emit(v % 5, v);
  };
  spec.reduce = [](const uint64_t& k, std::span<const uint64_t> values,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    out->push_back({k, s});
  };
  return spec;
}

// Runs n in [0, 300] (every n_step-th) x workers in [1, 16].
void ExpectSplitSweepExact(const Options& base, size_t n_step) {
  const SplitSpec spec = SumByResidueSpec();
  for (size_t workers = 1; workers <= 16; ++workers) {
    for (size_t n = 0; n <= 300; n += n_step) {
      std::vector<uint64_t> input(n);
      std::iota(input.begin(), input.end(), 0);
      SumMap expected;
      for (uint64_t v : input) expected[v % 5] += v;
      Options o = base;
      o.num_workers = workers;
      JobCounters counters;
      auto out = RunJob(spec, std::span<const uint64_t>(input), o, &counters);
      ASSERT_TRUE(out.ok()) << "n=" << n << " workers=" << workers << ": "
                            << out.status().ToString();
      EXPECT_EQ(SumMap(out->begin(), out->end()), expected)
          << "n=" << n << " workers=" << workers;
      EXPECT_EQ(counters.map_output_records, n)
          << "n=" << n << " workers=" << workers;
    }
  }
}

TEST(MapTaskSplitTest, EveryRecordMappedOnceInProc) {
  ExpectSplitSweepExact(Options{}, 1);
}

TEST(MapTaskSplitTest, EveryRecordMappedOnceForked) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported here";
  }
  Options o;
  o.exec_mode = ExecMode::kFork;
  // A forked job costs ~20 ms (~400 ms under ASan), so every twentieth n;
  // n = 100 at 4 workers, the first case a 4-core machine hit, is included.
  ExpectSplitSweepExact(o, 20);
}

// The merge-order contract (spill.h): every key's values reach reduce in
// input order. Map tasks own consecutive input slices, each sorted run keeps
// emission order within equal keys, and the merge breaks key ties by (map
// task, spill index, tail). That must hold at every memory budget, in-process
// and forked, whatever the worker count.
using OrderSpec = JobSpec<uint32_t, uint32_t, uint32_t,
                          std::pair<uint32_t, std::vector<uint32_t>>>;

TEST(MergeOrderTest, EveryKeysValuesReachReduceInInputOrder) {
  OrderSpec spec;
  spec.name = "merge-order";
  spec.map = [](const uint32_t& i, Emitter<uint32_t, uint32_t>* out) {
    out->Emit(i % 7, i);
  };
  spec.reduce =
      [](const uint32_t& key, std::span<const uint32_t> values,
         std::vector<std::pair<uint32_t, std::vector<uint32_t>>>* out) {
        out->push_back({key, {values.begin(), values.end()}});
      };
  std::vector<uint32_t> input(20000);
  std::iota(input.begin(), input.end(), 0);
  std::map<uint32_t, std::vector<uint32_t>> expected;
  for (uint32_t i : input) expected[i % 7].push_back(i);

  const std::string spill_dir =
      (std::filesystem::temp_directory_path() / "ddp_merge_order_test")
          .string();
  std::filesystem::remove_all(spill_dir);
  std::vector<ExecMode> modes = {ExecMode::kInProc};
  if (ForkExecutionSupported()) modes.push_back(ExecMode::kFork);
  for (ExecMode mode : modes) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{256}, uint64_t{4096}}) {
      for (size_t workers : {size_t{1}, size_t{4}}) {
        const std::string where =
            std::string(mode == ExecMode::kFork ? "fork" : "inproc") +
            " budget=" + std::to_string(budget) +
            " workers=" + std::to_string(workers);
        Options o;
        o.exec_mode = mode;
        o.num_workers = workers;
        o.memory_budget_bytes = budget;
        o.spill_dir = spill_dir;
        JobCounters counters;
        auto out = RunJob(spec, std::span<const uint32_t>(input), o, &counters);
        ASSERT_TRUE(out.ok()) << where << ": " << out.status().ToString();
        ASSERT_EQ(out->size(), expected.size()) << where;
        for (const auto& [key, values] : *out) {
          EXPECT_EQ(values, expected.at(key)) << where << " key=" << key;
        }
        EXPECT_EQ(counters.exec_fallbacks, 0u) << where;
        if (budget > 0) {
          EXPECT_GT(counters.spill_files, 0u) << where;
        }
      }
    }
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(KeyTraitsTest, PairAndVectorHashing) {
  using VK = std::vector<int64_t>;
  VK a = {1, 2, 3}, b = {1, 2, 3}, c = {1, 2, 4};
  EXPECT_EQ(KeyTraits<VK>::Hash(a), KeyTraits<VK>::Hash(b));
  EXPECT_NE(KeyTraits<VK>::Hash(a), KeyTraits<VK>::Hash(c));
  EXPECT_TRUE(KeyTraits<VK>::Less(a, c));
  using PK = std::pair<uint32_t, VK>;
  PK p1 = {0, a}, p2 = {0, c}, p3 = {1, a};
  EXPECT_TRUE(KeyTraits<PK>::Less(p1, p2));
  EXPECT_TRUE(KeyTraits<PK>::Less(p1, p3));
  EXPECT_NE(KeyTraits<PK>::Hash(p1), KeyTraits<PK>::Hash(p3));
}

TEST(RunStatsTest, Aggregation) {
  RunStats stats;
  JobCounters a;
  a.job_name = "a";
  a.shuffle_bytes = 100;
  a.shuffle_records = 10;
  a.total_seconds = 1.5;
  JobCounters b;
  b.job_name = "b";
  b.shuffle_bytes = 50;
  b.shuffle_records = 5;
  b.total_seconds = 0.5;
  stats.Add(a);
  stats.Add(b);
  EXPECT_EQ(stats.TotalShuffleBytes(), 150u);
  EXPECT_EQ(stats.TotalShuffleRecords(), 15u);
  EXPECT_DOUBLE_EQ(stats.TotalSeconds(), 2.0);
  EXPECT_NE(stats.ToString().find("a:"), std::string::npos);
  EXPECT_NE(stats.ToString().find("TOTAL"), std::string::npos);
}

// ------------------------------------------------------ Fault injection

TEST(FaultInjectionTest, JobSurvivesMapFailures) {
  std::vector<std::string> docs(64, "a b");
  Options faulty;
  faulty.num_workers = 2;
  faulty.faults.map_failure_rate = 0.4;
  faulty.faults.seed = 3;
  faulty.max_task_attempts = 16;  // 0.4^16: exhaustion essentially impossible
  JobCounters counters;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), faulty,
             &counters);
  ASSERT_TRUE(result.ok());
  auto counts = ToMap(*result);
  EXPECT_EQ(counts["a"], 64u);
  EXPECT_EQ(counts["b"], 64u);
  EXPECT_GT(counters.map_task_retries, 0u);
}

TEST(FaultInjectionTest, JobSurvivesReduceFailures) {
  std::vector<std::string> docs(64, "x y z");
  Options faulty;
  faulty.num_workers = 2;
  faulty.faults.reduce_failure_rate = 0.4;
  faulty.faults.seed = 5;
  faulty.max_task_attempts = 16;
  JobCounters counters;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), faulty,
             &counters);
  ASSERT_TRUE(result.ok());
  auto counts = ToMap(*result);
  EXPECT_EQ(counts["x"], 64u);
  EXPECT_GT(counters.reduce_task_retries, 0u);
}

TEST(FaultInjectionTest, ResultsIdenticalWithAndWithoutFaults) {
  std::vector<std::string> docs;
  for (int i = 0; i < 50; ++i) {
    docs.push_back("w" + std::to_string(i % 7) + " w" + std::to_string(i % 3));
  }
  Options clean, faulty;
  clean.num_workers = faulty.num_workers = 2;
  clean.num_partitions = faulty.num_partitions = 8;
  faulty.faults.map_failure_rate = 0.3;
  faulty.faults.reduce_failure_rate = 0.3;
  faulty.max_task_attempts = 16;
  auto a = RunJob(WordCountSpec(), std::span<const std::string>(docs), clean);
  auto b = RunJob(WordCountSpec(), std::span<const std::string>(docs), faulty);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);  // identical outputs, including order
}

TEST(FaultInjectionTest, CertainFailureExhaustsAttempts) {
  std::vector<std::string> docs = {"a"};
  Options doomed;
  doomed.faults.map_failure_rate = 1.0;
  doomed.max_task_attempts = 3;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), doomed);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  // Reduce-side certain failure also fails the job.
  Options doomed_reduce;
  doomed_reduce.faults.reduce_failure_rate = 1.0;
  auto r2 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   doomed_reduce);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInternal());
}

TEST(FaultInjectionTest, FailureDecisionIsDeterministic) {
  FaultInjection faults;
  faults.seed = 9;
  bool a = internal::ShouldInjectFailure(faults, 0.5, "job", 0, 3, 1);
  bool b = internal::ShouldInjectFailure(faults, 0.5, "job", 0, 3, 1);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(internal::ShouldInjectFailure(faults, 0.0, "job", 0, 3, 1));
  EXPECT_TRUE(internal::ShouldInjectFailure(faults, 1.0, "job", 0, 3, 1));
}

TEST(SkewCounterTest, MaxPartitionTracksHotKey) {
  // All records to one key: one partition carries everything.
  std::vector<int> input(200);
  std::iota(input.begin(), input.end(), 0);
  JobSpec<int, int, int, int> spec;
  spec.name = "hot-key";
  spec.map = [](const int& v, Emitter<int, int>* out) { out->Emit(7, v); };
  spec.reduce = [](const int&, std::span<const int> values,
                   std::vector<int>* out) {
    out->push_back(static_cast<int>(values.size()));
  };
  Options options;
  options.num_partitions = 16;
  JobCounters counters;
  auto result = RunJob(spec, std::span<const int>(input), options, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(counters.max_partition_bytes, counters.shuffle_bytes);
}

TEST(MapReduceStressTest, LargeSkewedWorkloadWithFaultsAndCombiner) {
  // 20k records, zipf-ish key skew, combiner, 4 workers, injected faults:
  // the kitchen sink. Output must equal an analytically computed histogram.
  const size_t n = 20000;
  std::vector<uint32_t> input(n);
  std::iota(input.begin(), input.end(), 0);
  JobSpec<uint32_t, uint32_t, uint64_t, std::pair<uint32_t, uint64_t>> spec;
  spec.name = "stress";
  spec.map = [](const uint32_t& v, Emitter<uint32_t, uint64_t>* out) {
    // Key skew: ~half of all records share key 0.
    uint32_t key = v % 2 == 0 ? 0 : v % 97;
    out->Emit(key, v);
  };
  spec.combiner = [](const uint32_t&, std::vector<uint64_t> values) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    return std::vector<uint64_t>{s};
  };
  spec.reduce = [](const uint32_t& k, std::span<const uint64_t> values,
                   std::vector<std::pair<uint32_t, uint64_t>>* out) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    out->push_back({k, s});
  };
  Options options;
  options.num_workers = 4;
  options.num_partitions = 16;
  options.faults.map_failure_rate = 0.2;
  options.faults.reduce_failure_rate = 0.2;
  options.max_task_attempts = 16;
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const uint32_t>(input), options, &counters);
  ASSERT_TRUE(result.ok());
  // Analytic ground truth.
  std::map<uint32_t, uint64_t> expected;
  for (uint32_t v = 0; v < n; ++v) {
    expected[v % 2 == 0 ? 0 : v % 97] += v;
  }
  std::map<uint32_t, uint64_t> got(result->begin(), result->end());
  EXPECT_EQ(got, expected);
  // Skew surfaced: the hot partition carries most of the bytes.
  EXPECT_GT(counters.max_partition_bytes, counters.shuffle_bytes / 16);
}

TEST(CostModelTest, ModeledSecondsChargesShuffle) {
  std::vector<std::string> docs(50, "alpha beta gamma");
  Options plain, modeled;
  modeled.modeled_shuffle_bandwidth = 1e6;  // 1 MB/s: visible charge
  JobCounters plain_counters, modeled_counters;
  ASSERT_TRUE(RunJob(WordCountSpec(), std::span<const std::string>(docs),
                     plain, &plain_counters)
                  .ok());
  ASSERT_TRUE(RunJob(WordCountSpec(), std::span<const std::string>(docs),
                     modeled, &modeled_counters)
                  .ok());
  // Off: modeled == measured.
  EXPECT_DOUBLE_EQ(plain_counters.modeled_seconds,
                   plain_counters.total_seconds);
  // On: measured + bytes / bandwidth.
  EXPECT_NEAR(modeled_counters.modeled_seconds,
              modeled_counters.total_seconds +
                  static_cast<double>(modeled_counters.shuffle_bytes) / 1e6,
              1e-12);
}

// ------------------------------------------------- Exceptions in user code

TEST(ExceptionTest, ThrownMapExceptionBecomesInternalStatus) {
  std::vector<std::string> docs = {"a"};
  auto spec = WordCountSpec();
  spec.map = [](const std::string&, Emitter<std::string, uint32_t>*) {
    throw std::runtime_error("user map blew up");
  };
  Options options;
  options.max_task_attempts = 3;
  auto result = RunJob(spec, std::span<const std::string>(docs), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("user map blew up"),
            std::string::npos);
}

TEST(ExceptionTest, ThrownReduceExceptionBecomesInternalStatus) {
  std::vector<std::string> docs = {"a"};
  auto spec = WordCountSpec();
  spec.reduce = [](const std::string&, std::span<const uint32_t>,
                   std::vector<std::pair<std::string, uint32_t>>*) {
    throw std::runtime_error("user reduce blew up");
  };
  auto result = RunJob(spec, std::span<const std::string>(docs));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("user reduce blew up"),
            std::string::npos);
}

TEST(ExceptionTest, TransientExceptionIsRetriedAndCounted) {
  std::vector<std::string> docs = {"a b"};
  auto spec = WordCountSpec();
  auto hiccups = std::make_shared<std::atomic<int>>(0);
  auto inner = spec.map;
  spec.map = [hiccups, inner](const std::string& doc,
                              Emitter<std::string, uint32_t>* out) {
    if (hiccups->fetch_add(1, std::memory_order_relaxed) == 0) {
      throw std::runtime_error("transient");
    }
    inner(doc, out);
  };
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const std::string>(docs), Options{}, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToMap(*result)["a"], 1u);
  EXPECT_EQ(counters.task_exceptions, 1u);
  EXPECT_EQ(counters.map_task_retries, 1u);
}

// --------------------------------------------------------- Task deadlines

TEST(DeadlineTest, SlowAttemptIsKilledAndRetried) {
  // The first map attempt dawdles past the deadline; the retry is fast.
  std::vector<std::string> docs = {"a"};
  auto spec = WordCountSpec();
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto inner = spec.map;
  spec.map = [calls, inner](const std::string& doc,
                            Emitter<std::string, uint32_t>* out) {
    if (calls->fetch_add(1, std::memory_order_relaxed) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    inner(doc, out);
  };
  Options options;
  options.task_deadline_seconds = 0.02;
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const std::string>(docs), options, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ToMap(*result)["a"], 1u);
  EXPECT_GE(counters.deadline_kills, 1u);
  EXPECT_GE(counters.map_task_retries, 1u);
}

TEST(DeadlineTest, PersistentOverrunExhaustsAttemptBudget) {
  std::vector<std::string> docs = {"a"};
  auto spec = WordCountSpec();
  auto inner = spec.map;
  spec.map = [inner](const std::string& doc,
                     Emitter<std::string, uint32_t>* out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    inner(doc, out);
  };
  Options options;
  options.task_deadline_seconds = 0.005;
  options.max_task_attempts = 2;
  auto result = RunJob(spec, std::span<const std::string>(docs), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_NE(result.status().message().find("2 attempts"), std::string::npos);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos);
}

// ------------------------------------- Stragglers & speculative execution

TEST(SpeculationTest, BackupAttemptsRescueInjectedStragglers) {
  std::vector<uint64_t> input(512);
  std::iota(input.begin(), input.end(), 0);
  JobSpec<uint64_t, uint64_t, uint64_t, std::pair<uint64_t, uint64_t>> spec;
  spec.name = "spec-exec";
  spec.map = [](const uint64_t& v, Emitter<uint64_t, uint64_t>* out) {
    out->Emit(v % 13, v);
  };
  spec.reduce = [](const uint64_t& k, std::span<const uint64_t> values,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    out->push_back({k, s});
  };
  Options clean;
  clean.num_workers = 4;
  clean.num_partitions = 8;
  auto baseline = RunJob(spec, std::span<const uint64_t>(input), clean);
  ASSERT_TRUE(baseline.ok());

  Options slow = clean;
  slow.faults.straggler_rate = 0.2;
  slow.faults.straggler_slowdown = 10.0;
  slow.faults.straggler_min_seconds = 0.25;
  slow.faults.seed = 7;
  slow.speculative_execution = true;
  slow.speculative_multiplier = 3.0;
  slow.speculative_min_completed = 3;
  JobCounters counters;
  auto result =
      RunJob(spec, std::span<const uint64_t>(input), slow, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*baseline, *result);  // first-commit-wins is bit-identical
  EXPECT_GT(counters.speculative_launches, 0u);
  EXPECT_GT(counters.speculative_wins, 0u);
  EXPECT_GT(counters.straggler_ratio, 1.0);
  EXPECT_GE(counters.max_attempt_seconds, counters.median_attempt_seconds);
}

TEST(SpeculationTest, AttemptDurationStatsArePopulated) {
  std::vector<std::string> docs(32, "a b c");
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       Options{}, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(counters.straggler_ratio, 0.0);
  EXPECT_GE(counters.p99_attempt_seconds, counters.median_attempt_seconds);
  EXPECT_GE(counters.max_attempt_seconds, counters.p99_attempt_seconds);
}

// ------------------------------------------------- Bad-record tolerance

TEST(BadRecordTest, CorruptionFailsJobByDefault) {
  std::vector<std::string> docs(16, "a b");
  Options options;
  options.num_workers = 2;
  options.faults.corruption_rate = 1.0;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

TEST(BadRecordTest, SkipBadRecordsStepsOverPoisonAndCountsIt) {
  std::vector<std::string> docs(16, "a b");
  Options clean;
  clean.num_workers = 2;
  clean.num_partitions = 4;
  auto baseline =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), clean);
  ASSERT_TRUE(baseline.ok());

  Options poisoned = clean;
  poisoned.faults.corruption_rate = 1.0;  // every (task, partition) poisoned
  poisoned.skip_bad_records = true;
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       poisoned, &counters);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*baseline, *result);  // poison is off-path: output untouched
  // One poison frame per (map task, partition): 16 docs -> 8 map tasks
  // (2 workers x 4) x 4 partitions.
  EXPECT_EQ(counters.skipped_records, 8u * 4u);
}

TEST(BadRecordTest, SkipIsDeterministicAcrossRetries) {
  // Corruption + failures + skipping together must still be bit-identical:
  // poison placement ignores the attempt number.
  std::vector<std::string> docs(32, "x y z");
  Options clean;
  clean.num_workers = 2;
  clean.num_partitions = 4;
  auto baseline =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), clean);
  ASSERT_TRUE(baseline.ok());
  Options chaos = clean;
  chaos.faults.corruption_rate = 0.5;
  chaos.faults.map_failure_rate = 0.3;
  chaos.faults.reduce_failure_rate = 0.3;
  chaos.max_task_attempts = 16;
  chaos.skip_bad_records = true;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), chaos);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*baseline, *result);
}

// ------------------------------------------------- Checkpoint store

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("ddp_ckpt_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CheckpointTest, SecondRunReplaysFromStore) {
  std::vector<std::string> docs = {"a b a", "b c"};
  CheckpointStore store(dir_);
  Options options;
  options.checkpoint = &store;

  JobCounters first, second;
  store.ResetSequence();
  auto r1 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   options, &first);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(first.loaded_from_checkpoint);

  store.ResetSequence();  // a fresh driver run requests the same keys
  auto r2 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   options, &second);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(second.loaded_from_checkpoint);
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(second.reduce_output_records, r1->size());
}

TEST_F(CheckpointTest, SimulatedKillAbortsAndResumeReplays) {
  std::vector<std::string> docs = {"a b", "c"};
  CheckpointStore store(dir_);
  Options options;
  options.checkpoint = &store;

  store.ResetSequence();
  auto r1 =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), options);
  ASSERT_TRUE(r1.ok());

  store.SetKillAfter(0);  // next save dies
  store.ResetSequence();
  // The first job replays (no save), so add a second, different job that
  // must save -- and die doing it.
  JobCounters replayed;
  auto r2 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   options, &replayed);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(replayed.loaded_from_checkpoint);
  std::vector<std::string> more = {"d e"};
  auto spec2 = WordCountSpec();
  spec2.name = "wordcount-2";
  auto killed = RunJob(spec2, std::span<const std::string>(more), options);
  ASSERT_FALSE(killed.ok());
  EXPECT_TRUE(killed.status().IsCancelled());

  store.SetKillAfter(-1);
  store.ResetSequence();
  JobCounters c1, c2;
  auto r3 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   options, &c1);
  auto r4 = RunJob(spec2, std::span<const std::string>(more), options, &c2);
  ASSERT_TRUE(r3.ok() && r4.ok());
  EXPECT_TRUE(c1.loaded_from_checkpoint);   // finished before the kill
  EXPECT_FALSE(c2.loaded_from_checkpoint);  // lost to the kill; re-ran
  EXPECT_EQ(*r1, *r3);
}

TEST_F(CheckpointTest, CorruptEntryIsRecomputedNotTrusted) {
  std::vector<std::string> docs = {"a b a"};
  CheckpointStore store(dir_);
  Options options;
  options.checkpoint = &store;
  store.ResetSequence();
  auto r1 =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), options);
  ASSERT_TRUE(r1.ok());

  // Flip bytes in every stored entry.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(6);
    f.put('\xee');
  }
  store.ResetSequence();
  JobCounters counters;
  auto r2 = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                   options, &counters);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(counters.loaded_from_checkpoint);  // checksum caught it
  EXPECT_EQ(*r1, *r2);
}

// An entry declaring 2^64 - 8 payload bytes. A `size + 8` bound wraps to 0
// and would let LoadBytes resize to the declared size.
TEST_F(CheckpointTest, DeclaredSizeThatWrapsTheBoundIsIoError) {
  CheckpointStore store(dir_);
  ASSERT_TRUE(store.SaveBytes("0-job", "payload").ok());
  BufferWriter w;
  w.PutRaw("DPCK", 4);
  w.PutVarint64(~uint64_t{0} - 7);
  w.PutRaw("12345678", 8);
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << w.data();
  }
  EXPECT_TRUE(store.LoadBytes("0-job").status().IsIoError());
}

TEST(OptionsTest, Defaults) {
  Options o;
  EXPECT_GE(o.ResolvedWorkers(), 1u);
  EXPECT_EQ(o.ResolvedPartitions(), 4 * o.ResolvedWorkers());
  o.num_workers = 3;
  o.num_partitions = 7;
  EXPECT_EQ(o.ResolvedWorkers(), 3u);
  EXPECT_EQ(o.ResolvedPartitions(), 7u);
}

}  // namespace
}  // namespace mr
}  // namespace ddp
