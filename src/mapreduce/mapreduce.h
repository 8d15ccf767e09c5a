#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "mapreduce/phase.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

/// \file mapreduce.h
/// A typed MapReduce runtime. This is the paper's execution substrate:
/// every distributed DP variant (Basic-DDP, LSH-DDP, EDDPC, MR K-means) is
/// written as genuine map()/reduce() functions against this API and
/// executed here. `RunJob` is a thin typed adapter over the phase engine
/// compiled once in phase.cc (phase.h): this header holds only what depends
/// on a job's types — the emitters, the map and reduce task bodies, and the
/// input and output codecs.
///
/// Faithfulness to a Hadoop-style system:
///  * Map tasks run in parallel over input splits.
///  * Every intermediate (key, value) pair is SERIALIZED into the key-sorted
///    runs of its reduce partition (spill.h) — `JobCounters::shuffle_bytes`
///    is the size of real encoded data, the quantity a cluster would move
///    over the network. Records are length-framed (like Hadoop's IFile) so
///    the reduce side can re-sync past a corrupt record.
///  * Reduce tasks k-way merge their partition's runs, group by key and
///    reduce, in parallel. A key's values arrive in input order, and output
///    order is deterministic (partition-major, key-sorted within a
///    partition).
///  * An optional combiner folds map-side values per key before
///    serialization, shrinking shuffle volume exactly as Hadoop combiners do.
///  * The full Hadoop fault-tolerance toolkit, driven by deterministic chaos
///    injection (`FaultInjection`): task retry with an attempt budget,
///    speculative backup attempts for stragglers (first finisher commits,
///    losers are abandoned), per-attempt deadlines, bad-record skipping
///    (`Options::skip_bad_records`), user-exception capture, and job-boundary
///    checkpoint/resume (`Options::checkpoint`). Tasks are pure functions of
///    their input split, so every recovery path yields bit-identical output.
///  * Out-of-core execution (`Options::memory_budget_bytes`, spill.h): map
///    tasks spill their sorted, CRC-trailed runs to `Options::spill_dir`
///    when their buffered intermediate bytes exceed the budget — Hadoop's
///    spill/merge pipeline — instead of keeping them in memory. Output is
///    bit-identical at every budget.
///
/// Type requirements:
///  * `MidK`: Serde<MidK>, `KeyTraits<MidK>::Hash`, operator== and
///    `KeyTraits<MidK>::Less` (defaults use std::hash / operator<).
///  * `MidV`, and nothing else: Serde<MidV>.

namespace ddp {
namespace mr {

/// Hash/order customization point for intermediate keys.
template <typename K, typename Enable = void>
struct KeyTraits {
  static size_t Hash(const K& k) { return std::hash<K>{}(k); }
  static bool Less(const K& a, const K& b) { return a < b; }
};

/// Keys that are vectors of integers (LSH bucket signatures).
template <typename T>
struct KeyTraits<std::vector<T>, std::enable_if_t<std::is_integral_v<T>>> {
  static size_t Hash(const std::vector<T>& k) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (T v : k) {
      h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
  static bool Less(const std::vector<T>& a, const std::vector<T>& b) {
    return a < b;
  }
};

/// Pair keys (e.g. (layout m, bucket id)).
template <typename A, typename B>
struct KeyTraits<std::pair<A, B>> {
  static size_t Hash(const std::pair<A, B>& k) {
    size_t h1 = KeyTraits<A>::Hash(k.first);
    size_t h2 = KeyTraits<B>::Hash(k.second);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
  static bool Less(const std::pair<A, B>& a, const std::pair<A, B>& b) {
    if (KeyTraits<A>::Less(a.first, b.first)) return true;
    if (KeyTraits<A>::Less(b.first, a.first)) return false;
    return KeyTraits<B>::Less(a.second, b.second);
  }
};

/// Receives intermediate pairs from map functions.
template <typename MidK, typename MidV>
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const MidK& key, const MidV& value) = 0;
};

/// A MapReduce job specification.
///
/// `map` is invoked once per input record; `reduce` once per distinct key
/// with all values for that key. `combiner`, when set, is applied map-side to
/// the value list of each key within one map task and must return the
/// combined value list (commonly a single element for sum/min/max).
template <typename In, typename MidK, typename MidV, typename Out>
struct JobSpec {
  std::string name = "job";
  std::function<void(const In&, Emitter<MidK, MidV>*)> map;
  std::function<void(const MidK&, std::span<const MidV>, std::vector<Out>*)>
      reduce;
  std::function<std::vector<MidV>(const MidK&, std::vector<MidV>)> combiner;

  /// Remote execution identity (ExecMode::kRemote): the JobRegistry id this
  /// spec's tasks run under in a ddp_worker binary. The registered factory
  /// on the worker side must rebuild an equivalent spec from the context
  /// blob `remote_ctx` writes (typically a driver Ctx struct's Encode).
  /// Required for kRemote: a spec without one fails there.
  std::string remote_task_id;
  std::function<void(BufferWriter*)> remote_ctx;
};

namespace internal {

/// The map-side emitter: forwards every pair into a SpillingBuffer
/// (spill.h), which sorts its runs and, under a memory budget, flushes them
/// to disk whenever the budget is hit. Spill I/O errors are deferred and
/// surfaced by Finish(), keeping the Emitter interface non-failing.
template <typename MidK, typename MidV>
class SpillingEmitter : public Emitter<MidK, MidV> {
 public:
  SpillingEmitter(size_t num_partitions, uint64_t budget_bytes,
                  std::string spill_dir, std::string file_label)
      : buffer_(num_partitions, budget_bytes, std::move(spill_dir),
                std::move(file_label)) {}

  void Emit(const MidK& key, const MidV& value) override {
    buffer_.Add(key, value);
  }

  void AppendPoisonFrame(size_t p) { buffer_.AddPoisonFrame(p); }

  SpillingBuffer<MidK, MidV, KeyTraits<MidK>>& buffer() { return buffer_; }

 private:
  SpillingBuffer<MidK, MidV, KeyTraits<MidK>> buffer_;
};

/// Map-side emitter that holds pairs in memory for combining.
template <typename MidK, typename MidV>
class CombiningEmitter : public Emitter<MidK, MidV> {
 public:
  void Emit(const MidK& key, const MidV& value) override {
    groups_[key].push_back(value);
    ++records_;
  }

  /// Applies `combiner` per key and forwards results to `sink` in
  /// KeyTraits order. Hash-map iteration order must never reach the
  /// shuffle: downstream record order has to be derivable from the keys
  /// alone, not from a particular hash table's bucket layout.
  void Flush(
      const std::function<std::vector<MidV>(const MidK&, std::vector<MidV>)>&
          combiner,
      Emitter<MidK, MidV>* sink) {
    std::vector<const MidK*> keys;
    keys.reserve(groups_.size());
    for (auto& [key, values] : groups_) keys.push_back(&key);
    std::sort(keys.begin(), keys.end(), [](const MidK* a, const MidK* b) {
      return KeyTraits<MidK>::Less(*a, *b);
    });
    for (const MidK* key : keys) {
      std::vector<MidV> combined = combiner(*key, std::move(groups_[*key]));
      for (MidV& v : combined) sink->Emit(*key, v);
    }
    groups_.clear();
  }

  uint64_t records() const { return records_; }

 private:
  struct HashFn {
    size_t operator()(const MidK& k) const { return KeyTraits<MidK>::Hash(k); }
  };
  std::unordered_map<MidK, std::vector<MidV>, HashFn> groups_;
  uint64_t records_ = 0;
};

/// One reduce task's output slot.
template <typename Out>
struct ReduceTaskOutput : ReduceTaskStats {
  std::vector<Out> out;
};

/// The codec of ReduceTaskOutput<Out> slots (requires Serde<Out>). Reduce
/// outputs are final results, not shuffle data, so the whole output rides
/// the result payload and no runs stream ahead of it.
template <typename Out>
SlotCodec ReduceSlotCodec() {
  SlotCodec codec;
  codec.serialize = [](BufferWriter* w, TaskSlot& slot) {
    const auto& ro = static_cast<const ReduceTaskOutput<Out>&>(slot);
    Serde<std::vector<Out>>::Write(w, ro.out);
    w->PutVarint64(ro.groups);
    w->PutVarint64(ro.skipped);
    w->PutVarint64(ro.merge_passes);
    Serde<std::vector<uint64_t>>::Write(w, ro.group_size_log2);
  };
  codec.deserialize = [](BufferReader* r, TaskSlot* slot) -> Status {
    auto* ro = static_cast<ReduceTaskOutput<Out>*>(slot);
    DDP_RETURN_NOT_OK(Serde<std::vector<Out>>::Read(r, &ro->out));
    DDP_RETURN_NOT_OK(r->GetVarint64(&ro->groups));
    DDP_RETURN_NOT_OK(r->GetVarint64(&ro->skipped));
    DDP_RETURN_NOT_OK(r->GetVarint64(&ro->merge_passes));
    return Serde<std::vector<uint64_t>>::Read(r, &ro->group_size_log2);
  };
  return codec;
}

/// The input slice of map task `t` when the input is cut into tasks of
/// `chunk` records. RunJob makes min(n, 4 * workers) tasks of
/// ceil(n / tasks) records, so the last tasks can start past the end
/// (n = 100 over 16 tasks: chunk 7, task 15 would start at 105); those get
/// an empty slice. Cutting at t * chunk rather than balancing the tasks
/// keeps every boundary inside the input fixed, and with it the order in
/// which reducers see values (gaussian sums depend on it).
template <typename In>
std::span<const In> MapTaskSlice(std::span<const In> input, size_t chunk,
                                 size_t t) {
  const size_t begin = std::min(input.size(), t * chunk);
  return input.subspan(begin, std::min(chunk, input.size() - begin));
}

/// A map task's input slice by value, for a remote worker, in the layout
/// of Serde<std::vector<In>>.
template <typename In>
std::string EncodeMapSlice(std::span<const In> slice) {
  std::string bytes;
  BufferWriter w(&bytes);
  w.PutVarint64(slice.size());
  for (const In& record : slice) Serde<In>::Write(&w, record);
  return bytes;
}

/// Executes one map task over its input slice — the body RunJob schedules
/// and a remote ddp_worker replays from a kTaskAssign frame. `task` is the
/// job-wide task id (poison placement hashes it, so a remote slice
/// reproduces the exact corruption an in-process run injects); the
/// cancel-poll cadence is slice-relative either way. The output is the
/// task's sorted runs, in memory or, under a memory budget, on disk.
template <typename In, typename MidK, typename MidV, typename Out>
Status ExecuteMapTask(const JobSpec<In, MidK, MidV, Out>& spec,
                      std::span<const In> slice, size_t task,
                      const MapTaskParams& params, CancelToken* cancel,
                      MapTaskOutput* out) {
  // A failed attempt's partial output is discarded, exactly like a lost
  // Hadoop task: the emitter is attempt-local and only committed by the
  // scheduler on success. Spill files are attempt-local too: they have no
  // names to collide, and a failed or abandoned attempt's handles close, and
  // so free, its file on the way out.
  const size_t num_partitions = params.num_partitions;
  SpillingEmitter<MidK, MidV> emitter(num_partitions,
                                      params.memory_budget_bytes,
                                      params.spill_dir,
                                      spec.name + "-m" + std::to_string(task));
  CombiningEmitter<MidK, MidV> combining;
  Emitter<MidK, MidV>* target = &emitter;
  if (spec.combiner) target = &combining;
  for (size_t i = 0; i < slice.size(); ++i) {
    if ((i & 1023u) == 0 && cancel->cancelled()) {
      return Status::Cancelled("map attempt abandoned");
    }
    spec.map(slice[i], target);
  }
  if (spec.combiner) {
    out->combine_in = combining.records();
    combining.Flush(spec.combiner, &emitter);
  }
  const FaultInjection& faults = params.faults;
  if (faults.corruption_rate > 0.0) {
    // Poison placement is a function of (task, partition), never the
    // attempt: recovery paths rebuild bit-identical runs.
    for (size_t p = 0; p < num_partitions; ++p) {
      if (ShouldInjectFailure(faults, faults.corruption_rate, spec.name,
                              /*phase=*/2, task, p)) {
        emitter.AppendPoisonFrame(p);
      }
    }
  }
  auto& buffer = emitter.buffer();
  DDP_RETURN_NOT_OK(buffer.Finish());
  out->runs = std::move(buffer.runs());
  out->payload_bytes = buffer.payload_bytes();
  out->records = buffer.records();
  out->spilled_bytes = buffer.spilled_bytes();
  out->spill_files = buffer.spill_files();
  out->spill_seconds = buffer.spill_seconds();
  return Status::OK();
}

/// Executes one reduce task: a k-way merge over `sources` (this partition's
/// runs, in (map task id, spill index, tail) order so every key's values
/// arrive in (map task id, emission index) order), grouping and reducing
/// each key. `any_run` counts one merge pass when a spilled run actually
/// fed the merge — remote callers pass the flag computed supervisor-side,
/// keeping merge_passes identical to a local run even though shipped runs
/// arrive as in-memory bytes.
template <typename In, typename MidK, typename MidV, typename Out>
Status ExecuteSortedReduceTask(const JobSpec<In, MidK, MidV, Out>& spec,
                               size_t p,
                               std::vector<std::unique_ptr<FrameStream>>
                                   sources,
                               bool any_run, bool skip_bad,
                               CancelToken* cancel,
                               ReduceTaskOutput<Out>* out) {
  DDP_TRACE_SPAN(merge_span, obs::kCatMr, obs::kSpanMergeStream);
  if (merge_span.active()) {
    merge_span.AddArg("partition", static_cast<uint64_t>(p));
    merge_span.AddArg("sources", static_cast<uint64_t>(sources.size()));
  }
  MergingGroupReader<MidK, MidV, KeyTraits<MidK>> merger(std::move(sources),
                                                         skip_bad, cancel);
  Status st = merger.Init();
  MidK key;
  std::vector<MidV> values;
  while (st.ok()) {
    bool has = false;
    st = merger.NextGroup(&key, &values, &has);
    if (!st.ok() || !has) break;
    spec.reduce(key, values, &out->out);
    out->CountGroup(values.size());
  }
  if (!st.ok()) {
    merge_span.MarkCancelled();
    if (st.IsCancelled()) return st;
    return Status::IoError("reduce partition " + std::to_string(p) + ": " +
                           st.message());
  }
  out->skipped = merger.skipped();
  // One streaming pass merges every run of this partition; counted only
  // when a spilled run actually fed the merge.
  out->merge_passes = any_run ? 1 : 0;
  return Status::OK();
}

}  // namespace internal

/// Executes `spec` over `input` and returns all reduce outputs
/// (deterministic order). Counter accumulation is optional. The typed
/// adapter of the phase engine: it wraps the spec's bodies and codecs into
/// internal::JobTasks hooks, and internal::RunJobTasks does the rest.
template <typename In, typename MidK, typename MidV, typename Out>
Result<std::vector<Out>> RunJob(const JobSpec<In, MidK, MidV, Out>& spec,
                                std::span<const In> input,
                                const Options& options = {},
                                JobCounters* counters_out = nullptr) {
  if (!spec.map) return Status::InvalidArgument("JobSpec.map is not set");
  if (!spec.reduce) return Status::InvalidArgument("JobSpec.reduce is not set");
  using internal::TaskSlot;
  using ReduceOutput = internal::ReduceTaskOutput<Out>;
  const bool skip_bad = options.skip_bad_records;
  std::vector<Out> output;

  internal::JobTasks job;
  job.name = spec.name;
  job.input_records = input.size();
  job.num_map_tasks = std::max<size_t>(
      1, std::min(input.size(), options.ResolvedWorkers() * 4));
  const size_t chunk =
      (input.size() + job.num_map_tasks - 1) / job.num_map_tasks;
  job.map = [&spec, input, chunk](size_t t,
                                  const internal::MapTaskParams& params,
                                  CancelToken* cancel,
                                  internal::MapTaskOutput* out) {
    return internal::ExecuteMapTask(spec,
                                    internal::MapTaskSlice(input, chunk, t),
                                    t, params, cancel, out);
  };
  if constexpr (has_serde_v<In>) {
    job.map_input = [input, chunk](size_t t) -> Result<std::string> {
      return internal::EncodeMapSlice(internal::MapTaskSlice(input, chunk, t));
    };
  }
  job.remote_task_id = spec.remote_task_id;
  job.remote_ctx = spec.remote_ctx;

  job.new_reduce_slot = [] { return std::make_unique<ReduceOutput>(); };
  job.reduce = [&spec, skip_bad](
                   size_t p, std::vector<std::unique_ptr<FrameStream>> sources,
                   bool any_run, CancelToken* cancel, TaskSlot* slot) {
    return internal::ExecuteSortedReduceTask(spec, p, std::move(sources),
                                             any_run, skip_bad, cancel,
                                             static_cast<ReduceOutput*>(slot));
  };
  job.collect = [&output](internal::TaskSlots& slots) {
    size_t total = 0;
    for (auto& slot : slots) {
      total += static_cast<ReduceOutput&>(*slot).out.size();
    }
    output.reserve(total);
    for (auto& slot : slots) {
      std::vector<Out>& out = static_cast<ReduceOutput&>(*slot).out;
      std::move(out.begin(), out.end(), std::back_inserter(output));
    }
    return static_cast<uint64_t>(output.size());
  };
  if constexpr (has_serde_v<Out>) {
    job.reduce_codec = internal::ReduceSlotCodec<Out>();
    job.replay = [&output](const std::string& bytes) -> Result<uint64_t> {
      BufferReader reader(bytes);
      std::vector<Out> replayed;
      DDP_RETURN_NOT_OK(Serde<std::vector<Out>>::Read(&reader, &replayed));
      if (!reader.exhausted()) return Status::IoError("trailing bytes");
      output = std::move(replayed);
      return static_cast<uint64_t>(output.size());
    };
    job.save = [&output](BufferWriter* w) {
      Serde<std::vector<Out>>::Write(w, output);
    };
  }
  DDP_RETURN_NOT_OK(internal::RunJobTasks(job, options, counters_out));
  return output;
}

}  // namespace mr
}  // namespace ddp
