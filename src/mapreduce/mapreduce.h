#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <optional>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mapreduce/checkpoint.h"
#include "mapreduce/counters.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"
#include "obs/heartbeat.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file mapreduce.h
/// A typed, in-process MapReduce runtime. This is the paper's execution
/// substrate: every distributed DP variant (Basic-DDP, LSH-DDP, EDDPC,
/// MR K-means) is written as genuine map()/reduce() functions against this
/// API and executed here.
///
/// Faithfulness to a Hadoop-style system:
///  * Map tasks run in parallel over input splits.
///  * Every intermediate (key, value) pair is SERIALIZED into a
///    per-reduce-partition byte buffer — `JobCounters::shuffle_bytes` is the
///    size of real encoded data, the quantity a cluster would move over the
///    network. Records are length-framed (like Hadoop's IFile) so the reduce
///    side can re-sync past a corrupt record.
///  * Reduce partitions deserialize, sort by key, group, and run reduce tasks
///    in parallel. Output order is deterministic (partition-major, key-sorted
///    within a partition).
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
///    tasks spill sorted, CRC-trailed runs to `Options::spill_dir` when their
///    buffered intermediate bytes exceed the budget, and reduce streams a
///    k-way merge over those runs instead of materializing the partition —
///    Hadoop's spill/merge pipeline. Output is bit-identical to the
///    in-memory path at every budget.
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

/// Deterministic chaos injection, for exercising the recovery paths the way
/// a Hadoop cluster loses, slows, and corrupts tasks. Every decision is a
/// pure function of (seed, job name, phase, task, attempt), so runs remain
/// reproducible and every recovery path produces identical output.
struct FaultInjection {
  double map_failure_rate = 0.0;     // probability a map attempt fails
  double reduce_failure_rate = 0.0;  // probability a reduce attempt fails
  /// Straggler model: with probability `straggler_rate`, an attempt dawdles
  /// after finishing its work as if it ran on a slow node, stretching its
  /// wall time to ~`straggler_slowdown` times the compute time (but at least
  /// `straggler_min_seconds`, so micro-tasks still produce wall-clock-visible
  /// stragglers). The dawdle is interruptible: abandoned attempts release
  /// their worker as soon as the scheduler cancels them.
  double straggler_rate = 0.0;
  double straggler_slowdown = 10.0;
  double straggler_min_seconds = 0.0;
  /// Shuffle corruption: probability, per (map task, partition), of appending
  /// a poisoned frame to that partition's buffer. Poisoned frames are
  /// well-formed at the framing layer but never decode as a record, so they
  /// model flipped bits caught by deserialization. The injection ignores the
  /// attempt number: retried and speculative attempts build bit-identical
  /// buffers, and a poisoned frame is "off-path" chaff whose skipping cannot
  /// change job output.
  double corruption_rate = 0.0;
  /// Multi-process chaos (ExecMode::kFork only; the in-process executor has
  /// no worker processes to lose). `worker_crash_rate` is the probability,
  /// per (task, attempt), that the attempt SIGKILLs its worker — a second
  /// hash bit picks whether the crash lands before the task body ("mid-map")
  /// or after the body but before the result ships ("mid-shuffle").
  /// `poison_task_rate` is the probability a TASK is poisonous: its record
  /// deterministically kills the worker on every attempt, independent of the
  /// attempt number, until the supervisor quarantines it (skip_bad_records)
  /// or fails the job. Both injections are suppressed in quarantine, so a
  /// quarantined task commits the same bytes an in-process run produces.
  double worker_crash_rate = 0.0;
  double poison_task_rate = 0.0;
  /// TCP transport only: probability, per (task, attempt), that the worker's
  /// connection drops mid-run while it streams the attempt's shuffle runs.
  /// The worker reconnects, the supervisor discards the partial run and
  /// answers with the last committed run boundary, and the stream resumes —
  /// committed bytes are identical to an undropped run. Ignored on
  /// transports that cannot reconnect (a socketpair drop is a worker loss).
  double channel_drop_rate = 0.0;
  uint64_t seed = 1;
};

/// Execution substrate for the map and reduce phases.
enum class ExecMode {
  /// Tasks run on a thread pool in this process (RunRobustPhase).
  kInProc = 0,
  /// Tasks run in forked worker processes under a WorkerSupervisor
  /// (supervisor.h): real crash isolation, heartbeat hang detection, seeded
  /// backoff reattempts, poison-task quarantine. Falls back to kInProc —
  /// counted in JobCounters::exec_fallbacks — when fork execution is
  /// unsupported (non-POSIX, TSan) or no worker could be spawned, and for
  /// reduce phases whose output type has no Serde (the results could not
  /// cross the process boundary). Output is bit-identical to kInProc.
  kFork = 1,
  /// Tasks run in separately exec'd ddp_worker processes (possibly on other
  /// hosts) that dialed `Options::remote_pool`'s listener, plus
  /// `Options::remote_local_workers` forked locals. Tasks ship by *name*
  /// (JobSpec::remote_task_id against the worker's JobRegistry) with their
  /// input serialized by value, so nothing is fork-captured. Jobs whose
  /// input type has no Serde or whose spec carries no remote_task_id
  /// degrade to kFork semantics (counted in exec_fallbacks). Output is
  /// bit-identical to kInProc.
  kRemote = 2,
};

struct Options {
  /// Number of worker threads for the map and reduce phases.
  size_t num_workers = 0;  // 0 => DefaultParallelism()
  /// Number of reduce partitions (0 => 4 * workers, Hadoop-style default).
  size_t num_partitions = 0;
  /// Attempts per task before the whole job fails (Hadoop default: 4).
  size_t max_task_attempts = 4;
  FaultInjection faults;
  /// Cluster cost model (paper Eq. (9)): when > 0, JobCounters reports
  /// modeled_seconds = total_seconds + shuffle_bytes / this bandwidth,
  /// charging every shuffled byte the network/disk cost an in-process run
  /// does not pay. 0 disables (modeled_seconds == total_seconds).
  double modeled_shuffle_bandwidth = 0.0;  // bytes per second

  /// Wall-clock budget per task attempt; an attempt that exceeds it counts
  /// as a failed attempt (feeding max_task_attempts) instead of hanging the
  /// job. 0 disables. Attempts sleeping in an injected straggler dawdle are
  /// killed promptly; attempts stuck in user code are charged when they
  /// return.
  double task_deadline_seconds = 0.0;

  /// Hadoop-style speculative execution: once `speculative_min_completed`
  /// attempts have committed, a task whose sole running attempt has been in
  /// flight longer than `speculative_multiplier` times the median committed
  /// attempt time gets one backup attempt. First finisher commits; the loser
  /// is cancelled and its output discarded. Output is bit-identical either
  /// way because attempts are pure.
  bool speculative_execution = false;
  double speculative_multiplier = 3.0;
  size_t speculative_min_completed = 3;

  /// When true, a shuffle record that fails to deserialize is skipped and
  /// counted in JobCounters::skipped_records, instead of failing the job
  /// after every other partition has done its work (Hadoop's
  /// "skip bad records" mode). When false, the first bad record aborts the
  /// job and cancels in-flight partitions early.
  bool skip_bad_records = false;

  /// Optional job-boundary checkpointing: completed jobs persist their
  /// output here and are replayed on re-runs (see checkpoint.h). Borrowed,
  /// not owned. Jobs whose output type has no Serde are executed normally
  /// (re-running them on resume is correct, just not free).
  CheckpointStore* checkpoint = nullptr;

  /// Out-of-core execution. When > 0, a map task whose buffered intermediate
  /// payload bytes reach this budget key-sorts its in-memory segment and
  /// spills it to `spill_dir` as CRC-trailed sorted runs (one per non-empty
  /// partition); the reduce side then streams a k-way merge over each
  /// partition's runs plus the in-memory tails instead of decoding and
  /// sorting the whole partition. 0 keeps the all-in-memory path. Output is
  /// bit-identical either way (see spill.h for the determinism contract).
  uint64_t memory_budget_bytes = 0;
  /// Directory for spill files; empty means "<system temp>/ddp-spill".
  /// Files are created with process-unique names and removed when the job's
  /// intermediate state is dropped, so concurrent jobs can share it.
  std::string spill_dir;

  /// Progress heartbeat (obs/heartbeat.h): when > 0, each map/reduce phase
  /// logs tasks-done/total and the completion rate every this many seconds.
  /// 0 (default) starts no heartbeat thread at all.
  double heartbeat_seconds = 0.0;

  /// Execution substrate (see ExecMode). Multi-process knobs below apply
  /// only to kFork.
  ExecMode exec_mode = ExecMode::kInProc;
  /// Replacement workers each phase may fork after its initial crew dies.
  size_t max_worker_restarts = 8;
  /// Consecutive worker-killing crashes before a task is declared
  /// poisonous and routed through skip_bad_records quarantine.
  size_t quarantine_after_crashes = 2;
  /// Interval of worker liveness heartbeats (kHeartbeat frames); silence
  /// past 8x this interval SIGKILLs the worker as hung. 0 disables.
  double worker_heartbeat_seconds = 0.25;
  /// Transport carrying supervisor<->worker frames (channel.h). kPipe forks
  /// over a socketpair; kTcp listens on `tcp_host:tcp_port` (port 0 picks an
  /// ephemeral port) and workers connect — host-transparent framing, plus
  /// reconnect-and-resume across dropped connections.
  Transport transport = Transport::kPipe;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;

  /// ExecMode::kRemote: the pool of exec'd ddp_worker processes
  /// (remote_worker.h) whose listener remote workers dial. Borrowed, not
  /// owned; one job may use a pool at a time. Required for kRemote — a null
  /// pool degrades the job to kFork semantics.
  RemoteWorkerPool* remote_pool = nullptr;
  /// Local fork workers to run alongside the remote crew (kRemote only;
  /// 0 means the job runs on remote workers exclusively). The mixed crew
  /// shares one scheduler, so a lost remote worker's tasks can land on a
  /// local fork worker and vice versa.
  size_t remote_local_workers = 0;

  /// Cooperative cancellation shared across a pipeline: when set, RunJob
  /// checks the flag before doing any work and again at the map->reduce
  /// boundary, returning Cancelled instead of launching further tasks.
  /// The serving layer (src/server/) points every job of one submission at
  /// the same flag, so a kJobCancel takes effect at the next phase
  /// boundary. Checkpoints saved before the cancel stay valid: a
  /// cancelled-and-resubmitted pipeline resumes from the last completed
  /// job.
  std::shared_ptr<std::atomic<bool>> cancel_flag;
  /// When non-empty, RunJob bumps the registry counter
  /// "<metrics_prefix>.mr_jobs" as each MapReduce job finishes — the
  /// per-submission progress feed of the serving layer, which namespaces it
  /// "server.job.<n>". Must match the [a-z0-9_.]+ metric-name hygiene rule.
  std::string metrics_prefix;

  size_t ResolvedWorkers() const {
    return num_workers == 0 ? DefaultParallelism() : num_workers;
  }
  size_t ResolvedPartitions() const {
    return num_partitions == 0 ? 4 * ResolvedWorkers() : num_partitions;
  }
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
  /// Empty keeps the job local: kRemote degrades to kFork semantics.
  std::string remote_task_id;
  std::function<void(BufferWriter*)> remote_ctx;
};

namespace internal {

/// Pure chaos decision: does event `attempt` of task `task` in `phase` fire?
/// Shared by failure injection (phases 0/1), shuffle corruption (phase 2,
/// with the partition index in the `attempt` slot), and straggler injection
/// (phases 4/5).
inline bool ShouldInjectFailure(const FaultInjection& faults, double rate,
                                const std::string& job_name, int phase,
                                size_t task, size_t attempt) {
  if (rate <= 0.0) return false;
  uint64_t h = faults.seed ^ (uint64_t{0x9e3779b97f4a7c15} * (task + 1)) ^
               (uint64_t{0xc2b2ae3d27d4eb4f} * (attempt + 1)) ^
               (uint64_t{0x165667b19e3779f9} * static_cast<uint64_t>(phase + 1));
  for (char c : job_name) {
    h = h * uint64_t{0x100000001b3} ^ static_cast<uint8_t>(c);
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Map-side emitter that serializes each pair, length-framed, into the
/// buffer of the partition its key hashes to. Frame headers exist so the
/// reduce side can skip a corrupt record; they are bookkeeping, not payload,
/// so byte accounting (`payload_bytes`) counts only the key/value encodings
/// — the quantity the paper's shuffle-cost figures report.
template <typename MidK, typename MidV>
class PartitionedEmitter : public Emitter<MidK, MidV> {
 public:
  explicit PartitionedEmitter(size_t num_partitions)
      : buffers_(num_partitions), payload_bytes_(num_partitions, 0) {}

  void Emit(const MidK& key, const MidV& value) override {
    size_t p = KeyTraits<MidK>::Hash(key) % buffers_.size();
    scratch_.clear();
    BufferWriter rec(&scratch_);
    Serde<MidK>::Write(&rec, key);
    Serde<MidV>::Write(&rec, value);
    BufferWriter out(&buffers_[p]);
    out.PutVarint64(scratch_.size());
    out.PutRaw(scratch_.data(), scratch_.size());
    payload_bytes_[p] += scratch_.size();
    ++records_;
  }

  /// Appends an undecodable frame to partition `p` (shuffle-corruption
  /// injection). The frame is well-formed at the framing layer, so
  /// skip_bad_records can step over it, but its payload can never decode as
  /// a record: 0xff is an unterminated varint and too short for any
  /// fixed-width field, and a decode that somehow consumed less than the
  /// frame is rejected as short.
  void AppendPoisonFrame(size_t p) {
    BufferWriter out(&buffers_[p]);
    out.PutVarint64(1);
    out.PutByte(0xff);
  }

  std::vector<std::string>& buffers() { return buffers_; }
  const std::vector<uint64_t>& payload_bytes() const { return payload_bytes_; }
  uint64_t records() const { return records_; }

 private:
  std::vector<std::string> buffers_;
  std::vector<uint64_t> payload_bytes_;
  std::string scratch_;
  uint64_t records_ = 0;
};

/// Map-side emitter for the out-of-core path: forwards every pair into a
/// memory-budgeted SpillingBuffer (spill.h), which sorts and flushes runs to
/// disk whenever the budget is hit. Spill I/O errors are deferred and
/// surfaced by Finish(), keeping the Emitter interface non-failing.
template <typename MidK, typename MidV>
class SpillingEmitter : public Emitter<MidK, MidV> {
 public:
  SpillingEmitter(size_t num_partitions, uint64_t budget_bytes,
                  std::string spill_dir, std::string file_prefix)
      : buffer_(num_partitions, budget_bytes, std::move(spill_dir),
                std::move(file_prefix)) {}

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

/// Robustness accounting for one phase, merged into JobCounters by RunJob.
struct PhaseStats {
  uint64_t retries = 0;
  uint64_t speculative_launches = 0;
  uint64_t speculative_wins = 0;
  uint64_t deadline_kills = 0;
  uint64_t exceptions = 0;
  std::vector<double> durations;  // committed attempts only
};

/// One map task's output: per-partition sorted in-memory tails plus the
/// sorted runs spilled to disk, with the byte/record accounting RunJob
/// merges into JobCounters. Hoisted out of RunJob so a remote ddp_worker's
/// registered job (remote_job.h) produces the exact same shape.
struct MapTaskOutput {
  std::vector<std::string> buffers;
  std::vector<uint64_t> payload_bytes;
  std::vector<SpillRun> runs;
  uint64_t records = 0;
  uint64_t combine_in = 0;
  uint64_t spilled_bytes = 0;
  uint64_t spill_files = 0;
  double spill_seconds = 0.0;
};

/// One reduce task's output (shared with remote_job.h like MapTaskOutput).
/// `group_size_log2` is the log2-bucketed group-size histogram
/// (bucket = floor(log2(size))) — the per-key population skew picture.
template <typename Out>
struct ReduceTaskOutput {
  std::vector<Out> out;
  uint64_t groups = 0;
  uint64_t skipped = 0;
  uint64_t merge_passes = 0;
  std::vector<uint64_t> group_size_log2;
};

/// ReduceTaskOutput wire codec (multi-process reduce phases; requires
/// Serde<Out>). Reduce outputs are final results, not shuffle data, so the
/// whole output rides the result payload and no runs stream ahead of it.
template <typename Out>
void SerializeReduceOutput(BufferWriter* w, ReduceTaskOutput<Out>& ro) {
  Serde<std::vector<Out>>::Write(w, ro.out);
  w->PutVarint64(ro.groups);
  w->PutVarint64(ro.skipped);
  w->PutVarint64(ro.merge_passes);
  Serde<std::vector<uint64_t>>::Write(w, ro.group_size_log2);
}

template <typename Out>
Status DeserializeReduceOutput(BufferReader* r, ReduceTaskOutput<Out>* ro) {
  DDP_RETURN_NOT_OK(Serde<std::vector<Out>>::Read(r, &ro->out));
  DDP_RETURN_NOT_OK(r->GetVarint64(&ro->groups));
  DDP_RETURN_NOT_OK(r->GetVarint64(&ro->skipped));
  DDP_RETURN_NOT_OK(r->GetVarint64(&ro->merge_passes));
  return Serde<std::vector<uint64_t>>::Read(r, &ro->group_size_log2);
}

/// MapTaskOutput wire codec: counters and byte accounting only. The data —
/// sorted runs and tails — does not ride the result payload; it streams
/// ahead of it as spill segments (ExtractMapRuns / InjectMapRuns), so the
/// supervising parent never materializes a whole map output.
inline void SerializeMapCounters(BufferWriter* w, MapTaskOutput& mo) {
  Serde<std::vector<uint64_t>>::Write(w, mo.payload_bytes);
  w->PutVarint64(mo.records);
  w->PutVarint64(mo.combine_in);
  w->PutVarint64(mo.spilled_bytes);
  w->PutVarint64(mo.spill_files);
  w->PutDouble(mo.spill_seconds);
}

inline Status DeserializeMapCounters(BufferReader* r, MapTaskOutput* mo) {
  DDP_RETURN_NOT_OK(Serde<std::vector<uint64_t>>::Read(r, &mo->payload_bytes));
  DDP_RETURN_NOT_OK(r->GetVarint64(&mo->records));
  DDP_RETURN_NOT_OK(r->GetVarint64(&mo->combine_in));
  DDP_RETURN_NOT_OK(r->GetVarint64(&mo->spilled_bytes));
  DDP_RETURN_NOT_OK(r->GetVarint64(&mo->spill_files));
  DDP_RETURN_NOT_OK(r->GetDouble(&mo->spill_seconds));
  return Status::OK();
}

/// Worker side: lists the attempt's runs in merge-ordinal order — disk runs
/// in spill order, then each non-empty tail (tails sort after every disk
/// run of their task; see kTailRunIndex). The OutboundRuns keep the
/// spill-file handles alive until the supervisor confirms the commit.
inline std::vector<OutboundRun> ExtractMapRuns(MapTaskOutput& mo) {
  std::vector<OutboundRun> runs;
  runs.reserve(mo.runs.size() + mo.buffers.size());
  for (SpillRun& run : mo.runs) {
    OutboundRun r;
    r.partition = run.partition;
    r.spill_index = run.spill_index;
    r.file = std::move(run.file);
    r.offset = run.offset;
    r.length = run.length;
    runs.push_back(std::move(r));
  }
  mo.runs.clear();
  for (size_t p = 0; p < mo.buffers.size(); ++p) {
    if (mo.buffers[p].empty()) continue;
    OutboundRun r;
    r.partition = static_cast<uint32_t>(p);
    r.spill_index = kTailRunIndex;
    r.bytes = std::move(mo.buffers[p]);
    runs.push_back(std::move(r));
  }
  mo.buffers.clear();
  return runs;
}

/// Parent side: grafts the committed runs back into a MapTaskOutput shaped
/// exactly like an in-process map task's — tails per partition, disk runs
/// (now extents of a supervisor-owned spill file) in stream order — so the
/// reduce phase cannot tell how the bytes arrived.
inline Status InjectMapRuns(size_t num_partitions,
                            std::vector<CommittedRun> runs,
                            MapTaskOutput* mo) {
  mo->buffers.assign(num_partitions, std::string());
  mo->runs.clear();
  for (CommittedRun& cr : runs) {
    if (cr.partition >= num_partitions) {
      return Status::IoError("streamed run names partition " +
                             std::to_string(cr.partition) + " of " +
                             std::to_string(num_partitions));
    }
    if (cr.spill_index == kTailRunIndex) {
      mo->buffers[cr.partition] = std::move(cr.bytes);
    } else {
      SpillRun run;
      run.file = std::move(cr.file);
      run.partition = cr.partition;
      run.spill_index = cr.spill_index;
      run.offset = cr.offset;
      run.length = cr.length;
      mo->runs.push_back(std::move(run));
    }
  }
  return Status::OK();
}

/// The chaos knobs one worker-side attempt rolls — a value type so fork
/// closures and remote registered jobs (which rebuild it from a JobSetupMsg
/// on another host) inject from identical hashes.
struct WorkerChaosParams {
  FaultInjection faults;
  double failure_rate = 0.0;  // this phase's injected-failure probability
  std::string job_name;
  int phase = 0;
  /// channel_drop_rate applies (reconnecting transports only: TCP fork
  /// workers and remote workers; a socketpair drop is a worker loss).
  bool drop_chaos = false;
};

/// Runs one worker-side task attempt with the full fork-mode chaos order:
/// poison-task and mid-map crashes before the body, injected failure and
/// straggler dawdle after it, mid-shuffle crash / mid-run channel drop
/// markers on the extracted runs, then the serialized counter payload.
/// `body(task, cancel, &out)` is the phase body; `extract_runs(out)` lists
/// the attempt's outbound runs; `serialize(writer, out)` encodes the slim
/// result payload. Shared verbatim by RunForkedPhase's fork closure and the
/// remote worker's registered jobs so retries re-roll the same
/// deterministic hashes on any substrate.
template <typename Output, typename Body, typename ExtractFn, typename SerFn>
Status RunWorkerAttempt(const WorkerChaosParams& chaos, size_t t,
                        size_t attempt, bool quarantined, const Body& body,
                        const ExtractFn& extract_runs, const SerFn& serialize,
                        TaskResult* result) {
  const FaultInjection& faults = chaos.faults;
  // A poisonous task SIGKILLs its worker on every attempt
  // (attempt-independent hash) until quarantine suppresses it; a crash
  // event kills this one attempt's worker, before the body ("mid-map") or
  // while streaming its runs, result unsent ("mid-shuffle"), by a second
  // hash bit. Quarantine suppresses both so the committed bytes match the
  // in-process run.
  bool crash_mid_shuffle = false;
  if (!quarantined) {
    if (ShouldInjectFailure(faults, faults.poison_task_rate, chaos.job_name,
                            chaos.phase + 8, t, /*attempt=*/0)) {
      CrashSelf();
    }
    if (ShouldInjectFailure(faults, faults.worker_crash_rate, chaos.job_name,
                            chaos.phase + 6, t, attempt)) {
      if (ShouldInjectFailure(faults, 0.5, chaos.job_name, chaos.phase + 10,
                              t, attempt)) {
        CrashSelf();  // mid-map: the body never ran
      }
      crash_mid_shuffle = true;  // die at a run boundary mid-stream
    }
  }
  Output out{};
  CancelToken cancel;  // hung workers are killed, not cancelled
  Stopwatch watch;
  Status st = body(t, &cancel, &out);
  // In-process chaos parity (worker-side, so retries re-roll the same
  // deterministic hashes the thread scheduler would).
  if (st.ok() && ShouldInjectFailure(faults, chaos.failure_rate,
                                     chaos.job_name, chaos.phase, t,
                                     attempt)) {
    st = Status::Internal("injected task failure");
  }
  if (st.ok() && ShouldInjectFailure(faults, faults.straggler_rate,
                                     chaos.job_name, chaos.phase + 4, t,
                                     attempt)) {
    const double dawdle =
        std::max(faults.straggler_min_seconds,
                 watch.ElapsedSeconds() *
                     std::max(0.0, faults.straggler_slowdown - 1.0));
    cancel.WaitFor(dawdle);  // dawdles until the supervisor's hang kill
  }
  if (!st.ok()) {
    if (crash_mid_shuffle) CrashSelf();  // parity: the worker still dies
    return st;
  }
  result->runs = extract_runs(out);
  if (crash_mid_shuffle) {
    result->crash_after_runs = static_cast<int64_t>(result->runs.size() / 2);
  }
  if (chaos.drop_chaos &&
      ShouldInjectFailure(faults, faults.channel_drop_rate, chaos.job_name,
                          chaos.phase + 12, t, attempt)) {
    result->drop_after_runs = static_cast<int64_t>(result->runs.size() / 2);
  }
  BufferWriter w(&result->payload);
  serialize(&w, out);
  return Status::OK();
}

/// The input slice of map task `t` when the input is cut into tasks of
/// `chunk` records. RunJob makes min(n, 4 * workers) tasks of
/// ceil(n / tasks) records, so the last tasks can start past the end (n = 100
/// over 16 tasks: chunk 7, task 15 would start at 105); those get an empty
/// slice. Cutting at t * chunk rather than balancing the tasks keeps every
/// boundary inside the input fixed, and with it the order in which reducers
/// see values (gaussian sums depend on it).
template <typename In>
std::span<const In> MapTaskSlice(std::span<const In> input, size_t chunk,
                                 size_t t) {
  const size_t begin = std::min(input.size(), t * chunk);
  return input.subspan(begin, std::min(chunk, input.size() - begin));
}

/// Executes one map task over its input slice — the body RunJob schedules
/// and a remote ddp_worker replays from a kTaskAssign frame. `task` is the
/// job-wide task id (poison placement hashes it, so a remote slice
/// reproduces the exact corruption an in-process run injects); the
/// cancel-poll cadence is slice-relative either way. With `sorted_shuffle`,
/// output is sorted runs + tails via a SpillingBuffer (never touching disk
/// under a 0 budget); otherwise unsorted per-partition buffers.
template <typename In, typename MidK, typename MidV, typename Out>
Status ExecuteMapTask(const JobSpec<In, MidK, MidV, Out>& spec,
                      std::span<const In> slice, size_t task,
                      size_t num_partitions, const FaultInjection& faults,
                      bool sorted_shuffle, uint64_t memory_budget_bytes,
                      const std::string& spill_dir, CancelToken* cancel,
                      MapTaskOutput* out) {
  // A failed attempt's partial output is discarded, exactly like a lost
  // Hadoop task: the emitter is attempt-local and only committed by the
  // scheduler on success. Spill files are attempt-local too — names carry a
  // process-unique id, and a failed or abandoned attempt's RAII handles
  // unlink its files on the way out.
  PartitionedEmitter<MidK, MidV> emitter(num_partitions);
  std::unique_ptr<SpillingEmitter<MidK, MidV>> spiller;
  Emitter<MidK, MidV>* sink = &emitter;
  if (sorted_shuffle) {
    spiller = std::make_unique<SpillingEmitter<MidK, MidV>>(
        num_partitions, memory_budget_bytes, spill_dir,
        spec.name + "-m" + std::to_string(task));
    sink = spiller.get();
  }
  if (spec.combiner) {
    CombiningEmitter<MidK, MidV> combining;
    for (size_t i = 0; i < slice.size(); ++i) {
      if ((i & 1023u) == 0 && cancel->cancelled()) {
        return Status::Cancelled("map attempt abandoned");
      }
      spec.map(slice[i], &combining);
    }
    out->combine_in = combining.records();
    combining.Flush(spec.combiner, sink);
  } else {
    for (size_t i = 0; i < slice.size(); ++i) {
      if ((i & 1023u) == 0 && cancel->cancelled()) {
        return Status::Cancelled("map attempt abandoned");
      }
      spec.map(slice[i], sink);
    }
  }
  if (faults.corruption_rate > 0.0) {
    // Poison placement is a function of (task, partition), never the
    // attempt: recovery paths rebuild bit-identical buffers.
    for (size_t p = 0; p < num_partitions; ++p) {
      if (ShouldInjectFailure(faults, faults.corruption_rate, spec.name,
                              /*phase=*/2, task, p)) {
        if (spiller != nullptr) {
          spiller->AppendPoisonFrame(p);
        } else {
          emitter.AppendPoisonFrame(p);
        }
      }
    }
  }
  if (spiller != nullptr) {
    auto& buffer = spiller->buffer();
    DDP_RETURN_NOT_OK(buffer.Finish());
    out->records = buffer.records();
    out->payload_bytes = buffer.payload_bytes();
    out->buffers = std::move(buffer.tails());
    out->runs = std::move(buffer.runs());
    out->spilled_bytes = buffer.spilled_bytes();
    out->spill_files = buffer.spill_files();
    out->spill_seconds = buffer.spill_seconds();
  } else {
    out->records = emitter.records();
    out->payload_bytes = emitter.payload_bytes();
    out->buffers = std::move(emitter.buffers());
  }
  return Status::OK();
}

/// Executes one sorted-shuffle reduce task: a k-way merge over `sources`
/// (this partition's runs and tails, in (map task id, spill index, tail)
/// source order so key ties reproduce the stable-sorted order of the
/// in-memory path), grouping and reducing each key. `any_run` counts one
/// merge pass when a spilled run actually fed the merge — remote callers
/// pass the flag computed supervisor-side, keeping merge_passes identical
/// to a local run even though shipped runs arrive as in-memory bytes.
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
    ++out->groups;
    const size_t bucket =
        static_cast<size_t>(std::bit_width(values.size())) - 1;
    if (out->group_size_log2.size() <= bucket) {
      out->group_size_log2.resize(bucket + 1, 0);
    }
    ++out->group_size_log2[bucket];
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

/// Everything RunForkedPhase needs to run a phase on a remote crew: the
/// borrowed pool, the encoded JobSetupMsg installed on each admitted
/// worker, the per-task input codec (dispatched lazily, only for tasks that
/// actually land on a remote worker), and how many local fork workers to
/// run alongside. Local forks under a remote phase always use the pipe
/// transport — the pool owns the job's TCP listener.
struct RemotePhaseSpec {
  RemoteWorkerPool* pool = nullptr;
  std::string setup;  // JobSetupMsg::Encode()
  std::function<Result<std::string>(size_t task)> task_input;
  size_t local_workers = 0;
};

/// The per-phase task scheduler — the "job tracker" of this runtime. Runs
/// `num_tasks` tasks on `pool`, each via `body(task, cancel, &out)`:
///
///  * A failed attempt (injected fault, thrown exception, missed deadline)
///    is retried until `max_task_attempts` is exhausted, then fails the job.
///  * An IoError from `body` (corrupt shuffle data) is not retryable — the
///    data would be equally corrupt on retry — and aborts the job, with all
///    in-flight attempts cancelled so other partitions stop wasting work.
///  * With speculative execution on, a task whose sole attempt runs long
///    relative to the committed median gets one backup attempt; the first
///    success commits (in this scheduler thread, so there is no commit
///    race), the sibling is cancelled and its result discarded.
///
/// `body` must be a pure function of `task` and should poll `cancel`
/// periodically so abandoned attempts release their worker promptly.
template <typename Output, typename Body>
Status RunRobustPhase(ThreadPool* pool, size_t num_tasks, int phase,
                      const std::string& job_name, const Options& options,
                      double failure_rate, PhaseStats* pstats,
                      std::vector<Output>* outputs, const Body& body) {
  outputs->clear();
  outputs->resize(num_tasks);
  if (num_tasks == 0) return Status::OK();

  using Clock = std::chrono::steady_clock;
  struct Event {
    size_t task = 0;
    size_t attempt = 0;
    bool speculative = false;
    bool exception = false;
    Status status;
    double seconds = 0.0;
    Output out{};
  };
  struct Running {
    size_t attempt;
    /// Nanoseconds-since-steady-epoch when the attempt actually began
    /// executing; 0 while it is still queued behind other work. Deadlines
    /// and the speculative threshold measure execution time, not queue
    /// wait — on a small pool every queued attempt would otherwise look
    /// like a straggler.
    std::shared_ptr<std::atomic<int64_t>> started_ns;
    std::shared_ptr<CancelToken> cancel;
  };
  struct TaskState {
    size_t failed_attempts = 0;
    size_t next_attempt = 0;
    bool done = false;
    bool backup_launched = false;
    std::vector<Running> running;
  };

  const FaultInjection& faults = options.faults;
  const double deadline = options.task_deadline_seconds;
  const char* phase_name = phase == 0 ? "map" : "reduce";

  // Observability: one histogram of committed-attempt latencies per phase
  // kind (a single registry lookup per phase), a per-attempt trace span
  // created inside the worker closure (so it lands on the executing
  // thread), and an optional progress heartbeat.
  obs::Histogram* attempt_hist = obs::MetricsRegistry::Global().GetHistogram(
      phase == 0 ? obs::kMetricMrMapAttemptSeconds : obs::kMetricMrReduceAttemptSeconds);
  std::atomic<size_t> completed_for_heartbeat{0};
  Stopwatch phase_timer;
  std::optional<obs::ProgressHeartbeat> heartbeat;
  if (options.heartbeat_seconds > 0.0) {
    heartbeat.emplace(
        options.heartbeat_seconds,
        [&completed_for_heartbeat, &phase_timer, num_tasks, phase_name,
         job_name] {
          const size_t done =
              completed_for_heartbeat.load(std::memory_order_relaxed);
          const double elapsed = phase_timer.ElapsedSeconds();
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "%s %s: %zu/%zu tasks done (%.1f tasks/s)",
                        job_name.c_str(), phase_name, done, num_tasks,
                        elapsed > 0.0 ? static_cast<double>(done) / elapsed
                                      : 0.0);
          return std::string(buf);
        });
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Event> events;  // guarded by mu

  // Everything below is touched only by this (scheduler) thread.
  std::vector<TaskState> tasks(num_tasks);
  size_t outstanding = 0;  // launched attempts whose events are unconsumed
  size_t completed = 0;
  Status job_error;

  auto launch = [&](size_t t, bool speculative) {
    TaskState& ts = tasks[t];
    const size_t attempt = ts.next_attempt++;
    auto cancel = std::make_shared<CancelToken>();
    auto started_ns = std::make_shared<std::atomic<int64_t>>(0);
    ts.running.push_back({attempt, started_ns, cancel});
    ++outstanding;
    pool->Submit([&, t, attempt, speculative, cancel, started_ns] {
      Event ev;
      ev.task = t;
      ev.attempt = attempt;
      ev.speculative = speculative;
      // The attempt span lives on the worker thread so it nests under
      // whatever else that worker traces (spill writes, kernel groups).
      // Spans from attempts that never commit — cancelled speculative
      // losers, deadline kills, abandoned retries — are still flushed,
      // marked cancelled below.
      DDP_TRACE_SPAN(span, obs::kCatMr, phase == 0 ? obs::kSpanMapAttempt
                                            : "reduce_attempt");
      if (span.active()) {
        span.AddArg("job", job_name);
        span.AddArg("task", static_cast<uint64_t>(t));
        span.AddArg("attempt", static_cast<uint64_t>(attempt));
        if (speculative) span.AddArg("speculative", "true");
      }
      started_ns->store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count(),
                        std::memory_order_release);
      if (cancel->cancelled()) {
        ev.status = Status::Cancelled("attempt cancelled before start");
      } else {
        Stopwatch watch;
        try {
          ev.status = body(t, cancel.get(), &ev.out);
        } catch (const std::exception& e) {
          ev.status = Status::Internal(std::string(phase_name) +
                                       " function threw: " + e.what());
          ev.exception = true;
        } catch (...) {
          ev.status = Status::Internal(std::string(phase_name) +
                                       " function threw a non-std exception");
          ev.exception = true;
        }
        if (ev.status.ok() &&
            ShouldInjectFailure(faults, failure_rate, job_name, phase, t,
                                attempt)) {
          ev.status = Status::Internal("injected task failure");
        }
        if (ev.status.ok() &&
            ShouldInjectFailure(faults, faults.straggler_rate, job_name,
                                phase + 4, t, attempt)) {
          const double dawdle =
              std::max(faults.straggler_min_seconds,
                       watch.ElapsedSeconds() *
                           std::max(0.0, faults.straggler_slowdown - 1.0));
          cancel->WaitFor(dawdle);
        }
        ev.seconds = watch.ElapsedSeconds();
        // An overdue attempt reports DeadlineExceeded whether it noticed by
        // itself or was woken by the monitor's Cancel (which would otherwise
        // read as an abandoned attempt and orphan the task).
        if (deadline > 0.0 && ev.seconds > deadline &&
            (ev.status.ok() || ev.status.IsCancelled())) {
          ev.status = Status::DeadlineExceeded(
              std::string(phase_name) + " attempt overran the " +
              std::to_string(deadline) + "s task deadline");
        }
      }
      if (span.active() && !ev.status.ok()) {
        // A cancelled or deadline-killed attempt's span is flushed, not
        // dropped: it renders greyed-out-style in Perfetto via the
        // cancelled arg, which is how speculative losers stay visible.
        if (ev.status.IsCancelled() || ev.status.IsDeadlineExceeded()) {
          span.MarkCancelled();
        }
        span.AddArg("status", ev.status.ToString());
      }
      // Notify under the lock: once the scheduler consumes the last event it
      // may destroy mu/cv (they live on its stack), and holding mu here
      // keeps it parked in wait() until the notification is fully issued.
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(std::move(ev));
      cv.notify_all();
    });
  };

  auto cancel_all = [&] {
    for (TaskState& ts : tasks) {
      for (Running& r : ts.running) r.cancel->Cancel();
    }
  };

  std::vector<double> scratch;  // median computation
  auto monitor_scan = [&] {
    const auto now = Clock::now();
    double median = 0.0;
    const bool can_speculate =
        options.speculative_execution && num_tasks > 1 &&
        pstats->durations.size() >=
            std::max<size_t>(1, options.speculative_min_completed);
    if (can_speculate) {
      scratch = pstats->durations;
      auto mid =
          scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
      std::nth_element(scratch.begin(), mid, scratch.end());
      median = *mid;
    }
    const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               now.time_since_epoch())
                               .count();
    // Elapsed execution time; negative while the attempt is still queued.
    auto exec_seconds = [now_ns](const Running& r) {
      const int64_t s = r.started_ns->load(std::memory_order_acquire);
      return s == 0 ? -1.0 : static_cast<double>(now_ns - s) * 1e-9;
    };
    for (size_t t = 0; t < num_tasks; ++t) {
      TaskState& ts = tasks[t];
      if (ts.done) continue;
      if (deadline > 0.0) {
        for (Running& r : ts.running) {
          // Wake dawdling attempts; they self-report DeadlineExceeded.
          if (exec_seconds(r) > deadline) r.cancel->Cancel();
        }
      }
      if (can_speculate && !ts.backup_launched && ts.running.size() == 1) {
        const double elapsed = exec_seconds(ts.running[0]);
        if (elapsed > options.speculative_multiplier * median &&
            elapsed > 1e-3) {
          ts.backup_launched = true;
          ++pstats->speculative_launches;
          launch(t, /*speculative=*/true);
        }
      }
    }
  };

  for (size_t t = 0; t < num_tasks; ++t) launch(t, /*speculative=*/false);

  const bool needs_monitor = deadline > 0.0 || options.speculative_execution;
  std::unique_lock<std::mutex> lock(mu);
  while (completed < num_tasks && job_error.ok()) {
    if (events.empty()) {
      if (needs_monitor) {
        cv.wait_for(lock, std::chrono::milliseconds(1),
                    [&] { return !events.empty(); });
      } else {
        cv.wait(lock, [&] { return !events.empty(); });
      }
    }
    while (!events.empty() && job_error.ok()) {
      Event ev = std::move(events.front());
      events.pop_front();
      lock.unlock();
      --outstanding;
      TaskState& ts = tasks[ev.task];
      for (size_t r = 0; r < ts.running.size(); ++r) {
        if (ts.running[r].attempt == ev.attempt) {
          ts.running.erase(ts.running.begin() +
                           static_cast<std::ptrdiff_t>(r));
          break;
        }
      }
      if (!ts.done) {
        if (ev.status.ok()) {
          // First finisher commits; commits happen only on this thread, so
          // "first" is well-defined and race-free.
          ts.done = true;
          ++completed;
          completed_for_heartbeat.store(completed, std::memory_order_relaxed);
          (*outputs)[ev.task] = std::move(ev.out);
          pstats->durations.push_back(ev.seconds);
          attempt_hist->RecordSeconds(ev.seconds);
          if (ev.speculative) ++pstats->speculative_wins;
          for (Running& r : ts.running) r.cancel->Cancel();
        } else if (ev.status.IsCancelled()) {
          // Legitimate cancellations come from a sibling's commit (task
          // done, filtered above) or a job abort (drained below). Reaching
          // here means a monitor Cancel raced an attempt that had not
          // produced work yet: relaunch so the task is not orphaned. Not a
          // failure, so it does not consume the attempt budget.
          launch(ev.task, /*speculative=*/false);
        } else {
          if (ev.exception) ++pstats->exceptions;
          if (ev.status.IsDeadlineExceeded()) ++pstats->deadline_kills;
          ++ts.failed_attempts;
          if (ev.status.IsIoError()) {
            // Corrupt shuffle data is deterministic: retrying would re-read
            // the same bytes. Fail fast and stop sibling partitions early.
            job_error = ev.status;
          } else if (ts.failed_attempts >= options.max_task_attempts) {
            job_error = Status::Internal(
                std::string(phase_name) + " task " +
                std::to_string(ev.task) + " failed after " +
                std::to_string(options.max_task_attempts) +
                " attempts; last error: " + ev.status.ToString());
          } else {
            ++pstats->retries;
            launch(ev.task, /*speculative=*/false);
          }
          if (!job_error.ok()) cancel_all();
        }
      }
      lock.lock();
    }
    if (job_error.ok() && needs_monitor && completed < num_tasks) {
      lock.unlock();
      monitor_scan();
      lock.lock();
    }
  }
  // Drain abandoned attempts before returning: submitted closures reference
  // this stack frame.
  while (outstanding > 0) {
    cv.wait(lock, [&] { return !events.empty(); });
    while (!events.empty()) {
      events.pop_front();
      --outstanding;
    }
  }
  return job_error;
}

/// ExecMode::kFork counterpart of RunRobustPhase: runs `body` inside forked
/// worker processes under a WorkerSupervisor. The unit of transfer back to
/// the parent is the spill run, not the task result: `extract_runs(output)`
/// runs in the worker and lists the sorted runs/tails the attempt produced
/// (the worker streams them over the channel before its slim counter-only
/// result), and `inject_runs(runs, &output)` runs in the parent's commit
/// callback to graft the committed runs back into the decoded output.
/// `serialize`/`deserialize` carry only what is left — counters and stats.
/// Chaos parity: the per-(task, attempt) failure/straggler injections of the
/// in-process scheduler run inside the worker, plus the fork-only
/// worker_crash_rate / poison_task_rate injections via CrashSelf (mid-shuffle
/// crashes land mid-stream, at a run boundary) and channel_drop_rate via a
/// deliberate mid-run disconnect. Returns NotImplemented when fork execution
/// is unavailable — no task has run, fall back to RunRobustPhase.
///
/// With `remote` set (ExecMode::kRemote), the supervisor additionally admits
/// exec'd ddp_worker processes from the pool's listener: they receive the
/// phase's JobSetupMsg once and then per-task kTaskAssign frames whose input
/// `remote->task_input` serializes, while `remote->local_workers` forked
/// locals (0 for a pure-remote crew) run `body` as usual. NotImplemented
/// then means no worker — forked or remote — ever joined.
template <typename Output, typename Body, typename SerFn, typename DeFn,
          typename ExtractFn, typename InjectFn>
Status RunForkedPhase(size_t num_tasks, int phase, const std::string& job_name,
                      const Options& options, double failure_rate,
                      const std::string& spill_dir, PhaseStats* pstats,
                      JobCounters* counters, std::vector<Output>* outputs,
                      const Body& body, const SerFn& serialize,
                      const DeFn& deserialize, const ExtractFn& extract_runs,
                      const InjectFn& inject_runs,
                      const RemotePhaseSpec* remote = nullptr) {
  outputs->clear();
  outputs->resize(num_tasks);
  if (num_tasks == 0) return Status::OK();
  const FaultInjection& faults = options.faults;

  SupervisorConfig cfg;
  cfg.job_name = job_name;
  cfg.phase = phase;
  cfg.num_workers = options.ResolvedWorkers();
  cfg.num_tasks = num_tasks;
  cfg.max_task_attempts = options.max_task_attempts;
  cfg.max_worker_restarts = options.max_worker_restarts;
  cfg.quarantine_after_crashes = options.quarantine_after_crashes;
  cfg.skip_bad_records = options.skip_bad_records;
  cfg.task_deadline_seconds = options.task_deadline_seconds;
  cfg.child_heartbeat_seconds = options.worker_heartbeat_seconds;
  cfg.backoff_seed = faults.seed;
  cfg.spill_dir = spill_dir;
  cfg.progress_heartbeat_seconds = options.heartbeat_seconds;
  cfg.transport = options.transport;
  cfg.tcp_host = options.tcp_host;
  cfg.tcp_port = options.tcp_port;
  // The shuffle backpressure window tracks the job's memory budget: a
  // budgeted job bounds its shipped-but-uncommitted bytes the same way it
  // bounds its map buffers (floored at 4 KiB so tiny test budgets still
  // make progress one frame at a time). 0 lets the supervisor default.
  cfg.stream_window_bytes =
      options.memory_budget_bytes > 0
          ? std::max<uint64_t>(options.memory_budget_bytes, 4096)
          : 0;
  if (remote != nullptr) {
    cfg.remote_pool = remote->pool;
    cfg.remote_setup_payload = remote->setup;
    cfg.remote_task_input = remote->task_input;
    // Local forks ride socketpairs; the pool owns the job's TCP listener.
    cfg.num_workers = remote->local_workers;
    cfg.transport = Transport::kPipe;
  }

  // Runs in the worker process: the shared chaos-order attempt wrapper
  // around `body`. Remote workers run the same wrapper rebuilt from the
  // JobSetupMsg (remote_job.h), so every substrate rolls identical hashes.
  WorkerChaosParams chaos;
  chaos.faults = faults;
  chaos.failure_rate = failure_rate;
  chaos.job_name = job_name;
  chaos.phase = phase;
  chaos.drop_chaos =
      remote == nullptr && options.transport == Transport::kTcp;
  WorkerTaskFn fn = [&](size_t t, size_t attempt, bool quarantined,
                        TaskResult* result) -> Status {
    return RunWorkerAttempt<Output>(chaos, t, attempt, quarantined, body,
                                    extract_runs, serialize, result);
  };

  obs::Histogram* attempt_hist = obs::MetricsRegistry::Global().GetHistogram(
      phase == 0 ? obs::kMetricMrMapAttemptSeconds : obs::kMetricMrReduceAttemptSeconds);

  // Runs in the supervising parent, in result-frame order.
  CommitFn commit = [&](size_t t, bool quarantined, double seconds,
                        std::string payload,
                        std::vector<CommittedRun> runs) -> Status {
    BufferReader r(payload);
    Output out{};
    Status st = deserialize(&r, &out);
    if (st.ok() && !r.exhausted()) {
      st = Status::IoError("task result decoded short of its payload");
    }
    if (!st.ok()) {
      return Status::IoError("task " + std::to_string(t) +
                             " result payload: " + st.message());
    }
    DDP_RETURN_NOT_OK(inject_runs(std::move(runs), &out));
    (*outputs)[t] = std::move(out);
    pstats->durations.push_back(seconds);
    attempt_hist->RecordSeconds(seconds);
    // A quarantined task is one suppressed poisonous record, routed through
    // the same skip accounting as corrupt-record skips.
    if (quarantined) ++counters->skipped_records;
    return Status::OK();
  };

  SupervisorStats sstats;
  Status st = WorkerSupervisor::RunPhase(cfg, fn, commit, &sstats);
  if (st.IsNotImplemented()) return st;  // nothing ran; caller falls back
  pstats->retries += sstats.retries;
  pstats->deadline_kills += sstats.deadline_kills;
  counters->worker_crashes += sstats.worker_crashes;
  counters->worker_hangs += sstats.worker_hangs;
  counters->worker_kills += sstats.worker_kills;
  counters->worker_restarts += sstats.worker_restarts;
  counters->quarantined_tasks += sstats.quarantined_tasks;
  counters->spill_files_reaped += sstats.spill_files_reaped;
  counters->shuffle_streamed_bytes += sstats.shuffle_streamed_bytes;
  counters->shuffle_resent_runs += sstats.shuffle_resent_runs;
  counters->channel_reconnects += sstats.channel_reconnects;
  counters->workers_registered += sstats.workers_registered;
  counters->workers_evicted += sstats.workers_evicted;
  counters->tasks_reassigned += sstats.tasks_reassigned;
  return st;
}

}  // namespace internal

/// Executes `spec` over `input` and returns all reduce outputs
/// (deterministic order). Counter accumulation is optional.
template <typename In, typename MidK, typename MidV, typename Out>
Result<std::vector<Out>> RunJob(const JobSpec<In, MidK, MidV, Out>& spec,
                                std::span<const In> input,
                                const Options& options = {},
                                JobCounters* counters_out = nullptr) {
  if (!spec.map) return Status::InvalidArgument("JobSpec.map is not set");
  if (!spec.reduce) return Status::InvalidArgument("JobSpec.reduce is not set");

  // Cooperative cancellation checks run at job boundaries: here (before any
  // work, including checkpoint replay) and again between map and reduce.
  auto cancelled = [&options]() {
    return options.cancel_flag != nullptr &&
           options.cancel_flag->load(std::memory_order_relaxed);
  };
  if (cancelled()) {
    return Status::Cancelled("job " + spec.name + " cancelled before start");
  }

  const size_t workers = options.ResolvedWorkers();
  const size_t num_partitions = options.ResolvedPartitions();

  JobCounters counters;
  counters.job_name = spec.name;
  counters.map_input_records = input.size();

  // One span per MR job, named after it; phase spans and worker-side
  // attempt spans nest inside (the latter by thread, not containment).
  DDP_TRACE_SPAN(job_span, obs::kCatJob, spec.name);
  if (job_span.active()) {
    job_span.AddArg("input_records", static_cast<uint64_t>(input.size()));
  }
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrJobs, 1);

  // ---- Checkpoint replay: a completed job's output is served from the
  // store, bit-identical, without re-running anything. The key sequence
  // advances even for non-replayable jobs so pipelines keep stable keys.
  std::string checkpoint_key;
  if (options.checkpoint != nullptr) {
    checkpoint_key = options.checkpoint->NextKey(spec.name);
    if constexpr (has_serde_v<Out>) {
      Result<std::string> bytes =
          options.checkpoint->LoadBytes(checkpoint_key);
      if (bytes.ok()) {
        BufferReader reader(*bytes);
        std::vector<Out> output;
        Status st = Serde<std::vector<Out>>::Read(&reader, &output);
        if (st.ok() && reader.exhausted()) {
          counters.loaded_from_checkpoint = true;
          counters.reduce_output_records = output.size();
          job_span.AddArg("replayed_from_checkpoint", "true");
          if (counters_out != nullptr) *counters_out = counters;
          return output;
        }
        // Unreadable entry: treat as absent and recompute.
        DDP_LOG(Warning) << "checkpoint " << checkpoint_key
                         << " unreadable; re-running job";
      }
    }
  }

  Stopwatch job_timer;
  // The in-process phase pool is created lazily: in fork mode no worker
  // threads should exist in the supervising parent (forked children inherit
  // only this thread), so a pure-fork job never constructs it.
  std::unique_ptr<ThreadPool> pool;
  auto get_pool = [&pool, workers]() -> ThreadPool* {
    if (pool == nullptr) pool = std::make_unique<ThreadPool>(workers);
    return pool.get();
  };

  // Multi-process resolution. `remote_phases` requires a pool, a registered
  // task id, and a Serde-crossable input type; anything less degrades to
  // fork semantics. `fork_phases`/`remote_phases` flip off permanently once
  // a supervisor reports NotImplemented (unsupported platform, no worker
  // spawned, no remote worker joined) — each degradation is counted in
  // exec_fallbacks.
  bool remote_phases = false;
  if constexpr (has_serde_v<In>) {
    remote_phases = options.exec_mode == ExecMode::kRemote &&
                    options.remote_pool != nullptr &&
                    !spec.remote_task_id.empty();
  }
  const bool want_fork =
      options.exec_mode == ExecMode::kFork ||
      (options.exec_mode == ExecMode::kRemote && !remote_phases);
  if (options.exec_mode == ExecMode::kRemote && !remote_phases) {
    ++counters.exec_fallbacks;  // remote requested, job cannot go remote
  }
  bool fork_phases = (want_fork && ForkExecutionSupported()) || remote_phases;
  if (want_fork && !fork_phases) ++counters.exec_fallbacks;
  if (job_span.active() && (want_fork || remote_phases)) {
    job_span.AddArg("exec_mode", remote_phases  ? "remote"
                                 : fork_phases ? "fork"
                                               : "fork->inproc");
  }

  // ---- Map phase: split input into tasks, emit into per-partition buffers.
  // With a memory budget, `buffers` holds only the sorted in-memory tails
  // and `runs` references the sorted runs spilled to disk; the RAII file
  // handles inside the runs unlink the spill files when map_outputs dies.
  using MapOutput = internal::MapTaskOutput;
  const bool spilling = options.memory_budget_bytes > 0;
  // Fork-mode map output is always sorted runs and tails, budget or not:
  // the spill segment is the unit of shuffle transfer, so workers emit
  // through the spilling buffer (which, under no budget, never touches disk
  // — it just key-sorts each partition into an in-memory tail) and the
  // reduce side merge-streams. Bit-identical to the concat+stable_sort path
  // by the determinism contract in spill.h. Reset alongside fork_phases if
  // the supervisor reports fork execution unavailable (no task has run).
  bool sorted_shuffle = spilling || fork_phases;
  const std::string spill_dir =
      spilling ? internal::ResolveSpillDir(options.spill_dir) : std::string();
  if (spilling) {
    // Startup reap: spill files stamped with the pid of a process that no
    // longer exists are leftovers of a crashed run; delete them before this
    // job adds its own.
    counters.spill_files_reaped += ReapOrphanSpillFiles(spill_dir);
  }
  Stopwatch map_timer;
  const size_t num_map_tasks =
      std::max<size_t>(1, std::min(input.size(), workers * 4));
  const size_t chunk = (input.size() + num_map_tasks - 1) / num_map_tasks;
  DDP_TRACE_SPAN(map_span, obs::kCatMr, obs::kSpanMapPhase);
  if (map_span.active()) {
    map_span.AddArg("job", spec.name);
    map_span.AddArg("tasks", static_cast<uint64_t>(num_map_tasks));
  }

  internal::PhaseStats map_stats;
  std::vector<MapOutput> map_outputs;
  auto map_body =
      [&](size_t t, CancelToken* cancel, MapOutput* out) -> Status {
        return internal::ExecuteMapTask(
            spec, internal::MapTaskSlice(input, chunk, t), t, num_partitions,
            options.faults, sorted_shuffle, options.memory_budget_bytes,
            spill_dir, cancel, out);
      };

  auto inject_map_runs = [num_partitions](std::vector<CommittedRun> runs,
                                          MapOutput* mo) -> Status {
    return internal::InjectMapRuns(num_partitions, std::move(runs), mo);
  };

  // Remote phase setup (kRemote): the JobSetupMsg every admitted ddp_worker
  // installs — naming the registered job and carrying everything a closure
  // would have captured — plus the per-task input codec. Map task input is
  // the task's input slice by value. Guarded by the same Serde<In>
  // constexpr that gates remote_phases, so non-Serde jobs still compile.
  internal::RemotePhaseSpec map_remote;
  if constexpr (has_serde_v<In>) {
    if (remote_phases) {
      JobSetupMsg setup;
      setup.job_id = spec.remote_task_id;
      setup.job_name = spec.name;
      setup.phase = 0;
      if (spec.remote_ctx) {
        BufferWriter cw(&setup.ctx);
        spec.remote_ctx(&cw);
      }
      setup.num_partitions = num_partitions;
      setup.memory_budget_bytes = options.memory_budget_bytes;
      setup.spill_dir = options.spill_dir;  // resolved on the worker's host
      setup.skip_bad_records = options.skip_bad_records;
      setup.fault_seed = options.faults.seed;
      setup.map_failure_rate = options.faults.map_failure_rate;
      setup.reduce_failure_rate = options.faults.reduce_failure_rate;
      setup.straggler_rate = options.faults.straggler_rate;
      setup.straggler_slowdown = options.faults.straggler_slowdown;
      setup.straggler_min_seconds = options.faults.straggler_min_seconds;
      setup.corruption_rate = options.faults.corruption_rate;
      setup.worker_crash_rate = options.faults.worker_crash_rate;
      setup.poison_task_rate = options.faults.poison_task_rate;
      setup.channel_drop_rate = options.faults.channel_drop_rate;
      map_remote.pool = options.remote_pool;
      map_remote.setup = setup.Encode();
      map_remote.local_workers = options.remote_local_workers;
      map_remote.task_input = [&input, chunk](size_t t)
          -> Result<std::string> {
        const std::span<const In> slice =
            internal::MapTaskSlice(input, chunk, t);
        std::string bytes;
        BufferWriter w(&bytes);
        w.PutVarint64(slice.size());
        for (const In& record : slice) Serde<In>::Write(&w, record);
        return bytes;
      };
    }
  }

  Status map_status;
  bool map_forked = false;
  if (fork_phases) {
    map_status = internal::RunForkedPhase<MapOutput>(
        num_map_tasks, /*phase=*/0, spec.name, options,
        options.faults.map_failure_rate, spill_dir, &map_stats, &counters,
        &map_outputs, map_body, internal::SerializeMapCounters,
        internal::DeserializeMapCounters, internal::ExtractMapRuns,
        inject_map_runs, remote_phases ? &map_remote : nullptr);
    if (map_status.IsNotImplemented()) {
      ++counters.exec_fallbacks;
      fork_phases = false;
      remote_phases = false;
      sorted_shuffle = spilling;  // no task ran; back to the in-proc shape
    } else {
      map_forked = true;
    }
  }
  if (!map_forked) {
    map_status = internal::RunRobustPhase<MapOutput>(
        get_pool(), num_map_tasks, /*phase=*/0, spec.name, options,
        options.faults.map_failure_rate, &map_stats, &map_outputs, map_body);
  }
  if (!map_status.ok()) {
    map_span.MarkCancelled();
    job_span.MarkCancelled();
    return map_status;
  }
  counters.map_seconds = map_timer.ElapsedSeconds();
  map_span.End();
  for (const MapOutput& mo : map_outputs) {
    counters.map_output_records += mo.records;
    counters.combine_input_records += mo.combine_in;
    counters.spilled_bytes += mo.spilled_bytes;
    counters.spill_files += mo.spill_files;
    counters.spill_seconds += mo.spill_seconds;
  }
  counters.map_task_retries = map_stats.retries;

  // ---- Shuffle. Byte counters report payload (key/value encodings),
  // excluding frame headers and injected poison, so they stay comparable to
  // the paper's figures. On the in-memory path, task buffers are
  // concatenated per partition; a partition with a single non-empty source
  // steals that buffer instead of copying it. On the spill path there is
  // nothing to concatenate: reduce merge-streams straight out of the map
  // outputs' runs and tails.
  Stopwatch shuffle_timer;
  DDP_TRACE_SPAN(shuffle_span, obs::kCatMr, obs::kSpanShufflePhase);
  if (shuffle_span.active()) shuffle_span.AddArg("job", spec.name);
  std::vector<std::string> partitions(sorted_shuffle ? 0 : num_partitions);
  {
    std::vector<uint64_t> payload_sizes(num_partitions, 0);
    for (const MapOutput& mo : map_outputs) {
      for (size_t p = 0; p < num_partitions; ++p) {
        payload_sizes[p] += mo.payload_bytes[p];
      }
    }
    for (size_t p = 0; p < num_partitions; ++p) {
      counters.shuffle_bytes += payload_sizes[p];
      counters.max_partition_bytes =
          std::max<uint64_t>(counters.max_partition_bytes, payload_sizes[p]);
    }
    if (!sorted_shuffle) {
      for (size_t p = 0; p < num_partitions; ++p) {
        size_t sources = 0;
        size_t raw = 0;
        std::string* only = nullptr;
        for (MapOutput& mo : map_outputs) {
          if (!mo.buffers[p].empty()) {
            ++sources;
            raw += mo.buffers[p].size();
            only = &mo.buffers[p];
          }
        }
        if (sources == 1) {
          counters.shuffle_moved_bytes += raw;
          partitions[p] = std::move(*only);
        } else if (sources > 1) {
          counters.shuffle_copied_bytes += raw;
          partitions[p].reserve(raw);
          for (const MapOutput& mo : map_outputs) {
            partitions[p] += mo.buffers[p];
          }
        }
        for (MapOutput& mo : map_outputs) {
          mo.buffers[p].clear();
          mo.buffers[p].shrink_to_fit();
        }
      }
    }
  }
  counters.shuffle_records = counters.map_output_records;
  counters.shuffle_seconds = shuffle_timer.ElapsedSeconds();
  if (shuffle_span.active()) {
    shuffle_span.AddArg("bytes", counters.shuffle_bytes);
    shuffle_span.AddArg("records", counters.shuffle_records);
  }
  shuffle_span.End();

  if (cancelled()) {
    job_span.MarkCancelled();
    return Status::Cancelled("job " + spec.name +
                             " cancelled at the map/reduce boundary");
  }

  // ---- Reduce phase: per partition, deserialize, sort-group, reduce.
  // Deserialization lives inside the attempt (a lost Hadoop reduce task
  // re-fetches its shuffle input too), so retries and speculative attempts
  // are self-contained.
  using ReduceOutput = internal::ReduceTaskOutput<Out>;
  Stopwatch reduce_timer;
  DDP_TRACE_SPAN(reduce_span, obs::kCatMr, obs::kSpanReducePhase);
  if (reduce_span.active()) {
    reduce_span.AddArg("job", spec.name);
    reduce_span.AddArg("partitions", static_cast<uint64_t>(num_partitions));
    if (spilling) reduce_span.AddArg("spilling", "true");
  }
  internal::PhaseStats reduce_stats;
  std::vector<ReduceOutput> reduce_outputs;
  const bool skip_bad = options.skip_bad_records;
  auto reduce_body =
      [&](size_t p, CancelToken* cancel, ReduceOutput* out) -> Status {
        if (sorted_shuffle) {
          // Out-of-core path: stream a k-way merge over this partition's
          // sorted runs and in-memory tails, in (map task id, spill index,
          // tail) source order so key ties reproduce the stable-sorted
          // (map task id, emission index) order of the in-memory path.
          // map_outputs is read-only here, so concurrent reduce attempts
          // (retries, speculation) can share it safely.
          std::vector<std::unique_ptr<FrameStream>> sources;
          bool any_run = false;
          for (const MapOutput& mo : map_outputs) {
            for (const SpillRun& run : mo.runs) {
              if (run.partition == p) {
                sources.push_back(std::make_unique<SpillSegmentReader>(
                    run.file, run.offset, run.length));
                any_run = true;
              }
            }
            if (!mo.buffers[p].empty()) {
              sources.push_back(
                  std::make_unique<MemoryFrameReader>(mo.buffers[p]));
            }
          }
          return internal::ExecuteSortedReduceTask(
              spec, p, std::move(sources), any_run, skip_bad, cancel, out);
        }
        BufferReader reader(partitions[p]);
        std::vector<std::pair<MidK, MidV>> pairs;
        size_t frame = 0;
        while (!reader.exhausted()) {
          if ((frame++ & 1023u) == 0 && cancel->cancelled()) {
            return Status::Cancelled("reduce attempt abandoned");
          }
          uint64_t len = 0;
          Status st = reader.GetVarint64(&len);
          BufferReader rec(nullptr, size_t{0});
          if (st.ok()) st = reader.Slice(len, &rec);
          if (!st.ok()) {
            // A broken frame header loses record boundaries; even
            // skip_bad_records cannot re-sync past it.
            return Status::IoError("reduce partition " + std::to_string(p) +
                                   ": corrupt shuffle framing: " +
                                   st.message());
          }
          std::pair<MidK, MidV> kv;
          st = Serde<MidK>::Read(&rec, &kv.first);
          if (st.ok()) st = Serde<MidV>::Read(&rec, &kv.second);
          if (st.ok() && !rec.exhausted()) {
            st = Status::IoError("record decoded short of its frame");
          }
          if (!st.ok()) {
            if (skip_bad) {
              ++out->skipped;
              continue;
            }
            return Status::IoError("reduce partition " + std::to_string(p) +
                                   ": bad record: " + st.message());
          }
          pairs.push_back(std::move(kv));
        }
        std::stable_sort(pairs.begin(), pairs.end(),
                         [](const auto& a, const auto& b) {
                           return KeyTraits<MidK>::Less(a.first, b.first);
                         });
        size_t i = 0;
        std::vector<MidV> values;
        while (i < pairs.size()) {
          if (cancel->cancelled()) {
            return Status::Cancelled("reduce attempt abandoned");
          }
          size_t j = i + 1;
          while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
          values.clear();
          values.reserve(j - i);
          for (size_t k = i; k < j; ++k) values.push_back(pairs[k].second);
          spec.reduce(pairs[i].first, values, &out->out);
          ++out->groups;
          const size_t bucket =
              static_cast<size_t>(std::bit_width(j - i)) - 1;
          if (out->group_size_log2.size() <= bucket) {
            out->group_size_log2.resize(bucket + 1, 0);
          }
          ++out->group_size_log2[bucket];
          i = j;
        }
        return Status::OK();
      };

  Status reduce_status;
  bool reduce_forked = false;
  if (fork_phases) {
    if constexpr (has_serde_v<Out>) {
      // Reduce outputs are final results, not shuffle data: nothing to
      // stream as runs, so the extract/inject hooks are no-ops.
      auto extract_none = [](ReduceOutput&) {
        return std::vector<OutboundRun>();
      };
      auto inject_none = [](std::vector<CommittedRun> runs,
                            ReduceOutput*) -> Status {
        if (!runs.empty()) {
          return Status::IoError("unexpected streamed runs in reduce result");
        }
        return Status::OK();
      };
      // Remote reduce input: this partition's sources by value, in the
      // exact (map task id, spill index, tail) order the local merge uses —
      // each as (is_run, frame bytes), runs read back off the supervisor's
      // spill files and CRC-stripped. The worker merges MemoryFrameReaders
      // over the shipped bytes; source order and the any_run flag riding
      // along keep tie-breaks and merge_passes bit-identical to a local
      // reduce.
      internal::RemotePhaseSpec reduce_remote;
      if (remote_phases) {
        JobSetupMsg setup;
        setup.job_id = spec.remote_task_id;
        setup.job_name = spec.name;
        setup.phase = 1;
        if (spec.remote_ctx) {
          BufferWriter cw(&setup.ctx);
          spec.remote_ctx(&cw);
        }
        setup.num_partitions = num_partitions;
        setup.memory_budget_bytes = options.memory_budget_bytes;
        setup.spill_dir = options.spill_dir;
        setup.skip_bad_records = options.skip_bad_records;
        setup.fault_seed = options.faults.seed;
        setup.map_failure_rate = options.faults.map_failure_rate;
        setup.reduce_failure_rate = options.faults.reduce_failure_rate;
        setup.straggler_rate = options.faults.straggler_rate;
        setup.straggler_slowdown = options.faults.straggler_slowdown;
        setup.straggler_min_seconds = options.faults.straggler_min_seconds;
        setup.corruption_rate = options.faults.corruption_rate;
        setup.worker_crash_rate = options.faults.worker_crash_rate;
        setup.poison_task_rate = options.faults.poison_task_rate;
        setup.channel_drop_rate = options.faults.channel_drop_rate;
        reduce_remote.pool = options.remote_pool;
        reduce_remote.setup = setup.Encode();
        reduce_remote.local_workers = options.remote_local_workers;
        reduce_remote.task_input = [&map_outputs](size_t p)
            -> Result<std::string> {
          std::string bytes;
          BufferWriter w(&bytes);
          uint64_t count = 0;
          for (const MapOutput& mo : map_outputs) {
            for (const SpillRun& run : mo.runs) {
              if (run.partition == p) ++count;
            }
            if (!mo.buffers[p].empty()) ++count;
          }
          w.PutVarint64(count);
          for (const MapOutput& mo : map_outputs) {
            for (const SpillRun& run : mo.runs) {
              if (run.partition != p) continue;
              DDP_ASSIGN_OR_RETURN(
                  std::string seg,
                  ReadFileExtent(run.file->path(), run.offset, run.length));
              DDP_RETURN_NOT_OK(VerifyAndStripRunTrailer(&seg));
              w.PutByte(1);
              w.PutString(seg);
            }
            if (!mo.buffers[p].empty()) {
              w.PutByte(0);
              w.PutString(mo.buffers[p]);
            }
          }
          return bytes;
        };
      }
      auto serialize_reduce = [](BufferWriter* w, ReduceOutput& ro) {
        internal::SerializeReduceOutput<Out>(w, ro);
      };
      auto deserialize_reduce = [](BufferReader* r,
                                   ReduceOutput* ro) -> Status {
        return internal::DeserializeReduceOutput<Out>(r, ro);
      };
      reduce_status = internal::RunForkedPhase<ReduceOutput>(
          num_partitions, /*phase=*/1, spec.name, options,
          options.faults.reduce_failure_rate, spill_dir, &reduce_stats,
          &counters, &reduce_outputs, reduce_body, serialize_reduce,
          deserialize_reduce, extract_none, inject_none,
          remote_phases ? &reduce_remote : nullptr);
      if (reduce_status.IsNotImplemented()) {
        ++counters.exec_fallbacks;
        fork_phases = false;
      } else {
        reduce_forked = true;
      }
    } else {
      // The reduce output type cannot cross the process boundary; run this
      // phase in-process. Counted like any other degradation.
      ++counters.exec_fallbacks;
    }
  }
  if (!reduce_forked) {
    reduce_status = internal::RunRobustPhase<ReduceOutput>(
        get_pool(), num_partitions, /*phase=*/1, spec.name, options,
        options.faults.reduce_failure_rate, &reduce_stats, &reduce_outputs,
        reduce_body);
  }
  if (!reduce_status.ok()) {
    reduce_span.MarkCancelled();
    job_span.MarkCancelled();
    return reduce_status;
  }
  partitions.clear();
  partitions.shrink_to_fit();
  // Dropping the map outputs releases the spill-run handles: the last
  // reference to each spill file unlinks it, so the spill dir is empty again
  // once the job's reduce phase is done.
  map_outputs.clear();
  map_outputs.shrink_to_fit();
  counters.reduce_seconds = reduce_timer.ElapsedSeconds();
  reduce_span.End();
  counters.reduce_task_retries = reduce_stats.retries;
  for (const ReduceOutput& ro : reduce_outputs) {
    counters.reduce_input_groups += ro.groups;
    counters.skipped_records += ro.skipped;
    counters.merge_passes += ro.merge_passes;
    if (counters.group_size_log2_histogram.size() < ro.group_size_log2.size()) {
      counters.group_size_log2_histogram.resize(ro.group_size_log2.size(), 0);
    }
    for (size_t b = 0; b < ro.group_size_log2.size(); ++b) {
      counters.group_size_log2_histogram[b] += ro.group_size_log2[b];
    }
  }

  // ---- Robustness accounting across both phases.
  counters.speculative_launches =
      map_stats.speculative_launches + reduce_stats.speculative_launches;
  counters.speculative_wins =
      map_stats.speculative_wins + reduce_stats.speculative_wins;
  counters.deadline_kills =
      map_stats.deadline_kills + reduce_stats.deadline_kills;
  counters.task_exceptions = map_stats.exceptions + reduce_stats.exceptions;
  {
    std::vector<double> durations = map_stats.durations;
    durations.insert(durations.end(), reduce_stats.durations.begin(),
                     reduce_stats.durations.end());
    if (!durations.empty()) {
      std::sort(durations.begin(), durations.end());
      const size_t n = durations.size();
      counters.median_attempt_seconds = durations[n / 2];
      counters.p99_attempt_seconds = durations[(n - 1) * 99 / 100];
      counters.max_attempt_seconds = durations.back();
      counters.straggler_ratio =
          counters.median_attempt_seconds > 0.0
              ? counters.max_attempt_seconds / counters.median_attempt_seconds
              : 1.0;
    }
  }

  // ---- Collect outputs (partition-major deterministic order).
  std::vector<Out> output;
  {
    size_t total = 0;
    for (const ReduceOutput& ro : reduce_outputs) total += ro.out.size();
    output.reserve(total);
    for (ReduceOutput& ro : reduce_outputs) {
      std::move(ro.out.begin(), ro.out.end(), std::back_inserter(output));
    }
  }
  counters.reduce_output_records = output.size();
  counters.total_seconds = job_timer.ElapsedSeconds();
  DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrJobSeconds, counters.total_seconds);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleBytes, counters.shuffle_bytes);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrShuffleRecords, counters.shuffle_records);
  DDP_METRIC_COUNTER_ADD(obs::kMetricMrSpilledBytes, counters.spilled_bytes);
  if (job_span.active()) {
    job_span.AddArg("shuffle_bytes", counters.shuffle_bytes);
    job_span.AddArg("output_records", counters.reduce_output_records);
  }
  counters.modeled_seconds = counters.total_seconds;
  if (options.modeled_shuffle_bandwidth > 0.0) {
    counters.modeled_seconds += static_cast<double>(counters.shuffle_bytes) /
                                options.modeled_shuffle_bandwidth;
  }

  // ---- Persist for job-boundary recovery. A Cancelled save is the
  // simulated driver kill and aborts the pipeline; any other save error is
  // best-effort (the job merely re-runs on resume).
  if (options.checkpoint != nullptr) {
    if constexpr (has_serde_v<Out>) {
      BufferWriter w;
      Serde<std::vector<Out>>::Write(&w, output);
      Status saved = options.checkpoint->SaveBytes(checkpoint_key, w.data());
      if (saved.IsCancelled()) return saved;
      if (!saved.ok()) {
        DDP_LOG(Warning) << "checkpoint save failed for " << checkpoint_key
                         << ": " << saved.ToString();
      }
    }
  }

  // Per-submission progress feed: dynamic names cannot use the
  // static-caching DDP_METRIC_COUNTER_ADD macro, so look the counter up.
  if (!options.metrics_prefix.empty()) {
    obs::MetricsRegistry::Global()
        .GetCounter(options.metrics_prefix + ".mr_jobs")
        ->Add(1);
  }

  if (counters_out != nullptr) *counters_out = counters;
  return output;
}

}  // namespace mr
}  // namespace ddp

