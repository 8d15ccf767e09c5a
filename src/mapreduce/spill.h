#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file spill.h
/// The shuffle of the MapReduce runtime, modeled on Hadoop's IFile/merge
/// machinery. Every map task emits key-sorted runs, on every substrate and
/// at every memory budget:
///
///  * `SpillingBuffer` accumulates serialized (key, value) frames per reduce
///    partition. With a memory budget configured
///    (`mr::Options::memory_budget_bytes > 0`), whenever the buffered
///    payload bytes exceed it, it key-sorts each partition's in-memory
///    segment (stably, preserving emission order within equal keys) and
///    spills it: one CRC32-trailed run per non-empty partition, appended to
///    the map attempt's one spill file. The file is created at the first
///    spill and closed at `Finish`, like Hadoop's one map output file plus
///    index per map attempt; each run records its spill index, offset and
///    length. A task that never reaches its budget keeps the same sorted
///    runs in memory.
///  * `SpillRun` is the one run type: an extent of a spill file, or frames
///    held in memory (`spill_index == kTailRunIndex`).
///  * `SpillFileHandle` owns a spill file and the one descriptor every
///    reader `pread`s its runs through; `SpillFileWriter` appends runs to
///    it and `SpillSegmentReader` streams one run back.
///  * The reduce side is `MergingGroupReader`: a streaming k-way merge over
///    that partition's runs, feeding reduce one key group at a time without
///    ever materializing the partition. It holds one descriptor per map
///    attempt, however many runs that attempt spilled.
///
/// Determinism contract (the merge order): a key's values reach reduce in
/// (map task id, emission index) order — input order, since map tasks own
/// consecutive input slices. Sources are ordered (map task id, spill index,
/// tail), each run keeps emission order within equal keys, and the merge
/// breaks key ties by source ordinal; a task's earlier spills always hold
/// earlier emissions than its later ones. So the output is bit-identical at
/// every budget, on every substrate.
///
/// Spill files have no names: each is created with O_TMPFILE in the spill
/// dir, so the kernel frees it when the last descriptor on it closes. A
/// failed, cancelled, or speculative-loser attempt's file goes when its
/// emitter is destroyed, committed files go when the job's map outputs are
/// dropped, and a process that dies by SIGKILL takes its descriptors, and
/// so its files, with it. Nothing is ever left in the spill dir to reap.

namespace ddp {
namespace mr {

/// Owns one nameless spill file through its one descriptor, opened with
/// O_CLOEXEC when the file is created. Every run of the file is read with
/// `pread` through that descriptor, so readers share it without seeking.
/// Shared by every run reference into the file; closes the descriptor on
/// destruction, which frees the file once no other process holds it (a
/// forked child reads through the descriptor it inherited).
class SpillFileHandle {
 public:
  SpillFileHandle(std::string label, int fd);
  ~SpillFileHandle();

  SpillFileHandle(const SpillFileHandle&) = delete;
  SpillFileHandle& operator=(const SpillFileHandle&) = delete;

  /// "<dir>/<name>" as given to `SpillFileWriter::Create`: the file has no
  /// path, so this only tells errors apart.
  const std::string& label() const { return label_; }

  /// Reads exactly `n` bytes at `offset` into `out`. IoError on a failed or
  /// short read.
  Status ReadAt(uint64_t offset, char* out, size_t n) const;

 private:
  friend class SpillFileWriter;

  std::string label_;
  int fd_ = -1;
};

/// The spill index of an in-memory run (a map task's tail): tails sort after
/// every disk run of their task in the merge ordinal (map task, spill
/// index, tail), so the sentinel is the max value.
constexpr uint32_t kTailRunIndex = 0xFFFFFFFFu;

/// One key-sorted run: the frames of one reduce partition from one map
/// task. A disk run is an extent of a spill file (`file`, `offset`,
/// `length`, the extent ending in a 4-byte CRC32 trailer); an in-memory run
/// has no file, `spill_index == kTailRunIndex`, and its bare frames in
/// `bytes`.
struct SpillRun {
  std::shared_ptr<SpillFileHandle> file;
  uint32_t partition = 0;
  uint32_t spill_index = 0;  // order of the spill within its map task
  uint64_t offset = 0;       // byte offset of the run inside the file
  uint64_t length = 0;       // bytes including the 4-byte CRC trailer
  std::string bytes;         // an in-memory run's frames
};

/// Byte extent of a finished run inside its spill file.
struct SpillExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// The 4-byte little-endian CRC32 trailer of `frames`. A bare frame
/// sequence (an in-memory tail) followed by its trailer has the exact byte
/// shape of an on-disk run, ready to ship over a channel.
std::string RunTrailer(std::string_view frames);

/// Verifies that `segment` ends with a CRC32 trailer matching the bytes
/// before it and strips the trailer in place. IoError on a short segment or
/// a mismatch — the receiving side's integrity gate for a shipped run.
Status VerifyAndStripRunTrailer(std::string* segment);

/// Sequential writer for one spill file: any number of CRC-trailed runs.
/// Create -> (BeginRun, Append*, EndRun)* -> Close. Bytes are buffered and
/// written with `pwrite` through the handle's descriptor; they are readable
/// once Close returns. Write errors surface as retryable Internal statuses
/// from EndRun and Close (a retried attempt writes a fresh file).
class SpillFileWriter {
 public:
  /// Creates a nameless file in `dir` (O_TMPFILE) and the handle's
  /// descriptor, creating `dir` (and parents) if missing. `name` only
  /// labels the file in error messages. A filesystem that refuses O_TMPFILE
  /// is an error naming `dir`.
  static Result<std::unique_ptr<SpillFileWriter>> Create(
      const std::string& dir, const std::string& name);

  const std::shared_ptr<SpillFileHandle>& handle() const { return handle_; }
  uint64_t bytes_written() const { return offset_; }

  void BeginRun();
  /// Appends raw bytes to the current run and folds them into its CRC.
  void Append(const void* data, size_t n);
  /// Writes the run's CRC32 trailer and returns its extent.
  Result<SpillExtent> EndRun();
  /// Writes out every buffered byte.
  Status Close();

 private:
  explicit SpillFileWriter(std::shared_ptr<SpillFileHandle> handle)
      : handle_(std::move(handle)) {}

  /// Writes `n` bytes at the end of what is on disk; records the first
  /// failure in `error_`.
  void WriteOut(const char* data, size_t n);

  std::shared_ptr<SpillFileHandle> handle_;
  std::string buf_;       // appended bytes not yet written out
  uint64_t flushed_ = 0;  // bytes already on disk
  uint64_t offset_ = 0;   // bytes appended, buffered ones included
  uint64_t run_start_ = 0;
  uint32_t crc_ = 0;
  Status error_;
};

/// A stream of length-framed records — the common shape of a spill run on
/// disk and an in-memory tail segment. Framing errors (a broken varint
/// header, a truncated frame, a CRC trailer mismatch) are IoError: they
/// lose record boundaries, so even skip_bad_records cannot step past them.
class FrameStream {
 public:
  virtual ~FrameStream() = default;

  /// Yields the next frame payload (borrowed; valid until the next call) or
  /// sets `*eof` at a clean end of the stream.
  virtual Status NextFrame(std::string_view* payload, bool* eof) = 0;
};

/// Streams frames from one CRC-trailed run of a spill file, `pread` in
/// chunks of at most 64 KiB (the last takes the trailer along when it fits)
/// at the reader's own position, so concurrent reduce attempts share a
/// file. The CRC32 of the frames is checked against the trailer at the end.
class SpillSegmentReader : public FrameStream {
 public:
  SpillSegmentReader(std::shared_ptr<SpillFileHandle> file, uint64_t offset,
                     uint64_t length)
      : file_(std::move(file)),
        offset_(offset),
        remaining_(length >= 4 ? length - 4 : 0),
        bad_extent_(length < 4) {}

  Status NextFrame(std::string_view* payload, bool* eof) override;

 private:
  Status Ensure(size_t n);  // buffers at least n unconsumed bytes

  std::shared_ptr<SpillFileHandle> file_;
  uint64_t offset_;      // file offset of the next unread byte
  uint64_t remaining_;   // frame-data bytes not yet read from disk
  bool bad_extent_;
  bool have_trailer_ = false;
  char trailer_[4] = {};
  uint32_t crc_ = 0;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
};

/// Streams frames from a borrowed in-memory segment (an in-memory run).
class MemoryFrameReader : public FrameStream {
 public:
  explicit MemoryFrameReader(const std::string& buffer) : buf_(&buffer) {}

  Status NextFrame(std::string_view* payload, bool* eof) override;

 private:
  const std::string* buf_;
  size_t pos_ = 0;
};

namespace internal {

/// Resolves the configured spill directory; empty means a "ddp-spill"
/// subdirectory of the system temp directory.
std::string ResolveSpillDir(const std::string& configured);

/// A process-wide counter, and the calling process's tag "p<pid>". Spill
/// files have no names to keep apart, so `ddp_bench`'s spill probe, which
/// builds its labels from them, is their only caller; the benchmark
/// revision of ROADMAP item 3 deletes them.
uint64_t NextSpillFileId();
std::string SpillOwnerTag();

/// Map-side buffer that every map task emits through. Serializes every
/// (key, value) payload back to back into its partition's byte arena, keeps
/// a (decoded key, payload extent) entry per record, and spills sorted runs
/// whenever the buffered payload bytes reach a nonzero budget. Every spill
/// appends to one file, created at the first spill. A task that never hit
/// the budget keeps its output as sorted in-memory runs and never touches
/// disk; a task that spilled flushes its remainder as a final spill and
/// closes the file at Finish(). Either way `runs()` is in merge-ordinal
/// order. `Traits` supplies Hash/Less for the key (mr::KeyTraits in
/// practice).
template <typename MidK, typename MidV, typename Traits>
class SpillingBuffer {
 public:
  SpillingBuffer(size_t num_partitions, uint64_t budget_bytes,
                 std::string spill_dir, std::string file_label)
      : budget_bytes_(budget_bytes),
        dir_(std::move(spill_dir)),
        label_(std::move(file_label)),
        pending_(num_partitions),
        arena_(num_partitions),
        poison_(num_partitions, 0),
        payload_bytes_(num_partitions, 0) {}

  void Add(const MidK& key, const MidV& value) {
    if (!status_.ok()) return;
    const size_t p = Traits::Hash(key) % pending_.size();
    std::string& arena = arena_[p];
    const size_t offset = arena.size();
    BufferWriter rec(&arena);
    Serde<MidK>::Write(&rec, key);
    Serde<MidV>::Write(&rec, value);
    const size_t size = arena.size() - offset;
    payload_bytes_[p] += size;
    buffered_bytes_ += size;
    pending_[p].push_back({key, offset, size});
    ++records_;
    if (budget_bytes_ > 0 && buffered_bytes_ >= budget_bytes_) {
      status_ = Spill();
    }
  }

  /// Queues an undecodable frame for partition `p` (shuffle-corruption
  /// injection). Poison carries no key, so it rides at the end of the next
  /// run (or the tail) and does not count against the budget.
  void AddPoisonFrame(size_t p) { ++poison_[p]; }

  /// Seals the buffer; call once, after the last Add/AddPoisonFrame.
  /// A task that never hit the budget sorts and encodes its output into
  /// one in-memory run per non-empty partition; a task that spilled
  /// flushes the remainder as a final spill (Hadoop's close-time flush) and
  /// closes its file, so its entire output — poison frames included — lives
  /// in sorted runs on disk. Returns the first deferred spill error.
  Status Finish() {
    if (!status_.ok()) return status_;
    if (writer_ != nullptr) {
      DDP_RETURN_NOT_OK(Spill());
      Stopwatch watch;
      const Status closed = writer_->Close();
      spill_seconds_ += watch.ElapsedSeconds();
      return closed;
    }
    for (size_t p = 0; p < pending_.size(); ++p) {
      if (pending_[p].empty() && poison_[p] == 0) continue;
      SortPartition(p);
      SpillRun run;
      run.partition = static_cast<uint32_t>(p);
      run.spill_index = kTailRunIndex;
      size_t run_bytes = 2 * poison_[p];  // a poison frame is 2 bytes
      for (const Pending& rec : pending_[p]) {
        run_bytes += VarintBytes(rec.size) + rec.size;
      }
      run.bytes.reserve(run_bytes);
      BufferWriter out(&run.bytes);
      for (const Pending& rec : pending_[p]) {
        out.PutVarint64(rec.size);
        out.PutRaw(arena_[p].data() + rec.offset, rec.size);
      }
      AppendPoison(&out, p);
      std::vector<Pending>().swap(pending_[p]);
      std::string().swap(arena_[p]);
      runs_.push_back(std::move(run));
    }
    return Status::OK();
  }

  const Status& status() const { return status_; }
  uint64_t records() const { return records_; }
  const std::vector<uint64_t>& payload_bytes() const { return payload_bytes_; }
  std::vector<SpillRun>& runs() { return runs_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  uint64_t spill_files() const { return writer_ != nullptr ? 1 : 0; }
  double spill_seconds() const { return spill_seconds_; }

 private:
  struct Pending {
    MidK key;
    size_t offset;  // of the payload in its partition's arena
    size_t size;
  };

  static size_t VarintBytes(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) ++n;
    return n;
  }

  void SortPartition(size_t p) {
    std::stable_sort(pending_[p].begin(), pending_[p].end(),
                     [](const Pending& a, const Pending& b) {
                       return Traits::Less(a.key, b.key);
                     });
  }

  void AppendPoison(BufferWriter* out, size_t p) {
    for (uint64_t i = 0; i < poison_[p]; ++i) {
      out->PutVarint64(1);
      out->PutByte(0xff);
    }
    poison_[p] = 0;
  }

  Status Spill() {
    bool any = false;
    for (size_t p = 0; p < pending_.size(); ++p) {
      if (!pending_[p].empty() || poison_[p] > 0) any = true;
    }
    if (!any) return Status::OK();
    Stopwatch watch;
    DDP_TRACE_SPAN(spill_span, obs::kCatSpill, obs::kSpanSpillWrite);
    if (writer_ == nullptr) {
      DDP_ASSIGN_OR_RETURN(writer_, SpillFileWriter::Create(dir_, label_));
    }
    SpillFileWriter* writer = writer_.get();
    const uint64_t start = writer->bytes_written();
    std::string frame;
    for (size_t p = 0; p < pending_.size(); ++p) {
      if (pending_[p].empty() && poison_[p] == 0) continue;
      SortPartition(p);
      writer->BeginRun();
      for (const Pending& rec : pending_[p]) {
        frame.clear();
        BufferWriter hdr(&frame);
        hdr.PutVarint64(rec.size);
        writer->Append(frame.data(), frame.size());
        writer->Append(arena_[p].data() + rec.offset, rec.size);
      }
      if (poison_[p] > 0) {
        frame.clear();
        BufferWriter poison(&frame);
        AppendPoison(&poison, p);
        writer->Append(frame.data(), frame.size());
      }
      DDP_ASSIGN_OR_RETURN(SpillExtent extent, writer->EndRun());
      runs_.push_back(SpillRun{writer->handle(), static_cast<uint32_t>(p),
                               spill_count_, extent.offset, extent.length,
                               {}});
      pending_[p].clear();
      arena_[p].clear();
    }
    const uint64_t written = writer->bytes_written() - start;
    spilled_bytes_ += written;
    ++spill_count_;
    buffered_bytes_ = 0;
    const double seconds = watch.ElapsedSeconds();
    spill_seconds_ += seconds;
    if (spill_span.active()) {
      spill_span.AddArg("bytes", written);
      spill_span.AddArg("runs", static_cast<uint64_t>(runs_.size()));
    }
    DDP_METRIC_HISTOGRAM_SECONDS(obs::kMetricMrSpillWriteSeconds, seconds);
    return Status::OK();
  }

  const uint64_t budget_bytes_;
  const std::string dir_;
  const std::string label_;
  std::vector<std::vector<Pending>> pending_;
  std::vector<std::string> arena_;  // per partition: payloads back to back
  std::vector<uint64_t> poison_;
  std::vector<uint64_t> payload_bytes_;
  std::vector<SpillRun> runs_;
  std::unique_ptr<SpillFileWriter> writer_;  // the task's one spill file
  Status status_;
  uint64_t buffered_bytes_ = 0;
  uint64_t records_ = 0;
  uint32_t spill_count_ = 0;
  uint64_t spilled_bytes_ = 0;
  double spill_seconds_ = 0.0;
};

/// Streaming k-way merge over key-sorted frame streams, yielding one key
/// group at a time. Sources must be passed in (map task id, spill index,
/// tail) order; key ties break by source ordinal, which together with each
/// source's internal stability yields every key's values in (map task id,
/// emission index) order — the merge-order contract above. Undecodable
/// frames are skipped and counted when `skip_bad_records` is set, otherwise
/// they abort with IoError.
template <typename MidK, typename MidV, typename Traits>
class MergingGroupReader {
 public:
  MergingGroupReader(std::vector<std::unique_ptr<FrameStream>> sources,
                     bool skip_bad_records, CancelToken* cancel)
      : skip_bad_(skip_bad_records), cancel_(cancel) {
    cursors_.reserve(sources.size());
    for (auto& s : sources) cursors_.push_back(Cursor{std::move(s), {}, {}});
  }

  /// Primes every source; call once before NextGroup.
  Status Init() {
    heap_.reserve(cursors_.size());
    for (size_t i = 0; i < cursors_.size(); ++i) {
      bool alive = false;
      DDP_RETURN_NOT_OK(Advance(i, &alive));
      if (alive) Push(i);
    }
    return Status::OK();
  }

  /// Reads the next key group into (*key, *values); `*has` is false at the
  /// end of the merged stream.
  Status NextGroup(MidK* key, std::vector<MidV>* values, bool* has) {
    *has = false;
    if (heap_.empty()) return Status::OK();
    values->clear();
    size_t i = Pop();
    *key = cursors_[i].key;
    values->push_back(std::move(cursors_[i].value));
    bool alive = false;
    DDP_RETURN_NOT_OK(Advance(i, &alive));
    if (alive) Push(i);
    while (!heap_.empty() && cursors_[heap_.front()].key == *key) {
      size_t j = Pop();
      values->push_back(std::move(cursors_[j].value));
      DDP_RETURN_NOT_OK(Advance(j, &alive));
      if (alive) Push(j);
    }
    *has = true;
    return Status::OK();
  }

  uint64_t skipped() const { return skipped_; }

 private:
  struct Cursor {
    std::unique_ptr<FrameStream> stream;
    MidK key;
    MidV value;
  };

  /// Decodes the next record of source `i`; `*alive` is false at stream
  /// end. Skips (or rejects) undecodable frames.
  Status Advance(size_t i, bool* alive) {
    Cursor& c = cursors_[i];
    while (true) {
      if ((frames_++ & 1023u) == 0 && cancel_ != nullptr &&
          cancel_->cancelled()) {
        return Status::Cancelled("reduce attempt abandoned");
      }
      std::string_view payload;
      bool eof = false;
      DDP_RETURN_NOT_OK(c.stream->NextFrame(&payload, &eof));
      if (eof) {
        *alive = false;
        return Status::OK();
      }
      BufferReader rec(payload.data(), payload.size());
      Status st = Serde<MidK>::Read(&rec, &c.key);
      if (st.ok()) st = Serde<MidV>::Read(&rec, &c.value);
      if (st.ok() && !rec.exhausted()) {
        st = Status::IoError("record decoded short of its frame");
      }
      if (!st.ok()) {
        if (skip_bad_) {
          ++skipped_;
          continue;
        }
        return Status::IoError("bad record: " + st.message());
      }
      *alive = true;
      return Status::OK();
    }
  }

  // Min-heap over source indices ordered by (key, source ordinal). `After`
  // is the max-heap comparator std::push_heap expects: true when a sits
  // below b, i.e. a's record comes after b's in merge order.
  bool After(size_t a, size_t b) const {
    if (Traits::Less(cursors_[a].key, cursors_[b].key)) return false;
    if (Traits::Less(cursors_[b].key, cursors_[a].key)) return true;
    return a > b;
  }
  void Push(size_t i) {
    heap_.push_back(i);
    std::push_heap(heap_.begin(), heap_.end(),
                   [this](size_t a, size_t b) { return After(a, b); });
  }
  size_t Pop() {
    std::pop_heap(heap_.begin(), heap_.end(),
                  [this](size_t a, size_t b) { return After(a, b); });
    size_t i = heap_.back();
    heap_.pop_back();
    return i;
  }

  std::vector<Cursor> cursors_;
  std::vector<size_t> heap_;
  const bool skip_bad_;
  CancelToken* cancel_;
  uint64_t skipped_ = 0;
  uint64_t frames_ = 0;
};

}  // namespace internal
}  // namespace mr
}  // namespace ddp

