#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/binary_io.h"
#include "dataset/dataset.h"

/// \file sharded_io.h
/// Streaming I/O over multi-file DDPB shards — the on-disk shape of a
/// dataset too large to materialize in one allocation. A sharded dataset is
/// an ordered list of DDPB files with identical dim and label flags; point
/// ids are assigned by global position (shard order, then in-shard order),
/// matching what loading the concatenation into one Dataset would produce.
/// The reader validates shard consistency from headers alone and loads one
/// shard at a time, so the peak resident set is one shard, not the dataset.

namespace ddp {

/// Streams a sharded DDPB dataset shard by shard.
class ShardedDatasetReader {
 public:
  /// Metadata of one shard, read from its header.
  struct Shard {
    std::string path;
    uint64_t num_points = 0;
    uint64_t base_id = 0;  // global id of the shard's first point
  };

  /// Opens an explicit ordered shard list. Fails with a per-file error when
  /// a shard is unreadable, not DDPB, or disagrees with the first shard's
  /// dim / label flag.
  static Result<ShardedDatasetReader> Open(
      const std::vector<std::string>& paths);

  /// Opens every `*.ddpb` file of `dir`, in lexicographic name order (the
  /// order ShardedDatasetWriter's zero-padded names sort into).
  static Result<ShardedDatasetReader> OpenDirectory(const std::string& dir);

  size_t dim() const { return dim_; }
  bool has_labels() const { return has_labels_; }
  uint64_t total_points() const { return total_points_; }
  size_t num_shards() const { return shards_.size(); }
  const std::vector<Shard>& shards() const { return shards_; }

  /// Loads shard `i` (CRC-verified for v2 files).
  Result<Dataset> ReadShard(size_t i) const;

  /// Streams every shard through `fn(shard_data, base_id)` in shard order,
  /// holding one shard in memory at a time.
  Status ForEachShard(
      const std::function<Status(const Dataset&, uint64_t base_id)>& fn) const;

  /// Concatenates all shards into one Dataset (ids == global ids). The
  /// convenience path for data that does fit; ForEachShard is the scalable
  /// one.
  Result<Dataset> ReadAll() const;

  /// Content digest of the dataset: one CRC32 chained over the content
  /// bytes of every shard in shard order (header and point payload; each
  /// shard's own CRC32 trailer is left out), rendered as
  /// "crc32:<8 hex digits>.<digested bytes>". Two datasets with different
  /// shard contents share a digest only by a CRC32 collision. This is the
  /// cache key material of the serving layer
  /// (src/server/cache.h). Streams each shard in fixed-size chunks, so the
  /// cost is one read pass and O(1) memory.
  Result<std::string> ContentDigest() const;

 private:
  ShardedDatasetReader() = default;

  size_t dim_ = 0;
  bool has_labels_ = false;
  uint64_t total_points_ = 0;
  std::vector<Shard> shards_;
};

/// Writes a dataset as fixed-size DDPB shards named
/// `<prefix>-00000.ddpb`, `<prefix>-00001.ddpb`, ... Points are flushed
/// every `points_per_shard`, so the writer holds at most one shard.
class ShardedDatasetWriter {
 public:
  ShardedDatasetWriter(std::string prefix, size_t dim, bool labeled,
                       uint64_t points_per_shard);

  /// Appends one point (label ignored unless the writer is labeled).
  Status Add(std::span<const double> coords, int label = -1);

  /// Flushes the final partial shard and returns the shard paths written.
  Result<std::vector<std::string>> Finish();

 private:
  Status FlushShard();

  std::string prefix_;
  size_t dim_;
  bool labeled_;
  uint64_t points_per_shard_;
  Dataset pending_;
  size_t shard_index_ = 0;
  bool finished_ = false;
  std::vector<std::string> paths_;
};

/// Splits `dataset` into `points_per_shard`-sized DDPB shards under
/// `prefix`. Returns the shard paths.
Result<std::vector<std::string>> WriteShardedDataset(
    const std::string& prefix, const Dataset& dataset,
    uint64_t points_per_shard);

/// Loads any dataset path the tools accept: a directory as DDPB shards, a
/// `.ddpb` file via the binary reader, anything else as CSV.
Result<Dataset> LoadDataset(const std::string& path);

/// ContentDigest for any dataset path LoadDataset accepts: a directory is
/// digested as its sharded reader would order it; a single file (DDPB or
/// CSV) is digested as a one-shard stream.
Result<std::string> DatasetContentDigest(const std::string& path);

}  // namespace ddp

