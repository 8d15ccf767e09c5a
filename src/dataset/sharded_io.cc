#include "dataset/sharded_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/serde.h"
#include "dataset/csv.h"

namespace ddp {

namespace fs = std::filesystem;

namespace {

// Chains `*crc` over the first `length` bytes of `path`, counting them into
// `*bytes`.
Status ChainFileCrc32(const std::string& path, uint64_t length, uint32_t* crc,
                      uint64_t* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for digest");
  }
  char buf[1 << 16];
  size_t n = 0;
  while (length > 0 &&
         (n = std::fread(buf, 1, std::min<uint64_t>(sizeof(buf), length),
                         f)) > 0) {
    *crc = Crc32(buf, n, *crc);
    *bytes += n;
    length -= n;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read failed digesting " + path);
  return Status::OK();
}

// Chains `*crc` over the content bytes of one dataset file. A DDPB v2 file
// ends in a CRC32 of everything before it, and a CRC32 run over a message
// followed by its own CRC32 gives the same residue (0x2144df1c) for every
// message. Digesting the trailer would give every same-size file one digest,
// so it is left out. Other files (CSV, DDPB v1) are digested whole.
Status ChainContentCrc32(const std::string& path, uint32_t* crc,
                         uint64_t* bytes) {
  std::error_code ec;
  uint64_t length = fs::file_size(path, ec);
  if (ec) {
    return Status::IoError("cannot stat " + path + " for digest: " +
                           ec.message());
  }
  Result<BinaryFileInfo> info = PeekBinaryFileInfo(path);
  if (info.ok() && info->version >= 2 && length >= 4) length -= 4;
  return ChainFileCrc32(path, length, crc, bytes);
}

std::string FormatDigest(uint32_t crc, uint64_t bytes) {
  char out[64];
  std::snprintf(out, sizeof(out), "crc32:%08x.%llu", crc,
                static_cast<unsigned long long>(bytes));
  return out;
}

}  // namespace

Result<ShardedDatasetReader> ShardedDatasetReader::Open(
    const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("sharded dataset has no shards");
  }
  ShardedDatasetReader reader;
  for (const std::string& path : paths) {
    DDP_ASSIGN_OR_RETURN(BinaryFileInfo info, PeekBinaryFileInfo(path));
    if (reader.shards_.empty()) {
      reader.dim_ = static_cast<size_t>(info.dim);
      reader.has_labels_ = info.has_labels;
    } else if (info.dim != reader.dim_) {
      return Status::InvalidArgument(
          path + ": shard dimension " + std::to_string(info.dim) +
          " does not match " + paths.front() + " (dim " +
          std::to_string(reader.dim_) + ")");
    } else if (info.has_labels != reader.has_labels_) {
      return Status::InvalidArgument(
          path + ": shard is " + (info.has_labels ? "labeled" : "unlabeled") +
          " but " + paths.front() + " is " +
          (reader.has_labels_ ? "labeled" : "unlabeled"));
    }
    reader.shards_.push_back(
        Shard{path, info.num_points, reader.total_points_});
    reader.total_points_ += info.num_points;
  }
  return reader;
}

Result<ShardedDatasetReader> ShardedDatasetReader::OpenDirectory(
    const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError("cannot list " + dir + ": " + ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (entry.path().extension() == ".ddpb") {
      paths.push_back(entry.path().string());
    }
  }
  if (paths.empty()) {
    return Status::InvalidArgument("no .ddpb shards in " + dir);
  }
  std::sort(paths.begin(), paths.end());
  return Open(paths);
}

Result<Dataset> ShardedDatasetReader::ReadShard(size_t i) const {
  if (i >= shards_.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  DDP_ASSIGN_OR_RETURN(Dataset ds, ReadBinaryFile(shards_[i].path));
  if (ds.size() != shards_[i].num_points) {
    return Status::IoError(shards_[i].path +
                           ": header/content point count mismatch");
  }
  return ds;
}

Status ShardedDatasetReader::ForEachShard(
    const std::function<Status(const Dataset&, uint64_t)>& fn) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    DDP_ASSIGN_OR_RETURN(Dataset ds, ReadShard(i));
    DDP_RETURN_NOT_OK(fn(ds, shards_[i].base_id));
  }
  return Status::OK();
}

Result<Dataset> ShardedDatasetReader::ReadAll() const {
  Dataset all(dim_);
  all.Reserve(static_cast<size_t>(total_points_));
  std::vector<int> labels;
  if (has_labels_) labels.reserve(static_cast<size_t>(total_points_));
  Status st = ForEachShard([&](const Dataset& shard, uint64_t) -> Status {
    for (PointId i = 0; i < shard.size(); ++i) {
      all.Add(shard.point(i));
      if (has_labels_) labels.push_back(shard.label(i));
    }
    return Status::OK();
  });
  DDP_RETURN_NOT_OK(st);
  if (has_labels_) all.set_labels(std::move(labels));
  return all;
}

ShardedDatasetWriter::ShardedDatasetWriter(std::string prefix, size_t dim,
                                           bool labeled,
                                           uint64_t points_per_shard)
    : prefix_(std::move(prefix)),
      dim_(dim),
      labeled_(labeled),
      points_per_shard_(points_per_shard == 0 ? 1 : points_per_shard),
      pending_(dim) {}

Status ShardedDatasetWriter::Add(std::span<const double> coords, int label) {
  if (finished_) return Status::InvalidArgument("writer already finished");
  if (coords.size() != dim_) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  if (labeled_) {
    pending_.Add(coords, label);
  } else {
    pending_.Add(coords);
  }
  if (pending_.size() >= points_per_shard_) return FlushShard();
  return Status::OK();
}

Status ShardedDatasetWriter::FlushShard() {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "-%05zu.ddpb", shard_index_);
  std::string path = prefix_ + suffix;
  DDP_RETURN_NOT_OK(WriteBinaryFile(path, pending_));
  paths_.push_back(std::move(path));
  ++shard_index_;
  pending_ = Dataset(dim_);
  return Status::OK();
}

Result<std::vector<std::string>> ShardedDatasetWriter::Finish() {
  if (finished_) return Status::InvalidArgument("writer already finished");
  finished_ = true;
  if (!pending_.empty() || paths_.empty()) {
    DDP_RETURN_NOT_OK(FlushShard());
  }
  return std::move(paths_);
}

Result<std::string> ShardedDatasetReader::ContentDigest() const {
  uint32_t crc = 0;
  uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    DDP_RETURN_NOT_OK(ChainContentCrc32(shard.path, &crc, &bytes));
  }
  return FormatDigest(crc, bytes);
}

Result<Dataset> LoadDataset(const std::string& path) {
  if (fs::is_directory(path)) {
    DDP_ASSIGN_OR_RETURN(ShardedDatasetReader reader,
                         ShardedDatasetReader::OpenDirectory(path));
    return reader.ReadAll();
  }
  if (path.ends_with(".ddpb")) return ReadBinaryFile(path);
  return ReadCsvFile(path);
}

Result<std::string> DatasetContentDigest(const std::string& path) {
  if (fs::is_directory(path)) {
    DDP_ASSIGN_OR_RETURN(ShardedDatasetReader reader,
                         ShardedDatasetReader::OpenDirectory(path));
    return reader.ContentDigest();
  }
  uint32_t crc = 0;
  uint64_t bytes = 0;
  DDP_RETURN_NOT_OK(ChainContentCrc32(path, &crc, &bytes));
  return FormatDigest(crc, bytes);
}

Result<std::vector<std::string>> WriteShardedDataset(
    const std::string& prefix, const Dataset& dataset,
    uint64_t points_per_shard) {
  ShardedDatasetWriter writer(prefix, dataset.dim(), dataset.has_labels(),
                              points_per_shard);
  for (PointId i = 0; i < dataset.size(); ++i) {
    DDP_RETURN_NOT_OK(writer.Add(dataset.point(i), dataset.label(i)));
  }
  return writer.Finish();
}

}  // namespace ddp
