#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/result.h"
#include "dataset/dataset.h"

/// \file cache.h
/// The two caches that make a long-lived ddp_server cheaper than one
/// ddp_cli invocation per request:
///
///  * `DatasetCache` keeps loaded datasets resident across jobs, keyed by
///    content digest (sharded_io.h: CRC32 over the shard byte stream), so a
///    parameter sweep over one dataset pays the load once. Entries hand out
///    shared_ptr<const Dataset>; eviction drops the cache's reference and
///    in-flight jobs keep theirs, so eviction never invalidates a running
///    job.
///  * `ResultCache` maps (dataset digest, canonicalized params) to the
///    encoded JobResultPayload bytes of a completed run. A hit is served
///    verbatim — bit-identical to the run that stored it — without touching
///    the MapReduce runtime.
///
/// Both are LRU with a hard bound (bytes for datasets, entries for
/// results) and bump the server.* cache metrics on every lookup.

namespace ddp {
namespace server {

class DatasetCache {
 public:
  /// `max_bytes` bounds resident point data (estimated as
  /// n * dim * sizeof(double) + label storage); at least the most recent
  /// entry is kept even when it alone exceeds the bound.
  explicit DatasetCache(uint64_t max_bytes) : max_bytes_(max_bytes) {}

  /// Returns the dataset for `path`, loading it on a miss. `digest` must be
  /// the path's DatasetContentDigest — it is the cache key, so the same
  /// bytes under two paths share one entry.
  Result<std::shared_ptr<const Dataset>> Acquire(const std::string& path,
                                                 const std::string& digest);

  uint64_t resident_bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const Dataset> dataset;
    uint64_t bytes = 0;
    uint64_t last_use = 0;
  };

  void EvictLocked();

  mutable std::mutex mu_;
  uint64_t max_bytes_;
  uint64_t resident_bytes_ = 0;
  uint64_t tick_ = 0;
  std::map<std::string, Entry> entries_;  // digest -> entry
};

class ResultCache {
 public:
  explicit ResultCache(size_t max_entries) : max_entries_(max_entries) {}

  /// Copies the cached payload into `*payload` on a hit.
  bool Get(const std::string& key, std::string* payload);

  void Put(const std::string& key, std::string payload);

  size_t size() const;

 private:
  struct Entry {
    std::string payload;
    uint64_t last_use = 0;
  };

  mutable std::mutex mu_;
  size_t max_entries_;
  uint64_t tick_ = 0;
  std::map<std::string, Entry> entries_;
};

}  // namespace server
}  // namespace ddp
