#include "server/cache.h"

#include "dataset/sharded_io.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ddp {
namespace server {

namespace {

uint64_t EstimateBytes(const Dataset& ds) {
  uint64_t bytes = static_cast<uint64_t>(ds.size()) *
                   static_cast<uint64_t>(ds.dim()) * sizeof(double);
  if (ds.has_labels()) bytes += static_cast<uint64_t>(ds.size()) * sizeof(int);
  return bytes;
}

void SetDatasetCacheGauge(uint64_t bytes) {
  obs::MetricsRegistry::Global()
      .GetGauge(obs::kMetricServerDatasetCacheBytes)
      ->Set(static_cast<double>(bytes));
}

}  // namespace

Result<std::shared_ptr<const Dataset>> DatasetCache::Acquire(
    const std::string& path, const std::string& digest) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(digest);
  if (it != entries_.end()) {
    it->second.last_use = ++tick_;
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerDatasetCacheHits, 1);
    return it->second.dataset;
  }
  DDP_METRIC_COUNTER_ADD(obs::kMetricServerDatasetCacheMisses, 1);
  // Load under the lock: concurrent jobs over the same dataset serialize
  // here instead of loading twice, and hit/miss accounting stays exact.
  DDP_ASSIGN_OR_RETURN(Dataset loaded, LoadDataset(path));
  Entry entry;
  entry.dataset = std::make_shared<const Dataset>(std::move(loaded));
  entry.bytes = EstimateBytes(*entry.dataset);
  entry.last_use = ++tick_;
  resident_bytes_ += entry.bytes;
  std::shared_ptr<const Dataset> result = entry.dataset;
  entries_[digest] = std::move(entry);
  EvictLocked();
  SetDatasetCacheGauge(resident_bytes_);
  return result;
}

void DatasetCache::EvictLocked() {
  while (resident_bytes_ > max_bytes_ && entries_.size() > 1) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    resident_bytes_ -= victim->second.bytes;
    entries_.erase(victim);
  }
}

uint64_t DatasetCache::resident_bytes() const {
  std::unique_lock<std::mutex> lock(mu_);
  return resident_bytes_;
}

bool ResultCache::Get(const std::string& key, std::string* payload) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricServerResultCacheMisses, 1);
    return false;
  }
  it->second.last_use = ++tick_;
  *payload = it->second.payload;
  DDP_METRIC_COUNTER_ADD(obs::kMetricServerResultCacheHits, 1);
  return true;
}

void ResultCache::Put(const std::string& key, std::string payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (max_entries_ == 0) return;  // caching disabled
  Entry& entry = entries_[key];
  entry.payload = std::move(payload);
  entry.last_use = ++tick_;
  while (entries_.size() > max_entries_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) victim = it;
    }
    entries_.erase(victim);
  }
  obs::MetricsRegistry::Global()
      .GetGauge(obs::kMetricServerResultCacheEntries)
      ->Set(static_cast<double>(entries_.size()));
}

size_t ResultCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace server
}  // namespace ddp
