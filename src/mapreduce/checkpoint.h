#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/serde.h"

/// \file checkpoint.h
/// Driver recovery for multi-job pipelines. A `CheckpointStore` persists each
/// completed job's output (serialized with `common/serde.h`) under a
/// directory; when a pipeline is killed between jobs and re-run against the
/// same directory, `mr::RunJob` replays completed jobs from disk instead of
/// executing them, so the resumed pipeline produces bit-identical results —
/// the job-boundary restart semantics a Hadoop driver gets from HDFS output
/// committers.
///
/// Keys are sequence-scoped: the k-th job of a pipeline gets key
/// "<k>-<job name>". A deterministic pipeline requests the same jobs in the
/// same order on every run, so keys line up across kill/resume. The driver
/// (`RunDistributedDp`) resets the sequence at pipeline start.
///
/// On-disk format per entry: magic "DPCK", varint payload size, payload,
/// 8-byte FNV-1a checksum of the payload. Files are written to a .tmp path
/// and renamed, so a kill mid-write never leaves a readable-but-partial
/// checkpoint; a corrupt or truncated entry is treated as absent and the job
/// simply re-runs.

namespace ddp {
namespace mr {

class CheckpointStore {
 public:
  /// Creates the directory (and parents) if missing.
  explicit CheckpointStore(std::string dir);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  const std::string& dir() const { return dir_; }

  /// Returns the key for the next job in the pipeline and advances the
  /// sequence. Called once per RunJob invocation.
  std::string NextKey(const std::string& job_name);

  /// Rewinds the sequence to 0 — call at the start of a (re-)run so resumed
  /// pipelines regenerate the same keys.
  void ResetSequence();

  /// Keys handed out since the last reset: the jobs of the pipeline that
  /// have started, replayed ones included.
  uint64_t sequence() const;

  /// True when a valid (checksummed) entry exists for `key`.
  bool Has(const std::string& key) const;

  /// Loads an entry's payload. NotFound when absent, IoError when the entry
  /// exists but fails the checksum or framing check.
  Result<std::string> LoadBytes(const std::string& key) const;

  /// Persists `payload` atomically. Returns Cancelled when a simulated
  /// driver kill (SetKillAfter) triggers instead of writing.
  Status SaveBytes(const std::string& key, const std::string& payload);

  /// Test/demo hook simulating a driver crash: after `saves` successful
  /// SaveBytes calls, the next one returns Cancelled without persisting
  /// (the job's output is lost, exactly like a kill between jobs).
  /// Negative disables (default).
  void SetKillAfter(int64_t saves);

 private:
  std::string PathFor(const std::string& key) const;

  std::string dir_;
  mutable std::mutex mu_;
  uint64_t seq_ = 0;
  int64_t kill_after_ = -1;
  int64_t saves_ = 0;
};

}  // namespace mr
}  // namespace ddp

