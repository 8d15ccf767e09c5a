#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/serde.h"

/// \file protocol.h
/// Wire messages of the serving layer. ddp_server and ddp_client speak the
/// framed CommChannel format of channel.h with the kJob* frame types:
///
///   client -> server                      server -> client
///   ----------------------------------   -----------------------------------
///   kJobSubmit  JobSubmitMsg              kJobStatus   JobStatusMsg (ack)
///   kJobStatus  JobPollMsg                kJobStatus   JobStatusMsg
///   kJobResult  JobPollMsg                kJobResult   JobResultMsg
///   kJobCancel  JobCancelMsg              kJobStatus   JobStatusMsg (ack)
///                                         kJobProgress JobStatusMsg (pushed)
///
/// Requests on one connection are answered in order; kJobProgress frames may
/// be interleaved before any reply for jobs that asked for streamed progress
/// (JobSubmitMsg::progress_seconds > 0), so clients skip or collect them
/// while waiting for a reply type.
///
/// Like the supervisor messages, every struct names its wire fields once
/// (`Fields`, common/serde.h) and takes Encode()/Decode() from that list;
/// Decode() rejects trailing bytes.

namespace ddp {
namespace server {

/// Lifecycle of a submitted job. Values are part of the wire format.
enum class JobState : uint8_t {
  kQueued = 0,     // admitted, waiting for a scheduler slot
  kRunning = 1,    // executing under RunDistributedDp
  kDone = 2,       // result available (possibly straight from the cache)
  kFailed = 3,     // pipeline returned an error (JobStatusMsg::detail)
  kCancelled = 4,  // cancelled while queued or at a phase boundary
  kRejected = 5,   // admission control refused it (detail says why)
};

std::string_view JobStateName(JobState state);

/// Everything that determines a job's output given the dataset bytes — the
/// canonicalized half of the result-cache key. Field semantics mirror the
/// ddp_cli cluster flags.
struct JobParams : WireMessage<JobParams, "JobParams"> {
  std::string algo = "lsh";  // lsh | basic | eddpc
  double dc = 0.0;           // explicit cutoff; <= 0 samples percentile
  double percentile = 0.02;
  // Peak selection: k > 0 picks top-k by gamma; else rho_min/delta_min > 0
  // thresholds; else the automatic gamma-gap cut.
  uint64_t k = 0;
  double rho_min = 0.0;
  double delta_min = 0.0;
  // LSH-DDP parameters.
  double accuracy = 0.99;
  uint64_t num_layouts = 10;  // m
  uint64_t pi = 3;
  uint64_t block_size = 500;  // Basic-DDP
  uint64_t num_workers = 0;   // 0 => DefaultParallelism()
  uint64_t memory_budget_bytes = 0;  // per-job budget; also admission weight
  uint8_t exec_mode = 0;             // 0 inproc, 1 fork, 2 remote workers
  uint64_t seed = 1;                 // chaos + backoff seed
  // Seeded chaos applied to the job's MapReduce runtime (tests and drills).
  double map_failure_rate = 0.0;
  double reduce_failure_rate = 0.0;
  double worker_crash_rate = 0.0;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.algo, s.dc, s.percentile, s.k, s.rho_min, s.delta_min,
                     s.accuracy, s.num_layouts, s.pi, s.block_size,
                     s.num_workers, s.memory_budget_bytes, AsByte(s.exec_mode),
                     s.seed, s.map_failure_rate, s.reduce_failure_rate,
                     s.worker_crash_rate);
  }

  /// Stable `key=value;` rendering of every field above, in declaration
  /// order with %.17g doubles — combined with the dataset digest this is
  /// the result-cache key, so two params that canonicalize equally MUST
  /// produce bit-identical output.
  std::string CanonicalKey() const;
};

struct JobSubmitMsg : WireMessage<JobSubmitMsg, "JobSubmitMsg"> {
  JobParams params;
  /// Dataset path as visible to the server: a DDPB/CSV file or a directory
  /// of DDPB shards. The server digests the bytes, so the same data under
  /// two paths still shares cache entries.
  std::string dataset_path;
  /// > 0 subscribes this connection to kJobProgress pushes: a change of the
  /// job's state or MR-job count at most once per this many seconds, and
  /// the terminal push at once, whatever the interval.
  double progress_seconds = 0.0;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(LengthPrefixed(s.params), s.dataset_path,
                     s.progress_seconds);
  }
};

/// Client request payload for kJobStatus and kJobResult frames.
struct JobPollMsg : WireMessage<JobPollMsg, "JobPollMsg"> {
  uint64_t job_id = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.job_id); }
};

/// `job_id == kShutdownJobId` is the admin drain request: the server stops
/// admitting, finishes queued and running jobs, then exits.
constexpr uint64_t kShutdownJobId = ~uint64_t{0};

struct JobCancelMsg : WireMessage<JobCancelMsg, "JobCancelMsg"> {
  uint64_t job_id = 0;

  template <typename S>
  static auto Fields(S& s) { return FieldRefs(s.job_id); }
};

/// Server reply for submissions, polls, cancels, and progress pushes.
struct JobStatusMsg : WireMessage<JobStatusMsg, "JobStatusMsg"> {
  uint64_t job_id = 0;
  uint8_t state = 0;  // JobState
  /// Rejection reason, failure message, or empty.
  std::string detail;
  uint64_t queue_position = 0;  // 0-based; meaningful while kQueued
  /// MapReduce jobs of the pipeline started so far, checkpoint replays
  /// included (the streamed-progress feed: the sequence of the job's
  /// checkpoint store).
  uint64_t mr_jobs_done = 0;
  double running_seconds = 0.0;
  uint8_t from_result_cache = 0;

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.job_id, AsByte(s.state), s.detail, s.queue_position,
                     s.mr_jobs_done, s.running_seconds,
                     AsByte(s.from_result_cache));
  }
};

/// The clustering output a finished job serves — the bytes the result cache
/// stores verbatim, so a cache hit is bit-identical to the run that
/// populated it.
struct JobResultPayload
    : WireMessage<JobResultPayload, "JobResultPayload"> {
  double dc = 0.0;
  uint64_t num_clusters = 0;
  std::vector<int32_t> assignment;  // cluster id per point, global id order
  uint64_t distance_evaluations = 0;
  double total_seconds = 0.0;
  uint64_t mr_jobs = 0;  // MapReduce jobs the pipeline ran

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.dc, s.num_clusters, s.assignment, s.distance_evaluations,
                     s.total_seconds, s.mr_jobs);
  }
};

struct JobResultMsg : WireMessage<JobResultMsg, "JobResultMsg"> {
  uint64_t job_id = 0;
  uint8_t state = 0;  // JobState; payload present iff kDone
  std::string error;  // failure/cancel detail when not kDone
  uint8_t from_result_cache = 0;
  std::string payload;  // encoded JobResultPayload when kDone

  template <typename S>
  static auto Fields(S& s) {
    return FieldRefs(s.job_id, AsByte(s.state), s.error,
                     AsByte(s.from_result_cache), s.payload);
  }
};

}  // namespace server
}  // namespace ddp
