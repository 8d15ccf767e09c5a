// Metric and span name registry. Every metric name, span name, and span
// category exported by this tree is declared here as a named constant, and
// call sites reference the constant instead of repeating the literal. This
// is the single source of truth the name-registry lint rule (R11 in
// docs/static-analysis.md) checks both directions: a literal at a call site
// that is not registered here is a finding, and an entry here that is
// missing from the tables in docs/observability.md (or vice versa) is a
// finding anchored in whichever side is stale.
//
// Constants are grouped by exporter. Keep each group sorted by value so a
// diff of this file reads like a diff of the exported name set.
//
// Naming: kMetric* for metric names, kSpan* for span names, kCat* for span
// categories. The lint rule keys on those prefixes, so do not add constants
// with other prefixes here.
#pragma once

namespace ddp::obs {

// --------------------------------------------------------------------------
// Span categories.
// --------------------------------------------------------------------------

inline constexpr const char* kCatJob = "job";
inline constexpr const char* kCatLocalDp = "local_dp";
inline constexpr const char* kCatMr = "mr";
inline constexpr const char* kCatPipeline = "pipeline";
inline constexpr const char* kCatServer = "server";
inline constexpr const char* kCatSpill = "spill";

// --------------------------------------------------------------------------
// Span names.
// --------------------------------------------------------------------------

// Pipeline stages (category "pipeline").
inline constexpr const char* kSpanAssignment = "assignment";
inline constexpr const char* kSpanChooseDc = "choose_dc";
inline constexpr const char* kSpanComputeScores = "compute_scores";
inline constexpr const char* kSpanPeakSelection = "peak_selection";

// Local density-peaks kernels (category "local_dp").
inline constexpr const char* kSpanDelta = "delta";
inline constexpr const char* kSpanDeltaCross = "delta_cross";
inline constexpr const char* kSpanDeltaCrossSym = "delta_cross_sym";
inline constexpr const char* kSpanRho = "rho";
inline constexpr const char* kSpanRhoCross = "rho_cross";

// MapReduce substrate (categories "mr", "job", "spill").
inline constexpr const char* kSpanMapAttempt = "map_attempt";
inline constexpr const char* kSpanMapPhase = "map_phase";
inline constexpr const char* kSpanMergeStream = "merge_stream";
inline constexpr const char* kSpanReduceAttempt = "reduce_attempt";
inline constexpr const char* kSpanReducePhase = "reduce_phase";
inline constexpr const char* kSpanRemoteWorker = "remote_worker";
inline constexpr const char* kSpanShufflePhase = "shuffle_phase";
inline constexpr const char* kSpanSpillWrite = "spill_write";
inline constexpr const char* kSpanSupervisedPhase = "supervised_phase";
inline constexpr const char* kSpanWorker = "worker";

// Serving layer (category "server").
inline constexpr const char* kSpanServerExecuteJob = "server.execute_job";

// --------------------------------------------------------------------------
// Metric names.
// --------------------------------------------------------------------------

// Pipeline driver.
inline constexpr const char* kMetricDdpPeaksSelected = "ddp.peaks_selected";
inline constexpr const char* kMetricDdpPipelineSeconds = "ddp.pipeline_seconds";
inline constexpr const char* kMetricDdpPipelines = "ddp.pipelines";

// Local density-peaks kernels.
inline constexpr const char* kMetricLocalDpDistanceEvals =
    "local_dp.distance_evals";
inline constexpr const char* kMetricLocalDpGroupSize = "local_dp.group_size";
inline constexpr const char* kMetricLocalDpGroups = "local_dp.groups";

// MapReduce substrate.
inline constexpr const char* kMetricMrJobSeconds = "mr.job_seconds";
inline constexpr const char* kMetricMrJobs = "mr.jobs";
inline constexpr const char* kMetricMrMapAttemptSeconds =
    "mr.map_attempt_seconds";
inline constexpr const char* kMetricMrQuarantinedTasks = "mr.quarantined_tasks";
inline constexpr const char* kMetricMrReduceAttemptSeconds =
    "mr.reduce_attempt_seconds";
inline constexpr const char* kMetricMrRunShipSeconds = "mr.run_ship_seconds";
inline constexpr const char* kMetricMrShuffleBytes = "mr.shuffle_bytes";
inline constexpr const char* kMetricMrShuffleRecords = "mr.shuffle_records";
inline constexpr const char* kMetricMrShuffleStreamedBytes =
    "mr.shuffle_streamed_bytes";
inline constexpr const char* kMetricMrSpillWriteSeconds =
    "mr.spill_write_seconds";
inline constexpr const char* kMetricMrSpilledBytes = "mr.spilled_bytes";
inline constexpr const char* kMetricMrTasksReassigned = "mr.tasks_reassigned";
inline constexpr const char* kMetricMrWorkerCrashLatencySeconds =
    "mr.worker_crash_latency_seconds";
inline constexpr const char* kMetricMrWorkerCrashes = "mr.worker_crashes";
inline constexpr const char* kMetricMrWorkerKills = "mr.worker_kills";
inline constexpr const char* kMetricMrWorkerRestarts = "mr.worker_restarts";
inline constexpr const char* kMetricMrWorkersEvicted = "mr.workers_evicted";
inline constexpr const char* kMetricMrWorkersRegistered =
    "mr.workers_registered";

// Process-wide gauges.
inline constexpr const char* kMetricProcessPeakRssBytes =
    "process.peak_rss_bytes";
inline constexpr const char* kMetricProcessRssBytes = "process.rss_bytes";

// Serving layer.
inline constexpr const char* kMetricServerAdmittedBudgetBytes =
    "server.admitted_budget_bytes";
inline constexpr const char* kMetricServerDatasetCacheBytes =
    "server.dataset_cache_bytes";
inline constexpr const char* kMetricServerDatasetCacheHits =
    "server.dataset_cache_hits";
inline constexpr const char* kMetricServerDatasetCacheMisses =
    "server.dataset_cache_misses";
inline constexpr const char* kMetricServerJobSeconds = "server.job_seconds";
inline constexpr const char* kMetricServerJobsCancelled =
    "server.jobs_cancelled";
inline constexpr const char* kMetricServerJobsCoalesced =
    "server.jobs_coalesced";
inline constexpr const char* kMetricServerJobsCompleted =
    "server.jobs_completed";
inline constexpr const char* kMetricServerJobsFailed = "server.jobs_failed";
inline constexpr const char* kMetricServerJobsRejected = "server.jobs_rejected";
inline constexpr const char* kMetricServerJobsSubmitted =
    "server.jobs_submitted";
inline constexpr const char* kMetricServerQueueDepth = "server.queue_depth";
inline constexpr const char* kMetricServerQueueWaitSeconds =
    "server.queue_wait_seconds";
inline constexpr const char* kMetricServerResultCacheEntries =
    "server.result_cache_entries";
inline constexpr const char* kMetricServerResultCacheHits =
    "server.result_cache_hits";
inline constexpr const char* kMetricServerResultCacheMisses =
    "server.result_cache_misses";
inline constexpr const char* kMetricServerRunningJobs = "server.running_jobs";

}  // namespace ddp::obs
