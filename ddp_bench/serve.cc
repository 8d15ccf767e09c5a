// The serving workload: an in-process DdpServer driven by a closed loop of
// DdpClients, each on its own connection and each blocking on its result,
// as a service user does. Every fourth job of a client resubmits the exact
// key of its job three back, so a quarter of all jobs are result-cache hits
// served beside cold pipelines.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "dataset/csv.h"
#include "dataset/generators.h"
#include "ddp/driver.h"
#include "ddp/lsh_ddp.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"

#include "layers.h"
#include "workloads.h"

namespace ddp::bench {
namespace {

namespace fs = std::filesystem;
using server::JobParams;
using server::JobState;

constexpr size_t kClients = 4;
constexpr size_t kInputs = 4;
constexpr size_t kPoints = 2000;
constexpr size_t kSchedulerThreads = 2;  // ddp_server's default
constexpr uint64_t kJobWorkers = 2;
constexpr uint64_t kPeaks = 15;
constexpr int kSetupReps = 9;
constexpr size_t kVerifyPerClient = 8;
// Without a short poll the client-side latency measures the poll interval
// (WaitForResult's default is 0.1 s), not the server.
constexpr double kPollSeconds = 0.002;
constexpr double kJobTimeoutSeconds = 120.0;
constexpr double kMiB = 1024.0 * 1024.0;

enum class Phase : uint64_t { kSetup = 0, kWarmup = 1, kMeasured = 2, kTraced = 3 };

/// A cold job's params: LSH-DDP with the paper's defaults, top-15 peaks
/// (S2 has 15 clusters), and a seed that makes its cache key unique.
JobParams ColdParams(uint64_t run_seed, Phase phase, size_t client,
                     size_t job) {
  JobParams params;
  params.algo = "lsh";
  params.k = kPeaks;
  params.num_workers = kJobWorkers;
  params.seed = (run_seed << 32) | (static_cast<uint64_t>(phase) << 28) |
                (static_cast<uint64_t>(client) << 24) | job;
  return params;
}

/// The pipeline options DdpServer::RunJobPipeline derives from `params`.
DdpOptions ServerOptions(const JobParams& params, const std::string& spill) {
  DdpOptions options;
  options.dc = params.dc;
  options.cutoff.percentile = params.percentile;
  options.selector = PeakSelector::TopK(static_cast<size_t>(params.k));
  options.mr.num_workers = static_cast<size_t>(params.num_workers);
  options.mr.spill_dir = spill;
  return options;
}

LshDdp::Params ServerLshParams(const JobParams& params) {
  LshDdp::Params lsh;
  lsh.accuracy = params.accuracy;
  lsh.lsh.num_layouts = static_cast<size_t>(params.num_layouts);
  lsh.lsh.pi = static_cast<size_t>(params.pi);
  lsh.seed = params.seed;
  return lsh;
}

struct ServedJob {
  size_t input = 0;
  JobParams params;
  std::vector<int32_t> assignment;
};

/// One client's share of a phase.
struct ClientLog {
  std::vector<double> cold_ms;
  std::vector<uint64_t> cold_ids;  // server job id of each cold_ms entry
  std::vector<double> hit_ms;
  uint64_t jobs = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<ServedJob> verify;
};

/// Submits one job, waits for it, and fetches its result.
Status RunJob(server::DdpClient* client, const std::string& path,
              const JobParams& params, bool expect_hit,
              std::vector<int32_t>* assignment, uint64_t* job_id) {
  server::JobSubmitMsg msg;
  msg.params = params;
  msg.dataset_path = path;
  DDP_ASSIGN_OR_RETURN(server::JobStatusMsg status, client->Submit(msg));
  *job_id = status.job_id;
  if (status.state == static_cast<uint8_t>(JobState::kQueued) ||
      status.state == static_cast<uint8_t>(JobState::kRunning)) {
    DDP_ASSIGN_OR_RETURN(status, client->WaitForResult(status.job_id,
                                                       kJobTimeoutSeconds,
                                                       kPollSeconds));
  }
  if (status.state != static_cast<uint8_t>(JobState::kDone)) {
    return Status::Internal(
        "job ended " +
        std::string(server::JobStateName(static_cast<JobState>(status.state))) +
        ": " + status.detail);
  }
  if ((status.from_result_cache != 0) != expect_hit) {
    return Status::Internal(expect_hit ? "repeat missed the result cache"
                                       : "cold job hit the result cache");
  }
  DDP_ASSIGN_OR_RETURN(server::JobResultMsg result,
                       client->FetchResult(status.job_id));
  server::JobResultPayload payload;
  DDP_RETURN_NOT_OK(server::JobResultPayload::Decode(result.payload, &payload));
  *assignment = std::move(payload.assignment);
  return Status::OK();
}

/// One client's closed loop: job j targets input (c + j) mod 4 with fresh
/// params, except every j = 3 mod 4, which repeats job j - 3 exactly. Runs
/// whole groups of four until `seconds` have passed, so hits are exactly a
/// quarter of the jobs.
void ClientLoop(server::DdpClient* client, const std::vector<std::string>& paths,
                uint64_t run_seed, Phase phase, size_t c, double seconds,
                const Stopwatch& clock, ClientLog* log) {
  ServedJob recent[3];
  for (size_t j = 0;; ++j) {
    if (j % 4 == 0 && j > 0 && clock.ElapsedSeconds() >= seconds) break;
    const bool hit = j % 4 == 3;
    ServedJob job;
    if (hit) {
      job.input = recent[0].input;
      job.params = recent[0].params;
    } else {
      job.input = (c + j) % kInputs;
      job.params = ColdParams(run_seed, phase, c, j);
    }
    Stopwatch timer;
    uint64_t job_id = 0;
    Status st = RunJob(client, paths[job.input], job.params, hit,
                       &job.assignment, &job_id);
    const double ms = timer.ElapsedSeconds() * 1000.0;
    ++log->jobs;
    if (st.ok() && hit && job.assignment != recent[0].assignment) {
      st = Status::Internal("cache hit differs from the job it repeats");
    }
    if (!st.ok()) {
      ++log->failed;
      if (log->problems.size() < Outcome::kMaxProblems) {
        log->problems.push_back("client " + std::to_string(c) + " job " +
                                std::to_string(j) + ": " + st.ToString());
      }
    } else if (hit) {
      log->hit_ms.push_back(ms);
    } else {
      log->cold_ms.push_back(ms);
      log->cold_ids.push_back(job_id);
      if (log->verify.size() < kVerifyPerClient) log->verify.push_back(job);
    }
    if (!hit) recent[j % 4] = std::move(job);
  }
}

struct PhaseResult {
  std::vector<double> cold_ms;
  std::vector<uint64_t> cold_ids;
  std::vector<double> hit_ms;
  uint64_t jobs = 0;
  double wall = 0.0;
  std::vector<ServedJob> verify;
  std::vector<obs::TraceEvent> events;
  // Registry readings over the phase.
  double shuffle_bytes = 0, evals = 0, groups = 0, result_hits = 0,
         result_misses = 0, dataset_hits = 0, dataset_misses = 0, rejected = 0,
         queue_wait_p50_ms = 0;
};

class ServeRun {
 public:
  explicit ServeRun(const RunConfig& config) : config_(config) {}

  Outcome Run();

 private:
  Status MakeInputs();
  Status StartServer(int rep);
  void StopServer();
  PhaseResult RunPhase(Phase phase, double seconds, bool traced);
  void VerifyServedJobs(const std::vector<ServedJob>& jobs);
  void ReportLayers(const PhaseResult& untraced, const PhaseResult& traced);

  const RunConfig& config_;
  Outcome out_;
  std::vector<std::string> paths_;
  std::unique_ptr<server::DdpServer> server_;
  std::vector<std::unique_ptr<server::DdpClient>> clients_;
  std::vector<double> setup_seconds_;
  double warmup_seconds_ = 0.0;
  // From the in-process reference runs of the verified jobs.
  std::vector<Dataset> inputs_;  // loaded for verification, after the window
  std::vector<double> tau2_;
  std::vector<mr::RunStats> reference_stats_;
  ServedJob reference_;  // the first verified job
  double reference_dc_ = 0.0;
};

Status ServeRun::MakeInputs() {
  const size_t n = ScaledPoints(config_, kPoints);
  for (size_t i = 0; i < kInputs; ++i) {
    DDP_ASSIGN_OR_RETURN(Dataset labeled,
                         gen::S2Like(config_.seed * 1000 + i, n));
    // Coordinates only: the server reads every CSV column as a coordinate.
    DDP_ASSIGN_OR_RETURN(Dataset data,
                         Dataset::FromValues(labeled.dim(), labeled.values()));
    paths_.push_back(config_.work_dir + "/s2-" + std::to_string(i) + ".csv");
    DDP_RETURN_NOT_OK(WriteCsvFile(paths_.back(), data));
  }
  return Status::OK();
}

// Set-up: start the server, connect every client, and run each input's
// first job, which loads it into the dataset cache — the cold start a
// service user waits through before the server answers at steady state.
Status ServeRun::StartServer(int rep) {
  server::ServerConfig config;
  config.scheduler_threads = kSchedulerThreads;
  config.work_dir = config_.work_dir + "/server-" + std::to_string(rep);
  DDP_ASSIGN_OR_RETURN(server_, server::DdpServer::Start(config));
  for (size_t c = 0; c < kClients; ++c) {
    DDP_ASSIGN_OR_RETURN(std::unique_ptr<server::DdpClient> client,
                         server::DdpClient::Connect("127.0.0.1",
                                                    server_->port()));
    clients_.push_back(std::move(client));
  }
  std::vector<Status> status(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<int32_t> assignment;
      uint64_t job_id = 0;
      status[c] = RunJob(clients_[c].get(), paths_[c % kInputs],
                         ColdParams(config_.seed, Phase::kSetup, c,
                                    static_cast<size_t>(rep)),
                         /*expect_hit=*/false, &assignment, &job_id);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : status) DDP_RETURN_NOT_OK(st);
  return Status::OK();
}

void ServeRun::StopServer() {
  clients_.clear();
  if (server_ != nullptr) {
    server_->RequestShutdown();
    server_->WaitShutdown();
    server_.reset();
  }
}

PhaseResult ServeRun::RunPhase(Phase phase, double seconds, bool traced) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  registry.Reset();
  if (traced) {
    recorder.Clear();
    recorder.Enable();
  }
  std::vector<ClientLog> logs(kClients);
  Stopwatch clock;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLoop(clients_[c].get(), paths_, config_.seed, phase, c, seconds,
                 clock, &logs[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult r;
  r.wall = clock.ElapsedSeconds();
  if (traced) {
    recorder.Disable();
    r.events = recorder.Snapshot();
    recorder.Clear();
  }
  for (ClientLog& log : logs) {
    r.cold_ms.insert(r.cold_ms.end(), log.cold_ms.begin(), log.cold_ms.end());
    r.cold_ids.insert(r.cold_ids.end(), log.cold_ids.begin(),
                      log.cold_ids.end());
    r.hit_ms.insert(r.hit_ms.end(), log.hit_ms.begin(), log.hit_ms.end());
    r.jobs += log.jobs;
    out_.attempted += log.jobs;
    out_.failed += log.failed;
    for (const std::string& p : log.problems) out_.Check(false, p);
    for (ServedJob& v : log.verify) r.verify.push_back(std::move(v));
  }
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->value());
  };
  r.shuffle_bytes = counter(obs::kMetricMrShuffleBytes);
  r.evals = counter(obs::kMetricLocalDpDistanceEvals);
  r.groups = counter(obs::kMetricLocalDpGroups);
  r.result_hits = counter(obs::kMetricServerResultCacheHits);
  r.result_misses = counter(obs::kMetricServerResultCacheMisses);
  r.dataset_hits = counter(obs::kMetricServerDatasetCacheHits);
  r.dataset_misses = counter(obs::kMetricServerDatasetCacheMisses);
  r.rejected = counter(obs::kMetricServerJobsRejected);
  r.queue_wait_p50_ms =
      registry.GetHistogram(obs::kMetricServerQueueWaitSeconds)->Snap().p50 /
      1000.0;
  out_.Check(r.rejected == 0, "the server rejected jobs");
  out_.Check(r.result_hits * 4 == r.result_hits + r.result_misses,
             "result-cache hit ratio is not exactly 0.25");
  return r;
}

// Each verified cold job's served assignment must equal an in-process
// RunDistributedDp with the same params; the runs also give rho accuracy
// and the runtime counters the serving protocol does not return.
void ServeRun::VerifyServedJobs(const std::vector<ServedJob>& jobs) {
  out_.Check(!jobs.empty(), "no cold job to verify");
  for (const std::string& path : paths_) {
    Result<Dataset> data = ReadCsvFile(path);
    if (!data.ok()) {
      out_.Check(false, "reading " + path + ": " + data.status().ToString());
      return;
    }
    inputs_.push_back(std::move(data).value());
  }
  for (const ServedJob& job : jobs) {
    LshDdp algorithm(ServerLshParams(job.params));
    ++out_.attempted;
    Result<DdpRunResult> run = RunDistributedDp(
        &algorithm, inputs_[job.input],
        ServerOptions(job.params, config_.work_dir + "/spill"));
    const bool same =
        run.ok() && std::equal(job.assignment.begin(), job.assignment.end(),
                               run->clusters.assignment.begin(),
                               run->clusters.assignment.end());
    if (!same) {
      ++out_.failed;
      out_.Check(false, "job seed " + std::to_string(job.params.seed) +
                            ": served assignment differs from in-process " +
                            (run.ok() ? "run" : run.status().ToString()));
      continue;
    }
    tau2_.push_back(SampledTau2(inputs_[job.input], run->scores.rho, run->dc,
                                inputs_[job.input].size(), 0));
    if (reference_stats_.empty()) {
      reference_ = job;
      reference_dc_ = run->dc;
    }
    reference_stats_.push_back(std::move(run->stats));
  }
}

Outcome ServeRun::Run() {
  Status st = MakeInputs();
  for (int rep = 0; st.ok() && rep < kSetupReps; ++rep) {
    StopServer();
    Stopwatch setup;
    st = StartServer(rep);
    setup_seconds_.push_back(setup.ElapsedSeconds());
  }
  if (!st.ok()) {
    StopServer();
    out_.Check(false, "set-up: " + st.ToString());
    return std::move(out_);
  }

  PhaseResult warm = RunPhase(Phase::kWarmup, 0.0, false);
  warmup_seconds_ = Median(warm.cold_ms) / 1000.0;

  PhaseResult measured = RunPhase(
      Phase::kMeasured, config_.trace ? config_.seconds / 2 : config_.seconds,
      false);
  PhaseResult traced;
  if (config_.trace) traced = RunPhase(Phase::kTraced, config_.seconds / 2, true);
  const double peak_rss_mb = PeakRssMiB();
  StopServer();

  VerifyServedJobs(measured.verify);
  Report& m = out_.metrics;
  if (!config_.trace) {
    const double cold = static_cast<double>(measured.cold_ms.size());
    m.Set("latency_ms", Median(measured.cold_ms), "ms");
    m.Set("ops_per_s", static_cast<double>(measured.jobs) / measured.wall,
          "1/s");
    m.Set("setup_s", Median(setup_seconds_), "s");
    m.Set("peak_rss_mb", peak_rss_mb, "MiB");
    m.Set("shuffle_mb_per_op", cold > 0 ? measured.shuffle_bytes / cold / kMiB
                                        : 0.0,
          "MiB");
    m.Set("rho_tau2", Mean(tau2_), "ratio");
  } else {
    ReportLayers(measured, traced);
  }
  return std::move(out_);
}

void ServeRun::ReportLayers(const PhaseResult& untraced,
                            const PhaseResult& traced) {
  Report& m = out_.metrics;
  InitLayerMetrics(&m);
  if (traced.cold_ms.empty() || untraced.cold_ms.empty()) return;
  ReportSpans(traced.events, static_cast<double>(traced.cold_ms.size()),
              "LSH-DDP", &m);
  std::vector<const mr::RunStats*> runs;
  for (const mr::RunStats& s : reference_stats_) runs.push_back(&s);
  ReportRunStats(runs, &m);
  m.Set("ddp.warmup_pipeline_s", warmup_seconds_, "s");
  m.Set("trace_overhead_frac",
        Median(traced.cold_ms) / Median(untraced.cold_ms) - 1.0, "ratio");

  // A cold job's client-seen latency splits into its execution span and
  // everything outside it: queue wait, protocol round trips, polling.
  std::map<uint64_t, double> execute_by_id;
  for (const obs::TraceEvent& e : traced.events) {
    if (e.name != obs::kSpanServerExecuteJob) continue;
    for (const obs::TraceEvent::Arg& arg : e.args) {
      if (arg.key == "job_id") {
        execute_by_id[std::stoull(arg.value)] =
            static_cast<double>(e.duration_us) / 1000.0;
      }
    }
  }
  std::vector<double> execute_ms;
  std::vector<double> outside_ms;
  for (size_t k = 0; k < traced.cold_ids.size(); ++k) {
    auto it = execute_by_id.find(traced.cold_ids[k]);
    if (it == execute_by_id.end()) continue;
    execute_ms.push_back(it->second);
    outside_ms.push_back(traced.cold_ms[k] - it->second);
  }
  m.Set("server.job_p50_ms", Median(execute_ms), "ms");
  m.Set("server.job_p95_ms", Quantile(execute_ms, 0.95), "ms");
  m.Set("server.outside_job_p50_ms", Median(outside_ms), "ms");
  m.Set("server.queue_wait_p50_ms", traced.queue_wait_p50_ms, "ms");

  // R: the untraced phase's registry counters and client-seen latencies.
  const double cold = static_cast<double>(untraced.cold_ms.size());
  m.Set("local_dp.distance_evals", untraced.evals / cold, "count");
  m.Set("local_dp.groups", untraced.groups / cold, "count");
  m.Set("server.hit_job_p50_ms", Median(untraced.hit_ms), "ms");
  m.Set("server.cold_job_p95_ms", Quantile(untraced.cold_ms, 0.95), "ms");
  m.Set("server.result_cache_hit_ratio",
        untraced.result_hits / (untraced.result_hits + untraced.result_misses),
        "ratio");
  const double lookups = untraced.dataset_hits + untraced.dataset_misses;
  m.Set("server.dataset_cache_hit_ratio",
        lookups > 0 ? untraced.dataset_hits / lookups : 0.0, "ratio");
  m.Set("server.jobs_rejected", untraced.rejected + traced.rejected, "count");

  // P: the input of the first verified job, under its params.
  std::vector<double> load_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch load;
    out_.Check(ReadCsvFile(paths_[0]).ok(), "reading " + paths_[0]);
    load_s.push_back(load.ElapsedSeconds());
  }
  std::error_code ec;
  m.Set("dataset.load_s", Median(load_s), "s");
  m.Set("dataset.bytes", static_cast<double>(fs::file_size(paths_[0], ec)),
        "bytes");
  if (!reference_stats_.empty()) {
    ReportLshProbes(inputs_[reference_.input],
                    ServerLshParams(reference_.params), reference_dc_, &m);
  }
}

}  // namespace

Outcome RunServe(const RunConfig& config) {
  ServeRun run(config);
  return run.Run();
}

}  // namespace ddp::bench
