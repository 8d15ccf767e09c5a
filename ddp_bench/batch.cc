// The three batch workloads: one DDP pipeline after another over inputs
// generated from the seed, in-process, on forked workers under a small
// memory budget, or on exec'd ddp_worker processes.

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "dataset/binary_io.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/lsh_ddp.h"
#include "mapreduce/remote_worker.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "layers.h"
#include "probes.h"
#include "workloads.h"

namespace ddp::bench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kWorkers = 4;  // threads, forked workers, or exec'd workers
constexpr size_t kPeaks = 8;
constexpr size_t kBasicBlock = 500;
constexpr int kSetupReps = 9;
constexpr size_t kTauSample = 1000;  // points per input checked for tau2
constexpr size_t kProbeBlocks = 8;
constexpr double kMiB = 1024.0 * 1024.0;

LshDdp::Params LshParamsOfWorkload() {
  LshDdp::Params params;  // Sec. VI-D: A = 0.99, M = 10, pi = 3
  params.accuracy = 0.99;
  params.lsh.num_layouts = 10;
  params.lsh.pi = 3;
  return params;
}

std::unique_ptr<DistributedDpAlgorithm> MakeAlgorithm(BatchSpec::Algo algo) {
  if (algo == BatchSpec::Algo::kLsh) {
    return std::make_unique<LshDdp>(LshParamsOfWorkload());
  }
  BasicDdp::Params params;
  params.block_size = kBasicBlock;
  return std::make_unique<BasicDdp>(params);
}

/// The remote workload's exec'd ddp_worker processes and the pool they dial.
/// Destruction shuts the pool, kills every worker, and reaps it.
class WorkerCrew {
 public:
  static Result<std::unique_ptr<WorkerCrew>> Start(const std::string& binary,
                                                   size_t workers) {
    std::unique_ptr<WorkerCrew> crew(new WorkerCrew());
    DDP_ASSIGN_OR_RETURN(crew->pool_,
                         mr::RemoteWorkerPool::Listen("127.0.0.1", 0));
    const std::string endpoint =
        crew->pool_->host() + ":" + std::to_string(crew->pool_->port());
    for (size_t i = 0; i < workers; ++i) {
      DDP_ASSIGN_OR_RETURN(int64_t pid, mr::SpawnWorkerProcess(
                                            binary, {"--connect", endpoint}));
      crew->pids_.push_back(pid);
    }
    return crew;
  }

  ~WorkerCrew() {
    if (pool_ != nullptr) pool_->Shutdown();
    for (int64_t pid : pids_) mr::KillWorkerProcess(pid);
    for (int64_t pid : pids_) mr::WaitWorkerProcess(pid);
  }

  WorkerCrew(const WorkerCrew&) = delete;
  WorkerCrew& operator=(const WorkerCrew&) = delete;

  mr::RemoteWorkerPool* pool() const { return pool_.get(); }

 private:
  WorkerCrew() = default;

  std::unique_ptr<mr::RemoteWorkerPool> pool_;
  std::vector<int64_t> pids_;
};

/// What a pipeline must reproduce on every later run of the same input.
struct Expected {
  DpScores scores;
  std::vector<int> assignment;
  double dc = 0.0;
};

bool SameOutput(const Expected& want, const DdpRunResult& got) {
  return want.scores.rho == got.scores.rho &&
         want.scores.delta == got.scores.delta &&
         want.scores.upslope == got.scores.upslope &&
         want.assignment == got.clusters.assignment;
}

struct Op {
  size_t input = 0;
  double seconds = 0.0;
  mr::RunStats stats;
};

struct Window {
  std::vector<Op> ops;
  double wall = 0.0;
  std::vector<obs::TraceEvent> events;  // traced windows only
};

/// Mean over inputs of each input's median pipeline time, in ms.
double LatencyMs(const Window& w, size_t inputs) {
  std::vector<double> medians;
  for (size_t i = 0; i < inputs; ++i) {
    std::vector<double> s;
    for (const Op& op : w.ops) {
      if (op.input == i) s.push_back(op.seconds);
    }
    if (!s.empty()) medians.push_back(Median(std::move(s)));
  }
  return 1000.0 * Mean(medians);
}

class BatchRun {
 public:
  BatchRun(const RunConfig& config, const BatchSpec& spec)
      : config_(config),
        spec_(spec),
        algorithm_(MakeAlgorithm(spec.algo)),
        spill_dir_(config.work_dir + "/spill") {}

  Outcome Run();

 private:
  Status MakeInputs();
  Status SetUp();
  DdpOptions Options(mr::ExecMode mode, uint64_t budget) const;
  /// Runs one pipeline on input `i` and checks it; false when it failed.
  bool RunChecked(size_t i, const DdpOptions& options, Op* op);
  Window RunWindow(double seconds, bool traced);
  void ReportEndToEnd(const Window& w, const std::vector<double>& tau2);
  void ReportLayers(const Window& untraced, const Window& traced,
                    const obs::Histogram::Snapshot& ship);

  const RunConfig& config_;
  const BatchSpec& spec_;
  std::unique_ptr<DistributedDpAlgorithm> algorithm_;
  const std::string spill_dir_;
  Outcome out_;

  std::vector<std::string> paths_;
  std::vector<Dataset> inputs_;
  std::unique_ptr<WorkerCrew> crew_;
  std::vector<double> setup_seconds_;
  std::vector<double> load_seconds_;  // per input, every setup repetition
  std::vector<Expected> expected_;
  double warmup_seconds_ = 0.0;
  // In-process kernel counts per pipeline (the warm-up in-process, else the
  // reference runs: counters in forked and remote workers die with them).
  double evals_per_op_ = 0.0;
  double groups_per_op_ = 0.0;
};

Status BatchRun::MakeInputs() {
  const size_t n = ScaledPoints(config_, spec_.points);
  for (size_t i = 0; i < spec_.inputs; ++i) {
    DDP_ASSIGN_OR_RETURN(Dataset data,
                         gen::KddLike(config_.seed * 1000 + i, n));
    paths_.push_back(config_.work_dir + "/input-" + std::to_string(i) +
                     ".ddpb");
    DDP_RETURN_NOT_OK(WriteBinaryFile(paths_.back(), data));
  }
  return Status::OK();
}

// Set-up is everything before the first pipeline can start: loading every
// input, plus the pool listener and worker spawns in remote mode. It is
// repeated and the median reported; the last repetition's state is kept.
Status BatchRun::SetUp() {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    crew_.reset();
    inputs_.clear();
    Stopwatch setup;
    for (const std::string& path : paths_) {
      Stopwatch load;
      DDP_ASSIGN_OR_RETURN(Dataset data, ReadBinaryFile(path));
      load_seconds_.push_back(load.ElapsedSeconds());
      inputs_.push_back(std::move(data));
    }
    if (spec_.mode == mr::ExecMode::kRemote) {
      DDP_ASSIGN_OR_RETURN(crew_,
                           WorkerCrew::Start(config_.worker_bin, kWorkers));
    }
    setup_seconds_.push_back(setup.ElapsedSeconds());
  }
  return Status::OK();
}

DdpOptions BatchRun::Options(mr::ExecMode mode, uint64_t budget) const {
  DdpOptions options;
  options.selector = PeakSelector::TopK(kPeaks);
  options.mr.num_workers = kWorkers;
  options.mr.exec_mode = mode;
  options.mr.memory_budget_bytes = budget;
  options.mr.spill_dir = spill_dir_;
  if (mode == mr::ExecMode::kRemote && crew_ != nullptr) {
    options.mr.remote_pool = crew_->pool();
  }
  return options;
}

bool BatchRun::RunChecked(size_t i, const DdpOptions& options, Op* op) {
  Stopwatch timer;
  Result<DdpRunResult> run =
      RunDistributedDp(algorithm_.get(), inputs_[i], options);
  op->input = i;
  op->seconds = timer.ElapsedSeconds();
  const std::string where = "input " + std::to_string(i) + ": ";
  if (!run.ok()) {
    out_.Check(false, where + run.status().ToString());
    return false;
  }
  op->stats = std::move(run->stats);
  const mr::RunStats& stats = op->stats;
  bool ok = true;
  if (i < expected_.size() && !SameOutput(expected_[i], *run)) {
    out_.Check(false, where + "output differs from the input's first pipeline");
    ok = false;
  }
  if (options.mr.exec_mode != mr::ExecMode::kInProc &&
      (stats.TotalExecFallbacks() != 0 ||
       stats.TotalShuffleStreamedBytes() == 0)) {
    out_.Check(false,
               where + "fell back to in-process execution or streamed nothing");
    ok = false;
  }
  if (options.mr.exec_mode == mr::ExecMode::kRemote &&
      stats.TotalWorkersRegistered() < kWorkers) {
    out_.Check(false, where + "fewer remote workers registered than started");
    ok = false;
  }
  if (i >= expected_.size()) {
    expected_.push_back(
        {std::move(run->scores), std::move(run->clusters.assignment),
         run->dc});
  }
  return ok;
}

// Runs whole round-robin cycles over the inputs until `seconds` have passed,
// so every input weighs the same in the medians.
Window BatchRun::RunWindow(double seconds, bool traced) {
  Window w;
  const DdpOptions options = Options(spec_.mode, spec_.memory_budget_bytes);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (traced) {
    recorder.Clear();
    recorder.Enable();
  }
  Stopwatch timer;
  for (size_t k = 0; k == 0 || k % inputs_.size() != 0 ||
                     timer.ElapsedSeconds() < seconds;
       ++k) {
    Op op;
    ++out_.attempted;
    if (RunChecked(k % inputs_.size(), options, &op)) {
      w.ops.push_back(std::move(op));
    } else {
      ++out_.failed;
    }
  }
  w.wall = timer.ElapsedSeconds();
  if (traced) {
    recorder.Disable();
    w.events = recorder.Snapshot();
    recorder.Clear();
  }
  return w;
}

Outcome BatchRun::Run() {
  Status st = MakeInputs();
  if (st.ok()) st = SetUp();
  if (!st.ok()) {
    out_.Check(false, "set-up: " + st.ToString());
    return std::move(out_);
  }

  // Warm-up: each input once in the workload's own mode. Its output is what
  // every timed pipeline of that input must reproduce bit for bit.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  const DdpOptions warm = Options(spec_.mode, spec_.memory_budget_bytes);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    Op op;
    if (!RunChecked(i, warm, &op) || expected_.size() != i + 1) {
      out_.Check(false, "warm-up pipeline failed");
      return std::move(out_);
    }
    if (i == 0) warmup_seconds_ = op.seconds;
  }
  const double n_inputs = static_cast<double>(inputs_.size());
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->value());
  };
  if (spec_.mode == mr::ExecMode::kInProc) {
    evals_per_op_ = counter(obs::kMetricLocalDpDistanceEvals) / n_inputs;
    groups_per_op_ = counter(obs::kMetricLocalDpGroups) / n_inputs;
  }

  registry.Reset();
  Window untraced = RunWindow(config_.trace ? config_.seconds / 2
                                            : config_.seconds,
                              /*traced=*/false);
  Window traced;
  if (config_.trace) traced = RunWindow(config_.seconds / 2, /*traced=*/true);
  const double peak_rss_mb = PeakRssMiB();
  const obs::Histogram::Snapshot ship =
      registry.GetHistogram(obs::kMetricMrRunShipSeconds)->Snap();
  crew_.reset();

  // Forked and remote output must equal an in-process run of the same
  // input; those runs also supply the kernel counts the workers could not.
  if (spec_.mode != mr::ExecMode::kInProc) {
    registry.Reset();
    const DdpOptions inproc = Options(mr::ExecMode::kInProc, 0);
    for (size_t i = 0; i < inputs_.size(); ++i) {
      Op op;
      ++out_.attempted;
      if (!RunChecked(i, inproc, &op)) ++out_.failed;
    }
    evals_per_op_ = counter(obs::kMetricLocalDpDistanceEvals) / n_inputs;
    groups_per_op_ = counter(obs::kMetricLocalDpGroups) / n_inputs;
  }

  if (!config_.trace) {
    out_.metrics.Set("peak_rss_mb", peak_rss_mb, "MiB");
    std::vector<double> tau2;
    for (size_t i = 0; i < inputs_.size(); ++i) {
      tau2.push_back(SampledTau2(inputs_[i], expected_[i].scores.rho,
                                 expected_[i].dc, kTauSample,
                                 config_.seed * 1000 + i));
    }
    if (spec_.algo == BatchSpec::Algo::kBasic) {
      out_.Check(Mean(tau2) == 1.0, "Basic-DDP rho is not exact");
    }
    ReportEndToEnd(untraced, tau2);
  } else {
    ReportLayers(untraced, traced, ship);
  }
  return std::move(out_);
}

void BatchRun::ReportEndToEnd(const Window& w, const std::vector<double>& tau2) {
  Report& m = out_.metrics;
  m.Set("latency_ms", LatencyMs(w, inputs_.size()), "ms");
  m.Set("ops_per_s", static_cast<double>(w.ops.size()) / w.wall, "1/s");
  m.Set("setup_s", Median(setup_seconds_), "s");
  std::vector<double> shuffle;
  for (const Op& op : w.ops) {
    shuffle.push_back(static_cast<double>(op.stats.TotalShuffleBytes()) /
                      kMiB);
  }
  m.Set("shuffle_mb_per_op", Mean(shuffle), "MiB");
  m.Set("rho_tau2", Mean(tau2), "ratio");
}

void BatchRun::ReportLayers(const Window& untraced, const Window& traced,
                            const obs::Histogram::Snapshot& ship) {
  Report& m = out_.metrics;
  InitLayerMetrics(&m);
  std::vector<const mr::RunStats*> runs;
  for (const Window* w : {&untraced, &traced}) {
    for (const Op& op : w->ops) runs.push_back(&op.stats);
  }
  if (untraced.ops.empty() || traced.ops.empty()) return;
  ReportSpans(traced.events, static_cast<double>(traced.ops.size()),
              algorithm_->name(), &m);
  ReportRunStats(runs, &m);
  m.Set("trace_overhead_frac",
        LatencyMs(traced, inputs_.size()) /
                LatencyMs(untraced, inputs_.size()) -
            1.0,
        "ratio");
  m.Set("ddp.warmup_pipeline_s", warmup_seconds_, "s");
  m.Set("local_dp.distance_evals", evals_per_op_, "count");
  m.Set("local_dp.groups", groups_per_op_, "count");
  m.Set("channel.runs_shipped",
        static_cast<double>(ship.count) / static_cast<double>(runs.size()),
        "count");
  m.Set("channel.run_ship_p50_ms", ship.p50 / 1000.0, "ms");
  struct rusage children {};
  if (spec_.mode != mr::ExecMode::kInProc &&
      getrusage(RUSAGE_CHILDREN, &children) == 0) {
    m.Set("supervisor.worker_peak_rss_mb",
          static_cast<double>(children.ru_maxrss) / 1024.0, "MiB");
  }
  m.Set("dataset.load_s", Median(load_seconds_), "s");
  std::error_code ec;
  m.Set("dataset.bytes", static_cast<double>(fs::file_size(paths_[0], ec)),
        "bytes");

  // P: unit costs of the layers this workload exercises, on the first input.
  const Dataset& first = inputs_[0];
  const double dc = expected_[0].dc;
  if (spec_.algo == BatchSpec::Algo::kLsh) {
    ReportLshProbes(first, LshParamsOfWorkload(), dc, &m);
  } else {
    std::vector<std::vector<PointId>> blocks;
    for (size_t b = 0; b < kProbeBlocks; ++b) {
      std::vector<PointId> block;
      for (size_t i = b * kBasicBlock;
           i < std::min(first.size(), (b + 1) * kBasicBlock); ++i) {
        block.push_back(static_cast<PointId>(i));
      }
      if (!block.empty()) blocks.push_back(std::move(block));
    }
    m.Set("local_dp.ns_per_eval", ProbeNsPerEval(first, blocks, dc), "ns");
  }
  const double spill_files = m.value("spill.files");
  if (spill_files > 0) {
    const double records = m.value("mr.shuffle_records");
    const double frame =
        records > 0 ? m.value("spill.bytes") / records : 64.0;
    Result<SpillRates> rates = ProbeSpill(
        config_.work_dir + "/probe-spill",
        static_cast<uint64_t>(m.value("spill.bytes_per_file")),
        static_cast<uint64_t>(frame));
    out_.Check(rates.ok(), "spill probe: " + rates.status().ToString());
    if (rates.ok()) {
      m.Set("spill.write_mb_per_s", rates->write_mb_per_s, "MB/s");
      m.Set("spill.read_mb_per_s", rates->read_mb_per_s, "MB/s");
    }
  }
  if (spec_.mode != mr::ExecMode::kInProc) {
    Result<double> small = ProbeFrameMicros(4096);
    Result<double> large = ProbeFrameMicros(size_t{1} << 20);
    out_.Check(small.ok() && large.ok(), "channel probe failed");
    if (small.ok()) m.Set("channel.frame_us_4k", *small, "us");
    if (large.ok()) m.Set("channel.frame_us_1m", *large, "us");
    m.Set("channel.crc32_mb_per_s", ProbeCrc32MbPerS(size_t{16} << 20),
          "MB/s");
  }
}

}  // namespace

Outcome RunBatch(const RunConfig& config, const BatchSpec& spec) {
  BatchRun run(config, spec);
  return run.Run();
}

}  // namespace ddp::bench
