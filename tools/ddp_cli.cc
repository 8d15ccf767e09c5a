// ddp_cli — command-line front end for the ddp library.
//
//   ddp_cli gen <family> <n> <seed> <out>            generate a data set
//   ddp_cli info <in>                                 dataset statistics
//   ddp_cli tune --dc D [--accuracy A --m M --pi P]   Sec. V parameter model
//   ddp_cli cluster <in> [options]                    run DP clustering
//
// Files ending in .ddpb use the binary format; everything else is CSV. A
// directory `<in>` is read as a sharded DDPB dataset (every *.ddpb inside,
// lexicographic order). `gen --shards N` splits the generated set into N
// DDPB shards `<out>-00000.ddpb`, ... instead of one file.
// `cluster` options:
//   --algo lsh|basic|eddpc|seq   algorithm (default lsh)
//   --k N                        select the top-N peaks by gamma
//   --rho X --delta Y            threshold peak selection
//   --accuracy A --m M --pi P    LSH-DDP parameters (defaults 0.99, 10, 3)
//   --probes N                   multi-probe LSH: extra buckets per layout
//   --dc D                       explicit cutoff (default: sampled 2%)
//   --percentile P               cutoff percentile (default 0.02)
//   --kernel cutoff|gaussian     density kernel (lsh/seq only)
//   --local-backend B            local rho/delta kernel backend:
//                                auto|brute|kdtree|triangle (default auto;
//                                bit-identical results, different cost)
//   --block N                    Basic-DDP block size (default 500)
//   --memory-budget B            out-of-core execution: spill map output to
//                                disk past B buffered bytes per task
//                                (0 = all in memory, the default)
//   --spill-dir DIR              spill file directory (default: system temp)
//   --halo                       flag halo/border points (extra column)
//   --internal-metrics           print silhouette / Davies-Bouldin / SSE
//   --graph FILE                 export the decision graph TSV
//   --out FILE                   write input + cluster-id column (default
//                                <in>.clustered.csv)
//   --trace-out FILE             record tracing spans for the whole run and
//                                write Chrome trace-event JSON (load in
//                                Perfetto / chrome://tracing)
//   --metrics-out FILE           write the metrics registry snapshot JSON
//   --stats-out FILE             write per-job MapReduce counters JSON
//   --heartbeat SECONDS          log per-phase progress every S seconds
//   --exec-mode MODE             inproc (default) runs MapReduce tasks on a
//                                thread pool; fork runs them in supervised
//                                forked workers over socketpairs (crash
//                                isolation, bit-identical output); remote
//                                runs them on exec'd ddp_worker processes
//                                over TCP (bit-identical output, any host)
//   --max-worker-restarts N      fork mode: replacement workers each phase
//                                may spawn after crashes (default 8)
//   --remote-listen H:P          remote mode: the worker pool's listen
//                                endpoint (default 127.0.0.1:0 = ephemeral)
//   --remote-port-file FILE      remote mode: write the bound port, so
//                                externally launched ddp_worker processes
//                                can find an ephemeral listener
//   --remote-workers N           remote mode: ddp_worker processes to spawn
//                                on this host (default 2; 0 = none, workers
//                                join from elsewhere via --remote-listen)
//   --remote-worker-bin PATH     remote mode: the worker binary to spawn
//                                (default: ddp_worker next to this binary)
//   --remote-crash-task K        remote mode: pass --chaos-crash-task K to
//                                the first spawned worker (fault drills)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/host_port.h"
#include "core/halo.h"
#include "mapreduce/remote_worker.h"
#include "core/sequential_dp.h"
#include "dataset/binary_io.h"
#include "dataset/csv.h"
#include "dataset/sharded_io.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/driver.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"
#include "eval/internal_metrics.h"
#include "eval/metrics.h"
#include "lsh/theory.h"
#include "lsh/tuning.h"
#include "obs/session.h"

namespace ddp {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ddp_cli gen <aggregation|s2|facial|kdd|spatial|bigcross> <n> <seed> "
      "<out> [--shards N]\n"
      "  ddp_cli info <in>   (<in>: CSV, .ddpb, or a directory of .ddpb "
      "shards)\n"
      "  ddp_cli tune --dc D [--accuracy A] [--m M] [--pi P]\n"
      "  ddp_cli cluster <in> [--algo lsh|basic|eddpc|seq] [--k N]\n"
      "          [--rho X --delta Y] [--accuracy A] [--m M] [--pi P]\n"
      "          [--dc D] [--percentile P] [--kernel cutoff|gaussian]\n"
      "          [--local-backend auto|brute|kdtree|triangle]\n"
      "          [--memory-budget BYTES] [--spill-dir DIR]\n"
      "          [--block N] [--halo] [--graph FILE] [--out FILE]\n"
      "          [--trace-out FILE] [--metrics-out FILE] [--stats-out FILE]\n"
      "          [--heartbeat SECONDS] [--exec-mode inproc|fork|remote]\n"
      "          [--max-worker-restarts N]\n"
      "          [--remote-listen H:P] [--remote-port-file FILE]\n"
      "          [--remote-workers N] [--remote-worker-bin PATH]\n"
      "          [--remote-crash-task K]\n");
  return 2;
}

Status SaveDataset(const std::string& path, const Dataset& ds) {
  if (path.ends_with(".ddpb")) return WriteBinaryFile(path, ds);
  return WriteCsvFile(path, ds);
}

// Minimal --flag value parser; positional args collected separately.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0) {
        std::string key = a.substr(2);
        if (key == "halo" || key == "internal-metrics") {  // boolean flags
          flags_[key] = "1";
        } else if (i + 1 < argc) {
          flags_[key] = argv[++i];
        } else {
          bad_ = true;
        }
      } else {
        positional_.push_back(a);
      }
    }
  }

  bool bad() const { return bad_; }
  const std::vector<std::string>& positional() const { return positional_; }
  bool Has(const std::string& key) const { return flags_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : std::atof(it->second.c_str());
  }
  size_t GetSize(const std::string& key, size_t def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def
                              : static_cast<size_t>(std::atoll(it->second.c_str()));
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  bool bad_ = false;
};

int CmdGen(const Args& args) {
  if (args.positional().size() != 4) return Usage();
  const std::string& family = args.positional()[0];
  size_t n = static_cast<size_t>(std::atoll(args.positional()[1].c_str()));
  uint64_t seed =
      static_cast<uint64_t>(std::atoll(args.positional()[2].c_str()));
  const std::string& out = args.positional()[3];

  Result<Dataset> ds = Status::InvalidArgument("unknown family " + family);
  if (family == "aggregation") ds = gen::AggregationLike(seed, n);
  if (family == "s2") ds = gen::S2Like(seed, n);
  if (family == "facial") ds = gen::FacialLike(seed, n);
  if (family == "kdd") ds = gen::KddLike(seed, n);
  if (family == "spatial") ds = gen::SpatialLike(seed, n);
  if (family == "bigcross") ds = gen::BigCrossLike(seed, n);
  if (!ds.ok()) {
    std::fprintf(stderr, "gen failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  if (args.Has("shards")) {
    const size_t shards = std::max<size_t>(1, args.GetSize("shards", 1));
    const uint64_t per_shard = (ds->size() + shards - 1) / shards;
    std::string prefix = out;
    if (prefix.ends_with(".ddpb")) prefix.resize(prefix.size() - 5);
    auto paths = WriteShardedDataset(prefix, *ds, per_shard);
    if (!paths.ok()) {
      std::fprintf(stderr, "write failed: %s\n",
                   paths.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu points (%zu dims, labeled) to %zu shards %s-*.ddpb\n",
                ds->size(), ds->dim(), paths->size(), prefix.c_str());
    return 0;
  }
  Status st = SaveDataset(out, *ds);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu points (%zu dims, labeled) to %s\n", ds->size(),
              ds->dim(), out.c_str());
  return 0;
}

int CmdInfo(const Args& args) {
  if (args.positional().size() != 1) return Usage();
  if (std::filesystem::is_directory(args.positional()[0])) {
    // Sharded dataset: report from headers alone, never loading the points.
    auto reader = ShardedDatasetReader::OpenDirectory(args.positional()[0]);
    if (!reader.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    std::printf("points:    %llu\ndimension: %zu\nlabeled:   %s\nshards:    "
                "%zu\n",
                static_cast<unsigned long long>(reader->total_points()),
                reader->dim(), reader->has_labels() ? "yes" : "no",
                reader->num_shards());
    for (const auto& shard : reader->shards()) {
      std::printf("  %s: %llu points (ids %llu..%llu)\n", shard.path.c_str(),
                  static_cast<unsigned long long>(shard.num_points),
                  static_cast<unsigned long long>(shard.base_id),
                  static_cast<unsigned long long>(shard.base_id +
                                                  shard.num_points) -
                      1);
    }
    return 0;
  }
  auto ds = LoadDataset(args.positional()[0]);
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }
  std::printf("points:    %zu\ndimension: %zu\nlabeled:   %s\n", ds->size(),
              ds->dim(), ds->has_labels() ? "yes" : "no");
  std::vector<double> lo, hi;
  if (ds->BoundingBox(&lo, &hi).ok()) {
    double max_extent = 0.0;
    for (size_t d = 0; d < lo.size(); ++d) {
      max_extent = std::max(max_extent, hi[d] - lo[d]);
    }
    std::printf("max extent: %.6g\n", max_extent);
  }
  CountingMetric metric;
  auto dc = ChooseCutoff(*ds, metric);
  if (dc.ok()) std::printf("suggested d_c (2%%): %.6g\n", *dc);
  return 0;
}

int CmdTune(const Args& args) {
  double dc = args.GetDouble("dc", 0.0);
  if (dc <= 0.0) {
    std::fprintf(stderr, "tune requires --dc > 0\n");
    return 2;
  }
  double accuracy = args.GetDouble("accuracy", 0.99);
  size_t m = args.GetSize("m", 10);
  size_t pi = args.GetSize("pi", 3);
  auto w = lsh::SolveMinimalWidth(accuracy, m, pi, dc);
  if (!w.ok()) {
    std::fprintf(stderr, "tune failed: %s\n", w.status().ToString().c_str());
    return 1;
  }
  std::printf("A=%.4f M=%zu pi=%zu dc=%.6g\n", accuracy, m, pi, dc);
  std::printf("minimal width w = %.6g\n", *w);
  std::printf("model check A(w) = %.6f\n",
              lsh::ExpectedRhoAccuracy(*w, pi, m, dc));
  std::printf("per-function collision at d_c: %.4f\n",
              lsh::PCollision(dc, *w));
  return 0;
}

int CmdCluster(const Args& args, const std::string& self_path) {
  if (args.positional().size() != 1) return Usage();
  const std::string& in_path = args.positional()[0];
  auto ds = LoadDataset(in_path);
  if (!ds.ok()) {
    std::fprintf(stderr, "load failed: %s\n", ds.status().ToString().c_str());
    return 1;
  }

  // Observability: flags win over the DDP_TRACE_OUT / DDP_METRICS_OUT
  // environment hooks; the session writes both files when the run ends.
  obs::ExportOptions export_options = obs::Session::FromEnv();
  if (args.Has("trace-out")) export_options.trace_path = args.Get("trace-out");
  if (args.Has("metrics-out")) {
    export_options.metrics_path = args.Get("metrics-out");
  }
  obs::Session obs_session(export_options);

  DdpOptions options;
  options.dc = args.GetDouble("dc", 0.0);
  options.cutoff.percentile = args.GetDouble("percentile", 0.02);
  options.mr.memory_budget_bytes =
      static_cast<uint64_t>(args.GetSize("memory-budget", 0));
  options.mr.spill_dir = args.Get("spill-dir");
  options.mr.heartbeat_seconds = args.GetDouble("heartbeat", 0.0);
  const std::string exec_mode = args.Get("exec-mode");
  if (exec_mode == "fork") {
    options.mr.exec_mode = mr::ExecMode::kFork;
  } else if (exec_mode == "remote") {
    options.mr.exec_mode = mr::ExecMode::kRemote;
  } else if (!exec_mode.empty() && exec_mode != "inproc") {
    std::fprintf(stderr, "unknown --exec-mode '%s' (inproc|fork|remote)\n",
                 exec_mode.c_str());
    return 2;
  }
  options.mr.max_worker_restarts = args.GetSize("max-worker-restarts", 8);

  // Remote mode: bind the worker pool's listener, then spawn ddp_worker
  // processes that dial it. Workers spawned elsewhere (other hosts, other
  // shells) can join the same run via --remote-listen/--remote-port-file.
  std::unique_ptr<mr::RemoteWorkerPool> remote_pool;
  std::vector<int64_t> remote_pids;
  if (options.mr.exec_mode == mr::ExecMode::kRemote) {
    Result<HostPort> listen =
        ParseHostPort(args.Get("remote-listen", "127.0.0.1:0"));
    if (!listen.ok()) {
      std::fprintf(stderr, "bad --remote-listen: %s\n",
                   listen.status().ToString().c_str());
      return 2;
    }
    auto pool = mr::RemoteWorkerPool::Listen(listen->host, listen->port);
    if (!pool.ok()) {
      std::fprintf(stderr, "remote pool listen failed: %s\n",
                   pool.status().ToString().c_str());
      return 1;
    }
    remote_pool = std::move(*pool);
    options.mr.remote_pool = remote_pool.get();
    if (args.Has("remote-port-file")) {
      std::ofstream port_file(args.Get("remote-port-file"));
      port_file << remote_pool->port() << '\n';
      if (!port_file) {
        std::fprintf(stderr, "cannot write --remote-port-file %s\n",
                     args.Get("remote-port-file").c_str());
        return 1;
      }
    }
    const std::string endpoint =
        remote_pool->host() + ":" + std::to_string(remote_pool->port());
    std::string worker_bin = args.Get("remote-worker-bin");
    if (worker_bin.empty()) {
      worker_bin = (std::filesystem::path(self_path).parent_path() /
                    "ddp_worker")
                       .string();
    }
    const size_t num_workers = args.GetSize("remote-workers", 2);
    for (size_t i = 0; i < num_workers; ++i) {
      std::vector<std::string> worker_args = {"--connect", endpoint};
      if (i == 0 && args.Has("remote-crash-task")) {
        worker_args.push_back("--chaos-crash-task");
        worker_args.push_back(args.Get("remote-crash-task"));
      }
      Result<int64_t> pid = mr::SpawnWorkerProcess(worker_bin, worker_args);
      if (!pid.ok()) {
        std::fprintf(stderr, "spawn %s failed: %s\n", worker_bin.c_str(),
                     pid.status().ToString().c_str());
        for (int64_t p : remote_pids) mr::KillWorkerProcess(p);
        for (int64_t p : remote_pids) mr::WaitWorkerProcess(p);
        return 1;
      }
      remote_pids.push_back(*pid);
    }
  }
  // kShutdown the parked workers and reap spawned ones; safe on every exit
  // path once spawning succeeded (a chaos-crashed worker is reaped with its
  // non-zero code ignored — the run itself decides success).
  auto stop_remote_workers = [&remote_pool, &remote_pids] {
    if (remote_pool != nullptr) remote_pool->Shutdown();
    for (int64_t p : remote_pids) mr::WaitWorkerProcess(p);
    remote_pids.clear();
  };
  if (args.Has("k")) {
    options.selector = PeakSelector::TopK(args.GetSize("k", 8));
  } else if (args.Has("rho") || args.Has("delta")) {
    options.selector = PeakSelector::Threshold(args.GetDouble("rho", 0.0),
                                               args.GetDouble("delta", 0.0));
  } else {
    options.selector = PeakSelector::GammaGap();
  }

  DensityKernel kernel = DensityKernel::kCutoff;
  if (args.Get("kernel") == "gaussian") kernel = DensityKernel::kGaussian;

  auto backend = ParseLocalDpBackend(args.Get("local-backend", "auto"));
  if (!backend.ok()) {
    std::fprintf(stderr, "bad --local-backend: %s\n",
                 backend.status().ToString().c_str());
    return 2;
  }

  const std::string algo_name = args.Get("algo", "lsh");
  LshDdp::Params lsh_params;
  lsh_params.accuracy = args.GetDouble("accuracy", 0.99);
  lsh_params.lsh.num_layouts = args.GetSize("m", 10);
  lsh_params.lsh.pi = args.GetSize("pi", 3);
  lsh_params.probes = args.GetSize("probes", 0);
  lsh_params.kernel = kernel;
  lsh_params.local_backend = *backend;
  LshDdp lsh_algo(lsh_params);
  BasicDdp::Params basic_params;
  basic_params.block_size = args.GetSize("block", 500);
  basic_params.local_backend = *backend;
  BasicDdp basic_algo(basic_params);
  Eddpc::Params eddpc_params;
  eddpc_params.local_backend = *backend;
  Eddpc eddpc_algo(eddpc_params);

  Result<DdpRunResult> run = Status::InvalidArgument("unknown algo " +
                                                     algo_name);
  if (algo_name == "lsh") run = RunDistributedDp(&lsh_algo, *ds, options);
  if (algo_name == "basic") run = RunDistributedDp(&basic_algo, *ds, options);
  if (algo_name == "eddpc") run = RunDistributedDp(&eddpc_algo, *ds, options);
  if (algo_name == "seq") {
    // Sequential exact pipeline, same options.
    CountingMetric metric;
    double dc = options.dc;
    if (dc <= 0.0) {
      auto chosen = ChooseCutoff(*ds, metric, options.cutoff);
      if (!chosen.ok()) {
        std::fprintf(stderr, "cutoff failed: %s\n",
                     chosen.status().ToString().c_str());
        return 1;
      }
      dc = *chosen;
    }
    SequentialDpOptions seq_opts;
    seq_opts.kernel = kernel;
    seq_opts.backend = *backend;
    auto scores = ComputeExactDp(*ds, dc, metric, seq_opts);
    if (!scores.ok()) {
      std::fprintf(stderr, "dp failed: %s\n",
                   scores.status().ToString().c_str());
      return 1;
    }
    DecisionGraph graph = DecisionGraph::FromScores(*scores);
    auto peaks = options.selector.Select(graph);
    auto clusters = AssignClusters(*ds, *scores, peaks, metric);
    if (!clusters.ok()) {
      std::fprintf(stderr, "assignment failed: %s\n",
                   clusters.status().ToString().c_str());
      return 1;
    }
    DdpRunResult r;
    r.scores = std::move(scores).value();
    r.dc = dc;
    r.clusters = std::move(clusters).value();
    run = std::move(r);
  }
  stop_remote_workers();
  if (!run.ok()) {
    std::fprintf(stderr, "clustering failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  std::printf("d_c = %.6g\n%s\n", run->dc, run->clusters.Summary().c_str());
  if (!run->stats.jobs.empty()) {
    std::printf("%s\n", run->stats.ToString().c_str());
  }
  if (args.Has("stats-out")) {
    std::ofstream stats_file(args.Get("stats-out"));
    stats_file << run->stats.ToJson() << '\n';
    if (!stats_file) {
      std::fprintf(stderr, "stats write failed: %s\n",
                   args.Get("stats-out").c_str());
      return 1;
    }
    std::printf("job stats -> %s\n", args.Get("stats-out").c_str());
  }
  if (ds->has_labels()) {
    auto ari = eval::AdjustedRandIndex(run->clusters.assignment, ds->labels());
    if (ari.ok()) std::printf("ARI vs input labels: %.4f\n", *ari);
  }
  if (args.Has("internal-metrics")) {
    CountingMetric metric;
    eval::SilhouetteOptions sil_opts;
    sil_opts.sample = 2000;  // keep O(sample * N)
    auto sil = eval::MeanSilhouette(*ds, run->clusters.assignment, metric,
                                    sil_opts);
    auto db = eval::DaviesBouldin(*ds, run->clusters.assignment, metric);
    auto sse = eval::SumSquaredError(*ds, run->clusters.assignment);
    if (sil.ok()) std::printf("mean silhouette:  %.4f (higher better)\n", *sil);
    if (db.ok()) std::printf("Davies-Bouldin:   %.4f (lower better)\n", *db);
    if (sse.ok()) std::printf("sum sq. error:    %.6g\n", *sse);
  }

  if (args.Has("graph")) {
    DecisionGraph graph = DecisionGraph::FromScores(run->scores);
    std::ofstream(args.Get("graph")) << graph.ToTsv();
    std::printf("decision graph -> %s\n", args.Get("graph").c_str());
  }

  std::vector<int> out_labels = run->clusters.assignment;
  if (args.Has("halo")) {
    CountingMetric metric;
    auto halo = ComputeHalo(*ds, run->scores, run->clusters, run->dc, metric);
    if (!halo.ok()) {
      std::fprintf(stderr, "halo failed: %s\n",
                   halo.status().ToString().c_str());
      return 1;
    }
    size_t count = 0;
    for (size_t i = 0; i < out_labels.size(); ++i) {
      if (halo->halo[i]) {
        out_labels[i] = -1;  // halo marked as noise in the output column
        ++count;
      }
    }
    std::printf("halo points: %zu\n", count);
  }

  std::string out_path = args.Get("out", in_path + ".clustered.csv");
  Dataset labeled =
      std::move(Dataset::FromValues(ds->dim(), ds->values())).ValueOrDie();
  labeled.set_labels(out_labels);
  Status st = SaveDataset(out_path, labeled);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("clustered output -> %s\n", out_path.c_str());
  Status obs_st = obs_session.Finish();
  if (!obs_st.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 obs_st.ToString().c_str());
    return 1;
  }
  if (!export_options.trace_path.empty()) {
    std::printf("trace -> %s\n", export_options.trace_path.c_str());
  }
  if (!export_options.metrics_path.empty()) {
    std::printf("metrics -> %s\n", export_options.metrics_path.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Args args(argc, argv, 2);
  if (args.bad()) return Usage();
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "tune") return CmdTune(args);
  if (cmd == "cluster") return CmdCluster(args, argv[0]);
  return Usage();
}

}  // namespace
}  // namespace ddp

int main(int argc, char** argv) { return ddp::Main(argc, argv); }
