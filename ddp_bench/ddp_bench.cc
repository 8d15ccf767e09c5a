// ddp_bench: the end-to-end benchmark of the DDP pipeline, its MapReduce
// substrates, and the serving layer (README.md).
//
//   ddp_bench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--worker-bin PATH] [--scale X]
//
// Generates the workload's inputs from the seed in a new directory under DIR
// (removed at exit; DIR is kept), sets up, warms up, measures for S seconds,
// checks every output, and prints one JSON object as its last line of
// stdout: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. Exits 1 when a check
// failed, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "common/logging.h"
#include "obs/json.h"
#include "workloads.h"

namespace ddp::bench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ddp_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--worker-bin PATH] [--scale X]\n"
               "workloads: lsh-kdd-inproc lsh-kdd-fork-64k basic-kdd-remote "
               "serve-s2-mixed\n");
  return 2;
}

/// Runs `config.workload`; nullopt for an unknown name.
std::optional<Outcome> RunWorkload(const RunConfig& config) {
  BatchSpec spec;
  if (config.workload == "lsh-kdd-inproc") {
    spec.points = 4000;
    spec.inputs = 16;
    return RunBatch(config, spec);
  }
  if (config.workload == "lsh-kdd-fork-64k") {
    spec.mode = mr::ExecMode::kFork;
    spec.points = 3000;
    spec.memory_budget_bytes = 64 * 1024;
    return RunBatch(config, spec);
  }
  if (config.workload == "basic-kdd-remote") {
    spec.algo = BatchSpec::Algo::kBasic;
    spec.mode = mr::ExecMode::kRemote;
    spec.points = 8000;
    return RunBatch(config, spec);
  }
  if (config.workload == "serve-s2-mixed") return RunServe(config);
  return std::nullopt;
}

std::string ResultLine(const Outcome& out) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Field("correct", out.correct());
  json.Field("attempted", out.attempted);
  json.Field("failed", out.failed);
  json.Key("metrics");
  json.BeginObject();
  for (const std::string& name : out.metrics.names()) {
    json.Key(name);
    json.BeginObject();
    json.Field("value", out.metrics.value(name));
    json.Field("unit", std::string_view(out.metrics.unit(name)));
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.Take();
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "work-dir"}) {
    if (flags.count(required) == 0) return Usage();
  }
  RunConfig config;
  config.workload = flags["workload"];
  config.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(flags["seconds"].c_str());
  config.trace = flags["trace"] == "1";
  config.scale = flags.count("scale") ? std::atof(flags["scale"].c_str()) : 1.0;
  config.worker_bin = flags["worker-bin"];
  if (!(config.seconds >= 0.0) || !(config.scale > 0.0)) return Usage();

  // The run writes only into a fresh directory of its own under DIR, and
  // removes only that directory: DIR itself and whatever else it holds are
  // left alone.
  SetLogLevel(LogLevel::kWarning);
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(flags["work-dir"], ec);
  std::string private_dir = flags["work-dir"] + "/ddp_bench-XXXXXX";
  if (ec || ::mkdtemp(private_dir.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a directory under %s\n",
                 flags["work-dir"].c_str());
    return 2;
  }
  config.work_dir = private_dir;
  const std::optional<Outcome> out = RunWorkload(config);
  fs::remove_all(config.work_dir, ec);
  if (!out.has_value()) return Usage();
  for (const std::string& problem : out->problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n", ResultLine(*out).c_str());
  return out->correct() ? 0 : 1;
}

}  // namespace

}  // namespace ddp::bench

int main(int argc, char** argv) { return ddp::bench::Main(argc, argv); }
