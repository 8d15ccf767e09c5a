// ddp_server — the clustering-as-a-service daemon (src/server/server.h).
//
//   ddp_server [options]
//
//   --listen HOST:PORT       numeric-IPv4 listen endpoint (default
//                            127.0.0.1:0; port 0 picks an ephemeral port)
//   --port-file FILE         write the bound port as a decimal line once
//                            serving (how scripts find an ephemeral port)
//   --work-dir DIR           root for spill + checkpoint dirs (default:
//                            <system temp>/ddp-server-<port>)
//   --max-queued-jobs N      bounded queue depth (default 16)
//   --admission-budget B     server-wide admission budget in bytes
//   --default-job-budget B   admission weight of jobs that omit a budget
//   --dataset-cache-bytes B  resident dataset cache bound
//   --result-cache-entries N result cache bound (0 disables)
//   --scheduler-threads N    concurrent running jobs (default 2)
//   --drain-timeout S        grace period before shutdown cancels jobs
//   --remote-listen H:P      enable the remote worker pool: bind a second
//                            listener for exec'd ddp_worker processes
//                            (port 0 picks an ephemeral port); jobs
//                            submitted with exec_mode 2 run on it, and
//                            without it they are rejected
//   --remote-port-file FILE  write the remote listener's bound port
//   --stats-out FILE         write the metrics registry JSON at exit
//
// The daemon serves until it receives SIGINT/SIGTERM or a client drain
// request (ddp_client shutdown), then drains and exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/host_port.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "server/server.h"

namespace ddp {
namespace {

volatile std::sig_atomic_t g_signal = 0;

void HandleSignal(int sig) { g_signal = sig; }

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0 && i + 1 < argc) {
        flags_[a.substr(2)] = argv[++i];
      } else {
        bad_ = true;
      }
    }
  }

  bool bad() const { return bad_; }
  bool Has(const std::string& key) const { return flags_.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : it->second;
  }
  uint64_t GetUint(const std::string& key, uint64_t def) const {
    auto it = flags_.find(key);
    return it == flags_.end()
               ? def
               : static_cast<uint64_t>(std::atoll(it->second.c_str()));
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> flags_;
  bool bad_ = false;
};

int Main(int argc, char** argv) {
  Args args(argc, argv);
  if (args.bad()) {
    std::fprintf(stderr, "usage: ddp_server [--flag value ...]\n");
    return 2;
  }

  obs::ExportOptions export_options = obs::Session::FromEnv();
  obs::Session obs_session(export_options);

  server::ServerConfig config;
  Result<HostPort> listen = ParseHostPort(args.Get("listen", "127.0.0.1:0"));
  if (!listen.ok()) {
    std::fprintf(stderr, "bad --listen: %s\n",
                 listen.status().ToString().c_str());
    return 2;
  }
  config.host = listen->host;
  config.port = listen->port;
  config.max_queued_jobs =
      static_cast<size_t>(args.GetUint("max-queued-jobs", 16));
  config.admission_budget_bytes =
      args.GetUint("admission-budget", config.admission_budget_bytes);
  config.default_job_budget_bytes =
      args.GetUint("default-job-budget", config.default_job_budget_bytes);
  config.dataset_cache_bytes =
      args.GetUint("dataset-cache-bytes", config.dataset_cache_bytes);
  config.result_cache_entries =
      static_cast<size_t>(args.GetUint("result-cache-entries", 64));
  config.scheduler_threads =
      static_cast<size_t>(args.GetUint("scheduler-threads", 2));
  config.work_dir = args.Get("work-dir");
  config.drain_timeout_seconds = args.GetDouble("drain-timeout", 60.0);
  if (args.Has("remote-listen")) {
    Result<HostPort> remote = ParseHostPort(args.Get("remote-listen"));
    if (!remote.ok()) {
      std::fprintf(stderr, "bad --remote-listen: %s\n",
                   remote.status().ToString().c_str());
      return 2;
    }
    config.enable_remote_workers = true;
    config.remote_listen_host = remote->host;
    config.remote_listen_port = remote->port;
  }

  Result<std::unique_ptr<server::DdpServer>> started =
      server::DdpServer::Start(config);
  if (!started.ok()) {
    std::fprintf(stderr, "ddp_server start failed: %s\n",
                 started.status().ToString().c_str());
    return 1;
  }
  server::DdpServer& srv = **started;
  std::printf("ddp_server listening on %s:%u (work dir %s)\n",
              config.host.c_str(), static_cast<unsigned>(srv.port()),
              srv.work_dir().c_str());
  if (srv.remote_port() != 0) {
    std::printf("remote workers: dial %s:%u (ddp_worker --connect)\n",
                config.remote_listen_host.c_str(),
                static_cast<unsigned>(srv.remote_port()));
  }
  std::fflush(stdout);

  if (args.Has("port-file")) {
    const std::string port_file = args.Get("port-file");
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(srv.port()));
    std::fclose(f);
  }
  if (args.Has("remote-port-file")) {
    const std::string port_file = args.Get("remote-port-file");
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --remote-port-file %s\n",
                   port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", static_cast<unsigned>(srv.remote_port()));
    std::fclose(f);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  // Serve until a signal or a client drain request (kShutdownJobId) flips
  // the server into draining.
  CancelToken idle;
  while (g_signal == 0 && !srv.draining()) {
    idle.WaitFor(0.05);
  }
  std::printf("ddp_server draining (%s)\n",
              g_signal != 0 ? "signal" : "client request");
  std::fflush(stdout);
  srv.RequestShutdown();
  srv.WaitShutdown();

  if (args.Has("stats-out")) {
    Status st = obs::MetricsRegistry::Global().WriteJson(args.Get("stats-out"));
    if (!st.ok()) {
      std::fprintf(stderr, "stats write failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", args.Get("stats-out").c_str());
  }
  Status obs_st = obs_session.Finish();
  if (!obs_st.ok()) {
    std::fprintf(stderr, "observability export failed: %s\n",
                 obs_st.ToString().c_str());
  }
  std::printf("ddp_server exited cleanly\n");
  return 0;
}

}  // namespace
}  // namespace ddp

int main(int argc, char** argv) { return ddp::Main(argc, argv); }
