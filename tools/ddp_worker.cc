// ddp_worker — standalone MapReduce worker for `--exec-mode=remote`.
//
//   ddp_worker --connect HOST:PORT [options]
//
//   --connect HOST:PORT      supervisor endpoint (numeric IPv4; required).
//                            This is the RemoteWorkerPool listener the
//                            driver printed / wrote to --remote-port-file.
//   --worker-id ID           explicit worker id (default 0 derives
//                            (1 << 63) | pid, disjoint from fork-worker ids)
//   --dial-deadline S        per-dial retry budget seconds (default 5;
//                            0 dials once)
//   --chaos-crash-task K     crash-test hook: on the Kth task assignment
//                            served, die mid-shuffle after shipping half the
//                            attempt's runs (exactly the fault
//                            FaultInjection::worker_crash_rate injects).
//
// Any other flag is a usage error. The binary dials the supervisor's
// TcpListener, says hello, and executes whatever registered jobs the
// supervisor installs with kJobSetup — every DDP driver job is registered at
// startup via RegisterAllRemoteJobs(). The supervisor sets the heartbeat
// interval and the shuffle credit window. It exits 0 on a clean kShutdown,
// non-zero if the channel dies for good. One process serves one worker:
// run more processes for more workers.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "common/host_port.h"
#include "ddp/remote_jobs.h"
#include "mapreduce/remote_worker.h"

namespace ddp {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ddp_worker --connect HOST:PORT [--worker-id ID]\n"
               "                  [--dial-deadline S] [--chaos-crash-task K]\n");
  return 2;
}

/// `--key value` pairs of the known flags; anything else makes it bad().
class Args {
 public:
  Args(int argc, char** argv) {
    const std::set<std::string> known = {"connect", "worker-id",
                                         "dial-deadline", "chaos-crash-task"};
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0 && known.count(a.substr(2)) > 0 &&
          i + 1 < argc) {
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
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = flags_.find(key);
    return it == flags_.end() ? def
                              : static_cast<int64_t>(
                                    std::atoll(it->second.c_str()));
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
  if (args.bad() || !args.Has("connect")) return Usage();

  Result<HostPort> endpoint = ParseHostPort(args.Get("connect"));
  if (!endpoint.ok()) {
    std::fprintf(stderr, "bad --connect: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  // Every job a remote pipeline can assign must be resolvable by name
  // before the first kJobSetup arrives.
  RegisterAllRemoteJobs();

  mr::RemoteWorkerOptions options;
  options.host = endpoint->host;
  options.port = endpoint->port;
  options.worker_id = static_cast<uint64_t>(args.GetInt("worker-id", 0));
  options.dial_deadline_seconds = args.GetDouble("dial-deadline", 5.0);
  options.chaos_crash_task = args.GetInt("chaos-crash-task", -1);

  return mr::RunRemoteWorker(options);
}

}  // namespace
}  // namespace ddp

int main(int argc, char** argv) { return ddp::Main(argc, argv); }
