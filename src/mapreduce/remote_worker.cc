#include "mapreduce/remote_worker.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/random.h"

namespace ddp {
namespace mr {

JobRegistry& JobRegistry::Global() {
  static JobRegistry* registry = new JobRegistry();
  return *registry;
}

void JobRegistry::Register(const std::string& id, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : entries_) {
    if (entry.first == id) {
      entry.second = std::move(factory);
      return;
    }
  }
  entries_.emplace_back(id, std::move(factory));
}

Result<JobRegistry::TaskRunner> JobRegistry::Create(
    const JobSetupMsg& setup) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (entry.first == setup.job_id) {
        factory = entry.second;
        break;
      }
    }
  }
  if (factory == nullptr) {
    return Status::NotFound("no registered job '" + setup.job_id +
                            "' in this worker binary");
  }
  return factory(setup);
}

std::vector<std::string> JobRegistry::RegisteredIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(entries_.size());
  for (const auto& entry : entries_) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  return ids;
}

Result<std::unique_ptr<RemoteWorkerPool>> RemoteWorkerPool::Listen(
    const std::string& host, uint16_t port) {
  DDP_ASSIGN_OR_RETURN(auto listener, TcpListener::Listen(host, port));
  return std::unique_ptr<RemoteWorkerPool>(
      new RemoteWorkerPool(host, std::move(listener)));
}

RemoteWorkerPool::~RemoteWorkerPool() { Shutdown(); }

uint16_t RemoteWorkerPool::port() const { return listener_->port(); }

std::vector<RemoteWorkerPool::Parked> RemoteWorkerPool::TakeParked() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Parked> taken = std::move(parked_);
  parked_.clear();
  return taken;
}

void RemoteWorkerPool::Park(uint64_t id, std::unique_ptr<CommChannel> channel) {
  std::lock_guard<std::mutex> lock(mu_);
  parked_.push_back(Parked{id, std::move(channel)});
}

void RemoteWorkerPool::Shutdown() {
  std::vector<Parked> parked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    parked = std::move(parked_);
    parked_.clear();
  }
  for (Parked& p : parked) {
    if (p.channel == nullptr) continue;
    (void)p.channel->Send(Frame{MessageType::kShutdown, std::string()});
    p.channel->Close();
  }
  if (listener_ != nullptr) listener_->Close();
}

int RunRemoteWorker(const RemoteWorkerOptions& options) {
  const uint64_t worker_id =
      options.worker_id != 0
          ? options.worker_id
          : ((uint64_t{1} << 63) | static_cast<uint64_t>(::getpid()));
  const ExponentialBackoff::Params connect_backoff{0.002, 2.0, 0.25, 0.25};
  const uint64_t connect_seed = SplitSeed(options.backoff_seed, worker_id);

  // The installed job: kJobSetup and kTaskAssign frames arrive in stream
  // order on the loop's one thread.
  JobRegistry::TaskRunner runner;
  int64_t assigns_served = 0;
  const int64_t crash_task = options.chaos_crash_task;

  WorkerMainConfig wc;
  wc.worker_id = worker_id;
  wc.on_job_setup = [&runner](const JobSetupMsg& setup) -> Status {
    DDP_ASSIGN_OR_RETURN(runner, JobRegistry::Global().Create(setup));
    return Status::OK();
  };
  WorkerTaskFn run_task = [&runner, &assigns_served, crash_task](
                              uint64_t task, uint64_t attempt,
                              bool quarantined, const std::string& input,
                              TaskResult* result) -> Status {
    if (runner == nullptr) {
      return Status::Internal("task assigned before any job was installed");
    }
    const int64_t served = assigns_served++;
    Status st = runner(task, attempt, quarantined, input, result);
    if (st.ok() && crash_task >= 0 && served == crash_task) {
      // Deterministic chaos: die mid-shuffle on this assignment, exactly
      // like FaultInjection::worker_crash_rate's mid-shuffle coin.
      result->crash_after_runs =
          static_cast<int64_t>(result->runs.size() / 2);
    }
    return st;
  };

  // A worker whose link fails dials again and joins as a new worker: a
  // plain hello, then the phase's kJobSetup. It stops when a dial finds no
  // supervisor within the deadline.
  for (;;) {
    auto ch = TcpChannel::Connect(options.host, options.port, connect_backoff,
                                  connect_seed, options.dial_deadline_seconds);
    if (!ch.ok()) {
      DDP_LOG(Error) << "ddp_worker: cannot reach supervisor at "
                     << options.host << ":" << options.port << ": "
                     << ch.status().ToString();
      return 1;
    }
    const int code = WorkerLoop(std::move(ch).value(), run_task, wc);
    if (code != kWorkerLinkLost) return code;
  }
}

Result<int64_t> SpawnWorkerProcess(const std::string& binary,
                                   const std::vector<std::string>& args) {
  // Refuse here what execv would refuse in the child: a child that _exits
  // at exec looks, to its supervisor, like a worker that never dials in.
  struct stat st{};
  if (::stat(binary.c_str(), &st) != 0 || !S_ISREG(st.st_mode) ||
      ::access(binary.c_str(), X_OK) != 0) {
    return Status::InvalidArgument("cannot spawn " + binary +
                                   ": not an executable regular file");
  }
  std::vector<std::string> argv_store;
  argv_store.reserve(args.size() + 1);
  argv_store.push_back(binary);
  for (const std::string& a : args) argv_store.push_back(a);
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("cannot fork worker process: ") +
                            std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);  // exec failed; nothing else is safe in the forked image
  }
  return static_cast<int64_t>(pid);
}

void KillWorkerProcess(int64_t pid) {
  if (pid <= 0) return;
  ::kill(static_cast<pid_t>(pid), SIGKILL);
}

int WaitWorkerProcess(int64_t pid) {
  if (pid <= 0) return -1;
  int wstatus = 0;
  while (::waitpid(static_cast<pid_t>(pid), &wstatus, 0) < 0 &&
         errno == EINTR) {
  }
  if (WIFEXITED(wstatus)) return WEXITSTATUS(wstatus);
  return -1;
}

}  // namespace mr
}  // namespace ddp
