// The server's decisions under seeded schedules, with no socket, thread,
// sleep or wall clock. A ServerMachine (src/server/server_machine.cc) serves
// simulated clients through a fake ServerIo that plays the driver of
// server.cc: it delivers client frames, connections, pipeline news and the
// time, and runs every job the machine starts as a simulated pipeline.
//
// Each seed picks the server's config and a schedule. Clients connect, some
// past the connection cap; they submit fresh keys, exact repeats,
// out-of-bound params and unreadable paths, poll, fetch, subscribe to
// progress and cancel; they ask for the drain, send garbage frames, vanish
// (their socket dies mid-push or at a read) and go quiet past the idle
// deadline. Jobs move, finish and fail; they are cancelled while queued,
// while running and at the drain deadline; some are remote.
//
// The sim keeps its own model of the server: each job's state and progress,
// the queue, the running set, admitted bytes, in-flight keys, finished keys
// and the order in which jobs finished. Every reply and push is checked
// against it, and so is every call the machine makes. The oracle:
//  * every admitted job reaches exactly one terminal state, and every
//    record answers polls as the model says, until retention forgets it;
//  * each subscriber still connected when its job ends gets exactly one
//    terminal push, in that event; any other push carries a change and keeps
//    the subscription's interval, and a change held back by the interval
//    leaves when it ends;
//  * admission takes today's order (validate, digest, drain, result cache,
//    coalescing, queue cap, budget), and a rejected-by-validation job is
//    never digested;
//  * admitted bytes return to zero, and so do the queue and running gauges;
//  * retention never exceeds kFinishedJobsKept;
//  * a cache hit returns the bytes of its own key;
//  * at most scheduler_threads jobs run at once, at most one remote; jobs
//    start oldest first, a remote one waiting while another runs, and no
//    slot idles while a queued job could use it;
//  * each connection gets its replies in request order, and a garbage frame
//    closes only its own connection;
//  * the connection cap and the idle deadline close exactly the connections
//    they should.
// A failing seed prints its schedule, and SimulateSchedule(seed) replays
// that schedule alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mapreduce/channel.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "server/protocol.h"
#include "server/server_machine.h"

namespace ddp {
namespace server {
namespace {

using mr::Frame;
using mr::MessageType;

// Events seen over the whole schedule set.
using Coverage = std::map<std::string, int>;

constexpr size_t kMaxDrainSteps = 5000;
constexpr uint64_t kServerBudget = 4 << 20;
constexpr uint64_t kDefaultJobBudget = 1 << 20;

// The datasets clients name. The first two hold the same bytes, so they
// share a digest; the last cannot be read.
const char* const kPaths[] = {"/data/a.csv", "/data/a-copy.csv",
                              "/data/b.csv", "/data/missing.csv"};

Result<std::string> DigestOf(const std::string& path) {
  if (path == kPaths[0] || path == kPaths[1]) return std::string("crc32:a.1");
  if (path == kPaths[2]) return std::string("crc32:b.2");
  return Status::IoError("cannot open " + path);
}

// What a simulated pipeline returns for a cache key.
std::string PayloadFor(const std::string& key) { return "result of " + key; }

bool Unfinished(JobState state) {
  return state == JobState::kQueued || state == JobState::kRunning;
}

std::string Name(JobState state) { return std::string(JobStateName(state)); }

class Sim : public ServerIo {
 public:
  Sim(uint64_t seed, Coverage* coverage);

  /// Runs the schedule; empty when every check held, else what failed.
  std::string Run();
  const std::string& log() const { return log_; }

  void Send(uint64_t conn, const Frame& frame) override;
  void Close(uint64_t conn) override;
  Result<std::string> Digest(const std::string& path) override;
  void StartJob(const JobSpec& job) override;
  void CancelJob(uint64_t job) override;

 private:
  // The model of one job id the machine has answered with.
  struct Job {
    std::string key;  // empty for a job rejected before its digest
    JobState state = JobState::kQueued;
    uint64_t mr = 0;
    bool remote = false;
    uint64_t budget = 0;  // effective budget while admitted
    double changed_at = 0.0;  // when its state or progress last moved
    // The simulated pipeline, once started.
    bool cancel_requested = false;
    int steps_left = 0;
  };
  // A progress subscription, as the machine should hold it.
  struct Sub {
    double interval = 0.0;
    double last_push = 0.0;
    JobState seen_state = JobState::kQueued;
    uint64_t seen_mr = 0;
  };
  // The reply a client waits for, and what it must say.
  struct Expect {
    enum class Kind { kSubmit, kStatus, kResult, kCancel, kDrain };
    Kind kind = Kind::kStatus;
    MessageType type = MessageType::kJobStatus;
    uint64_t job = 0;
    // kSubmit:
    JobSubmitMsg msg;
    std::string invalid;  // the field validation must name, if any
    std::string key;
    uint64_t effective = 0;
  };
  struct Client {
    uint64_t conn = 0;
    bool closed = false;    // the machine closed it or was told it closed
    bool vanished = false;  // its socket is dead; the machine not yet told
    double last_frame = 0.0;
    std::map<uint64_t, Sub> subs;  // by job id
    std::map<uint64_t, int> terminal_pushes;
    std::optional<Expect> pending;
  };

  uint64_t Draw(uint64_t n) { return n == 0 ? 0 : rng_() % n; }
  void Log(const std::string& line) { log_ += line + "\n"; }
  void Violation(const std::string& what) {
    if (violation_.empty()) {
      violation_ = what + " (t=" + std::to_string(now_) + ")";
    }
  }
  Client* ByConn(uint64_t conn) {
    auto it = clients_.find(conn);
    return it == clients_.end() ? nullptr : &it->second;
  }
  Client* AnyLiveClient();
  uint64_t AnyKnownJob();
  bool Evicted(uint64_t job) const;
  size_t Connected() const;

  // Steps.
  void Step();
  void Connect();
  void SubmitFrom(Client* c, JobSubmitMsg msg);
  void Submit(Client* c);
  void Request(Client* c, Expect e, const Frame& frame);
  void Poll(Client* c, bool result);
  void CancelFrom(Client* c);
  void Drain(Client* c);
  void Garbage(Client* c);
  void Vanish(Client* c);
  void Advance();
  void Tick();
  void SettleLosses();

  // Model transitions and checks.
  void ModelFinish(uint64_t job, JobState state);
  void OnReply(Client* c, const Frame& frame);
  void OnSubmitReply(Client* c, const Expect& e, const JobStatusMsg& r);
  void CheckStatus(const JobStatusMsg& r, uint64_t job);
  void OnPush(Client* c, const Frame& frame);
  void CheckInvariants(bool after_tick);
  void Finale();

  std::mt19937_64 rng_;
  Coverage* coverage_;
  ServerConfig config_;
  ServerMachine machine_;
  double now_ = 0.0;
  std::string log_;
  std::string violation_;

  std::map<uint64_t, Client> clients_;
  uint64_t next_conn_ = 1;
  std::vector<uint64_t> lost_;  // vanished clients a send found dead

  std::map<uint64_t, Job> jobs_;
  std::vector<uint64_t> queue_;
  std::set<uint64_t> running_;
  std::map<uint64_t, size_t> finish_index_;  // job -> its place among ends
  size_t finished_ = 0;
  std::map<std::string, uint64_t> inflight_;
  std::set<std::string> done_keys_;
  uint64_t admitted_ = 0;
  bool draining_ = false;
  double drain_deadline_ = 0.0;
  bool deadline_fired_ = false;

  // Per machine call.
  bool in_tick_ = false;
  bool digested_ = false;
  uint64_t last_hit_ = 0;  // the job of the last cache-hit reply
  std::set<uint64_t> closes_;   // Close calls during the call
  std::set<uint64_t> cancels_;  // CancelJob calls during the call
};

Sim::Sim(uint64_t seed, Coverage* coverage)
    : rng_(seed),
      coverage_(coverage),
      config_([this] {
        ServerConfig c;
        c.max_queued_jobs = Draw(5);
        c.scheduler_threads = 1 + Draw(3);
        c.admission_budget_bytes = kServerBudget;
        c.default_job_budget_bytes = kDefaultJobBudget;
        c.result_cache_entries = Draw(6);
        c.drain_timeout_seconds = Draw(2) == 0 ? 0.5 : 5.0;
        c.enable_remote_workers = Draw(3) != 0;
        return c;
      }()),
      machine_(config_, this) {
  Log("config: queue " + std::to_string(config_.max_queued_jobs) +
      " threads " + std::to_string(config_.scheduler_threads) + " cache " +
      std::to_string(config_.result_cache_entries) + " drain " +
      std::to_string(config_.drain_timeout_seconds) +
      (config_.enable_remote_workers ? " remote" : ""));
}

// ------------------------------------------------------------------ world

Sim::Client* Sim::AnyLiveClient() {
  std::vector<Client*> live;
  for (auto& [conn, c] : clients_) {
    if (!c.closed && !c.vanished) live.push_back(&c);
  }
  return live.empty() ? nullptr : live[Draw(live.size())];
}

uint64_t Sim::AnyKnownJob() {
  if (jobs_.empty() || Draw(8) == 0) return 1 + Draw(4096);  // maybe unknown
  auto it = jobs_.begin();
  std::advance(it, static_cast<long>(Draw(jobs_.size())));
  return it->first;
}

bool Sim::Evicted(uint64_t job) const {
  auto it = finish_index_.find(job);
  return it != finish_index_.end() &&
         it->second + ServerMachine::kFinishedJobsKept < finished_;
}

size_t Sim::Connected() const {
  size_t n = 0;
  for (const auto& [conn, c] : clients_) n += c.closed ? 0 : 1;
  return n;
}

// ---------------------------------------------------------------- ServerIo

void Sim::Send(uint64_t conn, const Frame& frame) {
  Client* c = ByConn(conn);
  if (c == nullptr || c->closed) {
    Violation("send to closed connection " + std::to_string(conn));
    return;
  }
  if (frame.type == MessageType::kJobProgress) {
    OnPush(c, frame);
  } else {
    OnReply(c, frame);
  }
  if (c->vanished && std::find(lost_.begin(), lost_.end(), conn) ==
                         lost_.end()) {
    // The driver's send fails; it drops the client after this call.
    lost_.push_back(conn);
    if (frame.type == MessageType::kJobProgress) {
      ++(*coverage_)["vanished mid-push"];
    }
  }
}

void Sim::Close(uint64_t conn) {
  closes_.insert(conn);
  Client* c = ByConn(conn);
  if (c == nullptr || c->closed) {
    Violation("close of closed connection " + std::to_string(conn));
    return;
  }
  c->closed = true;
  c->subs.clear();
  Log("  machine closes " + std::to_string(conn));
}

Result<std::string> Sim::Digest(const std::string& path) {
  digested_ = true;
  return DigestOf(path);
}

void Sim::StartJob(const JobSpec& spec) {
  auto it = jobs_.find(spec.id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) {
    Violation("started job " + std::to_string(spec.id) + ", not queued");
    return;
  }
  Job& job = it->second;
  if (spec.cache_key != job.key) Violation("started job with another key");
  if (running_.size() >= std::max<size_t>(1, config_.scheduler_threads)) {
    Violation("more than scheduler_threads jobs run");
  }
  bool remote_running = false;
  for (uint64_t id : running_) remote_running |= jobs_.at(id).remote;
  if (job.remote && remote_running) Violation("a second remote job started");
  // Oldest first, a remote job waiting while another runs.
  for (uint64_t id : queue_) {
    if (id == spec.id) break;
    if (!jobs_.at(id).remote || !remote_running) {
      Violation("job " + std::to_string(spec.id) + " started before " +
                std::to_string(id));
    }
    ++(*coverage_)["remote job waits its turn"];
  }
  queue_.erase(std::find(queue_.begin(), queue_.end(), spec.id));
  running_.insert(spec.id);
  job.state = JobState::kRunning;
  job.changed_at = now_;
  job.steps_left = static_cast<int>(Draw(4));
  Log("  start " + std::to_string(spec.id) + (job.remote ? " (remote)" : ""));
}

void Sim::CancelJob(uint64_t job) {
  cancels_.insert(job);
  if (running_.count(job) == 0) {
    Violation("cancel of job " + std::to_string(job) + ", not running");
    return;
  }
  jobs_.at(job).cancel_requested = true;
}

// ---------------------------------------------------------------- replies

void Sim::OnReply(Client* c, const Frame& frame) {
  if (c->vanished) {
    c->pending.reset();  // nobody reads it
    return;
  }
  if (!c->pending) {
    Violation("unrequested reply on " + std::to_string(c->conn));
    return;
  }
  const Expect e = *c->pending;
  c->pending.reset();
  if (frame.type != e.type) {
    Violation("reply of the wrong type on " + std::to_string(c->conn));
    return;
  }
  if (e.kind == Expect::Kind::kResult) {
    JobResultMsg r;
    if (!JobResultMsg::Decode(frame.payload, &r).ok() || r.job_id != e.job) {
      Violation("bad result reply");
      return;
    }
    auto it = jobs_.find(e.job);
    if (it == jobs_.end() || Evicted(e.job)) {
      if (r.error != "unknown job id") Violation("result of an unknown job");
      if (it != jobs_.end()) ++(*coverage_)["retention evicted"];
      return;
    }
    if (r.state != static_cast<uint8_t>(it->second.state)) {
      Violation("result reads " + Name(static_cast<JobState>(r.state)) +
                ", model " + Name(it->second.state));
    } else if (it->second.state == JobState::kDone) {
      if (r.payload != PayloadFor(it->second.key)) {
        Violation("result bytes of another key for job " +
                  std::to_string(e.job));
      }
      ++(*coverage_)[r.from_result_cache ? "cache hit fetched"
                                         : "result fetched"];
    }
    return;
  }
  JobStatusMsg r;
  if (!JobStatusMsg::Decode(frame.payload, &r).ok()) {
    Violation("undecodable status reply");
    return;
  }
  switch (e.kind) {
    case Expect::Kind::kSubmit:
      OnSubmitReply(c, e, r);
      break;
    case Expect::Kind::kDrain:
      if (r.job_id != kShutdownJobId || r.detail != "drain initiated") {
        Violation("bad drain ack");
      }
      break;
    case Expect::Kind::kCancel:
    case Expect::Kind::kStatus:
      if (r.job_id != e.job) Violation("status of another job");
      CheckStatus(r, e.job);
      break;
    case Expect::Kind::kResult:
      break;
  }
}

void Sim::CheckStatus(const JobStatusMsg& r, uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || Evicted(id)) {
    if (r.state != static_cast<uint8_t>(JobState::kFailed) ||
        r.detail != "unknown job id") {
      Violation("job " + std::to_string(id) + " should read unknown");
    }
    if (it != jobs_.end()) ++(*coverage_)["retention evicted"];
    return;
  }
  const Job& job = it->second;
  if (r.state != static_cast<uint8_t>(job.state) || r.mr_jobs_done != job.mr) {
    Violation("job " + std::to_string(id) + " reads " +
              Name(static_cast<JobState>(r.state)) + "/" +
              std::to_string(r.mr_jobs_done) + ", model " + Name(job.state) +
              "/" + std::to_string(job.mr));
  }
  if (job.state == JobState::kQueued) {
    const auto pos =
        std::find(queue_.begin(), queue_.end(), id) - queue_.begin();
    if (r.queue_position != static_cast<uint64_t>(pos)) {
      Violation("job " + std::to_string(id) + " at queue position " +
                std::to_string(r.queue_position) + ", model " +
                std::to_string(pos));
    }
  }
}

void Sim::OnSubmitReply(Client* c, const Expect& e, const JobStatusMsg& r) {
  const auto state = static_cast<JobState>(r.state);
  auto rejected = [&](const std::string& why, const char* label) {
    if (state != JobState::kRejected ||
        r.detail.find(why) == std::string::npos) {
      Violation("expected a rejection for '" + why + "', got " + Name(state) +
                " '" + r.detail + "'");
    }
    if (jobs_.count(r.job_id) > 0) Violation("reused job id");
    jobs_[r.job_id].state = JobState::kQueued;
    jobs_[r.job_id].key = e.key;
    ModelFinish(r.job_id, JobState::kRejected);
    ++(*coverage_)[label];
  };
  if (!e.invalid.empty()) {
    if (digested_) Violation("an invalid submission was digested");
    rejected(e.invalid, "param bound");
    return;
  }
  if (e.msg.dataset_path == kPaths[3]) {
    rejected("dataset unreadable", "unreadable dataset");
    return;
  }
  if (draining_) {
    rejected("server is draining", "draining rejects");
    return;
  }
  if (r.from_result_cache != 0) {
    if (state != JobState::kDone || done_keys_.count(e.key) == 0) {
      Violation("cache hit for a key that never finished");
    }
    if (jobs_.count(r.job_id) > 0) Violation("reused job id");
    jobs_[r.job_id].key = e.key;
    ModelFinish(r.job_id, JobState::kDone);
    last_hit_ = r.job_id;
    ++(*coverage_)["cache hit"];
    return;
  }
  auto inflight = inflight_.find(e.key);
  if (inflight != inflight_.end()) {
    if (r.job_id != inflight->second) {
      Violation("identical in-flight job not coalesced");
    }
    ++(*coverage_)["coalesced"];
  } else if (queue_.size() >= config_.max_queued_jobs) {
    rejected("queue full", "queue full");
    return;
  } else if (admitted_ + e.effective > config_.admission_budget_bytes) {
    rejected("admission budget exceeded", "budget rejected");
    return;
  } else {
    if (state != JobState::kQueued || r.queue_position != queue_.size()) {
      Violation("admitted job reads " + Name(state) + " at " +
                std::to_string(r.queue_position));
    }
    if (jobs_.count(r.job_id) > 0) Violation("reused job id");
    Job& job = jobs_[r.job_id];
    job.key = e.key;
    job.remote = e.msg.params.exec_mode == 2;
    job.budget = e.effective;
    admitted_ += e.effective;
    queue_.push_back(r.job_id);
    inflight_[e.key] = r.job_id;
    Log("  admitted " + std::to_string(r.job_id));
  }
  CheckStatus(r, r.job_id);
  if (e.msg.progress_seconds > 0.0 && Unfinished(state)) {
    c->subs[r.job_id] =
        Sub{e.msg.progress_seconds, now_, state, r.mr_jobs_done};
  }
}

void Sim::OnPush(Client* c, const Frame& frame) {
  JobStatusMsg p;
  if (!JobStatusMsg::Decode(frame.payload, &p).ok()) {
    Violation("undecodable push");
    return;
  }
  auto sub = c->subs.find(p.job_id);
  if (sub == c->subs.end()) {
    Violation("push of job " + std::to_string(p.job_id) +
              " without a subscription on " + std::to_string(c->conn));
    return;
  }
  const Job& job = jobs_.at(p.job_id);
  const auto state = static_cast<JobState>(p.state);
  if (state != job.state || p.mr_jobs_done != job.mr) {
    Violation("push reads " + Name(state) + ", model " + Name(job.state));
  }
  if (!Unfinished(state)) {
    c->subs.erase(sub);
    if (!c->vanished && ++c->terminal_pushes[p.job_id] > 1) {
      Violation("second terminal push");
    }
    ++(*coverage_)["terminal push"];
    return;
  }
  Sub& s = sub->second;
  if (state == s.seen_state && p.mr_jobs_done == s.seen_mr) {
    Violation("push without a change");
  }
  if (now_ - s.last_push < s.interval) Violation("push inside the interval");
  if (!in_tick_) Violation("a progress push outside a tick");
  ++(*coverage_)[job.changed_at < s.last_push + s.interval ? "held-back push"
                                                           : "progress push"];
  s.last_push = now_;
  s.seen_state = state;
  s.seen_mr = p.mr_jobs_done;
}

// ------------------------------------------------------------------ model

void Sim::ModelFinish(uint64_t id, JobState state) {
  Job& job = jobs_.at(id);
  if (!Unfinished(job.state)) {
    Violation("job " + std::to_string(id) + " ends twice");
    return;
  }
  queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
  running_.erase(id);
  admitted_ -= job.budget;
  job.budget = 0;
  auto key = inflight_.find(job.key);
  if (key != inflight_.end() && key->second == id) inflight_.erase(key);
  job.state = state;
  if (state == JobState::kDone) done_keys_.insert(job.key);
  finish_index_[id] = finished_++;
}

// ------------------------------------------------------------------ steps

void Sim::Connect() {
  const uint64_t conn = next_conn_++;
  const bool full = Connected() >= ServerMachine::kMaxConnections;
  Client& c = clients_[conn];
  c.conn = conn;
  c.last_frame = now_;
  closes_.clear();
  machine_.OnOffer(conn, now_);
  if (full != (closes_.count(conn) > 0)) {
    Violation(full ? "a connection past the cap was kept"
                   : "a connection under the cap was closed");
  }
  if (full) ++(*coverage_)["connection cap"];
}

void Sim::Request(Client* c, Expect e, const Frame& frame) {
  c->last_frame = now_;
  c->pending = std::move(e);
  closes_.clear();
  cancels_.clear();
  machine_.OnFrame(c->conn, frame, now_);
  if (c->pending) Violation("no reply on " + std::to_string(c->conn));
  if (!closes_.empty()) Violation("a good frame closed a connection");
}

void Sim::SubmitFrom(Client* c, JobSubmitMsg msg) {
  Expect e;
  e.kind = Expect::Kind::kSubmit;
  const JobParams& p = msg.params;
  if (p.algo != "lsh") {
    e.invalid = "algo";
  } else if (p.exec_mode > 2) {
    e.invalid = "exec_mode";
  } else if (p.exec_mode == 2 && !config_.enable_remote_workers) {
    e.invalid = "remote workers";
  } else if (p.num_workers > ServerMachine::kMaxJobWorkers) {
    e.invalid = "num_workers";
  } else if (p.num_layouts * p.pi > ServerMachine::kMaxHashFunctions) {
    e.invalid = "pi";
  }
  Result<std::string> digest = DigestOf(msg.dataset_path);
  if (e.invalid.empty() && digest.ok()) {
    // CanonicalKey prints every double with %.17g; a schedule repeats few
    // params, so each is printed once.
    static std::map<std::string, std::string> canonical;
    auto [it, fresh] = canonical.try_emplace(p.Encode());
    if (fresh) it->second = p.CanonicalKey();
    e.key = *digest + "|" + it->second;
  }
  e.effective = p.memory_budget_bytes > 0 ? p.memory_budget_bytes
                                          : config_.default_job_budget_bytes;
  e.msg = msg;
  digested_ = false;
  Log("conn " + std::to_string(c->conn) + " submits k=" + std::to_string(p.k) +
      " " + msg.dataset_path + (e.invalid.empty() ? "" : " bad " + e.invalid) +
      (p.exec_mode == 2 ? " remote" : "") + " progress " +
      std::to_string(msg.progress_seconds));
  Request(c, std::move(e), {MessageType::kJobSubmit, msg.Encode()});
}

void Sim::Submit(Client* c) {
  JobSubmitMsg msg;
  msg.params.algo = "lsh";
  msg.params.k = 3 + Draw(3);
  msg.params.exec_mode = Draw(4) == 0 ? 2 : 0;
  msg.params.memory_budget_bytes = Draw(3) == 0 ? (2 << 20) : 0;
  msg.params.seed = 1 + Draw(2);
  msg.dataset_path = kPaths[Draw(10) == 0 ? 3 : Draw(3)];
  const double intervals[] = {0.0, 0.0, 0.3, 2.0, 30.0};
  msg.progress_seconds = intervals[Draw(5)];
  if (Draw(10) == 0) {
    switch (Draw(4)) {
      case 0:
        msg.params.algo = "none";
        break;
      case 1:
        msg.params.exec_mode = 3;
        break;
      case 2:  // one above each resource cap
        msg.params.num_workers = ServerMachine::kMaxJobWorkers + 1;
        break;
      default:
        msg.params.num_layouts = 10;
        msg.params.pi = ServerMachine::kMaxHashFunctions / 10 + 1;
        break;
    }
  }
  last_hit_ = 0;
  SubmitFrom(c, std::move(msg));
  if (last_hit_ != 0) {  // a cache hit's bytes are fetched at once
    Expect e;
    e.kind = Expect::Kind::kResult;
    e.type = MessageType::kJobResult;
    e.job = last_hit_;
    JobPollMsg poll;
    poll.job_id = last_hit_;
    Request(c, e, {MessageType::kJobResult, poll.Encode()});
  }
}

void Sim::Poll(Client* c, bool result) {
  Expect e;
  e.kind = result ? Expect::Kind::kResult : Expect::Kind::kStatus;
  e.type = result ? MessageType::kJobResult : MessageType::kJobStatus;
  e.job = AnyKnownJob();
  JobPollMsg poll;
  poll.job_id = e.job;
  Log("conn " + std::to_string(c->conn) + (result ? " fetches " : " polls ") +
      std::to_string(e.job));
  Request(c, e, {e.type, poll.Encode()});
}

void Sim::CancelFrom(Client* c) {
  Expect e;
  e.kind = Expect::Kind::kCancel;
  e.job = AnyKnownJob();
  auto it = jobs_.find(e.job);
  const bool queued =
      it != jobs_.end() && it->second.state == JobState::kQueued;
  const bool running =
      it != jobs_.end() && it->second.state == JobState::kRunning;
  // The terminal push of a queued job leaves before the reply.
  if (queued) {
    ModelFinish(e.job, JobState::kCancelled);
    ++(*coverage_)["cancel queued"];
  }
  Log("conn " + std::to_string(c->conn) + " cancels " + std::to_string(e.job));
  JobCancelMsg msg;
  msg.job_id = e.job;
  Request(c, e, {MessageType::kJobCancel, msg.Encode()});
  if (running != (cancels_.count(e.job) > 0) || cancels_.size() > 1) {
    Violation("a cancel reached the wrong pipelines");
  }
  if (running) ++(*coverage_)["cancel running"];
}

void Sim::Drain(Client* c) {
  if (!draining_) {
    draining_ = true;
    drain_deadline_ = now_ + config_.drain_timeout_seconds;
  }
  if (c == nullptr) {
    Log("shutdown requested");
    machine_.RequestShutdown(now_);
    return;
  }
  Log("conn " + std::to_string(c->conn) + " asks for the drain");
  Expect e;
  e.kind = Expect::Kind::kDrain;
  JobCancelMsg msg;
  msg.job_id = kShutdownJobId;
  Request(c, e, {MessageType::kJobCancel, msg.Encode()});
}

void Sim::Garbage(Client* c) {
  Frame frame;
  switch (Draw(3)) {
    case 0:
      frame = {MessageType::kHello, "hello?"};
      break;
    case 1:
      frame = {MessageType::kJobSubmit, "garbage"};
      break;
    default:
      frame = {MessageType::kJobStatus, JobPollMsg{}.Encode() + "x"};
      break;
  }
  Log("conn " + std::to_string(c->conn) + " sends garbage");
  closes_.clear();
  machine_.OnFrame(c->conn, frame, now_);
  if (closes_ != std::set<uint64_t>{c->conn}) {
    Violation("garbage did not close exactly its own connection");
  }
  ++(*coverage_)["garbage frame"];
}

void Sim::Vanish(Client* c) {
  Log("conn " + std::to_string(c->conn) + " vanishes");
  c->vanished = true;
  c->pending.reset();
  if (Draw(2) == 0) {
    // The driver reads EOF at once; otherwise a later send or read finds it.
    c->closed = true;
    c->subs.clear();
    machine_.OnClosed(c->conn, now_);
  }
}

void Sim::SettleLosses() {
  for (uint64_t conn : lost_) {
    Client* c = ByConn(conn);
    if (c->closed) continue;  // the machine closed it meanwhile
    c->closed = true;
    c->subs.clear();
    machine_.OnClosed(conn, now_);
  }
  lost_.clear();
}

void Sim::Advance() {
  if (running_.empty()) return;
  auto it = running_.begin();
  std::advance(it, static_cast<long>(Draw(running_.size())));
  const uint64_t id = *it;
  Job& job = jobs_.at(id);
  JobEvent event;
  if (job.cancel_requested && Draw(2) == 0) {
    event.finished = true;
    event.status = Status::Cancelled("job cancelled at a MapReduce boundary");
    ModelFinish(id, JobState::kCancelled);
    ++(*coverage_)["cancelled at a boundary"];
  } else if (job.steps_left > 0) {
    --job.steps_left;
    ++job.mr;
    job.changed_at = now_;
  } else if (Draw(6) == 0) {
    event.finished = true;
    event.status = Status::Internal("injected pipeline failure");
    ModelFinish(id, JobState::kFailed);
    ++(*coverage_)["job failed"];
  } else {
    event.finished = true;
    event.payload = PayloadFor(job.key);
    ModelFinish(id, JobState::kDone);
    ++(*coverage_)[job.cancel_requested ? "done despite a cancel"
                                        : "job done"];
  }
  event.mr_jobs_done = job.mr;
  Log("job " + std::to_string(id) +
      (event.finished ? " ends " + Name(job.state)
                      : " moves to " + std::to_string(job.mr)));
  machine_.OnJobEvent(id, std::move(event), now_);
}

void Sim::Tick() {
  // What the machine must do in this tick: the drain deadline's cancels, in
  // queue order, and the idle deadline's closes.
  std::set<uint64_t> cancels;
  if (draining_ && !deadline_fired_ && now_ >= drain_deadline_) {
    deadline_fired_ = true;
    cancels = running_;
    if (!queue_.empty() || !cancels.empty()) {
      ++(*coverage_)["drain deadline cancel"];
    }
    while (!queue_.empty()) ModelFinish(queue_.front(), JobState::kCancelled);
  }
  std::set<uint64_t> idle;
  for (const auto& [conn, c] : clients_) {
    if (!c.closed && c.subs.empty() &&
        now_ - c.last_frame >= ServerMachine::kIdleSeconds) {
      idle.insert(conn);
    }
  }
  closes_.clear();
  cancels_.clear();
  in_tick_ = true;
  machine_.Tick(now_);
  in_tick_ = false;
  if (closes_ != idle) Violation("the idle deadline closed the wrong set");
  if (!idle.empty()) ++(*coverage_)["idle deadline"];
  if (cancels_ != cancels) {
    Violation("the drain deadline cancelled the wrong set");
  }
}

void Sim::Step() {
  now_ += static_cast<double>(Draw(200)) / 1000.0;
  Client* c = AnyLiveClient();
  const uint64_t roll = Draw(100);
  if (c == nullptr || roll < 8) {
    Connect();
  } else if (roll < 38) {
    Submit(c);
  } else if (roll < 50) {
    Poll(c, /*result=*/false);
  } else if (roll < 58) {
    Poll(c, /*result=*/true);
  } else if (roll < 64) {
    CancelFrom(c);
  } else if (roll < 67) {
    Garbage(c);
  } else if (roll < 70) {
    Vanish(c);
  } else if (roll < 92) {
    Advance();
  } else if (roll < 93) {
    Drain(Draw(2) == 0 ? c : nullptr);
  } else if (roll < 95) {
    // A clock jump: past the idle deadline, or a few seconds.
    now_ += Draw(2) == 0 ? ServerMachine::kIdleSeconds + 1.0 : 3.0;
    Log("clock jumps to " + std::to_string(now_));
  } else if (roll < 97) {
    // A vanished client's EOF is read.
    for (auto& [conn, other] : clients_) {
      if (other.vanished && !other.closed) {
        other.closed = true;
        other.subs.clear();
        machine_.OnClosed(conn, now_);
        break;
      }
    }
  }
  SettleLosses();
  CheckInvariants(/*after_tick=*/false);
}

// ----------------------------------------------------------------- checks

void Sim::CheckInvariants(bool after_tick) {
  for (const auto& [conn, c] : clients_) {
    if (c.closed) continue;
    for (const auto& [id, sub] : c.subs) {
      const Job& job = jobs_.at(id);
      if (!Unfinished(job.state)) {
        if (!c.vanished) {
          Violation("conn " + std::to_string(conn) +
                    " missed the terminal push of job " + std::to_string(id));
        }
      } else if (after_tick && !c.vanished &&
                 (job.state != sub.seen_state || job.mr != sub.seen_mr) &&
                 now_ - sub.last_push >= sub.interval) {
        Violation("conn " + std::to_string(conn) +
                  " was not pushed the change of job " + std::to_string(id));
      }
    }
  }
  // No slot idles while a queued job could use it.
  bool remote_running = false;
  for (uint64_t id : running_) remote_running |= jobs_.at(id).remote;
  if (running_.size() < std::max<size_t>(1, config_.scheduler_threads)) {
    for (uint64_t id : queue_) {
      if (!jobs_.at(id).remote || !remote_running) {
        Violation("job " + std::to_string(id) + " waits beside a free slot");
        break;
      }
    }
  }
}

void Sim::Finale() {
  // Everything ended: the gauges read empty.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (const char* gauge :
       {obs::kMetricServerQueueDepth, obs::kMetricServerRunningJobs,
        obs::kMetricServerAdmittedBudgetBytes}) {
    if (registry.GetGauge(gauge)->value() != 0.0) {
      Violation(std::string(gauge) + " does not return to zero");
    }
  }
  if (admitted_ != 0) Violation("model admitted bytes do not return to zero");
  // Every connection goes quiet past the idle deadline; a fresh client then
  // reads every job the model knows, as retention leaves it.
  now_ += ServerMachine::kIdleSeconds + 1.0;
  Tick();
  if (Connected() != 0) Violation("a connection outlived the idle deadline");
  Connect();
  Client* checker = &clients_.rbegin()->second;
  for (const auto& [id, job] : jobs_) {
    if (Unfinished(job.state)) {
      Violation("job " + std::to_string(id) + " never ended");
    }
    Expect e;
    e.kind = Expect::Kind::kStatus;
    e.job = id;
    JobPollMsg poll;
    poll.job_id = id;
    Request(checker, e, {MessageType::kJobStatus, poll.Encode()});
  }
}

std::string Sim::Run() {
  if (rng_() % 200 == 0) {
    // A crowd connects past the cap, then leaves.
    for (size_t i = 0; i < ServerMachine::kMaxConnections + 3; ++i) Connect();
    for (auto& [conn, c] : clients_) {
      if (!c.closed) machine_.OnClosed(conn, now_);
    }
    clients_.clear();
  }
  if (rng_() % 200 == 0) {
    // One client fills the finished window with rejections, so retention
    // forgets the oldest.
    Connect();
    Client* c = &clients_.rbegin()->second;
    JobSubmitMsg msg;
    msg.params.algo = "none";
    msg.dataset_path = kPaths[0];
    for (size_t i = 0; i < ServerMachine::kFinishedJobsKept + 8; ++i) {
      SubmitFrom(c, msg);
    }
  }
  const size_t steps = 40 + Draw(80);
  for (size_t i = 0; i < steps && violation_.empty(); ++i) {
    Step();
    Tick();
    SettleLosses();
    CheckInvariants(/*after_tick=*/true);
  }
  if (!draining_ && violation_.empty()) {
    Drain(Draw(2) == 0 ? AnyLiveClient() : nullptr);
  }
  for (size_t i = 0; i < kMaxDrainSteps && violation_.empty() &&
                     !machine_.drained();
       ++i) {
    now_ += static_cast<double>(Draw(100)) / 1000.0;
    if (Draw(3) == 0) Advance();
    SettleLosses();
    Tick();
    SettleLosses();
    CheckInvariants(/*after_tick=*/true);
  }
  if (violation_.empty() && !machine_.drained()) Violation("never drained");
  if (violation_.empty()) Finale();
  return violation_;
}

/// Runs one schedule, a pure function of `seed`. Empty when every check
/// held; else the failure and the schedule, which `log` always receives.
std::string SimulateSchedule(uint64_t seed, Coverage* coverage,
                             std::string* log) {
  Sim sim(seed, coverage);
  std::string failure;
  try {
    failure = sim.Run();
  } catch (const std::exception& e) {
    failure = std::string("threw ") + e.what();
  }
  *log = sim.log();
  if (failure.empty()) return failure;
  return "seed " + std::to_string(seed) + ": " + failure + "\nschedule:\n" +
         *log;
}

// Two thousand seeds. Every schedule passes the oracle, and together they
// reach every decision the machine makes.
TEST(ServerSimTest, SeededSchedulesKeepThePolicy) {
  Coverage coverage;
  size_t failures = 0;
  std::string log;
  for (uint64_t seed = 1; seed <= 2000 && failures < 3; ++seed) {
    const std::string failure = SimulateSchedule(seed, &coverage, &log);
    if (!failure.empty()) {
      ADD_FAILURE() << failure;
      ++failures;
    }
  }
  for (const char* event :
       {"cache hit", "cache hit fetched", "coalesced", "queue full",
        "budget rejected", "param bound", "unreadable dataset",
        "draining rejects", "cancel queued", "cancel running",
        "cancelled at a boundary", "done despite a cancel",
        "drain deadline cancel", "remote job waits its turn",
        "connection cap", "idle deadline", "retention evicted",
        "garbage frame", "vanished mid-push", "terminal push",
        "progress push", "held-back push", "job failed", "job done",
        "result fetched"}) {
    EXPECT_GT(coverage[event], 0) << "no schedule reached: " << event;
  }
  std::string seen;
  for (const auto& [event, n] : coverage) {
    seen += event + " " + std::to_string(n) + "\n";
  }
  RecordProperty("coverage", seen);
}

// A seed is its whole schedule: replayed alone, it takes the same steps.
TEST(ServerSimTest, ASeedReplaysItsSchedule) {
  for (uint64_t seed : {uint64_t{6}, uint64_t{7}, uint64_t{8}}) {
    Coverage coverage;
    std::string first;
    std::string second;
    EXPECT_EQ(SimulateSchedule(seed, &coverage, &first), "");
    EXPECT_EQ(SimulateSchedule(seed, &coverage, &second), "");
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace server
}  // namespace ddp
