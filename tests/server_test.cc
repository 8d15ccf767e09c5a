// Serving-layer suite: the kJob* wire protocol, the (dataset digest,
// canonical params) cache keys, and a real DdpServer on an ephemeral TCP
// port exercised by DdpClient connections — submit/poll/result round trip,
// concurrent jobs against the bounded queue and the admission budget,
// result-cache hits that are bit-identical to the cold run without
// re-running any map/reduce work, dataset-cache reuse, cancel, client
// disconnect mid-job, the bounds on threads, unread replies, client params
// and finished jobs, a refusing disk, the graceful-shutdown drain, and
// seeded mutations of the protocol decoders. Chaos, where used, is the
// seeded fault injection of the MapReduce runtime, so every failure
// schedule is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>

#include "common/backoff.h"
#include "dataset/csv.h"
#include "dataset/generators.h"
#include "dataset/sharded_io.h"
#include "mapreduce/channel.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "soft_limit.h"

namespace ddp {
namespace server {
namespace {

namespace fs = std::filesystem;

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

// This process's virtual size (VmSize in /proc/self/status), in bytes.
uint64_t VmSizeBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::strtoull(line.c_str() + 7, nullptr, 10) * 1024;
    }
  }
  return 0;
}

// Decodes `bytes` as a fresh Msg.
template <typename Msg>
Status DecodeAs(const std::string& bytes) {
  Msg msg;
  return Msg::Decode(bytes, &msg);
}

// This process's threads: the entries of /proc/self/task.
size_t ThreadCount() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

// The stack a thread gets by default, as std::thread creates it.
uint64_t DefaultThreadStackBytes() {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  size_t bytes = 0;
  pthread_attr_getstacksize(&attr, &bytes);
  pthread_attr_destroy(&attr);
  return bytes;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "ddp_server_test").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    auto ds = gen::S2Like(7, 300);
    ASSERT_TRUE(ds.ok());
    dataset_path_ = dir_ + "/data.csv";
    ASSERT_TRUE(WriteCsvFile(dataset_path_, *ds).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServerConfig BaseConfig() const {
    ServerConfig config;
    config.work_dir = dir_ + "/work";
    config.drain_timeout_seconds = 30.0;
    return config;
  }

  JobParams BaseParams() const {
    JobParams params;
    params.algo = "lsh";
    params.k = 10;
    params.seed = 5;
    return params;
  }

  Result<std::unique_ptr<DdpClient>> Connect(const DdpServer& srv) const {
    return DdpClient::Connect("127.0.0.1", srv.port(), /*deadline=*/10.0);
  }

  JobSubmitMsg Submission(const JobParams& params) const {
    JobSubmitMsg msg;
    msg.params = params;
    msg.dataset_path = dataset_path_;
    return msg;
  }

  std::string dir_;
  std::string dataset_path_;
};

// ------------------------------------------------------------- protocol

TEST(ServerProtocolTest, MessagesRoundTrip) {
  JobParams params;
  params.algo = "basic";
  params.dc = 1.25;
  params.k = 7;
  params.memory_budget_bytes = 1 << 20;
  params.exec_mode = 1;
  params.seed = 42;
  params.map_failure_rate = 0.125;
  JobParams params2;
  ASSERT_TRUE(JobParams::Decode(params.Encode(), &params2).ok());
  EXPECT_EQ(params2.CanonicalKey(), params.CanonicalKey());

  JobSubmitMsg submit;
  submit.params = params;
  submit.dataset_path = "/data/points.ddpb";
  submit.progress_seconds = 0.5;
  JobSubmitMsg submit2;
  ASSERT_TRUE(JobSubmitMsg::Decode(submit.Encode(), &submit2).ok());
  EXPECT_EQ(submit2.dataset_path, submit.dataset_path);
  EXPECT_EQ(submit2.progress_seconds, submit.progress_seconds);
  EXPECT_EQ(submit2.params.CanonicalKey(), params.CanonicalKey());

  JobStatusMsg status;
  status.job_id = 9;
  status.state = static_cast<uint8_t>(JobState::kRejected);
  status.detail = "queue full";
  status.queue_position = 3;
  status.mr_jobs_done = 2;
  status.running_seconds = 1.5;
  status.from_result_cache = 1;
  JobStatusMsg status2;
  ASSERT_TRUE(JobStatusMsg::Decode(status.Encode(), &status2).ok());
  EXPECT_EQ(status2.job_id, 9u);
  EXPECT_EQ(status2.detail, "queue full");
  EXPECT_EQ(status2.queue_position, 3u);
  EXPECT_EQ(status2.from_result_cache, 1);

  JobResultPayload payload;
  payload.dc = 2.5;
  payload.num_clusters = 3;
  payload.assignment = {0, 1, 2, 1, 0, -1};
  payload.distance_evaluations = 1234;
  payload.total_seconds = 0.75;
  payload.mr_jobs = 5;
  JobResultPayload payload2;
  ASSERT_TRUE(JobResultPayload::Decode(payload.Encode(), &payload2).ok());
  EXPECT_EQ(payload2.assignment, payload.assignment);
  EXPECT_EQ(payload2.num_clusters, 3u);

  JobResultMsg result;
  result.job_id = 9;
  result.state = static_cast<uint8_t>(JobState::kDone);
  result.from_result_cache = 1;
  result.payload = payload.Encode();
  JobResultMsg result2;
  ASSERT_TRUE(JobResultMsg::Decode(result.Encode(), &result2).ok());
  EXPECT_EQ(result2.payload, result.payload);
}

TEST(ServerProtocolTest, DecodeRejectsGarbageAndTrailingBytes) {
  JobParams params;
  EXPECT_FALSE(JobParams::Decode("garbage", &params).ok());
  std::string extra = JobPollMsg{}.Encode() + "x";
  JobPollMsg poll;
  EXPECT_FALSE(JobPollMsg::Decode(extra, &poll).ok());
}

// Seeded mutations of every server protocol decoder's input: bit flips,
// truncations, inserted bytes and inflated varints, a few at a time. Each
// decode returns OK or an error Status and never throws; under ASan+UBSan it
// also reads no byte outside its input and allocates nothing its input
// cannot back.
TEST(ServerProtocolTest, MutatedMessagesDecodeToOkOrAnError) {
  JobParams params;
  params.algo = "eddpc";
  params.dc = 0.75;
  params.k = 12;
  params.memory_budget_bytes = 1 << 20;
  params.map_failure_rate = 0.25;
  JobSubmitMsg submit;
  submit.params = params;
  submit.dataset_path = "/data/points.ddpb";
  submit.progress_seconds = 0.5;
  JobPollMsg poll;
  poll.job_id = 123456789;
  JobCancelMsg cancel;
  cancel.job_id = kShutdownJobId;
  JobStatusMsg status;
  status.job_id = 77;
  status.state = static_cast<uint8_t>(JobState::kRunning);
  status.detail = "cancel requested";
  status.queue_position = 300;
  status.mr_jobs_done = 4;
  status.running_seconds = 2.5;
  JobResultPayload payload;
  payload.dc = 1.5;
  payload.num_clusters = 3;
  payload.assignment = {0, 1, 2, -1, 200, 1 << 20};
  payload.distance_evaluations = 99999;
  payload.mr_jobs = 6;
  JobResultMsg result;
  result.job_id = 77;
  result.state = static_cast<uint8_t>(JobState::kDone);
  result.payload = payload.Encode();

  struct Decoder {
    const char* name;
    std::string sample;
    Status (*decode)(const std::string&);
  };
  const std::vector<Decoder> decoders = {
      {"JobParams", params.Encode(), DecodeAs<JobParams>},
      {"JobSubmitMsg", submit.Encode(), DecodeAs<JobSubmitMsg>},
      {"JobPollMsg", poll.Encode(), DecodeAs<JobPollMsg>},
      {"JobCancelMsg", cancel.Encode(), DecodeAs<JobCancelMsg>},
      {"JobStatusMsg", status.Encode(), DecodeAs<JobStatusMsg>},
      {"JobResultMsg", result.Encode(), DecodeAs<JobResultMsg>},
      {"JobResultPayload", payload.Encode(), DecodeAs<JobResultPayload>},
  };
  std::mt19937_64 rng(28);
  for (const Decoder& d : decoders) {
    ASSERT_TRUE(d.decode(d.sample).ok()) << d.name;
    size_t errors = 0;
    for (int i = 0; i < 3000; ++i) {
      std::string bytes = d.sample;
      for (uint64_t k = 1 + rng() % 3; k > 0; --k) {
        const size_t at = bytes.empty() ? 0 : rng() % (bytes.size() + 1);
        switch (rng() % 4) {
          case 0:  // bit flip
            if (at < bytes.size()) {
              bytes[at] ^= static_cast<char>(1 << rng() % 8);
            }
            break;
          case 1:  // truncation
            bytes.resize(at);
            break;
          case 2:  // inserted bytes
            bytes.insert(at,
                         std::string(1 + rng() % 4, static_cast<char>(rng())));
            break;
          default:  // an inflated varint: ten bytes claiming ~2^64
            bytes.insert(at, std::string(9, '\xff') + '\x01');
            break;
        }
      }
      try {
        if (!d.decode(bytes).ok()) ++errors;
      } catch (...) {
        ADD_FAILURE() << d.name << " threw on mutation " << i;
      }
    }
    EXPECT_GT(errors, 0u) << d.name;  // the mutations reach the checks
  }
}

TEST(ServerProtocolTest, CanonicalKeySeparatesDistinctParams) {
  JobParams a;
  JobParams b = a;
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
  b.seed = 99;
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
  b = a;
  b.algo = "basic";
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
  b = a;
  b.dc = 0.30000000000000004;  // differs from 0.3 only past %.6g
  JobParams c = a;
  c.dc = 0.3;
  EXPECT_NE(b.CanonicalKey(), c.CanonicalKey());
}

// ------------------------------------------------------- submit round trip

TEST_F(ServerTest, SubmitPollResultRoundTripOverTcp) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto submitted = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_NE(submitted->state, static_cast<uint8_t>(JobState::kRejected))
      << submitted->detail;
  const uint64_t job_id = submitted->job_id;

  auto done = (*client)->WaitForResult(job_id, /*timeout=*/60.0);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone))
      << done->detail;
  EXPECT_EQ(done->from_result_cache, 0);

  auto result = (*client)->FetchResult(job_id);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->state, static_cast<uint8_t>(JobState::kDone));
  JobResultPayload payload;
  ASSERT_TRUE(JobResultPayload::Decode(result->payload, &payload).ok());
  EXPECT_EQ(payload.assignment.size(), 300u);
  EXPECT_EQ(payload.num_clusters, 10u);
  EXPECT_GT(payload.mr_jobs, 0u);
  EXPECT_GT(payload.distance_evaluations, 0u);

  // Unknown ids answer with a failed status, not a dropped connection.
  auto unknown = (*client)->Poll(9999);
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->state, static_cast<uint8_t>(JobState::kFailed));
  EXPECT_EQ(unknown->detail, "unknown job id");
}

TEST_F(ServerTest, ProgressPushesArriveWhileWaiting) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  size_t pushes = 0;
  (*client)->set_progress_handler(
      [&pushes](const JobStatusMsg&) { ++pushes; });
  JobSubmitMsg msg = Submission(BaseParams());
  msg.progress_seconds = 0.01;  // push every change
  auto submitted = (*client)->Submit(msg);
  ASSERT_TRUE(submitted.ok());
  auto done = (*client)->WaitForResult(submitted->job_id, 60.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));
  // At minimum the terminal push arrives (subscriptions push once more on a
  // terminal state before unsubscribing).
  EXPECT_GE(pushes, 1u);
}

// A job's progress is its checkpoint store's key sequence, so the registry
// holds no per-job name however many jobs the server runs, and a finished
// job's terminal push counts every MapReduce job of its pipeline.
TEST_F(ServerTest, ProgressLeavesNoPerJobNameInTheRegistry) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobStatusMsg terminal;
  (*client)->set_progress_handler([&terminal](const JobStatusMsg& push) {
    if (push.state == static_cast<uint8_t>(JobState::kDone)) terminal = push;
  });
  for (uint64_t k = 3; k <= 5; ++k) {
    JobParams params = BaseParams();
    params.k = k;  // distinct cache keys: every job runs its pipeline
    JobSubmitMsg msg = Submission(params);
    msg.progress_seconds = 0.01;
    auto submitted = (*client)->Submit(msg);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    const uint64_t job_id = submitted->job_id;
    auto done = (*client)->WaitForResult(job_id, 60.0);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    ASSERT_EQ(done->state, static_cast<uint8_t>(JobState::kDone))
        << done->detail;
    // The terminal push trails the state change; poll until it arrives.
    for (int i = 0; i < 500 && terminal.job_id != job_id; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ASSERT_TRUE((*client)->Poll(job_id).ok());
    }
    auto result = (*client)->FetchResult(job_id);
    ASSERT_TRUE(result.ok());
    JobResultPayload payload;
    ASSERT_TRUE(JobResultPayload::Decode(result->payload, &payload).ok());
    ASSERT_EQ(terminal.job_id, job_id);
    EXPECT_GT(terminal.mr_jobs_done, 0u);
    EXPECT_EQ(terminal.mr_jobs_done, payload.mr_jobs);
  }
  EXPECT_EQ(obs::MetricsRegistry::Global().ToJson().find("server.job."),
            std::string::npos);
}

// A subscriber that keeps polling gets its pushes between the replies:
// polling every 10 ms, it gets exactly one terminal push within 2 s of the
// job being done.
TEST_F(ServerTest, PollingSubscriberGetsExactlyOneTerminalPush) {
  using Clock = std::chrono::steady_clock;
  ServerConfig config = BaseConfig();
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  size_t terminal_pushes = 0;
  Clock::time_point first_terminal;
  (*client)->set_progress_handler([&](const JobStatusMsg& push) {
    if (push.state != static_cast<uint8_t>(JobState::kDone)) return;
    if (terminal_pushes++ == 0) first_terminal = Clock::now();
  });
  JobSubmitMsg msg = Submission(BaseParams());
  msg.progress_seconds = 0.01;
  auto submitted = (*client)->Submit(msg);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const uint64_t job_id = submitted->job_id;
  auto unfinished = [](uint8_t state) {
    return state == static_cast<uint8_t>(JobState::kQueued) ||
           state == static_cast<uint8_t>(JobState::kRunning);
  };
  uint8_t state = submitted->state;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (unfinished(state) && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto polled = (*client)->Poll(job_id);
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    state = polled->state;
  }
  ASSERT_EQ(state, static_cast<uint8_t>(JobState::kDone));
  const Clock::time_point done = Clock::now();
  // Same pace after done, until 2 s have passed or a quarter second past
  // the terminal push, which shows no second one follows.
  while (Clock::now() - done < std::chrono::seconds(2) &&
         (terminal_pushes == 0 ||
          Clock::now() - first_terminal < std::chrono::milliseconds(250))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE((*client)->Poll(job_id).ok());
  }
  ASSERT_EQ(terminal_pushes, 1u);
  EXPECT_LT(first_terminal - done, std::chrono::seconds(2));
}

// The terminal push leaves on the job's done event, whatever the
// subscription's interval. A raw client that subscribes with a 30 s interval
// and then only reads gets exactly one push within 10 s, the terminal one:
// the job's earlier changes fall inside the interval, and nothing follows.
TEST_F(ServerTest, SilentSubscriberGetsItsTerminalPushOnTheDoneEvent) {
  using Clock = std::chrono::steady_clock;
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto channel = mr::TcpChannel::Connect("127.0.0.1", (*srv)->port(),
                                         ExponentialBackoff::Params{},
                                         /*seed=*/1, /*deadline_seconds=*/10.0);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  JobSubmitMsg msg = Submission(BaseParams());
  msg.progress_seconds = 30.0;
  ASSERT_TRUE(
      (*channel)->Send({mr::MessageType::kJobSubmit, msg.Encode()}).ok());
  mr::Frame frame;
  ASSERT_TRUE((*channel)->Recv(&frame, /*timeout_seconds=*/10.0).ok());
  ASSERT_EQ(frame.type, mr::MessageType::kJobStatus);
  JobStatusMsg ack;
  ASSERT_TRUE(JobStatusMsg::Decode(frame.payload, &ack).ok());
  ASSERT_NE(ack.state, static_cast<uint8_t>(JobState::kRejected));

  // Every push within 10 s; a quarter second of quiet after the first ends
  // the wait, which shows no second one follows.
  std::vector<JobStatusMsg> pushes;
  for (const auto give_up = Clock::now() + std::chrono::seconds(10);
       Clock::now() < give_up;) {
    const Status st = (*channel)->Recv(&frame, /*timeout_seconds=*/0.25);
    if (st.IsDeadlineExceeded()) {
      if (!pushes.empty()) break;
      continue;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(frame.type, mr::MessageType::kJobProgress);
    JobStatusMsg push;
    ASSERT_TRUE(JobStatusMsg::Decode(frame.payload, &push).ok());
    pushes.push_back(push);
  }
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].job_id, ack.job_id);
  EXPECT_EQ(pushes[0].state, static_cast<uint8_t>(JobState::kDone));
}

// ------------------------------------------------ caches and admission

TEST_F(ServerTest, ResultCacheHitIsBitIdenticalAndRunsNothing) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  auto first = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(first.ok());
  auto first_done = (*client)->WaitForResult(first->job_id, 60.0);
  ASSERT_TRUE(first_done.ok());
  ASSERT_EQ(first_done->state, static_cast<uint8_t>(JobState::kDone));
  auto cold = (*client)->FetchResult(first->job_id);
  ASSERT_TRUE(cold.ok());

  const uint64_t hits_before = CounterValue("server.result_cache_hits");
  const uint64_t evals_before = CounterValue("local_dp.distance_evals");

  // Identical (dataset digest, params): answered at submit time from the
  // result cache without touching the MapReduce runtime.
  auto second = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->state, static_cast<uint8_t>(JobState::kDone));
  EXPECT_EQ(second->from_result_cache, 1);
  EXPECT_NE(second->job_id, first->job_id);
  auto warm = (*client)->FetchResult(second->job_id);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->from_result_cache, 1);
  EXPECT_EQ(warm->payload, cold->payload);  // bit-identical bytes

  EXPECT_EQ(CounterValue("server.result_cache_hits"), hits_before + 1);
  // Zero incremental distance evaluations: nothing was recomputed.
  EXPECT_EQ(CounterValue("local_dp.distance_evals"), evals_before);

  // Different params miss the cache.
  JobParams other = BaseParams();
  other.k = 4;
  auto third = (*client)->Submit(Submission(other));
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_EQ(third->from_result_cache, 0);
  auto third_done = (*client)->WaitForResult(third->job_id, 60.0);
  ASSERT_TRUE(third_done.ok());
  EXPECT_EQ(third_done->state, static_cast<uint8_t>(JobState::kDone));
}

TEST_F(ServerTest, DatasetCacheIsReusedAcrossJobs) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  const uint64_t hits_before = CounterValue("server.dataset_cache_hits");
  const uint64_t misses_before = CounterValue("server.dataset_cache_misses");

  // Two jobs, same dataset, different params: one load, one reuse.
  for (uint64_t k : {uint64_t{10}, uint64_t{6}}) {
    JobParams params = BaseParams();
    params.k = k;
    auto submitted = (*client)->Submit(Submission(params));
    ASSERT_TRUE(submitted.ok());
    ASSERT_NE(submitted->state, static_cast<uint8_t>(JobState::kRejected));
    auto done = (*client)->WaitForResult(submitted->job_id, 60.0);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));
  }
  EXPECT_EQ(CounterValue("server.dataset_cache_misses"), misses_before + 1);
  EXPECT_EQ(CounterValue("server.dataset_cache_hits"), hits_before + 1);
}

TEST_F(ServerTest, SameDatasetBytesUnderTwoPathsShareCacheEntries) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  // Copy the dataset: digest-keyed caches must treat it as the same data.
  const std::string copy = dir_ + "/copy.csv";
  fs::copy_file(dataset_path_, copy);

  auto first = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(first.ok());
  auto first_done = (*client)->WaitForResult(first->job_id, 60.0);
  ASSERT_TRUE(first_done.ok());
  ASSERT_EQ(first_done->state, static_cast<uint8_t>(JobState::kDone));

  JobSubmitMsg msg = Submission(BaseParams());
  msg.dataset_path = copy;
  auto second = (*client)->Submit(msg);
  ASSERT_TRUE(second.ok());
  // Same digest, same canonical params -> result-cache hit despite the
  // different path.
  EXPECT_EQ(second->state, static_cast<uint8_t>(JobState::kDone));
  EXPECT_EQ(second->from_result_cache, 1);
}

TEST_F(ServerTest, ConcurrentJobsAllCompleteUnderChaos) {
  ServerConfig config = BaseConfig();
  config.scheduler_threads = 3;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());

  // Six distinct jobs from six connections, three running at a time, all
  // under seeded map/reduce failure chaos. Every one must complete.
  constexpr size_t kJobs = 6;
  std::vector<std::string> errors(kJobs);
  std::vector<std::thread> clients;
  clients.reserve(kJobs);
  for (size_t i = 0; i < kJobs; ++i) {
    clients.emplace_back([this, &srv, &errors, i] {
      auto client = Connect(**srv);
      if (!client.ok()) {
        errors[i] = client.status().ToString();
        return;
      }
      JobParams params = BaseParams();
      params.k = 3 + i;  // distinct cache keys
      params.map_failure_rate = 0.2;
      params.reduce_failure_rate = 0.1;
      params.seed = 100 + i;
      auto submitted = (*client)->Submit(Submission(params));
      if (!submitted.ok()) {
        errors[i] = submitted.status().ToString();
        return;
      }
      if (submitted->state == static_cast<uint8_t>(JobState::kRejected)) {
        errors[i] = "rejected: " + submitted->detail;
        return;
      }
      auto done = (*client)->WaitForResult(submitted->job_id, 120.0);
      if (!done.ok()) {
        errors[i] = done.status().ToString();
      } else if (done->state != static_cast<uint8_t>(JobState::kDone)) {
        errors[i] = "terminal state " + done->detail;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(errors[i], "") << "job " << i;
  }
}

TEST_F(ServerTest, FullQueueRejectsWithReason) {
  ServerConfig config = BaseConfig();
  config.max_queued_jobs = 0;  // nothing may wait: every submit bounces
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  const uint64_t rejected_before = CounterValue("server.jobs_rejected");
  auto submitted = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_NE(submitted->detail.find("queue full"), std::string::npos)
      << submitted->detail;
  EXPECT_EQ(CounterValue("server.jobs_rejected"), rejected_before + 1);

  // Rejected jobs stay pollable with the reason attached.
  auto polled = (*client)->Poll(submitted->job_id);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_EQ(polled->detail, submitted->detail);
}

// The exec_mode byte comes from a client: a mode this server cannot run is
// rejected at submit, never run on another substrate.
TEST_F(ServerTest, SubmitRejectsUnknownExecMode) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobParams params = BaseParams();
  params.exec_mode = 3;
  auto submitted = (*client)->Submit(Submission(params));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_NE(submitted->detail.find("exec_mode"), std::string::npos)
      << submitted->detail;
}

TEST_F(ServerTest, SubmitRejectsRemoteExecModeWithoutRemoteWorkers) {
  ServerConfig config = BaseConfig();
  config.enable_remote_workers = false;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobParams params = BaseParams();
  params.exec_mode = 2;
  auto submitted = (*client)->Submit(Submission(params));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_NE(submitted->detail.find("remote workers"), std::string::npos)
      << submitted->detail;
}

// num_workers and num_layouts x pi size what a job allocates: a thread or
// process per worker, and the LSH partitioner's hash functions. One above
// each cap is rejected at submit, naming the field. The M x pi case keeps M
// at 10, so a job that slipped through would stay cheap.
TEST_F(ServerTest, SubmitRejectsParamsAboveTheResourceCaps) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobParams workers = BaseParams();
  workers.num_workers = 65;
  JobParams hashes = BaseParams();
  hashes.num_layouts = 10;
  hashes.pi = 410;  // 4,100 hash functions; pi 409 would be 4,090
  for (const auto& [params, field] :
       {std::make_pair(workers, "num_workers"), std::make_pair(hashes, "pi")}) {
    auto submitted = (*client)->Submit(Submission(params));
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
    EXPECT_NE(submitted->detail.find(field), std::string::npos)
        << submitted->detail;
  }
}

TEST_F(ServerTest, AdmissionBudgetRejectsOversizedJobs) {
  ServerConfig config = BaseConfig();
  config.admission_budget_bytes = 1 << 20;
  config.default_job_budget_bytes = 256 << 10;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  // A job demanding more than the whole server budget bounces immediately,
  // with the arithmetic in the reason.
  JobParams heavy = BaseParams();
  heavy.memory_budget_bytes = 2 << 20;
  auto submitted = (*client)->Submit(Submission(heavy));
  ASSERT_TRUE(submitted.ok());
  EXPECT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_NE(submitted->detail.find("admission budget exceeded"),
            std::string::npos)
      << submitted->detail;

  // The budget is about admitted jobs, not history: a fitting job is
  // admitted afterwards and completes.
  auto ok_job = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(ok_job.ok());
  ASSERT_NE(ok_job->state, static_cast<uint8_t>(JobState::kRejected));
  auto done = (*client)->WaitForResult(ok_job->job_id, 60.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));
}

TEST_F(ServerTest, IdenticalInFlightSubmissionsCoalesce) {
  ServerConfig config = BaseConfig();
  config.scheduler_threads = 1;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  // Two identical submissions back to back: the second must either coalesce
  // onto the first (same job id while in flight) or, if the first already
  // finished, hit the result cache — never run twice.
  JobParams params = BaseParams();
  params.map_failure_rate = 0.3;  // seeded retries keep the first in flight
  auto first = (*client)->Submit(Submission(params));
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->state, static_cast<uint8_t>(JobState::kRejected));
  auto second = (*client)->Submit(Submission(params));
  ASSERT_TRUE(second.ok());
  const bool coalesced = second->job_id == first->job_id;
  const bool cache_hit = second->from_result_cache != 0;
  EXPECT_TRUE(coalesced || cache_hit);

  auto done = (*client)->WaitForResult(first->job_id, 120.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone))
      << done->detail;
}

// ---------------------------------------------------- cancel + disconnect

TEST_F(ServerTest, CancelQueuedOrRunningJobReachesTerminalState) {
  ServerConfig config = BaseConfig();
  config.scheduler_threads = 1;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  // Job A occupies the single scheduler slot (seeded retries slow it
  // down); job B waits behind it and is cancelled.
  JobParams slow = BaseParams();
  slow.map_failure_rate = 0.3;
  auto a = (*client)->Submit(Submission(slow));
  ASSERT_TRUE(a.ok());
  ASSERT_NE(a->state, static_cast<uint8_t>(JobState::kRejected));
  JobParams other = BaseParams();
  other.k = 4;
  auto b = (*client)->Submit(Submission(other));
  ASSERT_TRUE(b.ok());
  ASSERT_NE(b->state, static_cast<uint8_t>(JobState::kRejected));

  auto cancelled = (*client)->Cancel(b->job_id);
  ASSERT_TRUE(cancelled.ok());
  // Cancel is cooperative: immediate for a queued job, at the next
  // MapReduce boundary for a running one — and if the job beat the cancel
  // to the finish line it is simply done.
  auto b_final = (*client)->WaitForResult(b->job_id, 120.0);
  ASSERT_TRUE(b_final.ok());
  EXPECT_TRUE(
      b_final->state == static_cast<uint8_t>(JobState::kCancelled) ||
      b_final->state == static_cast<uint8_t>(JobState::kDone))
      << unsigned{b_final->state};

  // The cancel never harms unrelated work: A still completes, and the
  // server admits new jobs afterwards.
  auto a_final = (*client)->WaitForResult(a->job_id, 120.0);
  ASSERT_TRUE(a_final.ok());
  EXPECT_EQ(a_final->state, static_cast<uint8_t>(JobState::kDone));

  // A cancelled job's checkpoints survive, so resubmitting the identical
  // job resumes (or serves the cache when it finished) and completes.
  auto again = (*client)->Submit(Submission(other));
  ASSERT_TRUE(again.ok());
  ASSERT_NE(again->state, static_cast<uint8_t>(JobState::kRejected));
  auto again_done = (*client)->WaitForResult(again->job_id, 120.0);
  ASSERT_TRUE(again_done.ok());
  EXPECT_EQ(again_done->state, static_cast<uint8_t>(JobState::kDone));

  // Cancelling a finished job is a no-op reporting the terminal state.
  auto noop = (*client)->Cancel(a->job_id);
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->state, static_cast<uint8_t>(JobState::kDone));
}

// A job cancelled while queued leaves the queue at once: with one scheduler
// and room for one queued job, a slow job A runs, B queues behind it and is
// cancelled, and C is then admitted at the head of the queue.
TEST_F(ServerTest, CancelledQueuedJobFreesItsQueueSlot) {
  ServerConfig config = BaseConfig();
  config.scheduler_threads = 1;
  config.max_queued_jobs = 1;
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobParams slow = BaseParams();
  slow.map_failure_rate = 0.3;  // seeded retries keep A running
  auto a = (*client)->Submit(Submission(slow));
  ASSERT_TRUE(a.ok());
  ASSERT_NE(a->state, static_cast<uint8_t>(JobState::kRejected)) << a->detail;
  JobParams b_params = BaseParams();
  b_params.k = 4;
  auto b = (*client)->Submit(Submission(b_params));
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->state, static_cast<uint8_t>(JobState::kQueued)) << b->detail;
  auto cancelled = (*client)->Cancel(b->job_id);
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->state, static_cast<uint8_t>(JobState::kCancelled));

  JobParams c_params = BaseParams();
  c_params.k = 5;
  auto c = (*client)->Submit(Submission(c_params));
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->state, static_cast<uint8_t>(JobState::kQueued)) << c->detail;
  EXPECT_EQ(c->queue_position, 0u);
  for (uint64_t job_id : {a->job_id, c->job_id}) {
    auto done = (*client)->WaitForResult(job_id, 120.0);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone))
        << done->detail;
  }
}

TEST_F(ServerTest, ClientDisconnectMidJobLeavesServerServing) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());

  uint64_t job_id = 0;
  {
    auto doomed = Connect(**srv);
    ASSERT_TRUE(doomed.ok());
    JobParams params = BaseParams();
    params.map_failure_rate = 0.3;  // keep it in flight past the disconnect
    auto submitted = (*doomed)->Submit(Submission(params));
    ASSERT_TRUE(submitted.ok());
    ASSERT_NE(submitted->state, static_cast<uint8_t>(JobState::kRejected));
    job_id = submitted->job_id;
  }  // connection closes with the job queued or running

  // The job is not tied to the connection: a fresh client sees it through
  // to completion and the server keeps serving.
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  auto done = (*client)->WaitForResult(job_id, 120.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));
}

// One driver thread serves every connection, so clients cost the server no
// thread. With 64 clients connected at once, each after one round trip, the
// process runs exactly 1 + scheduler_threads threads more than before
// Start. And sequential clients leave nothing behind: 64
// connect/poll/close cycles grow the server's virtual size by less than
// half a thread stack per connection.
TEST_F(ServerTest, ClosedConnectionsLeaveNoThreadStacks) {
  const ServerConfig config = BaseConfig();
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation; make that happen before the count.
  std::thread([] {}).join();
  const size_t threads_before = ThreadCount();
  auto srv = DdpServer::Start(config);
  ASSERT_TRUE(srv.ok());
  {
    std::vector<std::unique_ptr<DdpClient>> clients;
    for (int i = 0; i < 64; ++i) {
      auto client = Connect(**srv);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      clients.push_back(std::move(client).value());
    }
    for (const std::unique_ptr<DdpClient>& client : clients) {
      ASSERT_TRUE(client->Poll(/*job_id=*/987654).ok());
    }
    EXPECT_EQ(ThreadCount(), threads_before + 1 + config.scheduler_threads);
  }
  auto cycle = [&] {
    auto client = Connect(**srv);
    ASSERT_TRUE(client.ok());
    auto polled = (*client)->Poll(/*job_id=*/987654);
    ASSERT_TRUE(polled.ok());
  };
  // Warm up: the first handlers may set up allocator arenas, which later
  // ones reuse.
  for (int i = 0; i < 8; ++i) cycle();
  const uint64_t before = VmSizeBytes();
  ASSERT_GT(before, 0u);
  constexpr uint64_t kCycles = 64;
  for (uint64_t i = 0; i < kCycles; ++i) cycle();
  const uint64_t after = VmSizeBytes();
  RecordProperty("vmsize_growth_bytes",
                 std::to_string(static_cast<int64_t>(after - before)));
  EXPECT_LT(after, before + kCycles / 2 * DefaultThreadStackBytes())
      << "grew by " << (after - before) << " bytes";
}

// No client can stall the server. One that floods result requests for a
// finished job and never reads the replies is closed once its unsent bytes
// pass the cap; meanwhile a second client's polls each complete within
// 100 ms, and the drain afterwards returns within 5 s.
TEST_F(ServerTest, ClientThatNeverReadsIsClosedAndStallsNoOne) {
  using Clock = std::chrono::steady_clock;
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  auto submitted = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(submitted.ok());
  const uint64_t job_id = submitted->job_id;
  auto done = (*client)->WaitForResult(job_id, 60.0);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));
  auto flooder = mr::TcpChannel::Connect("127.0.0.1", (*srv)->port(),
                                         ExponentialBackoff::Params{},
                                         /*seed=*/1, /*deadline_seconds=*/10.0);
  ASSERT_TRUE(flooder.ok());

  // Requests until the server closes the connection: each asks for a few
  // hundred reply bytes, so the cap and the socket buffers fill after some
  // ten thousand.
  const auto give_up = Clock::now() + std::chrono::seconds(30);
  std::atomic<bool> flooding{true};
  Status flood_end;
  std::thread flood([&] {
    JobPollMsg poll;
    poll.job_id = job_id;
    const mr::Frame request{mr::MessageType::kJobResult, poll.Encode()};
    while (flood_end.ok() && Clock::now() < give_up) {
      flood_end = (*flooder)->Send(request);
    }
    flooding.store(false, std::memory_order_release);
  });
  double worst_ms = 0.0;
  size_t polls = 0;
  while (flooding.load(std::memory_order_acquire) && Clock::now() < give_up) {
    const auto start = Clock::now();
    auto polled = (*client)->Poll(job_id);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!polled.ok()) {
      ADD_FAILURE() << polled.status().ToString();
      break;
    }
    worst_ms = std::max(worst_ms, ms);
    ++polls;
  }
  EXPECT_FALSE(flooding.load(std::memory_order_acquire))
      << "the flooding client is still connected after 30 s";
  EXPECT_GT(polls, 0u);
  EXPECT_LT(worst_ms, 100.0);
  RecordProperty("worst_poll_ms", std::to_string(worst_ms));

  const auto drain_start = Clock::now();
  (*srv)->RequestShutdown();
  (*srv)->WaitShutdown();
  EXPECT_LT(Clock::now() - drain_start, std::chrono::seconds(5));
  flood.join();
  EXPECT_FALSE(flood_end.ok()) << "the server never closed the flooder";
}

// A refusing disk fails a served job with the errno's text, caches nothing,
// and leaves the server serving. A soft RLIMIT_FSIZE below one map attempt's
// spill file (with SIGXFSZ ignored, so a write past it fails with EFBIG) is
// held around a job with a 4 KiB budget over 400 74-d points, as
// SpillWriteFaultTest runs: the job ends kFailed while a second client's
// polls are answered. Once the limit is restored, the same key is no
// result-cache hit and runs to kDone.
TEST_F(ServerTest, RefusingDiskFailsTheJobAndCachesNothing) {
  auto kdd = gen::KddLike(/*seed=*/5, 400);
  ASSERT_TRUE(kdd.ok());
  const std::string kdd_path = dir_ + "/kdd.csv";
  ASSERT_TRUE(WriteCsvFile(kdd_path, *kdd).ok());
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  auto watcher = Connect(**srv);
  ASSERT_TRUE(watcher.ok());
  JobSubmitMsg msg = Submission(BaseParams());
  msg.dataset_path = kdd_path;
  msg.params.memory_budget_bytes = 4096;

  JobStatusMsg failed;
  size_t answered = 0;
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_NE(saved_handler, SIG_ERR);
  {
    SoftLimit lowered(RLIMIT_FSIZE, 3 * 4096);
    EXPECT_TRUE(lowered.ok());
    auto submitted = (*client)->Submit(msg);
    if (lowered.ok() && submitted.ok()) {
      failed = *submitted;
      while (failed.state == static_cast<uint8_t>(JobState::kQueued) ||
             failed.state == static_cast<uint8_t>(JobState::kRunning)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        auto polled = (*watcher)->Poll(submitted->job_id);
        if (!polled.ok()) break;
        ++answered;
        failed = *polled;
      }
    }
  }
  std::signal(SIGXFSZ, saved_handler);
  EXPECT_EQ(failed.state, static_cast<uint8_t>(JobState::kFailed))
      << failed.detail;
  EXPECT_NE(failed.detail.find(std::strerror(EFBIG)), std::string::npos)
      << failed.detail;
  EXPECT_GT(answered, 0u);

  auto again = (*client)->Submit(msg);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->from_result_cache, 0);
  auto done = (*client)->WaitForResult(again->job_id, 120.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone)) << done->detail;
}

// The server keeps the records of its 1,024 most recent finished jobs
// (ServerMachine::kFinishedJobsKept). A rejected submission is a finished job
// too, so after 1,025 of them the first id reads as unknown, as a
// never-issued one does, and the last still reads rejected.
TEST_F(ServerTest, FinishedJobRecordsAreBounded) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  JobParams params = BaseParams();
  params.algo = "none";  // rejected before the dataset is read
  constexpr size_t kKept = 1024;
  uint64_t first = 0;
  uint64_t last = 0;
  for (size_t i = 0; i <= kKept; ++i) {
    auto submitted = (*client)->Submit(Submission(params));
    ASSERT_TRUE(submitted.ok());
    ASSERT_EQ(submitted->state, static_cast<uint8_t>(JobState::kRejected));
    if (i == 0) first = submitted->job_id;
    last = submitted->job_id;
  }
  auto forgotten = (*client)->Poll(first);
  ASSERT_TRUE(forgotten.ok());
  EXPECT_EQ(forgotten->detail, "unknown job id");
  auto forgotten_result = (*client)->FetchResult(first);
  ASSERT_TRUE(forgotten_result.ok());
  EXPECT_EQ(forgotten_result->error, "unknown job id");
  auto kept = (*client)->Poll(last);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->state, static_cast<uint8_t>(JobState::kRejected));
}

// ----------------------------------------------------------------- drain

TEST_F(ServerTest, GracefulShutdownDrainsSubmittedJobs) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());

  auto submitted = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_NE(submitted->state, static_cast<uint8_t>(JobState::kRejected));

  // Drain over the wire (the admin path ddp_client shutdown uses).
  auto ack = (*client)->RequestServerShutdown();
  ASSERT_TRUE(ack.ok());
  EXPECT_TRUE((*srv)->draining());

  // New submissions bounce during the drain.
  JobParams late = BaseParams();
  late.k = 3;
  auto refused = (*client)->Submit(Submission(late));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->state, static_cast<uint8_t>(JobState::kRejected));
  EXPECT_NE(refused->detail.find("draining"), std::string::npos);

  // The in-flight job still completes; clients can poll through the drain.
  auto done = (*client)->WaitForResult(submitted->job_id, 120.0);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, static_cast<uint8_t>(JobState::kDone));

  (*srv)->WaitShutdown();  // drained: returns without cancelling anything
}

TEST_F(ServerTest, DestructorDrainsWithoutExplicitShutdown) {
  auto srv = DdpServer::Start(BaseConfig());
  ASSERT_TRUE(srv.ok());
  auto client = Connect(**srv);
  ASSERT_TRUE(client.ok());
  auto submitted = (*client)->Submit(Submission(BaseParams()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_NE(submitted->state, static_cast<uint8_t>(JobState::kRejected));
  srv->reset();  // destructor: request drain, wait, join — must not hang
}

// --------------------------------------------------------------- caches

TEST(DatasetCacheTest, EvictsLeastRecentlyUsedButKeepsOne) {
  const std::string dir =
      (fs::temp_directory_path() / "ddp_dataset_cache_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  auto a = gen::S2Like(1, 150);
  auto b = gen::S2Like(2, 150);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(WriteCsvFile(dir + "/a.csv", *a).ok());
  ASSERT_TRUE(WriteCsvFile(dir + "/b.csv", *b).ok());

  DatasetCache cache(/*max_bytes=*/1);  // everything oversized: LRU of one
  auto first = cache.Acquire(dir + "/a.csv", "digest-a");
  ASSERT_TRUE(first.ok());
  EXPECT_GT(cache.resident_bytes(), 0u);
  auto second = cache.Acquire(dir + "/b.csv", "digest-b");
  ASSERT_TRUE(second.ok());
  // a evicted, b resident; the handed-out shared_ptr keeps a alive.
  EXPECT_EQ((*first)->size(), 150u);
  auto again = cache.Acquire(dir + "/b.csv", "digest-b");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), second->get());  // same resident entry
  fs::remove_all(dir);
}

TEST(ResultCacheTest, LruBoundAndDisabledModes) {
  ResultCache cache(/*max_entries=*/2);
  std::string out;
  EXPECT_FALSE(cache.Get("k1", &out));
  cache.Put("k1", "v1");
  cache.Put("k2", "v2");
  ASSERT_TRUE(cache.Get("k1", &out));  // refreshes k1
  EXPECT_EQ(out, "v1");
  cache.Put("k3", "v3");  // evicts k2, the least recently used
  EXPECT_FALSE(cache.Get("k2", &out));
  EXPECT_TRUE(cache.Get("k1", &out));
  EXPECT_TRUE(cache.Get("k3", &out));
  EXPECT_EQ(cache.size(), 2u);

  ResultCache disabled(/*max_entries=*/0);
  disabled.Put("k", "v");
  EXPECT_EQ(disabled.size(), 0u);
  EXPECT_FALSE(disabled.Get("k", &out));
}

}  // namespace
}  // namespace server
}  // namespace ddp
