// Multi-process execution suite: the framed channel wire format (socketpair
// and TCP, including corrupt and truncated frames written raw to the peer's
// descriptor and the bound on a peer's declared frame length), the shared
// seeded backoff, the supervisor wire payloads (task/result and the
// streamed-shuffle run frames), the worker loop's credit window, the run
// trailer integrity gate, nameless spill files that die with their last
// descriptor, the errors a job gets when the substrate it asks for cannot
// run, and — the contract everything else serves — bit-identity of
// --exec-mode=fork with the in-process executor, including under chaos
// schedules that SIGKILL workers mid-map and mid-shuffle, hang workers past
// the task deadline, and poison tasks until they are quarantined. Mid-run
// connection drops and redials belong to remote workers
// (remote_worker_test.cc).
//
// Fork-mode tests skip themselves where forked workers are unsupported
// (ForkExecutionSupported() == false: a TSan build), and one test runs only
// there; the protocol and backoff tests run everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <signal.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/backoff.h"
#include "common/serde.h"
#include "mapreduce/channel.h"
#include "mapreduce/counters.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/remote_worker.h"
#include "mapreduce/spill.h"
#include "mapreduce/supervisor.h"
#include "obs/proc_stats.h"
#include "open_fds.h"

namespace ddp {
namespace mr {
namespace {

// ---------------------------------------------------------------- channel

// A connected socketpair, as PipeChannel::CreatePair makes one.
std::pair<std::unique_ptr<PipeChannel>, std::unique_ptr<PipeChannel>>
SocketPair() {
  auto pair = PipeChannel::CreatePair();
  EXPECT_TRUE(pair.ok()) << pair.status().ToString();
  return std::move(*pair);
}

TEST(ChannelTest, PipeRoundTripsEveryMessageType) {
  auto [a, b] = SocketPair();
  const std::string big(100 * 1024, '\x5a');
  const Frame frames[] = {
      {MessageType::kHello, ""},
      {MessageType::kTaskAssign, std::string("\x00\x01\xff binary", 9)},
      {MessageType::kResult, big},
      {MessageType::kHeartbeat, "beat"},
      {MessageType::kShutdown, ""},
  };
  for (const Frame& f : frames) {
    ASSERT_TRUE(a->Send(f).ok());
    Frame got;
    ASSERT_TRUE(b->Recv(&got, 1.0).ok());
    EXPECT_EQ(got.type, f.type);
    EXPECT_EQ(got.payload, f.payload);
  }
}

TEST(ChannelTest, RecvTimesOutAndCloseYieldsIoError) {
  auto [a, b] = SocketPair();
  Frame got;
  EXPECT_TRUE(b->Recv(&got, 0.05).IsDeadlineExceeded());
  a->Close();
  EXPECT_TRUE(b->Recv(&got, 0.05).IsIoError());
}

// Raw bytes written to the peer's descriptor, as a broken peer would send
// them.
TEST(ChannelTest, CorruptedFrameIsIoError) {
  Frame f{MessageType::kResult, "payload bytes that the crc protects"};
  const std::string wire = EncodeFrame(f);
  auto [a, b] = SocketPair();

  // Flip one payload byte: the CRC32 trailer no longer matches. An intact
  // frame after it still decodes (corruption costs the one frame, not the
  // channel's framing).
  std::string flipped = wire;
  flipped[wire.size() / 2] ^= 0x01;
  const std::string both = flipped + wire;
  ASSERT_EQ(::write(a->fd(), both.data(), both.size()),
            static_cast<ssize_t>(both.size()));
  Frame got;
  EXPECT_TRUE(b->Recv(&got, 1.0).IsIoError());
  ASSERT_TRUE(b->Recv(&got, 1.0).ok());
  EXPECT_EQ(got.payload, f.payload);

  // Truncated frame: the payload ends before the declared length, and then
  // the peer is gone.
  const std::string cut = wire.substr(0, wire.size() - 6);
  ASSERT_EQ(::write(a->fd(), cut.data(), cut.size()),
            static_cast<ssize_t>(cut.size()));
  a->Close();
  EXPECT_TRUE(b->Recv(&got, 1.0).IsIoError());
}

TEST(ChannelTest, PipeChannelRoundTripsBothDirections) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);

  ASSERT_TRUE(parent->Send({MessageType::kTaskAssign, "down"}).ok());
  Frame got;
  ASSERT_TRUE(child->Recv(&got, 2.0).ok());
  EXPECT_EQ(got.type, MessageType::kTaskAssign);
  EXPECT_EQ(got.payload, "down");

  ASSERT_TRUE(child->Send({MessageType::kResult, "up"}).ok());
  ASSERT_TRUE(parent->Recv(&got, 2.0).ok());
  EXPECT_EQ(got.type, MessageType::kResult);
  EXPECT_EQ(got.payload, "up");

  // Peer close reads as IoError (EOF), the supervisor's crash signal.
  child->Close();
  EXPECT_TRUE(parent->Recv(&got, 2.0).IsIoError());
}

// Writes a frame header declaring `len` payload bytes straight onto the
// descriptor, as a broken or hostile peer would.
void WriteRawHeader(int fd, uint64_t len) {
  std::string header;
  BufferWriter w(&header);
  w.PutByte(static_cast<uint8_t>(MessageType::kTaskAssign));
  w.PutVarint64(len);
  ASSERT_EQ(::write(fd, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
}

TEST(ChannelTest, RecvRejectsDeclaredLengthAboveTheCap) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);
  WriteRawHeader(child->fd(), uint64_t{1} << 40);
  Frame got;
  EXPECT_TRUE(parent->Recv(&got, 2.0).IsIoError());
}

// Writes all of `bytes` to `fd`.
void WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0) << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
}

// One frame written in two parts, cut at every byte boundary. The second
// part is written only once the receiver has drained the first, so every
// Recv reassembles its frame across reads. Payloads of 0, 1 and 200 bytes
// cover one- and two-byte length varints.
TEST(ChannelTest, RecvReassemblesAFrameSplitAtEveryByte) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);
  for (size_t payload_bytes : {size_t{0}, size_t{1}, size_t{200}}) {
    std::string payload;
    for (size_t i = 0; i < payload_bytes; ++i) {
      payload.push_back(static_cast<char>(i * 7 + 3));
    }
    const Frame sent{MessageType::kRunData, payload};
    const std::string wire = EncodeFrame(sent);
    for (size_t cut = 1; cut < wire.size(); ++cut) {
      std::thread writer([&] {
        WriteAll(child->fd(), wire.substr(0, cut));
        int queued = 1;
        while (::ioctl(parent->fd(), FIONREAD, &queued) == 0 && queued > 0) {
          std::this_thread::yield();
        }
        WriteAll(child->fd(), wire.substr(cut));
      });
      Frame got;
      const Status st = parent->Recv(&got, 5.0);
      writer.join();
      ASSERT_TRUE(st.ok()) << "cut " << cut << ": " << st.ToString();
      EXPECT_EQ(got.type, sent.type);
      EXPECT_EQ(got.payload, sent.payload) << "cut " << cut;
      EXPECT_FALSE(parent->HasBufferedFrame());
    }
  }
}

// Many frames in one write: the first Recv reads them all into the
// channel's buffer, and every later one is cut out of it without reading
// the descriptor, which HasBufferedFrame reports. Then a frame larger than
// the buffer, between small ones, comes through whole.
TEST(ChannelTest, RecvCutsManyFramesOutOfOneWrite) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);
  std::vector<Frame> frames;
  std::string burst;
  for (size_t i = 0; i < 200; ++i) {
    Frame f{i % 3 == 0 ? MessageType::kHeartbeat : MessageType::kRunData,
            std::string((i * 37) % 251, static_cast<char>('a' + i % 26))};
    burst += EncodeFrame(f);
    frames.push_back(std::move(f));
  }
  ASSERT_LT(burst.size(), FdChannel::kRecvBufferBytes);
  ASSERT_EQ(::write(child->fd(), burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  for (size_t i = 0; i < frames.size(); ++i) {
    Frame got;
    ASSERT_TRUE(parent->Recv(&got, 2.0).ok()) << "frame " << i;
    EXPECT_EQ(got.type, frames[i].type) << "frame " << i;
    EXPECT_EQ(got.payload, frames[i].payload) << "frame " << i;
    EXPECT_EQ(parent->HasBufferedFrame(), i + 1 < frames.size())
        << "frame " << i;
  }

  const Frame small{MessageType::kRunEnd, "small"};
  const Frame large{MessageType::kRunData,
                    std::string(FdChannel::kRecvBufferBytes * 3 + 5, 'L')};
  const std::string mixed = EncodeFrame(small) + EncodeFrame(large) +
                            EncodeFrame(small) + EncodeFrame(small);
  std::thread writer([&] { WriteAll(child->fd(), mixed); });
  for (const Frame* want : {&small, &large, &small, &small}) {
    Frame got;
    ASSERT_TRUE(parent->Recv(&got, 5.0).ok());
    EXPECT_EQ(got.type, want->type);
    EXPECT_EQ(got.payload, want->payload);
  }
  writer.join();
  EXPECT_FALSE(parent->HasBufferedFrame());
}

TEST(ChannelTest, RecvAllocatesOnlyAsPayloadBytesArrive) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);
  // 512 MiB declared, 10 bytes sent, then the peer goes away.
  WriteRawHeader(child->fd(), uint64_t{512} << 20);
  ASSERT_EQ(::write(child->fd(), "0123456789", 10), 10);
  child->Close();
  // Reset the peak-RSS mark where the kernel allows it, so the growth below
  // is this Recv's alone.
  std::ofstream("/proc/self/clear_refs") << "5";
  const uint64_t peak_before = obs::PeakRssBytes();
  Frame got;
  EXPECT_TRUE(parent->Recv(&got, 2.0).IsIoError());
  EXPECT_LT(obs::PeakRssBytes() - peak_before, uint64_t{64} << 20);
}

TEST(ChannelTest, TcpConnectAcceptRoundTripAndReconnect) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  TcpListener& lst = **listener;
  ASSERT_NE(lst.port(), 0);  // ephemeral port was resolved
  const ExponentialBackoff::Params bo{0.001, 2.0, 0.05, 0.0};

  auto client = TcpChannel::Connect("127.0.0.1", lst.port(), bo, 7, 5.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = lst.Accept(5.0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  ASSERT_TRUE((*client)->Send({MessageType::kHello, "hi"}).ok());
  Frame got;
  ASSERT_TRUE((*server)->Recv(&got, 5.0).ok());
  EXPECT_EQ(got.type, MessageType::kHello);
  EXPECT_EQ(got.payload, "hi");
  ASSERT_TRUE((*server)->Send({MessageType::kTaskAssign, "t"}).ok());
  ASSERT_TRUE((*client)->Recv(&got, 5.0).ok());
  EXPECT_EQ(got.payload, "t");

  // Drop: the client goes away, the server end reads IoError, and a fresh
  // connection to the same listener restores the framed protocol — the
  // lifecycle a remote worker whose link failed exercises when it dials
  // again.
  (*client)->Close();
  EXPECT_TRUE((*server)->Recv(&got, 5.0).IsIoError());
  auto again = TcpChannel::Connect("127.0.0.1", lst.port(), bo, 8, 5.0);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto server2 = lst.Accept(5.0);
  ASSERT_TRUE(server2.ok()) << server2.status().ToString();
  ASSERT_TRUE((*again)->Send({MessageType::kHello, "back"}).ok());
  ASSERT_TRUE((*server2)->Recv(&got, 5.0).ok());
  EXPECT_EQ(got.payload, "back");
}

TEST(ChannelTest, TcpConnectGivesUpAtTheDeadline) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const uint16_t dead_port = (*listener)->port();
  (*listener)->Close();  // nothing listens here any more
  const ExponentialBackoff::Params bo{0.001, 2.0, 0.01, 0.0};
  auto c = TcpChannel::Connect("127.0.0.1", dead_port, bo, 3, 0.2);
  EXPECT_FALSE(c.ok());
}

void IgnoreSignal(int) {}

// FdChannel::Send writes header, payload and trailer with sendmsg and no
// wire buffer. For each payload size, the bytes a raw reader takes off the
// peer's descriptor must be exactly EncodeFrame's. A blocking socket takes
// even the 3 MiB payload in one sendmsg, so the sender's buffer is shrunk
// to 64 KiB and the reader interrupts the sender with a signal every
// 256 KiB (no SA_RESTART): the interrupted calls return partial counts, and
// Send must resume mid-iovec.
void ExpectSendWritesEncodedFrame(FdChannel* sender, FdChannel* receiver) {
  const int sndbuf = 64 << 10;
  ASSERT_EQ(setsockopt(sender->fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                       sizeof(sndbuf)),
            0);
  struct sigaction on_signal {};
  on_signal.sa_handler = IgnoreSignal;
  sigemptyset(&on_signal.sa_mask);
  struct sigaction saved {};
  ASSERT_EQ(sigaction(SIGUSR1, &on_signal, &saved), 0);
  const pthread_t sending_thread = pthread_self();
  for (const size_t size : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                            size_t{16383}, size_t{16384},
                            (size_t{3} << 20) + 5}) {
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>(i * 131 + size);
    }
    const Frame frame{MessageType::kRunData, std::move(payload)};
    const std::string want = EncodeFrame(frame);
    std::string got(want.size(), '\0');
    std::thread reader([&] {
      size_t off = 0;
      size_t next_signal = 0;
      while (off < got.size()) {
        if (off >= next_signal) {
          pthread_kill(sending_thread, SIGUSR1);
          next_signal += size_t{256} << 10;
        }
        const ssize_t n = ::read(receiver->fd(), got.data() + off,
                                 std::min(got.size() - off, size_t{64} << 10));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
      got.resize(off);
    });
    const Status sent = sender->Send(frame);
    reader.join();
    EXPECT_TRUE(sent.ok()) << sent.ToString();
    EXPECT_EQ(got.size(), want.size()) << "payload " << size;
    EXPECT_TRUE(got == want) << "payload " << size;
  }
  ASSERT_EQ(sigaction(SIGUSR1, &saved, nullptr), 0);
  // The stream is still framed: the next frame decodes on the peer.
  ASSERT_TRUE(sender->Send({MessageType::kRunEnd, "next"}).ok());
  Frame next;
  ASSERT_TRUE(receiver->Recv(&next, 5.0).ok());
  EXPECT_EQ(next.type, MessageType::kRunEnd);
  EXPECT_EQ(next.payload, "next");
}

TEST(ChannelTest, PipeSendWritesEncodeFrameBytes) {
  auto pair = PipeChannel::CreatePair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  auto [parent, child] = std::move(*pair);
  ExpectSendWritesEncodedFrame(parent.get(), child.get());
}

TEST(ChannelTest, TcpSendWritesEncodeFrameBytes) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const ExponentialBackoff::Params bo{0.001, 2.0, 0.05, 0.0};
  auto client =
      TcpChannel::Connect("127.0.0.1", (*listener)->port(), bo, 5, 5.0);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto server = (*listener)->Accept(5.0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ExpectSendWritesEncodedFrame(client->get(), server->get());
}

// ---------------------------------------------------------------- backoff

TEST(BackoffTest, ScheduleIsDeterministicPerSeed) {
  ExponentialBackoff::Params p{0.01, 2.0, 0.5, 0.25};
  ExponentialBackoff a(p, 42), b(p, 42), c(p, 43);
  bool seed_changes_something = false;
  for (uint64_t attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(a.DelaySeconds(attempt), b.DelaySeconds(attempt));
    if (a.DelaySeconds(attempt) != c.DelaySeconds(attempt)) {
      seed_changes_something = true;
    }
  }
  EXPECT_TRUE(seed_changes_something);
}

TEST(BackoffTest, DelaysGrowAndRespectCapAndJitterWindow) {
  ExponentialBackoff::Params p{0.01, 2.0, 0.5, 0.25};
  ExponentialBackoff bo(p, 7);
  for (uint64_t attempt = 0; attempt < 16; ++attempt) {
    double ideal = p.base_seconds;
    for (uint64_t i = 0; i < attempt; ++i) ideal *= p.multiplier;
    if (ideal > p.max_seconds) ideal = p.max_seconds;
    double d = bo.DelaySeconds(attempt);
    EXPECT_GE(d, ideal * (1.0 - p.jitter)) << "attempt " << attempt;
    EXPECT_LE(d, ideal) << "attempt " << attempt;
  }
}

TEST(BackoffTest, ZeroJitterIsExactExponential) {
  ExponentialBackoff::Params p{0.02, 3.0, 1.0, 0.0};
  ExponentialBackoff bo(p, 1);
  EXPECT_DOUBLE_EQ(bo.DelaySeconds(0), 0.02);
  EXPECT_DOUBLE_EQ(bo.DelaySeconds(1), 0.06);
  EXPECT_DOUBLE_EQ(bo.DelaySeconds(2), 0.18);
  EXPECT_DOUBLE_EQ(bo.DelaySeconds(10), 1.0);  // capped
}

// ------------------------------------------------------- wire payloads

// One task frame for both kinds of worker: a forked worker's carries no
// input, a remote worker's carries the task's serialized input.
TEST(SupervisorCodecTest, TaskAssignMsgRoundTrip) {
  for (const std::string& input :
       {std::string(), std::string("\x00serialized input\xff", 19)}) {
    TaskAssignMsg in;
    in.task = 123456789;
    in.attempt = 7;
    in.quarantined = true;
    in.window_bytes = uint64_t{64} << 10;
    in.input = input;
    TaskAssignMsg out;
    ASSERT_TRUE(TaskAssignMsg::Decode(in.Encode(), &out).ok());
    EXPECT_EQ(out.task, in.task);
    EXPECT_EQ(out.attempt, in.attempt);
    EXPECT_EQ(out.quarantined, in.quarantined);
    EXPECT_EQ(out.window_bytes, in.window_bytes);
    EXPECT_EQ(out.input, in.input);
    EXPECT_FALSE(TaskAssignMsg::Decode(in.Encode() + "x", &out).ok());
  }
}

TEST(SupervisorCodecTest, ResultMsgRoundTrip) {
  ResultMsg in;
  in.task = 42;
  in.attempt = 3;
  in.status_code = static_cast<int32_t>(StatusCode::kIoError);
  in.status_message = "simulated";
  in.seconds = 0.125;
  in.payload = std::string("\x00\xff\x7f", 3);
  ResultMsg out;
  ASSERT_TRUE(ResultMsg::Decode(in.Encode(), &out).ok());
  EXPECT_EQ(out.task, in.task);
  EXPECT_EQ(out.attempt, in.attempt);
  EXPECT_EQ(out.status_code, in.status_code);
  EXPECT_EQ(out.status_message, in.status_message);
  EXPECT_EQ(out.seconds, in.seconds);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(SupervisorCodecTest, StreamedShuffleMsgsRoundTrip) {
  HelloMsg h;
  h.worker_id = 5;
  HelloMsg h2;
  ASSERT_TRUE(HelloMsg::Decode(h.Encode(), &h2).ok());
  EXPECT_EQ(h2.worker_id, h.worker_id);

  RunBeginMsg b;
  b.task = 9;
  b.attempt = 2;
  b.seq = 4;
  b.partition = 3;
  b.spill_index = kTailRunIndex;  // the sentinel must survive the varint
  b.length = 123456789;
  RunBeginMsg b2;
  ASSERT_TRUE(RunBeginMsg::Decode(b.Encode(), &b2).ok());
  EXPECT_EQ(b2.task, b.task);
  EXPECT_EQ(b2.attempt, b.attempt);
  EXPECT_EQ(b2.seq, b.seq);
  EXPECT_EQ(b2.partition, b.partition);
  EXPECT_EQ(b2.spill_index, b.spill_index);
  EXPECT_EQ(b2.length, b.length);

  RunEndMsg e;
  e.task = 9;
  e.attempt = 2;
  e.seq = 4;
  RunEndMsg e2;
  ASSERT_TRUE(RunEndMsg::Decode(e.Encode(), &e2).ok());
  EXPECT_EQ(e2.task, e.task);
  EXPECT_EQ(e2.attempt, e.attempt);
  EXPECT_EQ(e2.seq, e.seq);

  RunAckMsg a;
  a.task = ~uint64_t{0};  // the largest task id survives the varint
  a.attempt = 1;
  a.acked_runs = 7;
  a.acked_bytes = uint64_t{1} << 33;
  RunAckMsg a2;
  ASSERT_TRUE(RunAckMsg::Decode(a.Encode(), &a2).ok());
  EXPECT_EQ(a2.task, a.task);
  EXPECT_EQ(a2.attempt, a.attempt);
  EXPECT_EQ(a2.acked_runs, a.acked_runs);
  EXPECT_EQ(a2.acked_bytes, a.acked_bytes);
}

TEST(SupervisorCodecTest, DecodeRejectsGarbage) {
  TaskAssignMsg t;
  EXPECT_FALSE(TaskAssignMsg::Decode("\xff", &t).ok());
  ResultMsg r;
  EXPECT_FALSE(ResultMsg::Decode("", &r).ok());
  HelloMsg h;
  EXPECT_FALSE(HelloMsg::Decode("\xff", &h).ok());
  RunBeginMsg b;
  EXPECT_FALSE(RunBeginMsg::Decode("", &b).ok());
  RunEndMsg e;
  EXPECT_FALSE(RunEndMsg::Decode("\x01", &e).ok());
  RunAckMsg a;
  EXPECT_FALSE(RunAckMsg::Decode("\x01", &a).ok());
}

// ------------------------------------------------------- run trailer gate

TEST(RunTrailerTest, AppendVerifyStripRoundTripAndCorruption) {
  const std::string original = "frame bytes standing in for sorted records";
  std::string segment = original;
  segment += RunTrailer(segment);
  ASSERT_EQ(segment.size(), original.size() + 4);

  // The happy path: a shipped run verifies and strips back to its frames.
  std::string shipped = segment;
  ASSERT_TRUE(VerifyAndStripRunTrailer(&shipped).ok());
  EXPECT_EQ(shipped, original);

  // One flipped payload bit is caught by the trailer.
  std::string flipped = segment;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_TRUE(VerifyAndStripRunTrailer(&flipped).IsIoError());

  // A truncated segment no longer matches its (shifted) trailer.
  std::string truncated = segment.substr(0, segment.size() - 1);
  EXPECT_TRUE(VerifyAndStripRunTrailer(&truncated).IsIoError());

  // Shorter than the trailer itself: rejected outright.
  std::string tiny = "abc";
  EXPECT_TRUE(VerifyAndStripRunTrailer(&tiny).IsIoError());
}

// --------------------------------------------------- supervisor end-to-end

// Runs a phase on `workers` forked workers.
Options ForkOptions(size_t workers) {
  Options o;
  o.exec_mode = ExecMode::kFork;
  o.num_workers = workers;
  return o;
}

// A map phase of `num_tasks` tasks.
SupervisedPhase MapPhase(const std::string& job_name, size_t num_tasks) {
  SupervisedPhase phase;
  phase.job_name = job_name;
  phase.num_tasks = num_tasks;
  return phase;
}

TEST(SupervisorTest, RunsEveryTaskAndCommitsByTaskId) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  const SupervisedPhase phase = MapPhase("unit", 17);
  WorkerTaskFn fn = [](uint64_t task, uint64_t, bool, const std::string&,
                       TaskResult* result) {
    result->payload = "task-" + std::to_string(task);
    return Status::OK();
  };
  std::vector<std::string> committed(phase.num_tasks);
  CommitFn commit = [&committed](size_t task, bool, double, std::string payload,
                                 std::vector<SpillRun>) {
    committed[task] = std::move(payload);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(ForkOptions(3), phase, fn, commit, &counters)
          .ok());
  for (size_t t = 0; t < committed.size(); ++t) {
    EXPECT_EQ(committed[t], "task-" + std::to_string(t));
  }
  EXPECT_EQ(counters.worker_crashes, 0u);
}

TEST(SupervisorTest, FirstAttemptCrashIsRetriedOnAFreshWorker) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  const SupervisedPhase phase = MapPhase("crash-once", 6);
  // Task 2's first attempt SIGKILLs its worker; every retry succeeds. This
  // runs in the child, so the "state" is per-attempt by construction.
  WorkerTaskFn fn = [](uint64_t task, uint64_t attempt, bool,
                       const std::string&, TaskResult* result) {
    if (task == 2 && attempt == 0) CrashSelf();
    result->payload = std::to_string(task);
    return Status::OK();
  };
  size_t committed = 0;
  CommitFn commit = [&committed](size_t, bool, double, std::string,
                                 std::vector<SpillRun>) {
    ++committed;
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(ForkOptions(2), phase, fn, commit, &counters)
          .ok());
  EXPECT_EQ(committed, phase.num_tasks);
  EXPECT_EQ(counters.worker_crashes, 1u);
  EXPECT_GE(counters.worker_restarts, 1u);
  EXPECT_GE(counters.map_task_retries, 1u);
}

// Streams two runs per attempt through the supervisor and checks they come
// back committed in stream order, trailers verified and stripped, bytes
// intact.
TEST(SupervisorTest, StreamsTailRunsOverPipe) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  const SupervisedPhase phase = MapPhase("stream", 9);
  Options options = ForkOptions(2);
  // The smallest credit window, 4 KiB. A worker opens a run only while its
  // unacked bytes are within the window, and each attempt's first run is
  // larger, so its second run waits for the supervisor's ack.
  options.memory_budget_bytes = 4096;
  const size_t run_bytes = 5000;
  WorkerTaskFn fn = [run_bytes](uint64_t task, uint64_t, bool,
                                const std::string&, TaskResult* result) {
    result->payload = "p" + std::to_string(task);
    SpillRun a;
    a.partition = 0;
    a.spill_index = 0;
    a.bytes = std::string(run_bytes, 'a') + std::to_string(task);
    result->runs.push_back(std::move(a));
    SpillRun b;
    b.partition = 1;
    b.spill_index = kTailRunIndex;
    b.bytes = std::string(run_bytes, 'x') + std::to_string(task);
    result->runs.push_back(std::move(b));
    return Status::OK();
  };
  std::vector<std::vector<SpillRun>> got(phase.num_tasks);
  std::vector<std::string> payloads(phase.num_tasks);
  CommitFn commit = [&](size_t task, bool, double, std::string payload,
                        std::vector<SpillRun> runs) {
    payloads[task] = std::move(payload);
    got[task] = std::move(runs);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(options, phase, fn, commit, &counters).ok());
  // One shuffle file per task, each open once.
  const std::vector<int> shuffle_fds =
      DescriptorsInto(internal::JobSpillDir(options));
  EXPECT_EQ(shuffle_fds.size(), phase.num_tasks);
  for (size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(payloads[t], "p" + std::to_string(t));
    ASSERT_EQ(got[t].size(), 2u) << "task " << t;
    // Run a (a real spill index) is disk-backed on arrival: the supervisor
    // appended it to its task's shuffle file and wrote a fresh trailer.
    // The files have no names, so the bytes are read back through this
    // process's descriptors into the spill dir, and exactly one of them
    // holds the task's run at its extent.
    EXPECT_EQ(got[t][0].partition, 0u);
    EXPECT_EQ(got[t][0].spill_index, 0u);
    EXPECT_TRUE(got[t][0].bytes.empty());
    ASSERT_NE(got[t][0].file, nullptr);
    const std::string want_a = std::string(run_bytes, 'a') + std::to_string(t);
    ASSERT_EQ(got[t][0].length, want_a.size() + 4);  // + CRC trailer
    size_t holders = 0;
    for (int fd : shuffle_fds) {
      std::ifstream in(ReopenPath(fd), std::ios::binary);
      ASSERT_TRUE(in.good());
      in.seekg(static_cast<std::streamoff>(got[t][0].offset));
      std::string stored(got[t][0].length, '\0');
      in.read(stored.data(), static_cast<std::streamsize>(stored.size()));
      if (in.good() && VerifyAndStripRunTrailer(&stored).ok() &&
          stored == want_a) {
        ++holders;
      }
    }
    EXPECT_EQ(holders, 1u) << "task " << t;
    // The tail stays in memory, trailer verified and stripped.
    EXPECT_EQ(got[t][1].partition, 1u);
    EXPECT_EQ(got[t][1].spill_index, kTailRunIndex);
    EXPECT_EQ(got[t][1].file, nullptr);
    EXPECT_EQ(got[t][1].bytes,
              std::string(run_bytes, 'x') + std::to_string(t));
  }
  // Streamed accounting counts wire bytes (trailers included), so it must
  // exceed the sum of the raw run bytes.
  EXPECT_GT(counters.shuffle_streamed_bytes, phase.num_tasks * 2 * run_bytes);
}

// Credit-window edge: one run whose bytes alone exceed the credit window
// many times over, then a small one. A fresh attempt has no unacked bytes,
// so the big run ships whole without credit it could never hold, and the
// small run waits for the supervisor's ack of it — a lost ack would hang
// the phase, not fail it. Both runs must land complete and intact.
TEST(SupervisorTest, SingleRunExceedingWindowStreamsOverPipe) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  const SupervisedPhase phase = MapPhase("stream_oversized", 4);
  Options options = ForkOptions(2);
  options.memory_budget_bytes = 4096;  // the credit window
  const size_t run_bytes = 32 * 4096;  // 32x the window
  WorkerTaskFn fn = [run_bytes](uint64_t task, uint64_t, bool,
                                const std::string&, TaskResult* result) {
    SpillRun run;
    run.partition = 0;
    run.spill_index = kTailRunIndex;
    run.bytes = std::string(run_bytes, static_cast<char>('a' + task));
    result->runs.push_back(std::move(run));
    SpillRun small;
    small.partition = 1;
    small.spill_index = kTailRunIndex;
    small.bytes = "small-" + std::to_string(task);
    result->runs.push_back(std::move(small));
    result->payload = std::to_string(task);
    return Status::OK();
  };
  std::vector<std::vector<SpillRun>> got(phase.num_tasks);
  CommitFn commit = [&](size_t task, bool, double, std::string,
                        std::vector<SpillRun> runs) {
    got[task] = std::move(runs);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(options, phase, fn, commit, &counters).ok());
  for (size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].size(), 2u) << "task " << t;
    EXPECT_EQ(got[t][0].bytes,
              std::string(run_bytes, static_cast<char>('a' + t)));
    EXPECT_EQ(got[t][1].bytes, "small-" + std::to_string(t));
  }
  EXPECT_GT(counters.shuffle_streamed_bytes, phase.num_tasks * run_bytes);
}

// A job without a memory budget never spills, so its supervisor has no
// spill dir, and a disk run (a spill index other than kTailRunIndex) from
// one of its workers breaks the stream protocol. The supervisor kills the
// worker, which counts a kill and a crash, and the retry on a fresh worker
// ships the same bytes as an in-memory run and commits.
TEST(SupervisorTest, DiskRunFromAnUnbudgetedJobKillsTheWorker) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  const SupervisedPhase phase = MapPhase("unbudgeted-disk-run", 1);
  WorkerTaskFn fn = [](uint64_t, uint64_t attempt, bool, const std::string&,
                       TaskResult* result) {
    SpillRun run;
    run.spill_index = attempt == 0 ? 0 : kTailRunIndex;
    run.bytes = "run-bytes";
    result->runs.push_back(std::move(run));
    result->payload = "done";
    return Status::OK();
  };
  std::vector<SpillRun> committed;
  CommitFn commit = [&committed](size_t, bool, double, std::string,
                                 std::vector<SpillRun> runs) {
    committed = std::move(runs);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(ForkOptions(1), phase, fn, commit, &counters)
          .ok());
  EXPECT_EQ(counters.worker_kills, 1u);
  EXPECT_EQ(counters.worker_crashes, 1u);
  EXPECT_EQ(counters.map_task_retries, 1u);
  ASSERT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed[0].spill_index, kTailRunIndex);
  EXPECT_EQ(committed[0].file, nullptr);
  EXPECT_EQ(committed[0].bytes, "run-bytes");
}

// A forked worker that streams a run whose CRC trailer does not match its
// bytes breaks the stream protocol. The supervisor kills it, which counts a
// kill and a crash, and retries the attempt on a fresh worker. The first
// attempt ships its run one byte short at the front, so the trailer it ends
// with no longer covers the bytes before it. Once the committed runs are
// dropped, nothing of either attempt's spill file is left.
TEST(SupervisorTest, CorruptRunKillsTheWorkerAndRetries) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ddp_mp_corrupt_run_test";
  fs::remove_all(dir);
  const SupervisedPhase phase = MapPhase("corrupt-run", 1);
  Options options = ForkOptions(1);
  options.memory_budget_bytes = 4096;
  options.spill_dir = dir.string();
  WorkerTaskFn fn = [&dir](uint64_t, uint64_t attempt, bool,
                           const std::string&, TaskResult* result) -> Status {
    DDP_ASSIGN_OR_RETURN(auto writer,
                         SpillFileWriter::Create(dir.string(), "corrupt"));
    const std::string bytes(100, static_cast<char>('a' + attempt));
    writer->BeginRun();
    writer->Append(bytes.data(), bytes.size());
    DDP_ASSIGN_OR_RETURN(SpillExtent extent, writer->EndRun());
    DDP_RETURN_NOT_OK(writer->Close());
    const uint64_t skip = attempt == 0 ? 1 : 0;
    SpillRun run;
    run.file = writer->handle();
    run.offset = extent.offset + skip;
    run.length = extent.length - skip;
    result->runs.push_back(std::move(run));
    result->payload = "done";
    return Status::OK();
  };
  std::vector<SpillRun> committed;
  CommitFn commit = [&committed](size_t, bool, double, std::string,
                                 std::vector<SpillRun> runs) {
    committed = std::move(runs);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(options, phase, fn, commit, &counters).ok());
  EXPECT_EQ(counters.worker_kills, 1u);
  EXPECT_EQ(counters.worker_crashes, 1u);
  EXPECT_EQ(counters.map_task_retries, 1u);
  ASSERT_EQ(committed.size(), 1u);
  ASSERT_NE(committed[0].file, nullptr);
  std::string stored(committed[0].length, '\0');
  const Status read = committed[0].file->ReadAt(committed[0].offset,
                                                stored.data(), stored.size());
  ASSERT_TRUE(read.ok()) << read.ToString();
  ASSERT_TRUE(VerifyAndStripRunTrailer(&stored).ok());
  EXPECT_EQ(stored, std::string(100, 'b'));  // attempt 1's bytes
  committed.clear();
  EXPECT_TRUE(fs::is_empty(dir));
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// A map attempt's body: 200 records at a 64-byte budget spill many times
// into `dir`, all into the attempt's one spill file, and become its runs.
Status SpillRecords(const std::string& dir, TaskResult* result) {
  internal::SpillingBuffer<uint32_t, uint64_t, KeyTraits<uint32_t>> buffer(
      /*num_partitions=*/3, /*budget_bytes=*/64, dir, "records");
  for (uint32_t i = 0; i < 200; ++i) buffer.Add(i % 11, i);
  DDP_RETURN_NOT_OK(buffer.Finish());
  result->runs = std::move(buffer.runs());
  return Status::OK();
}

// A forked worker's map attempt spills many times, all into its one spill
// file, and is SIGKILLed before it ships a run. The file dies with the
// worker's descriptors; the retry on a fresh worker ships every run, and
// once the committed runs are dropped nothing of a spill file is left.
TEST(SupervisorTest, KilledWorkersSpillFileDiesWithIt) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ddp_mp_killed_spill_test";
  fs::remove_all(dir);
  const SupervisedPhase phase = MapPhase("killed-spill", 1);
  Options options = ForkOptions(1);
  options.memory_budget_bytes = 4096;
  options.spill_dir = dir.string();
  WorkerTaskFn fn = [&dir](uint64_t, uint64_t attempt, bool,
                           const std::string&, TaskResult* result) -> Status {
    DDP_RETURN_NOT_OK(SpillRecords(dir.string(), result));
    result->payload = std::to_string(result->runs.back().spill_index + 1);
    if (attempt == 0) result->crash_after_runs = 0;
    return Status::OK();
  };
  std::vector<SpillRun> committed;
  std::string spills;
  CommitFn commit = [&](size_t, bool, double, std::string payload,
                        std::vector<SpillRun> runs) {
    spills = std::move(payload);
    committed = std::move(runs);
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(options, phase, fn, commit, &counters).ok());
  EXPECT_EQ(counters.worker_crashes, 1u);
  EXPECT_EQ(counters.map_task_retries, 1u);
  EXPECT_GE(std::stoul(spills), 4u);  // spills of the attempt
  ASSERT_FALSE(committed.empty());
  EXPECT_EQ(committed.back().spill_index + 1, std::stoul(spills));
  committed.clear();
  EXPECT_TRUE(fs::is_empty(dir));
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// Spill files have no names on either side of a forked shuffle. A worker's
// map attempt spills, then looks at the spill dir while its runs sit in its
// spill file; the supervisor looks again while the committed disk runs sit
// in its shuffle file. Both find the dir empty, though the supervisor holds
// the file open.
TEST(SupervisorTest, SpillFilesHaveNoNamesOnEitherSide) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ddp_mp_nameless_test";
  fs::remove_all(dir);
  const SupervisedPhase phase = MapPhase("nameless", 2);
  Options options = ForkOptions(1);
  options.memory_budget_bytes = 4096;
  options.spill_dir = dir.string();
  WorkerTaskFn fn = [&dir](uint64_t, uint64_t, bool, const std::string&,
                           TaskResult* result) -> Status {
    DDP_RETURN_NOT_OK(SpillRecords(dir.string(), result));
    result->payload = fs::is_empty(dir) ? "empty" : "listed";
    return Status::OK();
  };
  size_t commits = 0;
  CommitFn commit = [&](size_t task, bool, double, std::string payload,
                        std::vector<SpillRun> runs) {
    ++commits;
    EXPECT_EQ(payload, "empty") << "worker side, task " << task;
    EXPECT_TRUE(!runs.empty() && runs.front().file != nullptr)
        << "no disk run, task " << task;
    EXPECT_TRUE(fs::is_empty(dir)) << "supervisor side, task " << task;
    EXPECT_FALSE(DescriptorsInto(dir.string()).empty());
    return Status::OK();
  };
  JobCounters counters;
  ASSERT_TRUE(
      WorkerSupervisor::RunPhase(options, phase, fn, commit, &counters).ok());
  EXPECT_EQ(commits, phase.num_tasks);
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// ------------------------------------------------------------ worker loop

// The next frame other than kHello or kHeartbeat, if one arrives within
// `seconds`.
bool RecvProtocolFrame(CommChannel* ch, double seconds, Frame* out) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (;;) {
    const double left =
        std::chrono::duration<double>(until - Clock::now()).count();
    if (left <= 0.0 || !ch->Recv(out, left).ok()) return false;
    if (out->type != MessageType::kHello &&
        out->type != MessageType::kHeartbeat) {
      return true;
    }
  }
}

// The supervisor sets every worker's credit window in the task frame. A
// worker opens a run only while its unacked bytes are within the window, so
// with 4096 bytes granted and three 3000-byte runs (3004 on the wire with
// their trailers) runs 0 and 1 ship unacked and run 2 waits for a kRunAck.
TEST(WorkerLoopTest, TaskFrameWindowHoldsRunsUntilAcked) {
  auto [supervisor, worker_end] = SocketPair();
  WorkerTaskFn fn = [](uint64_t, uint64_t, bool, const std::string&,
                       TaskResult* result) {
    for (uint32_t p = 0; p < 3; ++p) {
      SpillRun run;
      run.partition = p;
      run.spill_index = kTailRunIndex;
      run.bytes = std::string(3000, static_cast<char>('a' + p));
      result->runs.push_back(std::move(run));
    }
    result->payload = "done";
    return Status::OK();
  };
  WorkerMainConfig wc;
  wc.worker_id = 7;
  int exit_code = -1;
  std::thread worker(
      [&exit_code, &fn, &wc, ch = std::move(worker_end)]() mutable {
        exit_code = WorkerLoop(std::move(ch), fn, wc);
      });

  auto talk = [&supervisor] {
    TaskAssignMsg assign;  // task 0, attempt 0, no input: a forked worker's
    assign.window_bytes = 4096;
    ASSERT_TRUE(
        supervisor->Send({MessageType::kTaskAssign, assign.Encode()}).ok());
    Frame f;
    for (uint64_t run = 0; run < 2; ++run) {
      ASSERT_TRUE(RecvProtocolFrame(supervisor.get(), 5.0, &f));
      ASSERT_EQ(f.type, MessageType::kRunBegin) << "run " << run;
      RunBeginMsg begin;
      ASSERT_TRUE(RunBeginMsg::Decode(f.payload, &begin).ok());
      EXPECT_EQ(begin.seq, run);
      EXPECT_EQ(begin.length, 3004u);
      ASSERT_TRUE(RecvProtocolFrame(supervisor.get(), 5.0, &f));
      EXPECT_EQ(f.type, MessageType::kRunData);
      EXPECT_EQ(f.payload.size(), 3004u);
      ASSERT_TRUE(RecvProtocolFrame(supervisor.get(), 5.0, &f));
      EXPECT_EQ(f.type, MessageType::kRunEnd);
    }
    // 6008 unacked bytes are past the window: run 2 must wait.
    EXPECT_FALSE(RecvProtocolFrame(supervisor.get(), 0.2, &f))
        << "frame type " << static_cast<int>(f.type) << " arrived unacked";
    RunAckMsg ack;
    ack.acked_runs = 2;
    ack.acked_bytes = 6008;
    ASSERT_TRUE(supervisor->Send({MessageType::kRunAck, ack.Encode()}).ok());
    std::vector<int> rest;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(RecvProtocolFrame(supervisor.get(), 5.0, &f)) << i;
      rest.push_back(static_cast<int>(f.type));
    }
    EXPECT_EQ(rest, (std::vector<int>{static_cast<int>(MessageType::kRunBegin),
                                      static_cast<int>(MessageType::kRunData),
                                      static_cast<int>(MessageType::kRunEnd),
                                      static_cast<int>(MessageType::kResult)}));
    ResultMsg result;
    ASSERT_TRUE(ResultMsg::Decode(f.payload, &result).ok());
    EXPECT_EQ(result.status_code, 0);
    EXPECT_EQ(result.payload, "done");
  };
  talk();
  (void)supervisor->Send({MessageType::kShutdown, ""});
  worker.join();
  EXPECT_EQ(exit_code, 0);
}

// ----------------------------------------------- fork-mode bit identity

JobSpec<std::string, std::string, uint32_t, std::pair<std::string, uint32_t>>
WordCountSpec() {
  JobSpec<std::string, std::string, uint32_t, std::pair<std::string, uint32_t>>
      spec;
  spec.name = "mp-wordcount";
  spec.map = [](const std::string& doc, Emitter<std::string, uint32_t>* out) {
    size_t pos = 0;
    while (pos < doc.size()) {
      size_t end = doc.find(' ', pos);
      if (end == std::string::npos) end = doc.size();
      if (end > pos) out->Emit(doc.substr(pos, end - pos), 1);
      pos = end + 1;
    }
  };
  spec.reduce = [](const std::string& word, std::span<const uint32_t> counts,
                   std::vector<std::pair<std::string, uint32_t>>* out) {
    uint32_t total = 0;
    for (uint32_t c : counts) total += c;
    out->push_back({word, total});
  };
  return spec;
}

std::vector<std::string> Corpus() {
  // Deterministic, word-skewed corpus: enough documents for 8 map tasks and
  // enough distinct keys to populate every reduce partition.
  std::vector<std::string> docs;
  const char* words[] = {"alpha", "beta", "gamma", "delta", "rho", "peak"};
  for (int i = 0; i < 48; ++i) {
    std::string doc;
    for (int j = 0; j <= i % 5; ++j) {
      doc += std::string(words[(i * 7 + j * 3) % 6]) + " ";
    }
    doc += "w" + std::to_string(i % 11);
    docs.push_back(doc);
  }
  return docs;
}

Options MpOptions() {
  Options o;
  o.num_workers = 3;
  o.num_partitions = 5;
  return o;
}

TEST(MultiprocessTest, ForkModeIsBitIdenticalToInProcess) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  JobCounters inproc_counters;
  auto inproc = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       MpOptions(), &inproc_counters);
  ASSERT_TRUE(inproc.ok());

  Options forked = MpOptions();
  forked.exec_mode = ExecMode::kFork;
  JobCounters fork_counters;
  auto fork = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                     forked, &fork_counters);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();

  EXPECT_EQ(*inproc, *fork);  // exact vector equality: order and bytes
  EXPECT_EQ(fork_counters.exec_fallbacks, 0u);
  EXPECT_EQ(fork_counters.worker_crashes, 0u);
  // The map output reached the reducers as streamed runs, not result
  // payloads: the supervisor-relay data path is gone.
  EXPECT_GT(fork_counters.shuffle_streamed_bytes, 0u);
  // Shuffle accounting is computed from the same serialized intermediates
  // either way; the substrate must not change what gets shuffled.
  EXPECT_EQ(fork_counters.shuffle_bytes, inproc_counters.shuffle_bytes);
  EXPECT_EQ(fork_counters.shuffle_records, inproc_counters.shuffle_records);
  EXPECT_EQ(fork_counters.map_output_records,
            inproc_counters.map_output_records);
  EXPECT_EQ(fork_counters.reduce_input_groups,
            inproc_counters.reduce_input_groups);
}

TEST(MultiprocessTest, ForkModeUnderSpillBudgetIsBitIdentical) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  auto inproc = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       MpOptions(), nullptr);
  ASSERT_TRUE(inproc.ok());

  // A tiny budget forces every map task to spill; the spilled runs stream
  // to the parent, which writes them to its own spill files, and the reduce
  // workers stream the merge from them.
  Options forked = MpOptions();
  forked.exec_mode = ExecMode::kFork;
  forked.memory_budget_bytes = 64;
  JobCounters counters;
  auto fork = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                     forked, &counters);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();
  EXPECT_EQ(*inproc, *fork);
  EXPECT_EQ(counters.exec_fallbacks, 0u);
  EXPECT_GT(counters.spill_files, 0u);
  EXPECT_GT(counters.merge_passes, 0u);
  EXPECT_GT(counters.shuffle_streamed_bytes, 0u);
}

// Injected attempt failures are one helper on every substrate: a forked
// worker rolls the (task, attempt) hashes the in-process scheduler rolls,
// so the job retries exactly as often either way and its output matches.
TEST(MultiprocessTest, FailureChaosRetriesMatchInProcess) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  Options chaos = MpOptions();
  chaos.faults.map_failure_rate = 0.3;
  chaos.faults.reduce_failure_rate = 0.3;
  chaos.faults.seed = 20260808;
  chaos.max_task_attempts = 16;
  JobCounters inproc_counters;
  auto inproc = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       chaos, &inproc_counters);
  ASSERT_TRUE(inproc.ok()) << inproc.status().ToString();

  chaos.exec_mode = ExecMode::kFork;
  JobCounters fork_counters;
  auto fork = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                     chaos, &fork_counters);
  ASSERT_TRUE(fork.ok()) << fork.status().ToString();
  EXPECT_EQ(*inproc, *fork);
  EXPECT_EQ(fork_counters.exec_fallbacks, 0u);
  EXPECT_GT(inproc_counters.map_task_retries, 0u);
  EXPECT_GT(inproc_counters.reduce_task_retries, 0u);
  EXPECT_EQ(fork_counters.map_task_retries, inproc_counters.map_task_retries);
  EXPECT_EQ(fork_counters.reduce_task_retries,
            inproc_counters.reduce_task_retries);
}

// Chaos: workers are SIGKILLed mid-map and mid-shuffle (the injection's
// timing bit covers both schedules — before the task body runs, and after
// the body produced output but before it was serialized), yet the job
// output stays bit-identical because attempts are pure and commit slots
// are task ids.
TEST(MultiprocessTest, WorkerCrashChaosStaysBitIdentical) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  auto clean = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                      MpOptions(), nullptr);
  ASSERT_TRUE(clean.ok());

  for (uint64_t seed : {1ull, 20260808ull}) {
    Options chaos = MpOptions();
    chaos.exec_mode = ExecMode::kFork;
    chaos.faults.worker_crash_rate = 0.35;
    chaos.faults.seed = seed;
    chaos.max_task_attempts = 24;
    chaos.max_worker_restarts = 64;
    // Random crashes are per (task, attempt); two in a row must not be
    // mistaken for a poisonous record in this test.
    chaos.quarantine_after_crashes = 24;
    JobCounters counters;
    auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                         chaos, &counters);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    EXPECT_EQ(*clean, *result) << "diverged at seed " << seed;
    EXPECT_GT(counters.worker_crashes, 0u) << "seed " << seed;
    EXPECT_GT(counters.worker_restarts, 0u) << "seed " << seed;
    EXPECT_EQ(counters.exec_fallbacks, 0u);
  }
}

// Same chaos schedule with a spill budget: a worker killed mid-shuffle has
// written a spill file it will never commit; the file has no name and dies
// with the worker's descriptors, and the retried attempt writes it again.
// Output still matches the clean run, and nothing of a spill file is left.
TEST(MultiprocessTest, CrashChaosWithSpillsLeavesNothingAndStaysIdentical) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  auto clean = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                      MpOptions(), nullptr);
  ASSERT_TRUE(clean.ok());

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ddp_mp_crash_spill";
  fs::remove_all(dir);

  Options chaos = MpOptions();
  chaos.exec_mode = ExecMode::kFork;
  chaos.memory_budget_bytes = 64;
  chaos.spill_dir = dir.string();
  chaos.faults.worker_crash_rate = 0.35;
  chaos.faults.seed = 20260808;
  chaos.max_task_attempts = 24;
  chaos.max_worker_restarts = 64;
  chaos.quarantine_after_crashes = 24;
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       chaos, &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*clean, *result);
  EXPECT_GT(counters.worker_crashes, 0u);
  uint64_t leftovers = 0;
  if (fs::exists(dir)) {
    for (const auto& e : fs::directory_iterator(dir)) {
      (void)e;
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u);
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// Hang detection: injected stragglers dawdle past the task deadline inside
// the worker; the supervisor SIGKILLs them (counted as hangs and deadline
// kills) and the retried attempts — a different (task, attempt) draw — run
// clean. Output matches the clean run exactly.
TEST(MultiprocessTest, HungWorkersAreKilledAndRetriedBitIdentical) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  auto clean = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                      MpOptions(), nullptr);
  ASSERT_TRUE(clean.ok());

  Options chaos = MpOptions();
  chaos.exec_mode = ExecMode::kFork;
  chaos.faults.straggler_rate = 0.3;
  chaos.faults.straggler_slowdown = 1.0;
  chaos.faults.straggler_min_seconds = 5.0;  // far past the deadline
  chaos.faults.seed = 20260808;
  chaos.task_deadline_seconds = 0.25;
  chaos.max_task_attempts = 24;
  chaos.max_worker_restarts = 64;
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       chaos, &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*clean, *result);
  EXPECT_GT(counters.worker_hangs, 0u);
  EXPECT_GT(counters.worker_kills, 0u);
  EXPECT_GT(counters.deadline_kills, 0u);
}

// Poison property: a task that deterministically SIGKILLs every worker that
// touches it (poison_task_rate = 1 redraws the same attempt-0 coin each
// retry) must converge under skip_bad_records — after
// quarantine_after_crashes consecutive worker deaths the task re-runs
// quarantined, suppressing the poison — and must fail the job cleanly
// without skip_bad_records.
TEST(MultiprocessTest, PoisonTasksQuarantineAndConverge) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  std::vector<std::string> docs = Corpus();
  auto clean = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                      MpOptions(), nullptr);
  ASSERT_TRUE(clean.ok());

  Options poison = MpOptions();
  poison.exec_mode = ExecMode::kFork;
  poison.faults.poison_task_rate = 1.0;  // every task, every attempt
  poison.faults.seed = 20260808;
  poison.skip_bad_records = true;
  poison.max_task_attempts = 24;
  poison.max_worker_restarts = 256;
  JobCounters counters;
  auto result = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       poison, &counters);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Quarantined attempts suppress the injected poison and nothing else, so
  // the output bytes still match the clean run.
  EXPECT_EQ(*clean, *result);
  EXPECT_GT(counters.quarantined_tasks, 0u);
  EXPECT_GT(counters.skipped_records, 0u);
  EXPECT_GE(counters.worker_crashes,
            counters.quarantined_tasks * poison.quarantine_after_crashes);

  Options strict = poison;
  strict.skip_bad_records = false;
  auto failed = RunJob(WordCountSpec(), std::span<const std::string>(docs),
                       strict, nullptr);
  EXPECT_FALSE(failed.ok());
}

// ------------------------------------------ speculation on forked crews

// SpeculationTest's job (mapreduce_test.cc): sums of 0..n-1 by residue mod
// 13.
using SumSpec =
    JobSpec<uint64_t, uint64_t, uint64_t, std::pair<uint64_t, uint64_t>>;
SumSpec ResidueSumSpec() {
  SumSpec spec;
  spec.name = "spec-exec";
  spec.map = [](const uint64_t& v, Emitter<uint64_t, uint64_t>* out) {
    out->Emit(v % 13, v);
  };
  spec.reduce = [](const uint64_t& k, std::span<const uint64_t> values,
                   std::vector<std::pair<uint64_t, uint64_t>>* out) {
    uint64_t s = 0;
    for (uint64_t v : values) s += v;
    out->push_back({k, s});
  };
  return spec;
}

// Runs the job over 0..n-1 in-process, then on a forked crew with
// SpeculationTest's stragglers and speculation, and checks that backups
// launched, some won, and the output matches: the first success commits and
// a loser's later result is discarded. Returns the forked run's counters.
JobCounters ExpectForkedBackupsRescueStragglers(size_t n, uint64_t budget,
                                                const std::string& spill_dir) {
  std::vector<uint64_t> input(n);
  std::iota(input.begin(), input.end(), 0);
  Options clean;
  clean.num_workers = 4;
  clean.num_partitions = 8;
  auto baseline = RunJob(ResidueSumSpec(), std::span<const uint64_t>(input),
                         clean);
  EXPECT_TRUE(baseline.ok()) << baseline.status().ToString();

  Options slow = clean;
  slow.exec_mode = ExecMode::kFork;
  slow.memory_budget_bytes = budget;
  slow.spill_dir = spill_dir;
  slow.faults.straggler_rate = 0.2;
  slow.faults.straggler_slowdown = 10.0;
  slow.faults.straggler_min_seconds = 0.25;
  slow.faults.seed = 7;
  slow.speculative_execution = true;
  slow.speculative_multiplier = 3.0;
  slow.speculative_min_completed = 3;
  JobCounters counters;
  auto result = RunJob(ResidueSumSpec(), std::span<const uint64_t>(input),
                       slow, &counters);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (baseline.ok() && result.ok()) {
    EXPECT_EQ(*baseline, *result);
  }
  EXPECT_GT(counters.speculative_launches, 0u);
  EXPECT_GT(counters.speculative_wins, 0u);
  EXPECT_LE(counters.speculative_wins, counters.speculative_launches);
  return counters;
}

TEST(ForkedSpeculationTest, BackupAttemptsRescueInjectedStragglers) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  ExpectForkedBackupsRescueStragglers(512, /*budget=*/0, "");
}

// The same job out of core, with enough input that every map attempt
// spills under a 4 KiB budget: a backup and its original stream disk runs
// at once, each into its own shuffle file, and a loser's runs are dropped.
// Afterwards nothing holds a descriptor into the spill dir.
TEST(ForkedSpeculationTest, LosersStreamingDiskRunsLeaveNoDescriptor) {
  if (!ForkExecutionSupported()) {
    GTEST_SKIP() << "forked workers unsupported in this build";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ddp_mp_speculation_spill";
  fs::remove_all(dir);
  const JobCounters counters =
      ExpectForkedBackupsRescueStragglers(32768, /*budget=*/4096, dir.string());
  EXPECT_GT(counters.spill_files, 0u);
  EXPECT_GT(counters.shuffle_streamed_bytes, 0u);
  EXPECT_EQ(DescriptorsInto(dir.string()), std::vector<int>{});
  fs::remove_all(dir);
}

// ------------------------------------ the substrate a job asks for runs

// A job whose requested substrate cannot run fails before any task runs,
// with an error naming the job and what is missing. None of these jobs may
// quietly run in-process instead.

// An output type with no Serde: reduce results cannot leave a worker.
struct NoSerde {
  uint32_t count = 0;
};

JobSpec<std::string, std::string, uint32_t, NoSerde> NoSerdeOutputSpec() {
  JobSpec<std::string, std::string, uint32_t, NoSerde> spec;
  spec.name = "mp-no-serde";
  spec.remote_task_id = "mp-no-serde";
  spec.map = [](const std::string& doc, Emitter<std::string, uint32_t>* out) {
    out->Emit(doc, 1);
  };
  spec.reduce = [](const std::string&, std::span<const uint32_t> counts,
                   std::vector<NoSerde>* out) {
    out->push_back({static_cast<uint32_t>(counts.size())});
  };
  return spec;
}

void ExpectNamedError(const Status& st, const std::string& job,
                      const std::string& what) {
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find(job), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find(what), std::string::npos) << st.ToString();
}

TEST(ExecModeTest, RemoteWithoutAPoolFails) {
  std::vector<std::string> docs = Corpus();
  auto spec = WordCountSpec();
  spec.remote_task_id = "mp-wordcount";
  Options o = MpOptions();
  o.exec_mode = ExecMode::kRemote;
  auto result = RunJob(spec, std::span<const std::string>(docs), o, nullptr);
  ExpectNamedError(result.status(), "mp-wordcount", "remote_pool");
}

TEST(ExecModeTest, RemoteWithoutARemoteTaskIdFails) {
  auto pool = RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  std::vector<std::string> docs = Corpus();
  Options o = MpOptions();
  o.exec_mode = ExecMode::kRemote;
  o.remote_pool = pool->get();
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), o, nullptr);
  ExpectNamedError(result.status(), "mp-wordcount", "remote_task_id");
}

TEST(ExecModeTest, SupervisedModesNeedAnOutputSerde) {
  auto pool = RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  std::vector<std::string> docs = Corpus();
  for (ExecMode mode : {ExecMode::kFork, ExecMode::kRemote}) {
    Options o = MpOptions();
    o.exec_mode = mode;
    o.remote_pool = pool->get();
    auto result = RunJob(NoSerdeOutputSpec(),
                         std::span<const std::string>(docs), o, nullptr);
    ExpectNamedError(result.status(), "mp-no-serde", "Serde");
  }
}

// No ddp_worker ever dials the pool: the job fails once the connect grace
// (~6 s) is out.
TEST(ExecModeTest, RemotePoolNoWorkerJoinsFailsWithinTheConnectGrace) {
  auto pool = RemoteWorkerPool::Listen("127.0.0.1", 0);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  std::vector<std::string> docs = Corpus();
  auto spec = WordCountSpec();
  spec.remote_task_id = "mp-wordcount";
  Options o = MpOptions();
  o.exec_mode = ExecMode::kRemote;
  o.remote_pool = pool->get();
  JobCounters counters;
  const auto start = std::chrono::steady_clock::now();
  auto result =
      RunJob(spec, std::span<const std::string>(docs), o, &counters);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ExpectNamedError(result.status(), "mp-wordcount", "connect grace");
  EXPECT_LT(seconds, 12.0);
}

// Runs only in a build that cannot fork workers (CI's TSan job).
TEST(ExecModeTest, ForkFailsWhereForkedWorkersAreUnsupported) {
  if (ForkExecutionSupported()) {
    GTEST_SKIP() << "this build forks workers; the TSan build runs this";
  }
  std::vector<std::string> docs = Corpus();
  Options o = MpOptions();
  o.exec_mode = ExecMode::kFork;
  auto result =
      RunJob(WordCountSpec(), std::span<const std::string>(docs), o, nullptr);
  ExpectNamedError(result.status(), "mp-wordcount", "fork");
}

}  // namespace
}  // namespace mr
}  // namespace ddp
