#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <utility>

#include "common/backoff.h"
#include "common/result.h"

/// \file channel.h
/// The transport layer of multi-process MapReduce execution: a small framed
/// message channel between the supervising parent and one worker process.
///
/// Frames reuse the spill-segment disciplines of spill.h — length framing
/// and a CRC32 trailer — so the wire format is the same shape as a sorted
/// run on disk: [u8 type][varint64 payload length][payload][4-byte CRC32 of
/// the payload, little endian]. A frame that fails its CRC is an IoError;
/// the supervisor treats a channel that produced one like a crashed worker,
/// because record boundaries are lost.
///
/// That shared shape is what makes the streamed shuffle cheap: a sorted
/// spill run is already length-framed records plus a CRC trailer, so a
/// worker ships it as raw kRunData payload bytes — a framed copy of the
/// file extent, no re-serialization on either side.
///
/// One channel per substrate, plus a test double:
///  * `PipeChannel` — a socketpair(AF_UNIX, SOCK_STREAM) endpoint created
///    before fork: how the supervisor talks to its forked workers. `Send`
///    is mutex guarded so a worker's heartbeat thread and its task loop can
///    share the descriptor. A socketpair cannot be re-established, so a
///    channel error is the worker's death.
///  * `TcpChannel`/`TcpListener` — the same framed protocol over TCP: how
///    exec'd remote workers (remote_worker.h) and ddp_server clients
///    connect. Workers dial with a seeded exponential backoff and identify
///    themselves with a kHello frame. Unlike a socketpair, a TCP connection
///    can be re-established after a drop — the supervisor keeps the remote
///    worker's stream state and the worker resends from the last committed
///    run.
///  * `LoopbackChannel` — an in-memory queue pair for protocol tests: what
///    one endpoint sends the other receives, byte-for-byte through the same
///    encoder/decoder as the descriptor paths.

namespace ddp {
namespace mr {

/// Frame type tags. Values are part of the wire format; append only, and
/// a retired value is never reused (2 was the closure-task frame that
/// kTaskAssign replaced).
enum class MessageType : uint8_t {
  kHello = 1,      // worker -> supervisor: alive and ready (HelloMsg)
  kResult = 3,     // worker -> supervisor: attempt finished
  kHeartbeat = 4,  // worker -> supervisor: still making progress
  kShutdown = 5,   // supervisor -> worker: exit the task loop
  // Streamed shuffle (see supervisor.h): a worker ships each sorted run of
  // a successful attempt as kRunBegin (RunBeginMsg), kRunData chunks of raw
  // CRC-trailed segment bytes, then kRunEnd (RunEndMsg); the supervisor
  // commits the run and answers kRunAck (RunAckMsg), which doubles as the
  // flow-control credit and the resume point after a reconnect.
  kRunBegin = 6,  // worker -> supervisor: a run follows
  kRunData = 7,   // worker -> supervisor: raw segment bytes of the open run
  kRunEnd = 8,    // worker -> supervisor: run complete, commit it
  kRunAck = 9,    // supervisor -> worker: runs/bytes committed so far
  // Serving layer (see src/server/protocol.h): clustering jobs submitted to
  // a long-lived ddp_server daemon over the same framed transport. Client
  // requests carry the job id; the server replies on the same type, and
  // pushes kJobProgress unsolicited for jobs that asked for streamed
  // progress.
  kJobSubmit = 10,    // client -> server: JobSubmitMsg; reply kJobStatus
  kJobStatus = 11,    // client -> server: JobPollMsg; server -> client: JobStatusMsg
  kJobProgress = 12,  // server -> client: JobStatusMsg, pushed while running
  kJobResult = 13,    // client -> server: JobPollMsg; server -> client: JobResultMsg
  kJobCancel = 14,    // client -> server: JobCancelMsg; reply kJobStatus
  // Remote workers (see remote_worker.h): exec'd ddp_worker processes dial
  // the supervisor's listener and announce themselves with a kHello. Task
  // bodies cannot cross by fork, so the supervisor first installs the
  // phase's registered job (kJobSetup); each kTaskAssign then carries the
  // task's serialized input and the worker looks the body up by name in its
  // JobRegistry. Forked workers get the same kTaskAssign with no input.
  kJobSetup = 15,    // supervisor -> worker: install a registered job (JobSetupMsg)
  kTaskAssign = 16,  // supervisor -> worker: run a task attempt (TaskAssignMsg)
};

struct Frame {
  MessageType type = MessageType::kHello;
  std::string payload;
};

class CommChannel {
 public:
  virtual ~CommChannel() = default;

  /// Sends one frame. Thread-safe. A peer that vanished mid-write yields
  /// IoError (never SIGPIPE).
  virtual Status Send(const Frame& frame) = 0;

  /// Receives the next frame, waiting at most `timeout_seconds` for it to
  /// start arriving (<= 0 waits forever). A clean peer close yields
  /// IoError("channel closed"); a missed deadline yields DeadlineExceeded.
  /// A descriptor channel rejects a declared payload above 1 GiB as
  /// IoError before allocating for it.
  virtual Status Recv(Frame* frame, double timeout_seconds) = 0;

  /// Pollable descriptor for readiness multiplexing, or -1 if the channel
  /// has none (loopback).
  virtual int fd() const { return -1; }

  /// Half-closes the sending direction (TCP FIN / SHUT_WR): the peer reads
  /// everything already sent and then a clean EOF, while this end can still
  /// Recv. Channels without directional close treat it as a no-op.
  virtual void ShutdownWrite() {}

  virtual void Close() = 0;
};

/// Serializes `frame` into the on-wire byte sequence, in one string of
/// exactly its size. Serves LoopbackChannel and the tests; FdChannel::Send
/// writes the same bytes without building them in one buffer.
std::string EncodeFrame(const Frame& frame);

/// A CommChannel over one stream-socket descriptor — the shared engine of
/// PipeChannel (socketpair) and TcpChannel (connected TCP socket). Owns the
/// descriptor.
class FdChannel : public CommChannel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override;

  FdChannel(const FdChannel&) = delete;
  FdChannel& operator=(const FdChannel&) = delete;

  /// Writes the bytes EncodeFrame(frame) would return with one sendmsg
  /// (repeated after a partial write): the header and CRC trailer from the
  /// stack, the payload in place, so sending copies no payload byte.
  Status Send(const Frame& frame) override;
  Status Recv(Frame* frame, double timeout_seconds) override;
  int fd() const override { return fd_; }
  void ShutdownWrite() override;
  void Close() override;

 private:
  /// Reads exactly n bytes, polling with the deadline between short reads.
  Status ReadExact(void* out, size_t n, double deadline_seconds);

  std::mutex send_mu_;
  int fd_ = -1;
};

/// One end of a socketpair.
class PipeChannel : public FdChannel {
 public:
  using FdChannel::FdChannel;

  /// Creates a connected channel pair (parent end, child end).
  static Result<std::pair<std::unique_ptr<PipeChannel>,
                          std::unique_ptr<PipeChannel>>>
  CreatePair();
};

/// A connected TCP endpoint speaking the same framed protocol.
class TcpChannel : public FdChannel {
 public:
  using FdChannel::FdChannel;

  /// Connects to `host:port`, retrying with a seeded exponential backoff
  /// until `deadline_seconds` of wall time have elapsed. `host` must be a
  /// numeric IPv4 address (the supervisor and its workers exchange
  /// addresses, not names). TCP_NODELAY is set: frames are latency-bound
  /// control traffic or already-batched run chunks.
  static Result<std::unique_ptr<TcpChannel>> Connect(
      const std::string& host, uint16_t port,
      const ExponentialBackoff::Params& backoff, uint64_t seed,
      double deadline_seconds);
};

/// A listening TCP socket the supervisor multiplexes alongside its worker
/// channels (fd() joins the poll set; Accept when it turns readable).
class TcpListener {
 public:
  /// Binds and listens on `host:port`; port 0 picks an ephemeral port
  /// (reported by port() — how tests and single-host runs avoid collisions).
  static Result<std::unique_ptr<TcpListener>> Listen(const std::string& host,
                                                     uint16_t port);

  explicit TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

  /// Accepts one pending connection, waiting at most `timeout_seconds` for
  /// one to arrive. DeadlineExceeded when none does.
  Result<std::unique_ptr<TcpChannel>> Accept(double timeout_seconds);

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// In-memory channel endpoint for protocol tests. `MakePair` wires two
/// endpoints so each Send lands in the peer's receive queue after a round
/// trip through the wire encoding (CRC checks included).
class LoopbackChannel : public CommChannel {
 public:
  static std::pair<std::unique_ptr<LoopbackChannel>,
                   std::unique_ptr<LoopbackChannel>>
  MakePair();

  Status Send(const Frame& frame) override;
  Status Recv(Frame* frame, double timeout_seconds) override;
  void Close() override;

  /// Test hook: appends raw bytes to this endpoint's receive queue as if
  /// the peer had written them (for corruption tests).
  void InjectRaw(std::string bytes);

 private:
  struct Queue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::string> frames;  // encoded wire bytes, one per frame
    bool closed = false;
  };

  std::shared_ptr<Queue> incoming_;
  std::shared_ptr<Queue> outgoing_;
};

/// Decodes one wire-encoded frame (shared by LoopbackChannel and tests;
/// FdChannel decodes incrementally off the descriptor).
Status DecodeFrame(const std::string& bytes, Frame* frame);

}  // namespace mr
}  // namespace ddp
