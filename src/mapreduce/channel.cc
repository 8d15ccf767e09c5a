#include "mapreduce/channel.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/serde.h"

namespace ddp {
namespace mr {

namespace {

// Largest payload a descriptor channel accepts. The length prefix comes
// from the peer, so a larger declared length is an IoError before anything
// is allocated.
constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 30;

uint32_t LoadCrcTrailer(const uint8_t t[4]) {
  return static_cast<uint32_t>(t[0]) | (static_cast<uint32_t>(t[1]) << 8) |
         (static_cast<uint32_t>(t[2]) << 16) |
         (static_cast<uint32_t>(t[3]) << 24);
}

// The two encoders of the wire format, shared by EncodeFrame and
// FdChannel::Send so the bytes they write cannot drift apart.

// [u8 type][varint64 payload length]: at most 11 bytes, so the string stays
// in its inline buffer and building a header allocates nothing.
std::string FrameHeader(const Frame& frame) {
  std::string header;
  BufferWriter w(&header);
  w.PutByte(static_cast<uint8_t>(frame.type));
  w.PutVarint64(frame.payload.size());
  return header;
}

// The CRC32 of the payload, little endian.
std::array<char, 4> CrcTrailer(const std::string& payload) {
  const uint32_t crc = Crc32(payload.data(), payload.size());
  return {static_cast<char>(crc & 0xFF), static_cast<char>((crc >> 8) & 0xFF),
          static_cast<char>((crc >> 16) & 0xFF),
          static_cast<char>((crc >> 24) & 0xFF)};
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  const std::string header = FrameHeader(frame);
  const std::array<char, 4> trailer = CrcTrailer(frame.payload);
  std::string bytes;
  bytes.reserve(header.size() + frame.payload.size() + trailer.size());
  bytes.append(header);
  bytes.append(frame.payload);
  bytes.append(trailer.data(), trailer.size());
  return bytes;
}

Status DecodeFrame(const std::string& bytes, Frame* frame) {
  BufferReader r(bytes);
  uint8_t type = 0;
  DDP_RETURN_NOT_OK(r.GetByte(&type));
  uint64_t len = 0;
  DDP_RETURN_NOT_OK(r.GetVarint64(&len));
  if (r.remaining() < 4 || len > r.remaining() - 4) {
    return Status::IoError("truncated channel frame");
  }
  frame->type = static_cast<MessageType>(type);
  frame->payload.clear();
  frame->payload.reserve(static_cast<size_t>(len));
  BufferReader payload(nullptr, size_t{0});
  DDP_RETURN_NOT_OK(r.Slice(static_cast<size_t>(len), &payload));
  frame->payload.resize(static_cast<size_t>(len));
  DDP_RETURN_NOT_OK(
      payload.GetRaw(frame->payload.data(), frame->payload.size()));
  uint8_t trailer[4];
  DDP_RETURN_NOT_OK(r.GetRaw(trailer, sizeof(trailer)));
  if (!r.exhausted()) return Status::IoError("trailing bytes after frame");
  if (LoadCrcTrailer(trailer) !=
      Crc32(frame->payload.data(), frame->payload.size())) {
    return Status::IoError("channel frame CRC mismatch");
  }
  return Status::OK();
}

FdChannel::~FdChannel() { Close(); }

void FdChannel::Close() {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FdChannel::ShutdownWrite() {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Status FdChannel::Send(const Frame& frame) {
  const std::string header = FrameHeader(frame);
  const std::array<char, 4> trailer = CrcTrailer(frame.payload);
  struct iovec iov[3] = {
      {const_cast<char*>(header.data()), header.size()},
      {const_cast<char*>(frame.payload.data()), frame.payload.size()},
      {const_cast<char*>(trailer.data()), trailer.size()},
  };
  struct msghdr msg {};
  msg.msg_iov = iov;
  msg.msg_iovlen = 3;
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ < 0) return Status::IoError("channel closed");
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that died mid-phase must surface as EPIPE, not
    // kill the supervisor with SIGPIPE.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("channel send failed: ") +
                             std::strerror(errno));
    }
    // A partial write: drop the iovecs it finished and advance into the
    // first one it did not.
    size_t sent = static_cast<size_t>(n);
    while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status FdChannel::ReadExact(void* out, size_t n, double deadline_seconds) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));
  size_t off = 0;
  while (off < n) {
    if (deadline_seconds > 0.0) {
      const auto now = Clock::now();
      if (now >= deadline) {
        return Status::DeadlineExceeded("channel read timed out");
      }
      struct pollfd pfd {fd_, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      const int rc =
          ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(
                              1, static_cast<int64_t>(left.count()))));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::IoError(std::string("channel poll failed: ") +
                               std::strerror(errno));
      }
      if (rc == 0) continue;  // loop re-checks the deadline
    }
    const ssize_t got =
        ::read(fd_, static_cast<char*>(out) + off, n - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("channel read failed: ") +
                             std::strerror(errno));
    }
    if (got == 0) return Status::IoError("channel closed");
    off += static_cast<size_t>(got);
  }
  return Status::OK();
}

Status FdChannel::Recv(Frame* frame, double timeout_seconds) {
  if (fd_ < 0) return Status::IoError("channel closed");
  uint8_t type = 0;
  DDP_RETURN_NOT_OK(ReadExact(&type, 1, timeout_seconds));
  // Once a frame has started, the rest must follow promptly: a peer that
  // dies mid-frame hits EOF; a wedged peer hits the inner deadline and is
  // treated as a hang by the supervisor.
  const double body_deadline = timeout_seconds > 0.0 ? timeout_seconds : 30.0;
  uint64_t len = 0;
  int shift = 0;
  while (true) {
    uint8_t b = 0;
    DDP_RETURN_NOT_OK(ReadExact(&b, 1, body_deadline));
    if (shift >= 64) return Status::IoError("corrupt frame length");
    len |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  if (len > kMaxFramePayloadBytes) {
    return Status::IoError("frame declares " + std::to_string(len) +
                           " payload bytes, above the channel cap");
  }
  frame->type = static_cast<MessageType>(type);
  // Grow the payload as bytes arrive instead of trusting the declared
  // length up front: a peer that declares a large frame and then stalls or
  // closes costs at most one step.
  constexpr size_t kRecvStep = size_t{1} << 20;
  frame->payload.clear();
  while (frame->payload.size() < len) {
    const size_t have = frame->payload.size();
    const size_t step = std::min(kRecvStep, static_cast<size_t>(len) - have);
    frame->payload.resize(have + step);
    DDP_RETURN_NOT_OK(
        ReadExact(frame->payload.data() + have, step, body_deadline));
  }
  uint8_t trailer[4];
  DDP_RETURN_NOT_OK(ReadExact(trailer, sizeof(trailer), body_deadline));
  if (LoadCrcTrailer(trailer) !=
      Crc32(frame->payload.data(), frame->payload.size())) {
    return Status::IoError("channel frame CRC mismatch");
  }
  return Status::OK();
}

Result<std::pair<std::unique_ptr<PipeChannel>, std::unique_ptr<PipeChannel>>>
PipeChannel::CreatePair() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal(std::string("socketpair failed: ") +
                            std::strerror(errno));
  }
  return std::make_pair(std::make_unique<PipeChannel>(fds[0]),
                        std::make_unique<PipeChannel>(fds[1]));
}

namespace {

/// Parses a numeric IPv4 host:port into a sockaddr; names are rejected so
/// connect/accept behavior never depends on resolver state.
Status MakeSockAddr(const std::string& host, uint16_t port,
                    struct sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort: a transport that ignores TCP_NODELAY is slower, not wrong.
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Deterministic nap without pulling in <thread>; EINTR shortens the nap,
/// which only makes the retry loop re-check its deadline sooner.
void NapMillis(int ms) { (void)::poll(nullptr, 0, ms); }

}  // namespace

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  DDP_RETURN_NOT_OK(MakeSockAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st = Status::Internal(std::string("bind failed: ") +
                                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const Status st = Status::Internal(std::string("listen failed: ") +
                                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  // Recover the kernel-assigned port when the caller asked for an ephemeral
  // one — the supervisor hands this number to its forked workers.
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) != 0) {
    const Status st = Status::Internal(std::string("getsockname failed: ") +
                                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  return std::make_unique<TcpListener>(fd, ntohs(bound.sin_port));
}

TcpListener::~TcpListener() { Close(); }

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<TcpChannel>> TcpListener::Accept(
    double timeout_seconds) {
  if (fd_ < 0) return Status::IoError("listener closed");
  struct pollfd pfd {fd_, POLLIN, 0};
  const int ms = timeout_seconds > 0.0
                     ? static_cast<int>(std::max(1.0, timeout_seconds * 1e3))
                     : -1;
  while (true) {
    const int rc = ::poll(&pfd, 1, ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("listener poll failed: ") +
                             std::strerror(errno));
    }
    if (rc == 0) return Status::DeadlineExceeded("accept timed out");
    break;
  }
  const int conn = ::accept(fd_, nullptr, nullptr);
  if (conn < 0) {
    return Status::IoError(std::string("accept failed: ") +
                           std::strerror(errno));
  }
  SetNoDelay(conn);
  return std::make_unique<TcpChannel>(conn);
}

Result<std::unique_ptr<TcpChannel>> TcpChannel::Connect(
    const std::string& host, uint16_t port,
    const ExponentialBackoff::Params& backoff, uint64_t seed,
    double deadline_seconds) {
  struct sockaddr_in addr;
  DDP_RETURN_NOT_OK(MakeSockAddr(host, port, &addr));
  const ExponentialBackoff schedule(backoff, seed);
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(deadline_seconds));
  std::string last_error = "connect never attempted";
  for (uint64_t attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::Internal(std::string("socket failed: ") +
                              std::strerror(errno));
    }
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) {
      SetNoDelay(fd);
      return std::make_unique<TcpChannel>(fd);
    }
    last_error = std::strerror(errno);
    ::close(fd);
    if (Clock::now() >= deadline) break;
    // Seeded backoff keeps reconnect storms (many workers, one restarted
    // supervisor) decorrelated yet reproducible in tests.
    NapMillis(static_cast<int>(
        std::max(1.0, schedule.DelaySeconds(attempt) * 1e3)));
  }
  return Status::IoError("tcp connect to " + host + " failed: " + last_error);
}

std::pair<std::unique_ptr<LoopbackChannel>, std::unique_ptr<LoopbackChannel>>
LoopbackChannel::MakePair() {
  auto a = std::make_shared<Queue>();
  auto b = std::make_shared<Queue>();
  auto left = std::make_unique<LoopbackChannel>();
  auto right = std::make_unique<LoopbackChannel>();
  left->incoming_ = a;
  left->outgoing_ = b;
  right->incoming_ = b;
  right->outgoing_ = a;
  return {std::move(left), std::move(right)};
}

Status LoopbackChannel::Send(const Frame& frame) {
  std::string bytes = EncodeFrame(frame);
  std::lock_guard<std::mutex> lock(outgoing_->mu);
  if (outgoing_->closed) return Status::IoError("channel closed");
  outgoing_->frames.push_back(std::move(bytes));
  outgoing_->cv.notify_all();
  return Status::OK();
}

Status LoopbackChannel::Recv(Frame* frame, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(incoming_->mu);
  const auto ready = [this] {
    return !incoming_->frames.empty() || incoming_->closed;
  };
  if (timeout_seconds > 0.0) {
    if (!incoming_->cv.wait_for(
            lock, std::chrono::duration<double>(timeout_seconds), ready)) {
      return Status::DeadlineExceeded("channel read timed out");
    }
  } else {
    incoming_->cv.wait(lock, ready);
  }
  if (incoming_->frames.empty()) return Status::IoError("channel closed");
  std::string bytes = std::move(incoming_->frames.front());
  incoming_->frames.pop_front();
  lock.unlock();
  return DecodeFrame(bytes, frame);
}

void LoopbackChannel::Close() {
  for (auto& q : {incoming_, outgoing_}) {
    if (q == nullptr) continue;
    std::lock_guard<std::mutex> lock(q->mu);
    q->closed = true;
    q->cv.notify_all();
  }
}

void LoopbackChannel::InjectRaw(std::string bytes) {
  std::lock_guard<std::mutex> lock(incoming_->mu);
  incoming_->frames.push_back(std::move(bytes));
  incoming_->cv.notify_all();
}

}  // namespace mr
}  // namespace ddp
