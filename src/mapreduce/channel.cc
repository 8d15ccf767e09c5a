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

// The [u8 type][varint64 payload length] prefix of a frame.
struct ParsedHeader {
  uint8_t type = 0;
  uint64_t payload_bytes = 0;
  size_t size = 0;  // encoded bytes
};

enum class HeaderParse { kIncomplete, kOk, kCorrupt };

// Parses a frame header off the front of `n` received bytes. A varint that
// runs past 64 bits is corrupt; one cut short by `n` is incomplete.
HeaderParse ParseFrameHeader(const char* data, size_t n, ParsedHeader* out) {
  if (n == 0) return HeaderParse::kIncomplete;
  uint64_t len = 0;
  int shift = 0;
  for (size_t i = 1; i < n; ++i) {
    if (shift >= 64) return HeaderParse::kCorrupt;
    const uint8_t b = static_cast<uint8_t>(data[i]);
    len |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      out->type = static_cast<uint8_t>(data[0]);
      out->payload_bytes = len;
      out->size = i + 1;
      return HeaderParse::kOk;
    }
    shift += 7;
  }
  return HeaderParse::kIncomplete;
}

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

FdChannel::~FdChannel() { Close(); }

void FdChannel::Close() {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
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

Status FdChannel::ReadSome(char* out, size_t n, double wait_seconds,
                           size_t* got) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wait_seconds));
  while (true) {
    // Try first: the caller usually knows bytes are waiting, and a ready
    // socket then costs one call instead of a poll and a read.
    const ssize_t r = ::recv(fd_, out, n, MSG_DONTWAIT);
    if (r > 0) {
      *got = static_cast<size_t>(r);
      return Status::OK();
    }
    if (r == 0) return Status::IoError("channel closed");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return Status::IoError(std::string("channel read failed: ") +
                             std::strerror(errno));
    }
    int wait_ms = -1;
    if (wait_seconds > 0.0) {
      const auto now = Clock::now();
      if (now >= deadline) {
        return Status::DeadlineExceeded("channel read timed out");
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      wait_ms = static_cast<int>(
          std::max<int64_t>(1, static_cast<int64_t>(left.count())));
    }
    struct pollfd pfd {fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) < 0 && errno != EINTR) {
      return Status::IoError(std::string("channel poll failed: ") +
                             std::strerror(errno));
    }
  }
}

Status FdChannel::Fill(double wait_seconds) {
  if (rpos_ > 0) {
    std::memmove(rbuf_.get(), rbuf_.get() + rpos_, rend_ - rpos_);
    rend_ -= rpos_;
    rpos_ = 0;
  }
  size_t got = 0;
  DDP_RETURN_NOT_OK(ReadSome(rbuf_.get() + rend_, kRecvBufferBytes - rend_,
                             wait_seconds, &got));
  rend_ += got;
  return Status::OK();
}

bool FdChannel::HasBufferedFrame() const {
  if (fd_ < 0 || rpos_ == rend_) return false;
  ParsedHeader header;
  const HeaderParse parsed =
      ParseFrameHeader(rbuf_.get() + rpos_, rend_ - rpos_, &header);
  if (parsed != HeaderParse::kOk) return parsed == HeaderParse::kCorrupt;
  return header.payload_bytes > kMaxFramePayloadBytes ||
         rend_ - rpos_ >= header.size + header.payload_bytes + 4;
}

Status FdChannel::Recv(Frame* frame, double timeout_seconds) {
  if (fd_ < 0) return Status::IoError("channel closed");
  if (rbuf_ == nullptr) rbuf_.reset(new char[kRecvBufferBytes]);
  if (rpos_ == rend_) DDP_RETURN_NOT_OK(Fill(timeout_seconds));
  // Once a frame has started, the rest must follow promptly: a peer that
  // dies mid-frame hits EOF; a wedged peer hits the inner deadline and is
  // treated as a hang by the supervisor.
  const double body_wait = timeout_seconds > 0.0 ? timeout_seconds : 30.0;
  ParsedHeader header;
  while (true) {
    const HeaderParse parsed =
        ParseFrameHeader(rbuf_.get() + rpos_, rend_ - rpos_, &header);
    if (parsed == HeaderParse::kCorrupt) {
      return Status::IoError("corrupt frame length");
    }
    if (parsed == HeaderParse::kOk) break;
    DDP_RETURN_NOT_OK(Fill(body_wait));
  }
  const uint64_t len = header.payload_bytes;
  if (len > kMaxFramePayloadBytes) {
    return Status::IoError("frame declares " + std::to_string(len) +
                           " payload bytes, above the channel cap");
  }
  frame->type = static_cast<MessageType>(header.type);
  const size_t frame_bytes = header.size + static_cast<size_t>(len) + 4;
  uint8_t trailer[4];
  if (frame_bytes <= kRecvBufferBytes) {
    while (rend_ - rpos_ < frame_bytes) DDP_RETURN_NOT_OK(Fill(body_wait));
    const char* payload = rbuf_.get() + rpos_ + header.size;
    frame->payload.assign(payload, static_cast<size_t>(len));
    std::memcpy(trailer, payload + len, sizeof(trailer));
    rpos_ += frame_bytes;
  } else {
    // Grow the payload as bytes arrive instead of trusting the declared
    // length up front: a peer that declares a large frame and then stalls
    // or closes costs at most one step.
    constexpr size_t kRecvStep = size_t{1} << 20;
    rpos_ += header.size;
    const size_t buffered = std::min(rend_ - rpos_, static_cast<size_t>(len));
    frame->payload.assign(rbuf_.get() + rpos_, buffered);
    rpos_ += buffered;
    while (frame->payload.size() < len) {
      size_t have = frame->payload.size();
      const size_t step = std::min(kRecvStep, static_cast<size_t>(len) - have);
      frame->payload.resize(have + step);
      for (const size_t end = have + step; have < end;) {
        size_t got = 0;
        DDP_RETURN_NOT_OK(ReadSome(frame->payload.data() + have, end - have,
                                   body_wait, &got));
        have += got;
      }
    }
    while (rend_ - rpos_ < sizeof(trailer)) DDP_RETURN_NOT_OK(Fill(body_wait));
    std::memcpy(trailer, rbuf_.get() + rpos_, sizeof(trailer));
    rpos_ += sizeof(trailer);
  }
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
    // Seeded backoff keeps dial storms (many workers, one restarted
    // supervisor) decorrelated yet reproducible in tests.
    NapMillis(static_cast<int>(
        std::max(1.0, schedule.DelaySeconds(attempt) * 1e3)));
  }
  return Status::IoError("tcp connect to " + host + " failed: " + last_error);
}

}  // namespace mr
}  // namespace ddp
