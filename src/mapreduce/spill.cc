#include "mapreduce/spill.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ddp {
namespace mr {

namespace fs = std::filesystem;

namespace {

long CurrentPid() { return static_cast<long>(::getpid()); }

/// True when Linux reports `pid` inside exit: PF_EXITING (0x4) in the
/// flags field of /proc/<pid>/stat. A dying process sets it on every thread
/// before it closes its descriptors, so a worker whose socket just read EOF
/// is already marked, though it is not yet a zombie.
bool Exiting(long pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  // "pid (comm) state ppid pgrp session tty_nr tpgid flags ...": comm may
  // hold spaces and parentheses, so the fields start after the last ')'.
  const char* field = std::strrchr(buf, ')');
  if (field == nullptr) return false;
  ++field;
  for (int skip = 0; skip < 6; ++skip) {  // state .. tpgid
    while (*field == ' ') ++field;
    while (*field != ' ' && *field != '\0') ++field;
  }
  return (std::strtoul(field, nullptr, 10) & 0x4) != 0;
}

/// True when `pid` names a live process (or liveness cannot be probed, in
/// which case the reaper stays conservative and keeps the file). kill(pid,
/// 0) succeeds on a zombie, so waitid asks first whether `pid` is an exited
/// child of ours (WNOWAIT leaves it waitable; other pids fail with ECHILD).
/// It also succeeds on a process still inside exit, which owns nothing any
/// more.
bool ProcessAlive(long pid) {
  if (pid <= 0) return true;
  siginfo_t info{};
  if (::waitid(P_PID, static_cast<id_t>(pid), &info,
               WEXITED | WNOHANG | WNOWAIT) == 0 &&
      info.si_pid != 0) {
    return false;
  }
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return !Exiting(pid);
  return errno != ESRCH;
}

/// Parses the LAST "-p<digits>-" ownership tag in a spill file name (a
/// job name may itself contain one). Returns false when the name carries
/// no tag.
bool ParseOwnerPid(const std::string& name, long* pid) {
  bool found = false;
  size_t pos = 0;
  while ((pos = name.find("-p", pos)) != std::string::npos) {
    size_t digits = pos + 2;
    size_t end = digits;
    while (end < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[end]))) {
      ++end;
    }
    if (end > digits && end < name.size() && name[end] == '-') {
      *pid = std::stol(name.substr(digits, end - digits));
      found = true;
    }
    pos += 2;
  }
  return found;
}

}  // namespace

SpillFileHandle::SpillFileHandle(std::string path, int fd)
    : path_(std::move(path)), fd_(fd), owner_pid_(CurrentPid()) {}

SpillFileHandle::~SpillFileHandle() {
  if (fd_ >= 0) ::close(fd_);
  // Unlink only in the owning process: a forked worker inherits the
  // parent's handles, and the copy that merely inherited the handle must
  // not destroy the file.
  if (owner_pid_ != CurrentPid()) return;
  std::error_code ec;
  fs::remove(path_, ec);  // best effort; a vanished file is fine
}

Status SpillFileHandle::ReadAt(uint64_t offset, char* out, size_t n) const {
  while (n > 0) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("cannot read spill file " + path_ + ": " +
                             std::strerror(errno));
    }
    if (got == 0) return Status::IoError("short read from spill file " + path_);
    out += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
}

uint64_t ReapOrphanSpillFiles(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return 0;  // missing or unreadable dir: nothing to reap
  const long self = CurrentPid();
  uint64_t reaped = 0;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".spill") continue;
    long owner = 0;
    if (!ParseOwnerPid(p.filename().string(), &owner)) continue;
    if (owner == self || ProcessAlive(owner)) continue;
    std::error_code rm_ec;
    if (fs::remove(p, rm_ec) && !rm_ec) ++reaped;
  }
  return reaped;
}

std::string RunTrailer(std::string_view frames) {
  const uint32_t crc = Crc32(frames.data(), frames.size());
  return {static_cast<char>(crc & 0xFF), static_cast<char>((crc >> 8) & 0xFF),
          static_cast<char>((crc >> 16) & 0xFF),
          static_cast<char>((crc >> 24) & 0xFF)};
}

Status VerifyAndStripRunTrailer(std::string* segment) {
  if (segment->size() < 4) {
    return Status::IoError("run shorter than its CRC trailer");
  }
  const size_t body = segment->size() - 4;
  const auto* t = reinterpret_cast<const uint8_t*>(segment->data() + body);
  const uint32_t stored = static_cast<uint32_t>(t[0]) |
                          (static_cast<uint32_t>(t[1]) << 8) |
                          (static_cast<uint32_t>(t[2]) << 16) |
                          (static_cast<uint32_t>(t[3]) << 24);
  if (stored != Crc32(segment->data(), body)) {
    return Status::IoError("run CRC mismatch");
  }
  segment->resize(body);
  return Status::OK();
}

Result<std::unique_ptr<SpillFileWriter>> SpillFileWriter::Create(
    const std::string& dir, const std::string& basename) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create spill dir " + dir + ": " +
                            ec.message());
  }
  std::string name = basename;
  for (char& c : name) {
    if (c == '/' || c == '\\') c = '_';
  }
  std::string path = (fs::path(dir) / name).string();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::Internal("cannot open spill file " + path + ": " +
                            std::strerror(errno));
  }
  auto handle = std::make_shared<SpillFileHandle>(std::move(path), fd);
  return std::unique_ptr<SpillFileWriter>(
      new SpillFileWriter(std::move(handle)));
}

namespace {
// Spill I/O granularity: writes are buffered up to this many bytes, and a
// segment reader reads at most this many per pread.
constexpr size_t kIoChunk = 64 * 1024;
}  // namespace

void SpillFileWriter::WriteOut(const char* data, size_t n) {
  while (n > 0 && error_.ok()) {
    const ssize_t put = ::pwrite(handle_->fd_, data, n,
                                 static_cast<off_t>(flushed_));
    if (put < 0) {
      if (errno == EINTR) continue;
      error_ = Status::Internal("write failed on spill file " +
                                handle_->path() + ": " + std::strerror(errno));
      return;
    }
    data += put;
    n -= static_cast<size_t>(put);
    flushed_ += static_cast<uint64_t>(put);
  }
}

void SpillFileWriter::BeginRun() {
  run_start_ = offset_;
  crc_ = 0;
}

void SpillFileWriter::Append(const void* data, size_t n) {
  const char* bytes = static_cast<const char*>(data);
  crc_ = Crc32(bytes, n, crc_);
  offset_ += n;
  if (buf_.size() + n > kIoChunk) {
    WriteOut(buf_.data(), buf_.size());
    buf_.clear();
  }
  if (n >= kIoChunk) {
    WriteOut(bytes, n);
  } else {
    buf_.append(bytes, n);
  }
}

Result<SpillExtent> SpillFileWriter::EndRun() {
  char trailer[4];
  trailer[0] = static_cast<char>(crc_ & 0xFF);
  trailer[1] = static_cast<char>((crc_ >> 8) & 0xFF);
  trailer[2] = static_cast<char>((crc_ >> 16) & 0xFF);
  trailer[3] = static_cast<char>((crc_ >> 24) & 0xFF);
  Append(trailer, sizeof(trailer));
  if (!error_.ok()) return error_;
  return SpillExtent{run_start_, offset_ - run_start_};
}

Status SpillFileWriter::Close() {
  WriteOut(buf_.data(), buf_.size());
  std::string().swap(buf_);
  return error_;
}

Status SpillSegmentReader::Ensure(size_t n) {
  if (buf_.size() - pos_ >= n) return Status::OK();
  // Compact the consumed prefix, then top up from disk. The chunk that
  // ends the run reads its trailer too when it fits, so a run of at most
  // kIoChunk bytes is one read.
  buf_.erase(0, pos_);
  pos_ = 0;
  while (buf_.size() < n && remaining_ > 0) {
    const size_t frames =
        static_cast<size_t>(std::min<uint64_t>(remaining_, kIoChunk));
    const size_t trailer = remaining_ + 4 <= kIoChunk ? 4 : 0;
    const size_t old = buf_.size();
    buf_.resize(old + frames + trailer);
    DDP_RETURN_NOT_OK(file_->ReadAt(offset_, &buf_[old], frames + trailer));
    std::memcpy(trailer_, buf_.data() + old + frames, trailer);
    have_trailer_ = trailer > 0;
    buf_.resize(old + frames);
    crc_ = Crc32(buf_.data() + old, frames, crc_);
    offset_ += frames;
    remaining_ -= frames;
  }
  if (buf_.size() - pos_ < n) {
    return Status::IoError("spill run truncated in " + file_->path());
  }
  return Status::OK();
}

Status SpillSegmentReader::NextFrame(std::string_view* payload, bool* eof) {
  *eof = false;
  if (bad_extent_) {
    return Status::IoError("spill run shorter than its CRC trailer");
  }
  if (remaining_ == 0 && pos_ == buf_.size()) {
    // Clean end of run: verify the accumulated CRC against the trailer.
    if (!have_trailer_) DDP_RETURN_NOT_OK(file_->ReadAt(offset_, trailer_, 4));
    const auto* t = reinterpret_cast<const uint8_t*>(trailer_);
    const uint32_t stored = static_cast<uint32_t>(t[0]) |
                            (static_cast<uint32_t>(t[1]) << 8) |
                            (static_cast<uint32_t>(t[2]) << 16) |
                            (static_cast<uint32_t>(t[3]) << 24);
    if (stored != crc_) {
      return Status::IoError("spill run CRC mismatch in " + file_->path());
    }
    *eof = true;
    return Status::OK();
  }
  // Decode the varint frame length byte by byte (spans at most 10 bytes).
  uint64_t len = 0;
  int shift = 0;
  while (true) {
    DDP_RETURN_NOT_OK(Ensure(1));
    const uint8_t b = static_cast<uint8_t>(buf_[pos_++]);
    if (shift >= 64) {
      return Status::IoError("corrupt frame length in " + file_->path());
    }
    len |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  DDP_RETURN_NOT_OK(Ensure(static_cast<size_t>(len)));
  *payload = std::string_view(buf_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status MemoryFrameReader::NextFrame(std::string_view* payload, bool* eof) {
  *eof = false;
  if (pos_ == buf_->size()) {
    *eof = true;
    return Status::OK();
  }
  uint64_t len = 0;
  int shift = 0;
  while (true) {
    if (pos_ == buf_->size()) {
      return Status::IoError("truncated frame header in map output");
    }
    const uint8_t b = static_cast<uint8_t>((*buf_)[pos_++]);
    if (shift >= 64) {
      return Status::IoError("corrupt frame length in map output");
    }
    len |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  if (buf_->size() - pos_ < len) {
    return Status::IoError("truncated frame in map output");
  }
  *payload = std::string_view(buf_->data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

namespace internal {

std::string ResolveSpillDir(const std::string& configured) {
  if (!configured.empty()) return configured;
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) tmp = "/tmp";
  return (tmp / "ddp-spill").string();
}

uint64_t NextSpillFileId() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string SpillOwnerTag() { return "p" + std::to_string(CurrentPid()); }

}  // namespace internal
}  // namespace mr
}  // namespace ddp
