#include "mapreduce/spill.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace ddp {
namespace mr {

namespace fs = std::filesystem;

SpillFileHandle::SpillFileHandle(std::string label, int fd)
    : label_(std::move(label)), fd_(fd) {}

SpillFileHandle::~SpillFileHandle() {
  if (fd_ >= 0) ::close(fd_);
}

Status SpillFileHandle::ReadAt(uint64_t offset, char* out, size_t n) const {
  while (n > 0) {
    const ssize_t got = ::pread(fd_, out, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("cannot read spill file " + label_ + ": " +
                             std::strerror(errno));
    }
    if (got == 0) {
      return Status::IoError("short read from spill file " + label_);
    }
    out += got;
    n -= static_cast<size_t>(got);
    offset += static_cast<uint64_t>(got);
  }
  return Status::OK();
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
    const std::string& dir, const std::string& name) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create spill dir " + dir + ": " +
                            ec.message());
  }
  // No name ever reaches the directory: the kernel frees the file's blocks
  // when its last descriptor closes, however the processes holding one
  // die. A filesystem without O_TMPFILE fails the attempt; a named file
  // unlinked after its create would leak whenever a crash fell between.
  const int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (fd < 0) {
    return Status::Internal("cannot create an O_TMPFILE spill file in " +
                            dir + ": " + std::strerror(errno));
  }
  auto handle = std::make_shared<SpillFileHandle>(dir + "/" + name, fd);
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
                                handle_->label() + ": " + std::strerror(errno));
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
    return Status::IoError("spill run truncated in " + file_->label());
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
      return Status::IoError("spill run CRC mismatch in " + file_->label());
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
      return Status::IoError("corrupt frame length in " + file_->label());
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

std::string SpillOwnerTag() { return "p" + std::to_string(::getpid()); }

}  // namespace internal
}  // namespace mr
}  // namespace ddp
