#include "mapreduce/spill.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <filesystem>
#include <system_error>

#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

namespace ddp {
namespace mr {

namespace fs = std::filesystem;

namespace {

long CurrentPid() { return static_cast<long>(::getpid()); }

/// True when `pid` names a live process (or liveness cannot be probed, in
/// which case the reaper stays conservative and keeps the file).
bool ProcessAlive(long pid) {
  if (pid <= 0) return true;
  if (::kill(static_cast<pid_t>(pid), 0) == 0) return true;
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

SpillFileHandle::SpillFileHandle(std::string path)
    : path_(std::move(path)), owner_pid_(CurrentPid()) {}

SpillFileHandle::~SpillFileHandle() {
  // Unlink only in the owning process: a forked worker inherits the
  // parent's handles, and the copy that merely inherited the handle must
  // not destroy the file.
  if (owner_pid_ != CurrentPid()) return;
  std::error_code ec;
  fs::remove(path_, ec);  // best effort; a vanished file is fine
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

void AppendRunTrailer(std::string* segment) {
  const uint32_t crc = Crc32(segment->data(), segment->size());
  segment->push_back(static_cast<char>(crc & 0xFF));
  segment->push_back(static_cast<char>((crc >> 8) & 0xFF));
  segment->push_back(static_cast<char>((crc >> 16) & 0xFF));
  segment->push_back(static_cast<char>((crc >> 24) & 0xFF));
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

Result<std::string> ReadFileExtent(const std::string& path, uint64_t offset,
                                   uint64_t length) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open spill file " + path);
  in.seekg(static_cast<std::streamoff>(offset));
  std::string out;
  out.resize(static_cast<size_t>(length));
  in.read(out.data(), static_cast<std::streamsize>(length));
  if (static_cast<uint64_t>(in.gcount()) != length) {
    return Status::IoError("short read from spill file " + path);
  }
  return out;
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
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open spill file " + path);
  }
  auto handle = std::make_shared<SpillFileHandle>(path);
  return std::unique_ptr<SpillFileWriter>(
      new SpillFileWriter(std::move(handle), std::move(out)));
}

void SpillFileWriter::BeginRun() {
  run_start_ = offset_;
  crc_ = 0;
}

void SpillFileWriter::Append(const void* data, size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  crc_ = Crc32(data, n, crc_);
  offset_ += n;
}

Result<SpillExtent> SpillFileWriter::EndRun() {
  char trailer[4];
  trailer[0] = static_cast<char>(crc_ & 0xFF);
  trailer[1] = static_cast<char>((crc_ >> 8) & 0xFF);
  trailer[2] = static_cast<char>((crc_ >> 16) & 0xFF);
  trailer[3] = static_cast<char>((crc_ >> 24) & 0xFF);
  out_.write(trailer, sizeof(trailer));
  offset_ += sizeof(trailer);
  if (!out_) {
    return Status::Internal("write failed on spill file " + handle_->path());
  }
  return SpillExtent{run_start_, offset_ - run_start_};
}

Status SpillFileWriter::Close() {
  out_.flush();
  if (!out_) {
    return Status::Internal("flush failed on spill file " + handle_->path());
  }
  out_.close();
  return Status::OK();
}

namespace {
constexpr size_t kReadChunk = 64 * 1024;
}  // namespace

Status SpillSegmentReader::OpenIfNeeded() {
  if (opened_) return Status::OK();
  in_.open(file_->path(), std::ios::binary);
  if (!in_) {
    return Status::IoError("cannot open spill file " + file_->path());
  }
  in_.seekg(static_cast<std::streamoff>(offset_));
  opened_ = true;
  return Status::OK();
}

Status SpillSegmentReader::Ensure(size_t n) {
  if (buf_.size() - pos_ >= n) return Status::OK();
  // Compact the consumed prefix, then top up from disk.
  buf_.erase(0, pos_);
  pos_ = 0;
  DDP_RETURN_NOT_OK(OpenIfNeeded());
  while (buf_.size() < n && remaining_ > 0) {
    const size_t want =
        static_cast<size_t>(std::min<uint64_t>(remaining_, kReadChunk));
    const size_t old = buf_.size();
    buf_.resize(old + want);
    in_.read(&buf_[old], static_cast<std::streamsize>(want));
    if (static_cast<size_t>(in_.gcount()) != want) {
      return Status::IoError("short read from spill file " + file_->path());
    }
    crc_ = Crc32(buf_.data() + old, want, crc_);
    offset_ += want;
    remaining_ -= want;
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
    DDP_RETURN_NOT_OK(OpenIfNeeded());
    char trailer[4];
    in_.read(trailer, sizeof(trailer));
    if (static_cast<size_t>(in_.gcount()) != sizeof(trailer)) {
      return Status::IoError("missing CRC trailer in " + file_->path());
    }
    const uint32_t stored =
        static_cast<uint32_t>(static_cast<uint8_t>(trailer[0])) |
        (static_cast<uint32_t>(static_cast<uint8_t>(trailer[1])) << 8) |
        (static_cast<uint32_t>(static_cast<uint8_t>(trailer[2])) << 16) |
        (static_cast<uint32_t>(static_cast<uint8_t>(trailer[3])) << 24);
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
