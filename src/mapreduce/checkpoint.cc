#include "mapreduce/checkpoint.h"

#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/file_io.h"

namespace ddp {
namespace mr {

namespace {

constexpr char kMagic[4] = {'D', 'P', 'C', 'K'};

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A failure here surfaces as NotFound/IoError on first use.
}

std::string CheckpointStore::NextKey(const std::string& job_name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = std::to_string(seq_++) + "-" + job_name;
  // Job names come from user code; keep keys filesystem-safe.
  for (char& c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '_') {
      c = '_';
    }
  }
  return key;
}

void CheckpointStore::ResetSequence() {
  std::lock_guard<std::mutex> lock(mu_);
  seq_ = 0;
}

uint64_t CheckpointStore::sequence() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

void CheckpointStore::SetKillAfter(int64_t saves) {
  std::lock_guard<std::mutex> lock(mu_);
  kill_after_ = saves;
  saves_ = 0;
}

std::string CheckpointStore::PathFor(const std::string& key) const {
  return (std::filesystem::path(dir_) / (key + ".ckpt")).string();
}

bool CheckpointStore::Has(const std::string& key) const {
  return LoadBytes(key).ok();
}

Result<std::string> CheckpointStore::LoadBytes(const std::string& key) const {
  Result<std::string> file = ReadWholeFile(PathFor(key));
  if (file.status().IsNotFound()) {
    return Status::NotFound("no checkpoint entry for " + key);
  }
  DDP_RETURN_NOT_OK(file.status());

  BufferReader reader(*file);
  char magic[4];
  DDP_RETURN_NOT_OK(reader.GetRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("checkpoint " + key + ": bad magic");
  }
  uint64_t size = 0;
  DDP_RETURN_NOT_OK(reader.GetVarint64(&size));
  std::string payload;
  if (reader.remaining() < sizeof(uint64_t) ||
      size > reader.remaining() - sizeof(uint64_t)) {
    return Status::IoError("checkpoint " + key + ": truncated");
  }
  payload.resize(size);
  DDP_RETURN_NOT_OK(reader.GetRaw(payload.data(), size));
  uint64_t checksum = 0;
  DDP_RETURN_NOT_OK(reader.GetRaw(&checksum, sizeof(checksum)));
  if (checksum != Fnv1a(payload)) {
    return Status::IoError("checkpoint " + key + ": checksum mismatch");
  }
  return payload;
}

Status CheckpointStore::SaveBytes(const std::string& key,
                                  const std::string& payload) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (kill_after_ >= 0 && saves_ >= kill_after_) {
      return Status::Cancelled("simulated driver kill after " +
                               std::to_string(saves_) + " checkpointed jobs");
    }
    ++saves_;
  }
  BufferWriter w;
  w.PutRaw(kMagic, sizeof(kMagic));
  w.PutVarint64(payload.size());
  w.PutRaw(payload.data(), payload.size());
  uint64_t checksum = Fnv1a(payload);
  w.PutRaw(&checksum, sizeof(checksum));

  const std::string path = PathFor(key);
  const std::string tmp = path + ".tmp";
  // A failed save leaves nothing behind, and names the errno of the call
  // that failed: POSIX calls keep it, where a stream does not promise to.
  auto fail = [&tmp](const std::string& why, int err) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return Status::IoError(why + ": " + std::strerror(err));
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return fail("cannot write checkpoint " + tmp, errno);
  const std::string& bytes = w.data();
  for (size_t done = 0; done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return fail("short write to checkpoint " + tmp, err);
    }
    done += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) return fail("cannot close checkpoint " + tmp, errno);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("cannot commit checkpoint " + path, ec.value());
  return Status::OK();
}

}  // namespace mr
}  // namespace ddp
