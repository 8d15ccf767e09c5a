#include "mapreduce/checkpoint.h"

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>

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
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot write checkpoint " + tmp);
    out.write(w.data().data(), static_cast<std::streamsize>(w.size()));
    if (!out) return Status::IoError("short write to checkpoint " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot commit checkpoint " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace mr
}  // namespace ddp
