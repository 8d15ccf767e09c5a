#include "dataset/binary_io.h"

#include <fstream>

#include "common/file_io.h"
#include "common/serde.h"

namespace ddp {

namespace {
constexpr char kMagic[4] = {'D', 'D', 'P', 'B'};
constexpr uint32_t kWriteVersion = 2;  // v2 appends a CRC32 trailer
constexpr uint32_t kMaxVersion = 2;

Status ParseHeader(BufferReader* r, BinaryFileInfo* info) {
  char magic[4];
  DDP_RETURN_NOT_OK(r->GetRaw(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a DDPB dataset (bad magic)");
  }
  DDP_RETURN_NOT_OK(r->GetVarint32(&info->version));
  if (info->version == 0 || info->version > kMaxVersion) {
    return Status::IoError("unsupported DDPB version " +
                           std::to_string(info->version));
  }
  DDP_RETURN_NOT_OK(r->GetVarint64(&info->dim));
  DDP_RETURN_NOT_OK(r->GetVarint64(&info->num_points));
  if (info->dim == 0) return Status::IoError("zero dimension");
  uint8_t labeled = 0;
  DDP_RETURN_NOT_OK(r->GetByte(&labeled));
  info->has_labels = labeled != 0;
  return Status::OK();
}

}  // namespace

std::string SerializeDataset(const Dataset& dataset) {
  BufferWriter w;
  w.PutRaw(kMagic, sizeof(kMagic));
  w.PutVarint32(kWriteVersion);
  w.PutVarint64(dataset.dim());
  w.PutVarint64(dataset.size());
  w.PutByte(dataset.has_labels() ? 1 : 0);
  w.PutRaw(dataset.values().data(), dataset.values().size() * sizeof(double));
  if (dataset.has_labels()) {
    for (int label : dataset.labels()) w.PutSignedVarint64(label);
  }
  std::string bytes = w.Release();
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  BufferWriter trailer(&bytes);
  trailer.PutByte(static_cast<uint8_t>(crc & 0xFF));
  trailer.PutByte(static_cast<uint8_t>((crc >> 8) & 0xFF));
  trailer.PutByte(static_cast<uint8_t>((crc >> 16) & 0xFF));
  trailer.PutByte(static_cast<uint8_t>((crc >> 24) & 0xFF));
  return bytes;
}

Result<Dataset> DeserializeDataset(const std::string& bytes) {
  // v2: the last 4 bytes are a CRC32 of everything before them. Verify
  // before trusting any length field in the content.
  size_t content_size = bytes.size();
  {
    BufferReader peek(bytes);
    BinaryFileInfo info;
    DDP_RETURN_NOT_OK(ParseHeader(&peek, &info));
    if (info.version >= 2) {
      if (bytes.size() < 4) return Status::IoError("truncated DDPB trailer");
      content_size = bytes.size() - 4;
      const uint8_t* t =
          reinterpret_cast<const uint8_t*>(bytes.data()) + content_size;
      const uint32_t stored = static_cast<uint32_t>(t[0]) |
                              (static_cast<uint32_t>(t[1]) << 8) |
                              (static_cast<uint32_t>(t[2]) << 16) |
                              (static_cast<uint32_t>(t[3]) << 24);
      if (stored != Crc32(bytes.data(), content_size)) {
        return Status::IoError("DDPB checksum mismatch (corrupt file)");
      }
    }
  }
  BufferReader r(bytes.data(), content_size);
  BinaryFileInfo info;
  DDP_RETURN_NOT_OK(ParseHeader(&r, &info));
  const uint64_t dim = info.dim;
  const uint64_t n = info.num_points;
  if (r.remaining() < n * dim * sizeof(double)) {
    return Status::IoError("truncated value block");
  }
  std::vector<double> values(n * dim);
  DDP_RETURN_NOT_OK(r.GetRaw(values.data(), values.size() * sizeof(double)));
  DDP_ASSIGN_OR_RETURN(Dataset ds, Dataset::FromValues(dim, std::move(values)));
  if (info.has_labels) {
    std::vector<int> labels(n);
    for (uint64_t i = 0; i < n; ++i) {
      int64_t v;
      DDP_RETURN_NOT_OK(r.GetSignedVarint64(&v));
      labels[i] = static_cast<int>(v);
    }
    ds.set_labels(std::move(labels));
  }
  if (!r.exhausted()) return Status::IoError("trailing bytes after dataset");
  return ds;
}

Status WriteBinaryFile(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  std::string bytes = SerializeDataset(dataset);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<Dataset> ReadBinaryFile(const std::string& path) {
  Result<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) return Status::IoError(bytes.status().message());
  Result<Dataset> ds = DeserializeDataset(*bytes);
  if (!ds.ok()) {
    return Status::IoError(path + ": " + ds.status().message());
  }
  return ds;
}

Result<BinaryFileInfo> PeekBinaryFileInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  // The header is 4 magic bytes plus four varints and a flag byte: 64 bytes
  // covers any well-formed header.
  char head[64];
  in.read(head, sizeof(head));
  const size_t got = static_cast<size_t>(in.gcount());
  BufferReader r(head, got);
  BinaryFileInfo info;
  Status st = ParseHeader(&r, &info);
  if (!st.ok()) return Status::IoError(path + ": " + st.message());
  return info;
}

}  // namespace ddp
