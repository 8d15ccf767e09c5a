#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file serde.h
/// Compact binary serialization used by the MapReduce shuffle. Intermediate
/// key/value pairs are encoded into per-partition byte buffers so that the
/// shuffle volume reported by JobCounters reflects real serialized bytes,
/// mirroring what a Hadoop-style system would move over the network.
///
/// Encoding: unsigned varints (LEB128) for integral types, zig-zag for signed,
/// raw little-endian for floating point, length-prefixed bytes for strings
/// and vectors. User structs participate by specializing `Serde<T>` or by
/// providing members
///   void SerializeTo(BufferWriter* w) const;
///   static Status DeserializeFrom(BufferReader* r, T* out);

namespace ddp {

/// Append-only byte sink.
class BufferWriter {
 public:
  BufferWriter() = default;
  explicit BufferWriter(std::string* external) : external_(external) {}

  void PutByte(uint8_t b) { buf().push_back(static_cast<char>(b)); }

  void PutRaw(const void* data, size_t n) {
    buf().append(static_cast<const char*>(data), n);
  }

  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      PutByte(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutByte(static_cast<uint8_t>(v));
  }

  void PutVarint32(uint32_t v) { PutVarint64(v); }

  /// Zig-zag encodes a signed integer.
  void PutSignedVarint64(int64_t v) {
    PutVarint64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  void PutDouble(double v) {
    static_assert(sizeof(double) == 8);
    PutRaw(&v, sizeof(v));
  }

  void PutFloat(float v) { PutRaw(&v, sizeof(v)); }

  void PutString(std::string_view s) {
    PutVarint64(s.size());
    PutRaw(s.data(), s.size());
  }

  /// Count-prefixed doubles (point coordinates); read by GetDoubles.
  void PutDoubles(const std::vector<double>& v) {
    PutVarint64(v.size());
    for (double d : v) PutDouble(d);
  }

  size_t size() const { return buf().size(); }
  const std::string& data() const { return buf(); }
  std::string Release() { return std::move(buf()); }

 private:
  std::string& buf() { return external_ ? *external_ : owned_; }
  const std::string& buf() const { return external_ ? *external_ : owned_; }

  std::string owned_;
  std::string* external_ = nullptr;
};

/// Sequential byte source over a borrowed buffer.
class BufferReader {
 public:
  BufferReader(const char* data, size_t size)
      : cur_(data), end_(data + size) {}
  explicit BufferReader(const std::string& s) : BufferReader(s.data(), s.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - cur_); }
  bool exhausted() const { return cur_ == end_; }

  Status GetByte(uint8_t* out) {
    if (cur_ == end_) return Truncated();
    *out = static_cast<uint8_t>(*cur_++);
    return Status::OK();
  }

  Status GetRaw(void* out, size_t n) {
    if (remaining() < n) return Truncated();
    std::memcpy(out, cur_, n);
    cur_ += n;
    return Status::OK();
  }

  Status GetVarint64(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t b = 0;
      DDP_RETURN_NOT_OK(GetByte(&b));
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::IoError("varint64 too long");
  }

  Status GetVarint32(uint32_t* out) {
    uint64_t v;
    DDP_RETURN_NOT_OK(GetVarint64(&v));
    if (v > UINT32_MAX) return Status::IoError("varint32 overflow");
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }

  Status GetSignedVarint64(int64_t* out) {
    uint64_t u;
    DDP_RETURN_NOT_OK(GetVarint64(&u));
    *out = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return Status::OK();
  }

  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }
  Status GetFloat(float* out) { return GetRaw(out, sizeof(*out)); }

  /// Reads an element count and rejects one that the remaining bytes
  /// cannot hold at `min_element_bytes` apiece — the bound a decoder checks
  /// before it sizes a container by a count the peer declared.
  Status GetCount(uint64_t* n, size_t min_element_bytes = 1) {
    DDP_RETURN_NOT_OK(GetVarint64(n));
    if (*n > remaining() / min_element_bytes) {
      return Status::IoError("declared count exceeds the remaining bytes");
    }
    return Status::OK();
  }

  Status GetDoubles(std::vector<double>* out) {
    uint64_t n = 0;
    DDP_RETURN_NOT_OK(GetCount(&n, sizeof(double)));
    out->resize(static_cast<size_t>(n));
    for (double& v : *out) DDP_RETURN_NOT_OK(GetDouble(&v));
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n;
    DDP_RETURN_NOT_OK(GetVarint64(&n));
    if (remaining() < n) return Truncated();
    out->assign(cur_, n);
    cur_ += n;
    return Status::OK();
  }

  /// Carves the next `n` bytes into a sub-reader and advances past them.
  /// The slice borrows this reader's buffer. Used by the MapReduce shuffle's
  /// record framing: a corrupt record can be skipped by advancing to the next
  /// frame without trusting the corrupt payload's own length fields.
  Status Slice(size_t n, BufferReader* out) {
    if (remaining() < n) return Truncated();
    *out = BufferReader(cur_, n);
    cur_ += n;
    return Status::OK();
  }

 private:
  static Status Truncated() { return Status::IoError("truncated buffer"); }

  const char* cur_;
  const char* end_;
};

/// Primary serialization customization point.
template <typename T, typename Enable = void>
struct Serde {
  // Default: dispatch to member functions.
  static void Write(BufferWriter* w, const T& v) { v.SerializeTo(w); }
  static Status Read(BufferReader* r, T* out) {
    return T::DeserializeFrom(r, out);
  }
};

template <typename T>
struct Serde<T, std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T>>> {
  static void Write(BufferWriter* w, const T& v) {
    w->PutSignedVarint64(static_cast<int64_t>(v));
  }
  static Status Read(BufferReader* r, T* out) {
    int64_t v;
    DDP_RETURN_NOT_OK(r->GetSignedVarint64(&v));
    *out = static_cast<T>(v);
    return Status::OK();
  }
};

template <typename T>
struct Serde<T,
             std::enable_if_t<std::is_integral_v<T> && std::is_unsigned_v<T>>> {
  static void Write(BufferWriter* w, const T& v) {
    w->PutVarint64(static_cast<uint64_t>(v));
  }
  static Status Read(BufferReader* r, T* out) {
    uint64_t v;
    DDP_RETURN_NOT_OK(r->GetVarint64(&v));
    *out = static_cast<T>(v);
    return Status::OK();
  }
};

template <>
struct Serde<double> {
  static void Write(BufferWriter* w, const double& v) { w->PutDouble(v); }
  static Status Read(BufferReader* r, double* out) { return r->GetDouble(out); }
};

template <>
struct Serde<float> {
  static void Write(BufferWriter* w, const float& v) { w->PutFloat(v); }
  static Status Read(BufferReader* r, float* out) { return r->GetFloat(out); }
};

template <>
struct Serde<std::string> {
  static void Write(BufferWriter* w, const std::string& v) { w->PutString(v); }
  static Status Read(BufferReader* r, std::string* out) {
    return r->GetString(out);
  }
};

template <typename T>
struct Serde<std::vector<T>> {
  static void Write(BufferWriter* w, const std::vector<T>& v) {
    w->PutVarint64(v.size());
    for (const T& e : v) Serde<T>::Write(w, e);
  }
  static Status Read(BufferReader* r, std::vector<T>* out) {
    uint64_t n;
    DDP_RETURN_NOT_OK(r->GetCount(&n));  // every element is >= 1 byte
    out->clear();
    out->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      T e;
      DDP_RETURN_NOT_OK(Serde<T>::Read(r, &e));
      out->push_back(std::move(e));
    }
    return Status::OK();
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Write(BufferWriter* w, const std::pair<A, B>& v) {
    Serde<A>::Write(w, v.first);
    Serde<B>::Write(w, v.second);
  }
  static Status Read(BufferReader* r, std::pair<A, B>* out) {
    DDP_RETURN_NOT_OK(Serde<A>::Read(r, &out->first));
    return Serde<B>::Read(r, &out->second);
  }
};

/// Incremental CRC32 (polynomial 0xEDB88320, the zlib/IEEE one). Pass the
/// previous return value as `crc` to checksum data in chunks; start at 0.
/// Checks spill runs, channel frames and DDPB v2 dataset files.
///
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked once at run time), a
/// buffer of 64 bytes or more has its largest 16-byte multiple folded with
/// carry-less multiplication; the tail, shorter buffers and every other CPU
/// go through a 256-entry byte table. Both compute the same function, so a
/// value is the same on every CPU and for any split of a buffer into chunks.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Convenience: serialized byte size of one value.
template <typename T>
size_t SerializedSize(const T& v) {
  BufferWriter w;
  Serde<T>::Write(&w, v);
  return w.size();
}

/// Compile-time "does Serde<T> work?" probe, mirroring the Serde
/// specializations above. The primary Serde template dispatches to member
/// functions, so the member probe covers user structs; the partial
/// specializations cover the built-in encodings. Used by the MapReduce
/// checkpoint layer to persist job outputs only when they are encodable.
template <typename T, typename Enable = void>
struct HasSerde : std::false_type {};

template <typename T>
struct HasSerde<
    T, std::enable_if_t<std::is_same_v<
           decltype(std::declval<const T&>().SerializeTo(
               static_cast<BufferWriter*>(nullptr))),
           void>&& std::is_same_v<decltype(T::DeserializeFrom(
                                      static_cast<BufferReader*>(nullptr),
                                      static_cast<T*>(nullptr))),
                                  Status>>> : std::true_type {};

template <typename T>
struct HasSerde<T, std::enable_if_t<std::is_integral_v<T>>> : std::true_type {};
template <>
struct HasSerde<double> : std::true_type {};
template <>
struct HasSerde<float> : std::true_type {};
template <>
struct HasSerde<std::string> : std::true_type {};
template <typename T>
struct HasSerde<std::vector<T>> : HasSerde<T> {};
template <typename A, typename B>
struct HasSerde<std::pair<A, B>>
    : std::bool_constant<HasSerde<A>::value && HasSerde<B>::value> {};

template <typename T>
inline constexpr bool has_serde_v = HasSerde<T>::value;

}  // namespace ddp

