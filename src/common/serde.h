#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

/// \file serde.h
/// Compact binary serialization used by the MapReduce shuffle, the worker
/// channel, the serving protocol, driver contexts and checkpoints.
/// Intermediate key/value pairs are encoded into per-partition byte buffers
/// so that the shuffle volume reported by JobCounters reflects real
/// serialized bytes, mirroring what a Hadoop-style system would move over
/// the network.
///
/// Encoding: unsigned varints (LEB128) for unsigned integers, zig-zag
/// varints for signed ones, one raw byte for a bool or an enum, raw
/// little-endian for floating point, length-prefixed bytes for strings and
/// count-prefixed elements for vectors. A decoded integer outside its
/// type's range is an IoError, never a cast.
///
/// A struct names its wire fields once, in wire order, in one static
/// template that serves both the writing (const) and the reading side:
///
///   template <typename S>
///   static auto Fields(S& s) {
///     return FieldRefs(s.task, s.attempt, AsByte(s.state), s.payload);
///   }
///
/// and Serde<T> writes and reads that list. Wrappers in a list change how
/// one field is written: AsByte (a uint8_t as one raw byte rather than a
/// varint), LengthPrefixed (a nested message as its own length-prefixed
/// encoding), Borrowed (written from a borrowed object, read into owned
/// storage). A message also derives WireMessage<T, "T">, which gives it
/// Encode() and Decode(), the latter rejecting trailing bytes.
///
/// A codec whose wire shape depends on a field's value cannot be a field
/// list; such a type keeps a hand-written pair of members
///   void SerializeTo(BufferWriter* w) const;
///   static Status DeserializeFrom(BufferReader* r, T* out);
/// which ddp_lint's R8 checks for symmetry. Today that is only
/// eddpcjobs::MemberOrQuery, whose delta_ub_sq is written for queries alone.

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
    uint64_t v = 0;
    DDP_RETURN_NOT_OK(GetVarint64(&v));
    if (v > UINT32_MAX) return Status::IoError("varint32 overflow");
    *out = static_cast<uint32_t>(v);
    return Status::OK();
  }

  Status GetSignedVarint64(int64_t* out) {
    uint64_t u = 0;
    DDP_RETURN_NOT_OK(GetVarint64(&u));
    *out = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return Status::OK();
  }

  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }

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
    uint64_t n = 0;
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
  static void Write(BufferWriter* w, const T& v)
    requires requires { v.SerializeTo(w); }
  {
    v.SerializeTo(w);
  }
  static Status Read(BufferReader* r, T* out)
    requires requires { T::DeserializeFrom(r, out); }
  {
    return T::DeserializeFrom(r, out);
  }
};

/// True when Serde<T> writes and reads T. The MapReduce runtime ships a
/// job's records to worker processes, and checkpoints its output, only when
/// they are encodable.
template <typename T>
inline constexpr bool has_serde_v =
    requires(BufferWriter* w, BufferReader* r, const T& v, T* out) {
      Serde<T>::Write(w, v);
      Serde<T>::Read(r, out);
    };

/// Stores a decoded integer `v` into `*out`, or fails when T cannot hold it.
template <typename T, typename V>
Status NarrowInto(V v, T* out) {
  if (!std::in_range<T>(v)) {
    return Status::IoError("decoded integer " + std::to_string(v) +
                           " is out of range for a " +
                           std::to_string(8 * sizeof(T)) + "-bit field");
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

template <typename T>
inline constexpr bool is_byte_v = std::is_enum_v<T> || std::is_same_v<T, bool>;

/// Integers: a varint, zig-zagged when signed.
template <typename T>
struct Serde<T, std::enable_if_t<std::is_integral_v<T> && !is_byte_v<T>>> {
  static void Write(BufferWriter* w, const T& v) {
    if constexpr (std::is_signed_v<T>) {
      w->PutSignedVarint64(v);
    } else {
      w->PutVarint64(v);
    }
  }
  static Status Read(BufferReader* r, T* out) {
    std::conditional_t<std::is_signed_v<T>, int64_t, uint64_t> v = 0;
    if constexpr (std::is_signed_v<T>) {
      DDP_RETURN_NOT_OK(r->GetSignedVarint64(&v));
    } else {
      DDP_RETURN_NOT_OK(r->GetVarint64(&v));
    }
    return NarrowInto(v, out);
  }
};

/// A bool or an enum is one byte; a nonzero byte reads as true. A scoped
/// enum holds any byte, so its decoder checks the value against the enum's
/// last one after the read, naming the field.
template <typename T>
struct Serde<T, std::enable_if_t<is_byte_v<T>>> {
  static void Write(BufferWriter* w, const T& v) {
    w->PutByte(static_cast<uint8_t>(v));
  }
  static Status Read(BufferReader* r, T* out) {
    uint8_t b = 0;
    DDP_RETURN_NOT_OK(r->GetByte(&b));
    *out = static_cast<T>(b);
    return Status::OK();
  }
};

template <>
struct Serde<double> {
  static void Write(BufferWriter* w, const double& v) { w->PutDouble(v); }
  static Status Read(BufferReader* r, double* out) { return r->GetDouble(out); }
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
  static void Write(BufferWriter* w, const std::vector<T>& v)
    requires has_serde_v<T>
  {
    w->PutVarint64(v.size());
    for (const T& e : v) Serde<T>::Write(w, e);
  }
  static Status Read(BufferReader* r, std::vector<T>* out)
    requires has_serde_v<T>
  {
    uint64_t n = 0;
    DDP_RETURN_NOT_OK(r->GetCount(&n));  // every element is >= 1 byte
    out->clear();
    out->reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      T e{};
      DDP_RETURN_NOT_OK(Serde<T>::Read(r, &e));
      out->push_back(std::move(e));
    }
    return Status::OK();
  }
};

/// Coordinates: the same bytes as any vector, read with one 8-byte-per-
/// element count bound and one resize.
template <>
struct Serde<std::vector<double>> {
  static void Write(BufferWriter* w, const std::vector<double>& v) {
    w->PutDoubles(v);
  }
  static Status Read(BufferReader* r, std::vector<double>* out) {
    return r->GetDoubles(out);
  }
};

template <typename A, typename B>
struct Serde<std::pair<A, B>> {
  static void Write(BufferWriter* w, const std::pair<A, B>& v)
    requires has_serde_v<A> && has_serde_v<B>
  {
    Serde<A>::Write(w, v.first);
    Serde<B>::Write(w, v.second);
  }
  static Status Read(BufferReader* r, std::pair<A, B>* out)
    requires has_serde_v<A> && has_serde_v<B>
  {
    DDP_RETURN_NOT_OK(Serde<A>::Read(r, &out->first));
    return Serde<B>::Read(r, &out->second);
  }
};

/// The field list of a `Fields` function: each field by reference, each
/// wrapper below by value.
template <typename... F>
auto FieldRefs(F&&... fields) {
  return std::tuple<F...>(std::forward<F>(fields)...);
}

/// A uint8_t field written as one raw byte rather than a varint.
template <typename U>
struct AsByte {
  explicit AsByte(U& field) : v(field) {}
  U& v;
};

template <typename U>
struct Serde<AsByte<U>> {
  static void Write(BufferWriter* w, const AsByte<U>& f) { w->PutByte(f.v); }
  static Status Read(BufferReader* r, AsByte<U>* f) {
    return r->GetByte(&f->v);
  }
};

/// A nested message written as its own length-prefixed encoding, so its
/// decoder sees exactly its bytes.
template <typename M>
struct LengthPrefixed {
  explicit LengthPrefixed(M& field) : m(field) {}
  M& m;
};

template <typename M>
struct Serde<LengthPrefixed<M>> {
  static void Write(BufferWriter* w, const LengthPrefixed<M>& f) {
    w->PutString(f.m.Encode());
  }
  static Status Read(BufferReader* r, LengthPrefixed<M>* f) {
    std::string bytes;
    DDP_RETURN_NOT_OK(r->GetString(&bytes));
    return std::remove_const_t<M>::Decode(bytes, &f->m);
  }
};

/// A field the writing side borrows and the reading side owns: written from
/// `*borrow`, read into `owned`. The reader points the borrow at `owned`.
template <typename B, typename O>
struct Borrowed {
  Borrowed(B& borrow_field, O& owned_field)
      : borrow(borrow_field), owned(owned_field) {}
  B& borrow;
  O& owned;
};

template <typename B, typename O>
struct Serde<Borrowed<B, O>> {
  using Value = std::remove_const_t<O>;
  static void Write(BufferWriter* w, const Borrowed<B, O>& f) {
    Serde<Value>::Write(w, *f.borrow);
  }
  static Status Read(BufferReader* r, Borrowed<B, O>* f) {
    return Serde<Value>::Read(r, &f->owned);
  }
};

/// A type that names its wire fields (see the file comment).
template <typename T>
concept HasFields = requires(T& t) { T::Fields(t); };

/// The one codec of every type that names its fields: each field in list
/// order, the first failed read ending the decode.
template <typename T>
struct Serde<T, std::enable_if_t<HasFields<T>>> {
  static void Write(BufferWriter* w, const T& v) {
    std::apply(
        [w](const auto&... f) {
          (Serde<std::remove_cvref_t<decltype(f)>>::Write(w, f), ...);
        },
        T::Fields(v));
  }
  static Status Read(BufferReader* r, T* out) {
    auto fields = T::Fields(*out);
    Status st;
    std::apply(
        [&](auto&... f) {
          (... && (st = Serde<std::remove_cvref_t<decltype(f)>>::Read(r, &f))
                      .ok());
        },
        fields);
    return st;
  }
};

/// A message type's name, as a template argument.
template <size_t N>
struct WireName {
  constexpr WireName(const char (&name)[N]) { std::copy_n(name, N, text); }
  char text[N];
};

/// Gives message T, which names its fields, its whole-buffer codec: Encode()
/// writes the fields, Decode() reads them and rejects trailing bytes.
template <typename T, WireName kName>
struct WireMessage {
  std::string Encode() const {
    std::string bytes;
    BufferWriter w(&bytes);
    Serde<T>::Write(&w, static_cast<const T&>(*this));
    return bytes;
  }
  static Status Decode(const std::string& bytes, T* out) {
    BufferReader r(bytes);
    DDP_RETURN_NOT_OK(Serde<T>::Read(&r, out));
    if (!r.exhausted()) {
      return Status::IoError(std::string("trailing bytes in ") + kName.text);
    }
    return Status::OK();
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

}  // namespace ddp

