#include "common/serde.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ddp {

namespace {

std::array<uint32_t, 256> BuildCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

// Byte-at-a-time update of a pre-inverted CRC state.
uint32_t Crc32Table(const uint8_t* p, size_t n, uint32_t c) {
  static const std::array<uint32_t, 256> table = BuildCrc32Table();
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

#define DDP_CRC_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

// One fold of the 128-bit accumulator `x` over 128 bits: x·k (low and high
// halves multiplied by the two constants of `k`) xor the next block `y`.
DDP_CRC_FOLD_TARGET inline __m128i Fold16(__m128i x, __m128i k, __m128i y) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), y);
}

DDP_CRC_FOLD_TARGET inline __m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `n` bytes (n >= 64, a multiple of 16) into the pre-inverted CRC
// state `c` with carry-less multiplication, then Barrett-reduces to 32 bits.
// Constants are the bit-reflected ones for polynomial 0xEDB88320 from Intel's
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Gopal et al., 2009); zlib-chromium and Linux's crc32-pclmul use the same.
DDP_CRC_FOLD_TARGET uint32_t Crc32Fold(const uint8_t* p, size_t n,
                                       uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four independent 128-bit lanes over 64-byte blocks.
  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold16(x1, k1k2, Load16(p));
    x2 = Fold16(x2, k1k2, Load16(p + 16));
    x3 = Fold16(x3, k1k2, Load16(p + 32));
    x4 = Fold16(x4, k1k2, Load16(p + 48));
  }

  // Fold the four lanes into one, then any remaining 16-byte blocks.
  x1 = Fold16(x1, k3k4, x2);
  x1 = Fold16(x1, k3k4, x3);
  x1 = Fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold16(x1, k3k4, Load16(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef DDP_CRC_FOLD_TARGET

bool CpuHasCrc32Fold() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
#if defined(__x86_64__)
  if (n >= 64 && CpuHasCrc32Fold()) {
    const size_t bulk = n & ~size_t{15};
    c = Crc32Fold(p, bulk, c);
    p += bulk;
    n -= bulk;
  }
#endif
  return Crc32Table(p, n, c) ^ 0xFFFFFFFFu;
}

}  // namespace ddp
