// x86 kernel tiers: 128-bit (SSE2 loads/compares + SSSE3 pshufb for the
// shuffle kernels) and 256-bit AVX2. Compiled in the default target and
// gated per function with GCC/Clang target attributes, so the TU builds on
// any x86-64 baseline and the dispatcher only calls what CPUID reports.
//
// Membership is the exact truffle decomposition (see ByteSet in
// dispatch.h): two pshufb table lookups — the second on input XOR 0x80, so
// pshufb's bit-7 zeroing picks exactly one half per lane — OR to a
// candidate bitmask over the high-nibble bits, ANDed with 1 << (hi & 7).
// No false positives for any 256-member set, unlike the bucketed shufti
// prefilter.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

#include "tagger/simd/kernels.h"

namespace cfgtag::tagger::simd {

namespace {

#define CFGTAG_TGT_SSSE3 __attribute__((target("ssse3")))
#define CFGTAG_TGT_AVX2 __attribute__((target("avx2")))

alignas(16) constexpr uint8_t kHiBitTable[16] = {
    1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};

// ------------------------------------------------------------ 128-bit tier

// Movemask with bit i set iff lane i's byte is a member of the set
// described by (shuf_clear, shuf_set).
CFGTAG_TGT_SSSE3 inline int MemberMask128(const uint8_t* shuf_clear,
                                          const uint8_t* shuf_set,
                                          __m128i v) {
  const __m128i lo_clear =
      _mm_load_si128(reinterpret_cast<const __m128i*>(shuf_clear));
  const __m128i lo_set =
      _mm_load_si128(reinterpret_cast<const __m128i*>(shuf_set));
  const __m128i bit_tbl =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kHiBitTable));
  const __m128i t1 = _mm_shuffle_epi8(lo_clear, v);
  const __m128i t2 = _mm_shuffle_epi8(
      lo_set, _mm_xor_si128(v, _mm_set1_epi8(static_cast<char>(0x80))));
  const __m128i hi =
      _mm_and_si128(_mm_srli_epi16(v, 4), _mm_set1_epi8(0x0f));
  const __m128i hit =
      _mm_and_si128(_mm_or_si128(t1, t2), _mm_shuffle_epi8(bit_tbl, hi));
  const __m128i miss = _mm_cmpeq_epi8(hit, _mm_setzero_si128());
  return ~_mm_movemask_epi8(miss) & 0xffff;
}

CFGTAG_TGT_SSSE3 size_t Sse2FindFirstIn(const ByteSet& s, const char* data,
                                        size_t n) {
  if (s.num_values == 0) return n;
  if (s.num_values == 1) return kScalarKernels.find_first_in(s, data, n);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int in = MemberMask128(s.shuf_clear, s.shuf_set, v);
    if (in) return i + static_cast<size_t>(__builtin_ctz(in));
  }
  return i + kScalarKernels.find_first_in(s, data + i, n - i);
}

CFGTAG_TGT_SSSE3 size_t Sse2FindFirstNotIn(const ByteSet& s,
                                           const char* data, size_t n) {
  if (s.num_values == 0) return 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const int out = ~MemberMask128(s.shuf_clear, s.shuf_set, v) & 0xffff;
    if (out) return i + static_cast<size_t>(__builtin_ctz(out));
  }
  return i + kScalarKernels.find_first_not_in(s, data + i, n - i);
}

// ------------------------------------------------------------ 256-bit tier

CFGTAG_TGT_AVX2 inline uint32_t MemberMask256(const uint8_t* shuf_clear,
                                              const uint8_t* shuf_set,
                                              __m256i v) {
  const __m256i lo_clear = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(shuf_clear)));
  const __m256i lo_set = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(shuf_set)));
  const __m256i bit_tbl = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(kHiBitTable)));
  const __m256i t1 = _mm256_shuffle_epi8(lo_clear, v);
  const __m256i t2 = _mm256_shuffle_epi8(
      lo_set, _mm256_xor_si256(v, _mm256_set1_epi8(static_cast<char>(0x80))));
  const __m256i hi =
      _mm256_and_si256(_mm256_srli_epi16(v, 4), _mm256_set1_epi8(0x0f));
  const __m256i hit = _mm256_and_si256(_mm256_or_si256(t1, t2),
                                       _mm256_shuffle_epi8(bit_tbl, hi));
  const __m256i miss = _mm256_cmpeq_epi8(hit, _mm256_setzero_si256());
  return ~static_cast<uint32_t>(_mm256_movemask_epi8(miss));
}

CFGTAG_TGT_AVX2 size_t Avx2FindFirstIn(const ByteSet& s, const char* data,
                                       size_t n) {
  if (s.num_values == 0) return n;
  if (s.num_values == 1) return kScalarKernels.find_first_in(s, data, n);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t in = MemberMask256(s.shuf_clear, s.shuf_set, v);
    if (in) return i + static_cast<size_t>(__builtin_ctz(in));
  }
  return i + kScalarKernels.find_first_in(s, data + i, n - i);
}

CFGTAG_TGT_AVX2 size_t Avx2FindFirstNotIn(const ByteSet& s, const char* data,
                                          size_t n) {
  if (s.num_values == 0) return 0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const uint32_t out = ~MemberMask256(s.shuf_clear, s.shuf_set, v);
    if (out) return i + static_cast<size_t>(__builtin_ctz(out));
  }
  return i + kScalarKernels.find_first_not_in(s, data + i, n - i);
}

#undef CFGTAG_TGT_SSSE3
#undef CFGTAG_TGT_AVX2

}  // namespace

const Kernels kSse2Kernels = {Isa::kSse2, &Sse2FindFirstIn,
                              &Sse2FindFirstNotIn};
const Kernels kAvx2Kernels = {Isa::kAvx2, &Avx2FindFirstIn,
                              &Avx2FindFirstNotIn};

}  // namespace cfgtag::tagger::simd

#endif  // x86
