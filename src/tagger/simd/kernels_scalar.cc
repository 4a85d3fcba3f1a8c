// Scalar kernel tier: the portable fallback every vector tier also calls
// for sub-vector buffers and loop tails. Strategy is picked per call from
// the set's population — memchr for one member, branch-free SWAR (8 input
// bytes per 64-bit word, exact per-lane zero test) for <= 8 members on
// little-endian hosts, a table loop otherwise.

#include <cstring>

#include "tagger/simd/kernels.h"

namespace cfgtag::tagger::simd {

namespace {

constexpr uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
constexpr uint64_t kHigh = 0x8080808080808080ULL;

// 0x80 in exactly the lanes of `v` that are zero. Unlike the classic
// (v - 0x01..) & ~v & 0x80.. haszero trick, this form is exact per lane
// (no borrow propagation across lanes), which find-first semantics need.
inline uint64_t ZeroLanes(uint64_t v) {
  return ~(((v & kLow7) + kLow7) | v | kLow7);
}

inline uint64_t LoadWord(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

constexpr bool LittleEndian() {
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__)
  return __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__;
#else
  return false;
#endif
}

size_t ScalarFindFirstIn(const ByteSet& s, const char* data, size_t n) {
  if (s.num_values == 0) return n;
  if (s.num_values == 1) {
    const void* hit = std::memchr(data, s.single, n);
    return hit == nullptr
               ? n
               : static_cast<size_t>(static_cast<const char*>(hit) - data);
  }
  size_t i = 0;
  if (LittleEndian() && s.num_values <= 8) {
    while (i + 8 <= n) {
      const uint64_t w = LoadWord(data + i);
      uint64_t in = 0;
      for (int k = 0; k < s.num_values; ++k) {
        in |= ZeroLanes(w ^ s.broadcast[k]);
      }
      if (in) {
        return i + (static_cast<size_t>(__builtin_ctzll(in)) >> 3);
      }
      i += 8;
    }
  }
  while (i < n && !s.in_set[static_cast<unsigned char>(data[i])]) ++i;
  return i;
}

size_t ScalarFindFirstNotIn(const ByteSet& s, const char* data, size_t n) {
  size_t i = 0;
  if (LittleEndian() && s.num_values >= 1 && s.num_values <= 8) {
    while (i + 8 <= n) {
      const uint64_t w = LoadWord(data + i);
      uint64_t in = 0;
      for (int k = 0; k < s.num_values; ++k) {
        in |= ZeroLanes(w ^ s.broadcast[k]);
      }
      const uint64_t out = ~in & kHigh;
      if (out) {
        return i + (static_cast<size_t>(__builtin_ctzll(out)) >> 3);
      }
      i += 8;
    }
  }
  while (i < n && s.in_set[static_cast<unsigned char>(data[i])]) ++i;
  return i;
}

}  // namespace

const Kernels kScalarKernels = {Isa::kScalar, &ScalarFindFirstIn,
                                &ScalarFindFirstNotIn};

}  // namespace cfgtag::tagger::simd
