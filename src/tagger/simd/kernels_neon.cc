// aarch64 NEON kernel tier (128-bit). Same exact truffle membership as the
// x86 tiers, built from vqtbl1q_u8 lookups: tbl indexes the whole byte (not
// pshufb's low-nibble-plus-bit-7 rule), so the low nibble is masked
// explicitly and the clear/set halves are blended on the high-nibble bit.
// Lane masks are reduced to a scalar with the vshrn-by-4 narrowing trick
// (4 mask bits per lane in a uint64_t) since NEON has no movemask.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstring>

#include "tagger/simd/kernels.h"

namespace cfgtag::tagger::simd {

namespace {

alignas(16) constexpr uint8_t kHiBitTable[16] = {
    1, 2, 4, 8, 16, 32, 64, 128, 1, 2, 4, 8, 16, 32, 64, 128};

// 0xFF in exactly the member lanes.
inline uint8x16_t MemberLanes(const uint8_t* shuf_clear,
                              const uint8_t* shuf_set, uint8x16_t v) {
  const uint8x16_t lo = vandq_u8(v, vdupq_n_u8(0x0f));
  const uint8x16_t hi = vshrq_n_u8(v, 4);
  const uint8x16_t t_clear = vqtbl1q_u8(vld1q_u8(shuf_clear), lo);
  const uint8x16_t t_set = vqtbl1q_u8(vld1q_u8(shuf_set), lo);
  const uint8x16_t upper = vcgeq_u8(hi, vdupq_n_u8(8));
  const uint8x16_t cand = vbslq_u8(upper, t_set, t_clear);
  const uint8x16_t bit = vqtbl1q_u8(vld1q_u8(kHiBitTable), hi);
  return vtstq_u8(cand, bit);  // 0xFF where (cand & bit) != 0
}

// 4 bits per lane, lane 0 in the low nibble: nonzero iff any lane is 0xFF.
inline uint64_t LaneMask(uint8x16_t m) {
  const uint8x8_t narrowed = vshrn_n_u16(vreinterpretq_u16_u8(m), 4);
  return vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
}

size_t NeonFindFirstIn(const ByteSet& s, const char* data, size_t n) {
  if (s.num_values == 0) return n;
  if (s.num_values == 1) return kScalarKernels.find_first_in(s, data, n);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v =
        vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    const uint64_t in = LaneMask(MemberLanes(s.shuf_clear, s.shuf_set, v));
    if (in) {
      return i + (static_cast<size_t>(__builtin_ctzll(in)) >> 2);
    }
  }
  return i + kScalarKernels.find_first_in(s, data + i, n - i);
}

size_t NeonFindFirstNotIn(const ByteSet& s, const char* data, size_t n) {
  if (s.num_values == 0) return 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v =
        vld1q_u8(reinterpret_cast<const uint8_t*>(data + i));
    const uint64_t out =
        ~LaneMask(MemberLanes(s.shuf_clear, s.shuf_set, v));
    if (out) {
      return i + (static_cast<size_t>(__builtin_ctzll(out)) >> 2);
    }
  }
  return i + kScalarKernels.find_first_not_in(s, data + i, n - i);
}

}  // namespace

const Kernels kNeonKernels = {Isa::kNeon, &NeonFindFirstIn,
                              &NeonFindFirstNotIn};

}  // namespace cfgtag::tagger::simd

#endif  // __aarch64__
