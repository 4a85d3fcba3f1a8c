#ifndef CFGTAG_TAGGER_SIMD_DISPATCH_H_
#define CFGTAG_TAGGER_SIMD_DISPATCH_H_

#include <cstddef>
#include <cstdint>

namespace cfgtag::tagger::simd {

// Runtime-dispatched vector kernels behind the tagger's byte-level hot
// path: run scanning over arbitrary byte sets (the idle fast-skips). The
// paper's hardware evaluates every character decoder in parallel each
// clock (§3.2); these kernels are the software analogue — one membership
// test evaluated across 16 or 32 input lanes per step.
//
// One kernel set is selected per process (CFGTAG_FORCE_SCALAR=1 pins the
// scalar tier, otherwise the best tier the CPU reports), and every tier
// produces byte-identical results — the differential fuzzer runs the full
// grammar x backend matrix under both scalar and vectorized dispatch.
enum class Isa : uint8_t {
  kScalar = 0,  // portable: memchr / SWAR word loop / table loop
  kSse2,        // 128-bit x86 tier (shuffle kernels use SSSE3 pshufb)
  kAvx2,        // 256-bit x86 tier
  kNeon,        // 128-bit aarch64 tier
};

inline constexpr int kNumIsas = 4;

const char* IsaName(Isa isa);

// Membership tables for one byte set, in every representation a kernel
// tier needs. Built once per RunScanner; all tables describe the same set.
struct ByteSet {
  // Truffle-style nibble decomposition (the Hyperscan "truffle" kernel,
  // which is exact for arbitrary sets, unlike the bucketed shufti
  // prefilter): shuf_clear[lo] holds bit (hi & 7) for every member byte
  // hi:lo with bit 7 clear, shuf_set[lo] the same for bytes with bit 7
  // set. A pshufb against each table — the second on input XOR 0x80, so
  // each lane picks exactly one half — ORs to a candidate mask that is
  // ANDed with 1 << (hi & 7) to decide membership per lane.
  alignas(16) uint8_t shuf_clear[16];
  alignas(16) uint8_t shuf_set[16];
  // Plain membership table: the scalar tier's table loop and every vector
  // tail read this.
  uint8_t in_set[256];
  // Broadcast patterns (member value repeated in every lane) for the
  // scalar tier's SWAR path, usable when num_values <= 8.
  uint64_t broadcast[8];
  int num_values = 0;
  unsigned char single = 0;  // the member byte when num_values == 1
};

// Builds every table from a 256-entry membership predicate.
ByteSet BuildByteSet(const bool members[256]);

struct Kernels {
  Isa isa;
  // Index of the first byte of data[0, n) in / not in the set; n if none.
  size_t (*find_first_in)(const ByteSet& set, const char* data, size_t n);
  size_t (*find_first_not_in)(const ByteSet& set, const char* data, size_t n);
};

// The kernel set every hot path dispatches through. Selected once at first
// use — CFGTAG_FORCE_SCALAR=1 (any value but "0" or empty) pins the scalar
// tier, otherwise the best ISA the CPU supports — then overridable
// programmatically (tests, the scalar-vs-SIMD bench legs). The selection
// is exported as the cfgtag_simd_dispatch{isa=...} info gauge.
const Kernels& Active();

// Programmatic override for testing/benching; `isa` must be available.
// ClearForcedIsa() returns to the startup selection (env included).
void ForceIsa(Isa isa);
void ClearForcedIsa();

bool IsaAvailable(Isa isa);
// The kernel table of an available tier (equivalence sweeps call tiers
// side by side without touching the process-wide selection).
const Kernels& KernelsFor(Isa isa);
Isa BestAvailable();

}  // namespace cfgtag::tagger::simd

#endif  // CFGTAG_TAGGER_SIMD_DISPATCH_H_
