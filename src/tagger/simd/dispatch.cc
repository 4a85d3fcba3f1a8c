#include "tagger/simd/dispatch.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"
#include "tagger/simd/kernels.h"

namespace cfgtag::tagger::simd {

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

ByteSet BuildByteSet(const bool members[256]) {
  ByteSet s{};
  for (int b = 0; b < 256; ++b) {
    if (!members[b]) continue;
    s.in_set[b] = 1;
    const int lo = b & 0x0f;
    const int hi = b >> 4;
    if (hi < 8) {
      s.shuf_clear[lo] |= static_cast<uint8_t>(1u << hi);
    } else {
      s.shuf_set[lo] |= static_cast<uint8_t>(1u << (hi - 8));
    }
    if (s.num_values < 8) {
      s.broadcast[s.num_values] =
          0x0101010101010101ULL * static_cast<uint64_t>(b);
      if (s.num_values == 0) s.single = static_cast<unsigned char>(b);
    }
    ++s.num_values;
  }
  return s;
}

bool IsaAvailable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kSse2:
      // The 128-bit tier's shuffle kernels need pshufb; hosts predating
      // SSSE3 (2006) dispatch scalar instead.
      return __builtin_cpu_supports("ssse3");
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return true;  // NEON is architectural on aarch64
#endif
    default:
      return false;
  }
}

const Kernels& KernelsFor(Isa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kSse2:
      return kSse2Kernels;
    case Isa::kAvx2:
      return kAvx2Kernels;
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

Isa BestAvailable() {
#if defined(__aarch64__)
  return Isa::kNeon;
#else
  if (IsaAvailable(Isa::kAvx2)) return Isa::kAvx2;
  if (IsaAvailable(Isa::kSse2)) return Isa::kSse2;
  return Isa::kScalar;
#endif
}

namespace {

// Info gauge: cfgtag_simd_dispatch{isa=...} is 1 for the live tier, 0 for
// the rest, so a deployment (or the CI scrape) can confirm which kernels
// actually run.
void ExportDispatch(Isa active) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (int i = 0; i < kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    reg.GetGauge(std::string("cfgtag_simd_dispatch{isa=\"") + IsaName(isa) +
                     "\"}",
                 "Selected SIMD kernel tier (1 = active)")
        ->Set(isa == active ? 1 : 0);
  }
}

Isa StartupIsa() {
  const char* force = std::getenv("CFGTAG_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0) {
    return Isa::kScalar;
  }
  return BestAvailable();
}

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* SelectStartup() {
  const Kernels* chosen = &KernelsFor(StartupIsa());
  const Kernels* expected = nullptr;
  // First caller wins; a concurrent ForceIsa that already published an
  // override is left in place.
  if (g_active.compare_exchange_strong(expected, chosen,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
    ExportDispatch(chosen->isa);
    return chosen;
  }
  return expected;
}

}  // namespace

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = SelectStartup();
  return *k;
}

void ForceIsa(Isa isa) {
  const Kernels& k = KernelsFor(IsaAvailable(isa) ? isa : Isa::kScalar);
  g_active.store(&k, std::memory_order_release);
  ExportDispatch(k.isa);
}

void ClearForcedIsa() { ForceIsa(StartupIsa()); }

}  // namespace cfgtag::tagger::simd
