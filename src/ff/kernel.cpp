#include "ff/kernel.hpp"

#include <cstring>
#include <string>

#include "common/metrics.hpp"

// GFOR14_DISABLE_HW_CLMUL comes from CMake ISA detection: when the
// toolchain cannot compile the target-attribute intrinsics, the hardware
// path is compiled out and dispatch settles on the bit-loop kernel.
#if defined(__x86_64__) && !defined(GFOR14_DISABLE_HW_CLMUL)
#include <immintrin.h>
#define GFOR14_HW_KERNEL_X86 1
#elif defined(__aarch64__) && !defined(GFOR14_DISABLE_HW_CLMUL)
#include <arm_neon.h>
#if defined(__linux__)
#include <sys/auxv.h>
#endif
#define GFOR14_HW_KERNEL_ARM 1
#endif

namespace gfor14::ff {

u128 clmul64_bitloop(std::uint64_t a, std::uint64_t b) {
  u128 acc = 0;
  while (b != 0) {
    const int i = __builtin_ctzll(b);
    acc ^= static_cast<u128>(a) << i;
    b &= b - 1;
  }
  return acc;
}

#if defined(GFOR14_HW_KERNEL_X86)

__attribute__((target("pclmul,sse4.1"))) u128 clmul64_hardware(
    std::uint64_t a, std::uint64_t b) {
  const __m128i va = _mm_cvtsi64_si128(static_cast<long long>(a));
  const __m128i vb = _mm_cvtsi64_si128(static_cast<long long>(b));
  const __m128i p = _mm_clmulepi64_si128(va, vb, 0x00);
  const auto lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(p));
  const auto hi = static_cast<std::uint64_t>(_mm_extract_epi64(p, 1));
  return (static_cast<u128>(hi) << 64) | lo;
}

bool hardware_available() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

namespace {
constexpr Kernel kHardwareKernel = Kernel::kPclmul;
}

#elif defined(GFOR14_HW_KERNEL_ARM)

__attribute__((target("+crypto"))) u128 clmul64_hardware(std::uint64_t a,
                                                         std::uint64_t b) {
  const poly128_t p =
      vmull_p64(static_cast<poly64_t>(a), static_cast<poly64_t>(b));
  u128 r;
  static_assert(sizeof(r) == sizeof(p));
  std::memcpy(&r, &p, sizeof(r));
  return r;
}

bool hardware_available() {
#if defined(__linux__) && defined(HWCAP_PMULL)
  return (getauxval(AT_HWCAP) & HWCAP_PMULL) != 0;
#else
  return false;
#endif
}

namespace {
constexpr Kernel kHardwareKernel = Kernel::kPmull;
}

#else

u128 clmul64_hardware(std::uint64_t a, std::uint64_t b) {
  // Unreachable by contract (hardware_available() is false); keep a correct
  // fallback rather than UB in case a caller skips the check.
  return clmul64_bitloop(a, b);
}

bool hardware_available() { return false; }

namespace {
constexpr Kernel kHardwareKernel = Kernel::kBitloop;
}

#endif

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kBitloop: return "bitloop";
    case Kernel::kPclmul: return "pclmul";
    case Kernel::kPmull: return "pmull";
  }
  return "unknown";
}

namespace {

std::atomic<Kernel> g_active{Kernel::kBitloop};
std::atomic<bool> g_resolved{false};

detail::Clmul64Fn fn_of(Kernel k) {
  switch (k) {
    case Kernel::kBitloop: return &clmul64_bitloop;
    case Kernel::kPclmul:
    case Kernel::kPmull: return &clmul64_hardware;
  }
  return &clmul64_bitloop;
}

void activate(Kernel k) {
  // Racing activations (worker lanes hitting the trampoline together) all
  // resolve to the same kernel; relaxed stores are fine because every
  // intermediate state is a valid dispatch target.
  g_active.store(k, std::memory_order_relaxed);
  g_resolved.store(true, std::memory_order_relaxed);
  detail::g_clmul64.store(fn_of(k), std::memory_order_relaxed);
  metrics::Registry::instance()
      .counter(std::string("ff.kernel.") + kernel_name(k))
      .add();
}

Kernel resolve() {
  return hardware_available() ? kHardwareKernel : Kernel::kBitloop;
}

u128 clmul64_resolve_trampoline(std::uint64_t a, std::uint64_t b) {
  activate(resolve());
  return detail::g_clmul64.load(std::memory_order_relaxed)(a, b);
}

}  // namespace

namespace detail {
std::atomic<Clmul64Fn> g_clmul64{&clmul64_resolve_trampoline};
}  // namespace detail

Kernel active_kernel() {
  if (!g_resolved.load(std::memory_order_relaxed))
    activate(resolve());
  return g_active.load(std::memory_order_relaxed);
}

const char* active_kernel_name() { return kernel_name(active_kernel()); }

bool set_kernel(Kernel k) {
  if ((k == Kernel::kPclmul || k == Kernel::kPmull) &&
      (!hardware_available() || k != kHardwareKernel))
    return false;
  activate(k);
  return true;
}

void reset_kernel() {
  g_resolved.store(false, std::memory_order_relaxed);
  detail::g_clmul64.store(&clmul64_resolve_trampoline,
                          std::memory_order_relaxed);
}

}  // namespace gfor14::ff
