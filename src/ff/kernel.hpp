// Carry-less multiplication kernels with runtime dispatch.
//
// Every GF(2^k) multiplication in the repository bottoms out in a 64x64 -> 128
// carry-less (GF(2)[x]) product. This header owns the choice of how that
// product is computed:
//
//   * kPclmul  — x86-64 PCLMULQDQ, one instruction per product;
//   * kPmull   — aarch64 NEON PMULL (the 64-bit polynomial multiply);
//   * kBitloop — one bit at a time: the portable path on hosts without
//                carry-less-multiply hardware, and the differential-test
//                oracle everywhere.
//
// The kernel is resolved once, lazily, from CPU detection alone: the
// hardware kernel when hardware_available(), otherwise kBitloop. Tests and
// benches may override the choice at runtime with set_kernel(). Each
// resolution or override bumps a metrics counter ff.kernel.<name> so
// BENCH_*.json artifacts record which path produced their numbers.
#pragma once

#include <atomic>
#include <cstdint>

namespace gfor14::ff {

using u128 = unsigned __int128;

enum class Kernel {
  kBitloop,  ///< one bit of b per iteration (portable path, test oracle)
  kPclmul,   ///< x86-64 PCLMULQDQ
  kPmull,    ///< aarch64 NEON PMULL
};

/// Stable lowercase name ("bitloop", "pclmul", "pmull").
const char* kernel_name(Kernel k);

/// The kernel currently answering clmul64(); resolves on first use.
Kernel active_kernel();
/// Name of the active kernel (convenience for bench artifact columns).
const char* active_kernel_name();

/// True when this host can execute a hardware carry-less multiply.
bool hardware_available();

/// Forces a kernel (tests/benches). Returns false — and leaves the active
/// kernel unchanged — when the host cannot execute `k`.
bool set_kernel(Kernel k);

/// Drops any override and re-resolves from CPU detection.
void reset_kernel();

namespace detail {
using Clmul64Fn = u128 (*)(std::uint64_t, std::uint64_t);
// Constant-initialized to a resolving trampoline. Atomic because worker
// lanes may race on the first-use resolution; relaxed ordering is enough —
// every value ever stored is a valid kernel entry point and racing
// resolvers all compute the same answer.
extern std::atomic<Clmul64Fn> g_clmul64;
}  // namespace detail

/// Carry-less product of two 64-bit polynomials via the active kernel.
inline u128 clmul64(std::uint64_t a, std::uint64_t b) {
  return detail::g_clmul64.load(std::memory_order_relaxed)(a, b);
}

// Direct entry points for differential tests (bypass dispatch).
u128 clmul64_bitloop(std::uint64_t a, std::uint64_t b);
/// Requires hardware_available().
u128 clmul64_hardware(std::uint64_t a, std::uint64_t b);

}  // namespace gfor14::ff
