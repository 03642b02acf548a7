#include "ff/batch.hpp"

#include <atomic>
#include <string>

#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "ff/ops.hpp"

// The wide paths reuse the ISA gating of ff/kernel.cpp: per-function target
// attributes, compiled out entirely when CMake's probe failed. On aarch64
// the scalar kernel already dispatches to PMULL per element and there is no
// cross-lane carry-less multiply to gain from, so the wide path there (and
// on any non-x86 target) is the scalar oracle.
#if defined(__x86_64__) && !defined(GFOR14_DISABLE_HW_CLMUL)
#include <immintrin.h>
#define GFOR14_BATCH_X86 1
#endif

namespace gfor14::ff {

namespace {

// --- dispatch state (mirrors ff/kernel.cpp) --------------------------------

std::atomic<SpanKernel> g_span{SpanKernel::kWide};
std::atomic<bool> g_span_resolved{false};

void activate_span(SpanKernel k) {
  g_span.store(k, std::memory_order_relaxed);
  g_span_resolved.store(true, std::memory_order_relaxed);
  metrics::Registry::instance()
      .counter(std::string("ff.batch.kernel.") + span_kernel_name(k))
      .add();
}

SpanKernel resolved_span() {
  if (!g_span_resolved.load(std::memory_order_relaxed))
    activate_span(SpanKernel::kWide);
  return g_span.load(std::memory_order_relaxed);
}

}  // namespace

const char* span_kernel_name(SpanKernel k) {
  switch (k) {
    case SpanKernel::kScalar: return "scalar";
    case SpanKernel::kWide: return "wide";
  }
  return "unknown";
}

SpanKernel active_span_kernel() { return resolved_span(); }

const char* active_span_kernel_name() {
  return span_kernel_name(active_span_kernel());
}

bool set_span_kernel(SpanKernel k) {
  activate_span(k);
  return true;
}

void reset_span_kernel() {
  g_span_resolved.store(false, std::memory_order_relaxed);
}

// --- x86 vector kernels ----------------------------------------------------

#if defined(GFOR14_BATCH_X86)

namespace {

// A span of F64 is bit-identical to a span of uint64_t words.
static_assert(sizeof(F64) == sizeof(std::uint64_t));

const std::uint64_t* raw(std::span<const F64> s) {
  return s.data()->raw_word();
}
std::uint64_t* raw(std::span<F64> s) { return s.data()->raw_word(); }

// A 128-bit register as one unreduced carry-less product.
__attribute__((target("sse4.1"))) inline u128 as_u128(__m128i v) {
  const auto hi = static_cast<std::uint64_t>(_mm_extract_epi64(v, 1));
  const auto lo = static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
  return (static_cast<u128>(hi) << 64) | lo;
}

// Reduction modulo x^64 + 0x1B of the 128-bit product in each lane, kept in
// vector registers: V = hi*x^64 ^ lo == hi*0x1B ^ lo, and deg(hi*0x1B) <=
// 67, so folding the (<= 4-bit) high half once more lands entirely in the
// low qword. The low qword of p ^ f1 ^ f2 is the reduced element; lane high
// qwords are garbage and never stored.
__attribute__((target("pclmul,sse4.1"))) inline __m128i reduce64_sse(
    __m128i p, __m128i mod) {
  const __m128i f1 = _mm_clmulepi64_si128(p, mod, 0x01);   // hi(p) * 0x1B
  const __m128i f2 = _mm_clmulepi64_si128(f1, mod, 0x01);  // hi(f1) * 0x1B
  return _mm_xor_si128(p, _mm_xor_si128(f1, f2));
}

// y[i] ^= reduce(x[i] * c), two elements per iteration.
__attribute__((target("pclmul,sse4.1"))) void axpy64_sse(
    std::uint64_t c, const std::uint64_t* x, std::uint64_t* y,
    std::size_t n) {
  const __m128i cv = _mm_cvtsi64_si128(static_cast<long long>(c));
  const __m128i mod =
      _mm_cvtsi64_si128(static_cast<long long>(Gf2Modulus<64>::low));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i xv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i a0 = reduce64_sse(_mm_clmulepi64_si128(xv, cv, 0x00), mod);
    const __m128i a1 = reduce64_sse(_mm_clmulepi64_si128(xv, cv, 0x01), mod);
    const __m128i r = _mm_unpacklo_epi64(a0, a1);
    __m128i* yp = reinterpret_cast<__m128i*>(y + i);
    _mm_storeu_si128(yp, _mm_xor_si128(_mm_loadu_si128(yp), r));
  }
  if (i < n) {
    const __m128i xv = _mm_cvtsi64_si128(static_cast<long long>(x[i]));
    const __m128i a = reduce64_sse(_mm_clmulepi64_si128(xv, cv, 0x00), mod);
    y[i] ^= static_cast<std::uint64_t>(_mm_cvtsi128_si64(a));
  }
}

// acc[i] = reduce(acc[i] * x) ^ plane[i] (plane nullable), two per iteration.
__attribute__((target("pclmul,sse4.1"))) void horner64_sse(
    std::uint64_t xc, std::uint64_t* acc, const std::uint64_t* plane,
    std::size_t n) {
  const __m128i cv = _mm_cvtsi64_si128(static_cast<long long>(xc));
  const __m128i mod =
      _mm_cvtsi64_si128(static_cast<long long>(Gf2Modulus<64>::low));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i av =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i a0 = reduce64_sse(_mm_clmulepi64_si128(av, cv, 0x00), mod);
    const __m128i a1 = reduce64_sse(_mm_clmulepi64_si128(av, cv, 0x01), mod);
    __m128i r = _mm_unpacklo_epi64(a0, a1);
    if (plane != nullptr)
      r = _mm_xor_si128(
          r, _mm_loadu_si128(reinterpret_cast<const __m128i*>(plane + i)));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i), r);
  }
  if (i < n) {
    const __m128i av = _mm_cvtsi64_si128(static_cast<long long>(acc[i]));
    const __m128i a = reduce64_sse(_mm_clmulepi64_si128(av, cv, 0x00), mod);
    acc[i] = static_cast<std::uint64_t>(_mm_cvtsi128_si64(a)) ^
             (plane != nullptr ? plane[i] : 0);
  }
}

// XOR-accumulates the unreduced 128-bit products; one reduction at the end
// (reduction is GF(2)-linear — same contract as ff::dot's Wide accumulator).
__attribute__((target("pclmul,sse4.1"))) u128 dot64_sse(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i av =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i bv =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc0 = _mm_xor_si128(acc0, _mm_clmulepi64_si128(av, bv, 0x00));
    acc1 = _mm_xor_si128(acc1, _mm_clmulepi64_si128(av, bv, 0x11));
  }
  if (i < n) {
    const __m128i av = _mm_cvtsi64_si128(static_cast<long long>(a[i]));
    const __m128i bv = _mm_cvtsi64_si128(static_cast<long long>(b[i]));
    acc0 = _mm_xor_si128(acc0, _mm_clmulepi64_si128(av, bv, 0x00));
  }
  return as_u128(_mm_xor_si128(acc0, acc1));
}

#if defined(GFOR14_HAVE_VPCLMUL)

// 256-bit variants: four elements per iteration. The per-lane imm8 of
// VPCLMULQDQ picks low/high qwords exactly like the SSE form, so with the
// constant broadcast to every qword the even products use imm 0x00 and the
// odd ones imm 0x11/0x01; unpacklo restores element order per lane.
__attribute__((target("vpclmulqdq,avx2"))) inline __m256i reduce64_avx(
    __m256i p, __m256i mod) {
  const __m256i f1 = _mm256_clmulepi64_epi128(p, mod, 0x01);
  const __m256i f2 = _mm256_clmulepi64_epi128(f1, mod, 0x01);
  return _mm256_xor_si256(p, _mm256_xor_si256(f1, f2));
}

__attribute__((target("vpclmulqdq,avx2"))) void axpy64_avx(
    std::uint64_t c, const std::uint64_t* x, std::uint64_t* y,
    std::size_t n) {
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(c));
  const __m256i mod =
      _mm256_set1_epi64x(static_cast<long long>(Gf2Modulus<64>::low));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i xv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i a0 =
        reduce64_avx(_mm256_clmulepi64_epi128(xv, cv, 0x00), mod);
    const __m256i a1 =
        reduce64_avx(_mm256_clmulepi64_epi128(xv, cv, 0x01), mod);
    const __m256i r = _mm256_unpacklo_epi64(a0, a1);
    __m256i* yp = reinterpret_cast<__m256i*>(y + i);
    _mm256_storeu_si256(yp, _mm256_xor_si256(_mm256_loadu_si256(yp), r));
  }
  if (i < n) axpy64_sse(c, x + i, y + i, n - i);
}

__attribute__((target("vpclmulqdq,avx2"))) void horner64_avx(
    std::uint64_t xc, std::uint64_t* acc, const std::uint64_t* plane,
    std::size_t n) {
  const __m256i cv = _mm256_set1_epi64x(static_cast<long long>(xc));
  const __m256i mod =
      _mm256_set1_epi64x(static_cast<long long>(Gf2Modulus<64>::low));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i a0 =
        reduce64_avx(_mm256_clmulepi64_epi128(av, cv, 0x00), mod);
    const __m256i a1 =
        reduce64_avx(_mm256_clmulepi64_epi128(av, cv, 0x01), mod);
    __m256i r = _mm256_unpacklo_epi64(a0, a1);
    if (plane != nullptr)
      r = _mm256_xor_si256(r, _mm256_loadu_si256(
                                  reinterpret_cast<const __m256i*>(plane + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i), r);
  }
  if (i < n) horner64_sse(xc, acc + i, plane != nullptr ? plane + i : nullptr,
                          n - i);
}

__attribute__((target("vpclmulqdq,avx2"))) u128 dot64_avx(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i bv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc0 = _mm256_xor_si256(acc0, _mm256_clmulepi64_epi128(av, bv, 0x00));
    acc1 = _mm256_xor_si256(acc1, _mm256_clmulepi64_epi128(av, bv, 0x11));
  }
  const __m256i acc = _mm256_xor_si256(acc0, acc1);
  const __m128i folded = _mm_xor_si128(_mm256_castsi256_si128(acc),
                                       _mm256_extracti128_si256(acc, 1));
  return as_u128(folded) ^ dot64_sse(a + i, b + i, n - i);
}

#endif  // GFOR14_HAVE_VPCLMUL

bool wide256_available() {
#if defined(GFOR14_HAVE_VPCLMUL)
  static const bool ok = __builtin_cpu_supports("vpclmulqdq") &&
                         __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

void axpy64_hw(std::uint64_t c, const std::uint64_t* x, std::uint64_t* y,
               std::size_t n) {
#if defined(GFOR14_HAVE_VPCLMUL)
  if (n >= 8 && wide256_available()) {
    axpy64_avx(c, x, y, n);
    return;
  }
#endif
  axpy64_sse(c, x, y, n);
}

void horner64_hw(std::uint64_t xc, std::uint64_t* acc,
                 const std::uint64_t* plane, std::size_t n) {
#if defined(GFOR14_HAVE_VPCLMUL)
  if (n >= 8 && wide256_available()) {
    horner64_avx(xc, acc, plane, n);
    return;
  }
#endif
  horner64_sse(xc, acc, plane, n);
}

u128 dot64_hw(const std::uint64_t* a, const std::uint64_t* b,
              std::size_t n) {
#if defined(GFOR14_HAVE_VPCLMUL)
  if (n >= 8 && wide256_available()) return dot64_avx(a, b, n);
#endif
  return dot64_sse(a, b, n);
}

}  // namespace

#endif  // GFOR14_BATCH_X86

namespace batch {

// --- dispatched span entry points ------------------------------------------

namespace {

// The scalar span path is the element-at-a-time oracle: ff::axpy / ff::dot
// (ff/ops.hpp) plus the matching Horner loop.

void horner_scalar(F64 x, std::span<F64> acc, std::span<const F64> plane) {
  if (plane.empty()) {
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] *= x;
  } else {
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] = x * acc[i] + plane[i];
  }
}

}  // namespace

template <unsigned Bits>
  requires(Bits == 64)
void axpy(GF2E<Bits> c, std::span<const GF2E<Bits>> x,
          std::span<GF2E<Bits>> y) {
  GFOR14_EXPECTS(y.size() >= x.size());
  if (x.empty() || c.is_zero()) return;
  if (resolved_span() == SpanKernel::kWide) {
#if defined(GFOR14_BATCH_X86)
    if (active_kernel() == Kernel::kPclmul) {
      axpy64_hw(c.to_u64(), raw(x), raw(y), x.size());
      return;
    }
#endif
  }
  // The scalar oracle also serves GF(2^64) without PCLMUL.
  ff::axpy(c, x, y);
}

template <unsigned Bits>
  requires(Bits == 64)
GF2E<Bits> dot(std::span<const GF2E<Bits>> a, std::span<const GF2E<Bits>> b) {
  GFOR14_EXPECTS(a.size() == b.size());
  if (a.empty()) return GF2E<Bits>{};
  if (resolved_span() == SpanKernel::kWide) {
#if defined(GFOR14_BATCH_X86)
    if (active_kernel() == Kernel::kPclmul)
      return GF2E<Bits>::reduce_wide(dot64_hw(raw(a), raw(b), a.size()));
#endif
  }
  return ff::dot(a, b);
}

template <unsigned Bits>
  requires(Bits == 64)
void horner_fold(GF2E<Bits> x, std::span<GF2E<Bits>> acc,
                 std::span<const GF2E<Bits>> plane) {
  GFOR14_EXPECTS(plane.empty() || plane.size() >= acc.size());
  if (acc.empty()) return;
  if (resolved_span() == SpanKernel::kWide) {
#if defined(GFOR14_BATCH_X86)
    if (active_kernel() == Kernel::kPclmul) {
      horner64_hw(x.to_u64(), raw(acc), plane.empty() ? nullptr : raw(plane),
                  acc.size());
      return;
    }
#endif
  }
  horner_scalar(x, acc, plane);
}

template <unsigned Bits>
  requires(Bits == 64)
void scale(GF2E<Bits> c, std::span<GF2E<Bits>> y) {
  horner_fold(c, y, std::span<const GF2E<Bits>>{});
}

template void axpy<64>(F64, std::span<const F64>, std::span<F64>);
template F64 dot<64>(std::span<const F64>, std::span<const F64>);
template void scale<64>(F64, std::span<F64>);
template void horner_fold<64>(F64, std::span<F64>, std::span<const F64>);

}  // namespace batch
}  // namespace gfor14::ff
