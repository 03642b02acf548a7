// Wide span kernels over GF(2^64): the batch layer of the field stack.
//
// The VSS engine's structure-of-arrays hot path (vss/soa.hpp) works on
// contiguous coefficient planes — thousands of field elements multiplied by
// ONE scalar at a time. That shape admits kernels the element-at-a-time
// `ff::dot`/`ff::axpy` path cannot express: 128/256-bit vectorized
// carry-less multiply. PCLMULQDQ processes two GF(2^64) elements per
// iteration (VPCLMULQDQ four), with the modular reduction folded inside the
// vector registers — two extra clmuls per lane instead of a scalar fold.
//
// Every batch caller works on the protocol field, so the kernels are
// defined for GF(2^64) only (`requires(Bits == 64)`); call sites name the
// width (`batch::axpy<64>`).
//
// Dispatch mirrors ff/kernel.hpp: the wide path is the default,
// overridable from tests and benches with set_span_kernel(), counted in the
// metrics registry as ff.batch.kernel.<name>. The SCALAR path calls the
// element-at-a-time ff::axpy / ff::dot of ff/ops.hpp — it is kept as the
// differential oracle, and every wide kernel must agree with it bit-for-bit
// on every input (GF(2^k) arithmetic is exact, so this is equality, not
// tolerance). Forcing the bitloop scalar kernel additionally degrades the
// wide path to those loops, so the full oracle stack remains reachable
// end-to-end.
//
// All entry points are safe on empty spans (no data() dereference).
#pragma once

#include <cstdint>
#include <span>

#include "ff/gf2e.hpp"

namespace gfor14::ff {

enum class SpanKernel {
  kScalar,  ///< element-at-a-time loops (differential oracle)
  kWide,    ///< vectorized clmul spans
};

/// Stable lowercase name ("scalar", "wide").
const char* span_kernel_name(SpanKernel k);

/// The span kernel currently answering batch calls; kWide unless
/// overridden.
SpanKernel active_span_kernel();
const char* active_span_kernel_name();

/// Forces a span kernel (tests/benches). Always succeeds: the wide path
/// degrades internally to whatever the active scalar kernel allows.
bool set_span_kernel(SpanKernel k);

/// Drops any override; the next batch call resolves to kWide again.
void reset_span_kernel();

namespace batch {

/// y[i] += c * x[i] over a contiguous span. Identical results to ff::axpy.
template <unsigned Bits>
  requires(Bits == 64)
void axpy(GF2E<Bits> c, std::span<const GF2E<Bits>> x,
          std::span<GF2E<Bits>> y);

/// Inner product sum_i a[i]*b[i]. Identical results to ff::dot.
template <unsigned Bits>
  requires(Bits == 64)
GF2E<Bits> dot(std::span<const GF2E<Bits>> a, std::span<const GF2E<Bits>> b);

/// y[i] = c * y[i] in place.
template <unsigned Bits>
  requires(Bits == 64)
void scale(GF2E<Bits> c, std::span<GF2E<Bits>> y);

/// One Horner step across a batch: acc[i] = x * acc[i] + plane[i].
/// `acc` and `plane` must not alias; plane may be empty (pure scale step).
template <unsigned Bits>
  requires(Bits == 64)
void horner_fold(GF2E<Bits> x, std::span<GF2E<Bits>> acc,
                 std::span<const GF2E<Bits>> plane);

}  // namespace batch
}  // namespace gfor14::ff
