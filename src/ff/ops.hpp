// Share-algebra fast paths: fused span operations over GF(2^k).
//
// The protocol layers (VSS dealing/reconstruction, Lagrange algebra,
// Gaussian elimination inside Berlekamp–Welch) spend almost all of their
// field time in three shapes: inner products, y += c*x updates, and runs of
// inversions. Doing these over spans instead of element-at-a-time lets us
//   * reduce once per inner product instead of once per term (reduction is
//     GF(2)-linear, so raw carry-less products can be XOR-accumulated);
//   * batch m inversions into one (Montgomery's trick: 3(m-1) multiplies
//     plus a single Fermat inversion).
#pragma once

#include <span>
#include <vector>

#include "common/expect.hpp"
#include "ff/gf2e.hpp"

namespace gfor14::ff {

/// Inner product sum_i a[i]*b[i] with a single deferred reduction.
template <unsigned Bits>
GF2E<Bits> dot(std::span<const GF2E<Bits>> a, std::span<const GF2E<Bits>> b) {
  GFOR14_EXPECTS(a.size() == b.size());
  // Empty-span guard: the additive identity, without ever forming data()
  // pointers (the wide kernels downstream dereference span bases, and an
  // empty span's data() may be null).
  if (a.empty()) return GF2E<Bits>{};
  typename GF2E<Bits>::Wide acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    GF2E<Bits>::mul_acc_wide(a[i], b[i], acc);
  return GF2E<Bits>::reduce_wide(acc);
}

/// y[i] += c * x[i] (fused multiply-accumulate over spans).
template <unsigned Bits>
void axpy(GF2E<Bits> c, std::span<const GF2E<Bits>> x,
          std::span<GF2E<Bits>> y) {
  GFOR14_EXPECTS(y.size() >= x.size());
  // Empty x is a no-op (before any data() is taken), and a zero scalar
  // contributes nothing regardless of span length.
  if (x.empty() || c.is_zero()) return;
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += c * x[i];
}

/// In-place batch inversion (Montgomery's trick); every element must be
/// non-zero. One field inversion total, regardless of xs.size().
template <unsigned Bits>
void batch_inverse(std::span<GF2E<Bits>> xs) {
  const std::size_t m = xs.size();
  if (m == 0) return;
  // prefix[i] = xs[0] * ... * xs[i]
  std::vector<GF2E<Bits>> prefix(m);
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < m; ++i) prefix[i] = prefix[i - 1] * xs[i];
  GF2E<Bits> inv = prefix[m - 1].inverse();  // throws on a zero element
  for (std::size_t i = m; i-- > 1;) {
    const GF2E<Bits> xi = xs[i];
    xs[i] = inv * prefix[i - 1];
    inv *= xi;
  }
  xs[0] = inv;
}

}  // namespace gfor14::ff
