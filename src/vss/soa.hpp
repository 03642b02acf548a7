// Structure-of-arrays share containers for the VSS hot path.
//
// The bivariate engine's dealing, cross-evaluation and reconstruction loops
// all iterate "for every batch index k, do a tiny polynomial operation" —
// with t + 1 only 2-4 coefficients and k running into the tens of
// thousands. Stored as vector<Poly> (one heap allocation per k), that shape
// is allocation- and dispatch-bound. These containers transpose it:
// coefficient-major planes, each plane a contiguous span over k, so a batch
// of m Horner evaluations becomes `coeffs_per_poly` calls into the wide
// span kernels of ff/batch.hpp instead of m scalar Poly::eval calls.
//
// Equivalence contract: GF(2^k) arithmetic is exact and Horner order is
// preserved plane-by-plane, so every value produced here is bit-identical
// to the per-Poly code it replaced — including the zero coefficients that
// Poly's normalized representation strips (a plane stores them explicitly,
// a payload writes them explicitly; both spell zero). The replay verifier
// and the differential suite in tests/ff_batch_test.cpp enforce this.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ff/gf2e.hpp"

namespace gfor14::vss {

/// A batch of m univariate polynomials, each with a fixed coefficient count,
/// stored coefficient-major: plane(c)[k] is the x^c coefficient of
/// polynomial k. The SoA replacement for vector<Poly> slice storage.
class SliceBlock {
 public:
  /// Resets to m zero polynomials of `coeffs_per_poly` coefficients each.
  void assign(std::size_t m, std::size_t coeffs_per_poly);

  std::size_t size() const { return m_; }
  std::size_t coeffs_per_poly() const { return stride_; }
  bool empty() const { return m_ == 0; }

  std::span<Fld> plane(std::size_t c) {
    return {data_.data() + c * m_, m_};
  }
  std::span<const Fld> plane(std::size_t c) const {
    return {data_.data() + c * m_, m_};
  }

  /// Horner evaluation of polynomial k at x (cold complaint/accusation
  /// paths; the hot paths use eval_range).
  Fld eval_at(std::size_t k, Fld x) const;

  /// out[i] = polynomial (base + i) evaluated at x, for i < out.size();
  /// requires base + out.size() <= size(). One batched Horner sweep.
  void eval_range(Fld x, std::size_t base, std::span<Fld> out) const;

  /// Resizes to payload.size() / coeffs_per_poly polynomials loaded from the
  /// wire layout payload[k * coeffs_per_poly + c]; the payload size must be
  /// a multiple of coeffs_per_poly.
  void load_kmajor(std::size_t coeffs_per_poly, std::span<const Fld> payload);

 private:
  std::size_t m_ = 0, stride_ = 0;
  std::vector<Fld> data_;  // data_[c * m_ + k]
};

/// Dealer-side batch of symmetric bivariate polynomials F_k of degree deg in
/// each variable, dealt straight into coefficient-major planes: plane(i, j)
/// holds the x^i y^j coefficient of every F_k, both mirrored halves stored
/// explicitly so slice construction is pure span arithmetic.
class BivariateBatch {
 public:
  /// Draws one uniformly random symmetric F_k per secret, with F_k(0, 0) =
  /// secrets[k]. Draw-order contract: for each k in turn, exactly the draws
  /// of SymmetricBivariate::random_with_secret(rng, deg, secrets[k]) — the
  /// upper triangle (i <= j) row-major, (deg + 1)(deg + 2) / 2 draws, the
  /// (0, 0) draw then overwritten by the secret — so a batch deals the same
  /// polynomials, and leaves `rng` in the same state, as the scalar loop.
  void random_with_secrets(Rng& rng, std::size_t deg,
                           std::span<const Fld> secrets);

  std::size_t size() const { return m_; }
  bool empty() const { return m_ == 0; }

  /// The x^i y^j coefficients of every F_k (== plane(j, i)).
  std::span<const Fld> plane(std::size_t i, std::size_t j) const {
    return {data_.data() + (i * dp1_ + j) * m_, m_};
  }

  /// F_k(x, y) (cold resolution path).
  Fld eval(std::size_t k, Fld x, Fld y) const;

  /// Fills `out` with the slice polynomials F_k(x, y0): out.plane(c)[k] is
  /// the x^c coefficient of dealer polynomial k sliced at y0. One batched
  /// Horner sweep over j per coefficient row.
  void slices_at(Fld y0, SliceBlock& out) const;

  /// The same slices written straight into the wire layout
  /// payload[k * (deg + 1) + c], chunk by chunk through a stack buffer, so
  /// no intermediate block is built. payload.size() must be size() *
  /// (deg + 1).
  void slices_kmajor(Fld y0, std::span<Fld> payload) const;

 private:
  std::size_t m_ = 0, dp1_ = 0;
  std::vector<Fld> data_;  // data_[(i * dp1_ + j) * m_ + k]
};

/// Growable coefficient-major pool of committed share polynomials for one
/// dealer — the SoA replacement for vector<Sharing>. Columns are appended
/// zero and filled by finalize; evaluation at a party point is one batched
/// Horner sweep over any contiguous index range.
class SharePool {
 public:
  /// Fixes the per-polynomial coefficient count (t + 1); idempotent.
  void configure(std::size_t coeffs_per_poly);

  std::size_t count() const { return count_; }
  std::size_t coeffs_per_poly() const { return planes_.size(); }

  /// Appends m zero polynomials; returns the base index of the new block.
  std::size_t append_zero(std::size_t m);

  std::span<Fld> plane(std::size_t c) { return planes_[c]; }
  std::span<const Fld> plane(std::size_t c) const { return planes_[c]; }

  /// Overwrites polynomial k (coeffs beyond coeffs.size() become zero).
  void set_column(std::size_t k, std::span<const Fld> coeffs);

  /// Horner evaluation of polynomial k at alpha.
  Fld eval_one(std::size_t k, Fld alpha) const;

  /// out[i] = polynomial (base + i) evaluated at alpha, for i < out.size();
  /// requires base + out.size() <= count(). One batched Horner sweep.
  void eval_range(Fld alpha, std::size_t base, std::span<Fld> out) const;

 private:
  std::size_t count_ = 0;
  std::vector<std::vector<Fld>> planes_;  // planes_[c][k]
};

}  // namespace gfor14::vss
