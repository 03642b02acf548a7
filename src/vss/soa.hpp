// Structure-of-arrays share containers for the VSS hot path.
//
// The bivariate engine's loops all run "for every batch index k, do a tiny
// polynomial operation", with t + 1 only 2-4 coefficients and k in the tens
// of thousands. As vector<Poly> that shape is allocation- and
// dispatch-bound, so dealt polynomials and share pools are kept
// coefficient-major (each plane a contiguous span over k) and a batch of m
// Horner evaluations is `coeffs_per_poly` wide span-kernel calls
// (ff/batch.hpp). Received slices stay in the R1 wire layout and are read
// in place; their columns are gathered chunk by chunk for the same kernels.
//
// Equivalence contract: GF(2^k) arithmetic is exact, so every value
// produced here is bit-identical to the per-Poly code it replaced,
// including the zero coefficients Poly's normalized form strips. The
// replay verifier and tests/ff_batch_test.cpp enforce this.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/recycler.hpp"
#include "common/rng.hpp"
#include "ff/gf2e.hpp"

namespace gfor14::vss {

/// m polynomials of `coeffs_per_poly` coefficients in the R1 wire layout:
/// coefficient c of polynomial k is words[k * coeffs_per_poly + c]. A
/// read-only view; whoever made it keeps the storage alive (delivered round
/// traffic, a dealer's own slot, a published opening). A view without
/// words reads as m zero polynomials, the default message.
class SliceView {
 public:
  SliceView() = default;
  /// Views `words`; its size must be a multiple of coeffs_per_poly.
  SliceView(std::span<const Fld> words, std::size_t coeffs_per_poly);
  /// m zero polynomials (no storage).
  static SliceView zeros(std::size_t m, std::size_t coeffs_per_poly) {
    return SliceView(nullptr, m, coeffs_per_poly);
  }

  std::size_t size() const { return m_; }
  std::size_t coeffs_per_poly() const { return stride_; }
  /// The viewed words; empty for a zero view.
  std::span<const Fld> words() const {
    return {data_, data_ ? m_ * stride_ : 0};
  }

  /// Horner evaluation of polynomial k at x (cold complaint/accusation
  /// paths; the hot paths use eval_range).
  Fld eval_at(std::size_t k, Fld x) const;

  /// out[i] = polynomial (base + i) evaluated at x, for i < out.size();
  /// requires base + out.size() <= size().
  void eval_range(Fld x, std::size_t base, std::span<Fld> out) const;

  /// out[i] = coefficient c of polynomial (base + i): one strided read.
  void column(std::size_t c, std::size_t base, std::span<Fld> out) const;

 private:
  SliceView(const Fld* data, std::size_t m, std::size_t stride)
      : data_(data), m_(m), stride_(stride) {}

  const Fld* data_ = nullptr;
  std::size_t m_ = 0, stride_ = 0;
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
    return {data_->data() + (i * dp1_ + j) * m_, m_};
  }

  /// F_k(x, y) (cold resolution path).
  Fld eval(std::size_t k, Fld x, Fld y) const;

  /// The slice polynomials F_k(x, y0), written straight into the wire
  /// layout payload[k * (deg + 1) + c], chunk by chunk through a stack
  /// buffer. payload.size() must be size() *
  /// (deg + 1).
  void slices_kmajor(Fld y0, std::span<Fld> payload) const;

 private:
  std::size_t m_ = 0, dp1_ = 0;
  Recycled data_;  // (*data_)[(i * dp1_ + j) * m_ + k]
};

/// Growable coefficient-major pool of committed share polynomials: one
/// dealer's sharings (the SoA replacement for vector<Sharing>; columns are
/// appended zero and filled by finalize), or the folded values of one
/// reconstruction request. Evaluation at a party point is one batched
/// Horner sweep over any contiguous index range.
class SharePool {
 public:
  /// Fixes the per-polynomial coefficient count (t + 1); idempotent.
  void configure(std::size_t coeffs_per_poly);

  std::size_t count() const { return count_; }
  std::size_t coeffs_per_poly() const { return planes_.size(); }

  /// Appends m polynomials; returns the base index of the new block. Their
  /// coefficients are zero if `zero` is set (each written once), otherwise
  /// unspecified, for a caller that overwrites every one.
  std::size_t append(std::size_t m, bool zero);

  std::span<Fld> plane(std::size_t c) { return *planes_[c]; }
  std::span<const Fld> plane(std::size_t c) const { return *planes_[c]; }

  /// Overwrites polynomial k (coeffs beyond coeffs.size() become zero).
  void set_column(std::size_t k, std::span<const Fld> coeffs);

  /// Horner evaluation of polynomial k at alpha.
  Fld eval_one(std::size_t k, Fld alpha) const;

  /// out[i] = polynomial (base + i) evaluated at alpha, for i < out.size();
  /// requires base + out.size() <= count(). One batched Horner sweep.
  void eval_range(Fld alpha, std::size_t base, std::span<Fld> out) const;

 private:
  std::size_t count_ = 0;
  std::vector<Recycled> planes_;  // (*planes_[c])[k]
};

}  // namespace gfor14::vss
