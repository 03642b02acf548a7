// Linear combinations over sharings — the object the Linearity property of
// VSS (Section 2.2) lets parties manipulate without interaction.
//
// A LinComb is sum_k coeff_k * sharing_k + constant, where each sharing is
// identified by (dealer, index within the dealer's batch). Every
// reconstruction in AnonChan is phrased as a LinComb: the challenge
// r = sum_i r^(i), the cut-and-choose differences pi(v) - w, the alleged
// zero entries, consecutive differences of non-zero entries, and the final
// vector v = sum_{PASS} g_i(v^(i)).
#pragma once

#include <cstddef>
#include <vector>

#include "ff/gf2e.hpp"

namespace gfor14::vss {

/// Identifies one sharing: the k-th secret dealt by `dealer`.
struct SharingRef {
  std::size_t dealer = 0;
  std::size_t index = 0;
  friend bool operator==(const SharingRef&, const SharingRef&) = default;
};

class LinComb {
 public:
  LinComb() = default;

  /// The combination consisting of a single sharing.
  static LinComb of(SharingRef ref);
  /// A public constant (no sharings involved).
  static LinComb constant(Fld c);

  LinComb& add(SharingRef ref, Fld coeff);
  LinComb& add_constant(Fld c);
  LinComb& add(const LinComb& other, Fld coeff);
  /// Room for `terms` terms in total, for a caller that knows its count.
  void reserve(std::size_t terms) { terms_.reserve(terms); }

  friend LinComb operator+(const LinComb& a, const LinComb& b);
  friend LinComb operator-(const LinComb& a, const LinComb& b);
  friend LinComb operator*(Fld c, const LinComb& v);

  const std::vector<std::pair<SharingRef, Fld>>& terms() const { return terms_; }
  Fld constant_term() const { return constant_; }

  /// Merges duplicate refs and drops zero coefficients.
  void normalize();

 private:
  std::vector<std::pair<SharingRef, Fld>> terms_;
  Fld constant_ = Fld::zero();
};

}  // namespace gfor14::vss
