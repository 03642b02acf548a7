// Binary extension fields GF(2^k) in polynomial basis.
//
// The paper fixes the computation field as F = GF(2^kappa) with kappa >= 2n
// (Section 2), so that protocol messages, authentication tags, shares and
// permutation images are all field elements whose bit-length equals the
// error parameter. The protocol-wide field `Fld` is GF(2^64), which supports
// the paper's constraint for every simulated network size up to n = 32; the
// only other width is GF(2^32), the message/tag space of the Section 4
// pseudosignature MACs (pseudosig/itmac.hpp).
//
// Representation: one 64-bit word, polynomial basis modulo a fixed
// low-weight irreducible polynomial. Addition is XOR; multiplication is a
// carry-less multiply (dispatched at runtime between PCLMULQDQ/PMULL
// hardware and a portable bit loop — see ff/kernel.hpp) followed by modular
// reduction; inversion is Fermat (a^(2^k - 2)) — no timing side channels
// matter in a simulator, only correctness and determinism.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "ff/kernel.hpp"

namespace gfor14 {

/// Irreducible reduction polynomials, given as the low part (polynomial
/// minus the leading x^k term). Both are standard choices.
template <unsigned Bits>
struct Gf2Modulus;
template <> struct Gf2Modulus<32>  { static constexpr std::uint64_t low = 0x8D; };   // x^32+x^7+x^3+x^2+1
template <> struct Gf2Modulus<64>  { static constexpr std::uint64_t low = 0x1B; };   // x^64+x^4+x^3+x+1

/// An element of GF(2^Bits). Regular type: value semantics, total equality.
template <unsigned Bits>
class GF2E {
  static_assert(Bits == 32 || Bits == 64, "unsupported field size");

  static constexpr std::uint64_t kMask = ~std::uint64_t{0} >> (64 - Bits);

 public:
  static constexpr unsigned kBits = Bits;

  constexpr GF2E() = default;

  /// Embeds a 64-bit integer (as a polynomial over GF(2)); for GF(2^32) the
  /// value must fit in 32 bits.
  static GF2E from_u64(std::uint64_t v) {
    GFOR14_EXPECTS((v & ~kMask) == 0);
    GF2E r;
    r.v_ = v;
    return r;
  }

  static constexpr GF2E zero() { return GF2E{}; }
  static GF2E one() { return from_u64(1); }

  /// Uniformly random element (one 64-bit draw).
  static GF2E random(Rng& rng) {
    GF2E r;
    r.v_ = rng.next_u64() & kMask;
    return r;
  }

  /// Uniformly random non-zero element (rejection; expected < 2 draws).
  static GF2E random_nonzero(Rng& rng) {
    for (;;) {
      GF2E r = random(rng);
      if (!r.is_zero()) return r;
    }
  }

  bool is_zero() const { return v_ == 0; }

  /// The whole element as an integer.
  std::uint64_t to_u64() const { return v_; }

  /// Bit `i` of the polynomial representation (used to derive challenge
  /// bits from a reconstructed field element, AnonChan step 2).
  bool bit(unsigned i) const {
    GFOR14_EXPECTS(i < Bits);
    return (v_ >> i) & 1;
  }

  friend GF2E operator+(GF2E a, GF2E b) {
    a.v_ ^= b.v_;
    return a;
  }
  friend GF2E operator-(GF2E a, GF2E b) { return a + b; }  // char 2
  GF2E& operator+=(GF2E o) { return *this = *this + o; }
  GF2E& operator-=(GF2E o) { return *this = *this - o; }

  friend GF2E operator*(GF2E a, GF2E b) {
    return reduce_wide(ff::clmul64(a.v_, b.v_));
  }
  GF2E& operator*=(GF2E o) { return *this = *this * o; }

  /// Multiplicative inverse; requires non-zero.
  GF2E inverse() const {
    GFOR14_EXPECTS(!is_zero());
    // Fermat: a^(2^Bits - 2) = a^(111...10_2), square-and-multiply.
    GF2E result = one();
    GF2E base = *this;
    // Exponent bits: bit 0 is 0, bits 1..Bits-1 are 1.
    base = base * base;  // now base = a^2, aligned with exponent bit 1
    for (unsigned i = 1; i < Bits; ++i) {
      result = result * base;
      base = base * base;
    }
    return result;
  }

  friend GF2E operator/(GF2E a, GF2E b) { return a * b.inverse(); }

  friend bool operator==(const GF2E&, const GF2E&) = default;

  /// Hex string without leading zeros (for logs and test failures).
  std::string to_string() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(v_));
    return buf;
  }

  /// Number of bytes in the canonical serialization.
  static constexpr std::size_t byte_size() { return Bits / 8; }

  /// Little-endian canonical serialization (appends to `out`).
  void serialize(std::vector<std::uint8_t>& out) const {
    for (std::size_t i = 0; i < byte_size(); ++i)
      out.push_back(static_cast<std::uint8_t>(v_ >> (i * 8)));
  }

  /// Inverse of serialize(): strict — `bytes` must be exactly byte_size()
  /// little-endian bytes (both widths are whole bytes, so every such
  /// pattern is a canonical element).
  static std::optional<GF2E> deserialize(std::span<const std::uint8_t> bytes) {
    if (bytes.size() != byte_size()) return std::nullopt;
    GF2E r;
    for (std::size_t i = 0; i < bytes.size(); ++i)
      r.v_ |= static_cast<std::uint64_t>(bytes[i]) << (i * 8);
    return r;
  }

  // --- Raw word access (wide span kernels, ff/batch.hpp) ------------------
  // A GF2E is exactly one std::uint64_t (no padding, standard layout), so a
  // contiguous span of elements is a contiguous array of words. The batch
  // kernels use this for vector loads/stores.

  std::uint64_t* raw_word() { return &v_; }
  const std::uint64_t* raw_word() const { return &v_; }

  // --- Lazily-reduced product accumulation (span kernels, ff/ops.hpp) -----
  // An inner product over the field can XOR-accumulate raw carry-less
  // products and reduce ONCE, instead of reducing every term: addition is
  // XOR, and reduction is GF(2)-linear.

  /// Unreduced product accumulator: one 128-bit carry-less product.
  using Wide = ff::u128;

  /// acc ^= a * b, unreduced.
  static void mul_acc_wide(GF2E a, GF2E b, Wide& acc) {
    acc ^= ff::clmul64(a.v_, b.v_);
  }

  /// Reduces an accumulated Wide value into the field.
  static GF2E reduce_wide(Wide p) {
    // Fold-based reduction modulo x^Bits + low: since x^Bits == low, the
    // high part folds down by hi * low. The moduli are low-weight (4-5 set
    // bits), so the fold is a handful of constant shift-XORs — the unrolled
    // carry-less product by the constant, cheaper than any clmul dispatch.
    // Two folds always suffice.
    constexpr std::uint64_t low = Gf2Modulus<Bits>::low;
    while ((p >> Bits) != 0) {
      const Wide hi = p >> Bits;
      Wide fold = 0;
      for (std::uint64_t m = low; m != 0; m &= m - 1)
        fold ^= hi << __builtin_ctzll(m);
      p = (p & kMask) ^ fold;
    }
    GF2E r;
    r.v_ = static_cast<std::uint64_t>(p);
    return r;
  }

 private:
  std::uint64_t v_ = 0;
};

template <unsigned Bits>
std::ostream& operator<<(std::ostream& os, const GF2E<Bits>& x);

using F32 = GF2E<32>;
using F64 = GF2E<64>;

/// Protocol-wide field: GF(2^64). Satisfies |F| > n and kappa >= 2n for all
/// simulated network sizes in this repository.
using Fld = F64;

/// Distinct non-zero evaluation points for Shamir-style sharing: party i
/// (0-based) evaluates at alpha_i = from_u64(i + 1).
template <unsigned Bits>
GF2E<Bits> eval_point(std::size_t party_index) {
  return GF2E<Bits>::from_u64(static_cast<std::uint64_t>(party_index) + 1);
}

}  // namespace gfor14
