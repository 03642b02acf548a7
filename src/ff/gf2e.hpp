// Binary extension fields GF(2^k) in polynomial basis.
//
// The paper fixes the computation field as F = GF(2^kappa) with kappa >= 2n
// (Section 2), so that protocol messages, authentication tags, shares and
// permutation images are all field elements whose bit-length equals the
// error parameter. We provide k in {8, 16, 32, 64, 128}; the protocol-wide
// default `Fld` is GF(2^64), which supports the paper's constraint for every
// simulated network size up to n = 32.
//
// Representation: polynomial basis modulo a fixed irreducible polynomial
// (low-weight trinomials/pentanomials; the 128-bit field uses the GCM
// polynomial). Addition is XOR; multiplication is a carry-less multiply
// (dispatched at runtime between PCLMULQDQ/PMULL hardware and a portable
// bit loop — see ff/kernel.hpp) followed by modular reduction, except
// for GF(2^8)/GF(2^16) which use constexpr exp/log tables; inversion is
// Fermat (a^(2^k - 2)), or one table lookup for the small fields — no
// timing side channels matter in a simulator, only correctness and
// determinism.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "ff/gf2e_tables.hpp"
#include "ff/kernel.hpp"

namespace gfor14 {

/// Irreducible reduction polynomials, given as the low part (polynomial
/// minus the leading x^k term). All are standard choices.
template <unsigned Bits>
struct Gf2Modulus;
template <> struct Gf2Modulus<8>   { static constexpr std::uint64_t low = 0x1B; };   // x^8+x^4+x^3+x+1
template <> struct Gf2Modulus<16>  { static constexpr std::uint64_t low = 0x2B; };   // x^16+x^5+x^3+x+1
template <> struct Gf2Modulus<32>  { static constexpr std::uint64_t low = 0x8D; };   // x^32+x^7+x^3+x^2+1
template <> struct Gf2Modulus<64>  { static constexpr std::uint64_t low = 0x1B; };   // x^64+x^4+x^3+x+1
template <> struct Gf2Modulus<128> { static constexpr std::uint64_t low = 0x87; };   // x^128+x^7+x^2+x+1

/// An element of GF(2^Bits). Regular type: value semantics, total equality.
template <unsigned Bits>
class GF2E {
  static_assert(Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64 ||
                    Bits == 128,
                "unsupported field size");

 public:
  static constexpr unsigned kBits = Bits;
  static constexpr unsigned kLimbs = (Bits + 63) / 64;

  constexpr GF2E() = default;

  /// Embeds a 64-bit integer (as a polynomial over GF(2)); for Bits < 64 the
  /// value must fit in Bits bits.
  static GF2E from_u64(std::uint64_t v) {
    if constexpr (Bits < 64) {
      GFOR14_EXPECTS(v < (std::uint64_t{1} << Bits));
    }
    GF2E r;
    r.limbs_[0] = v;
    return r;
  }

  static constexpr GF2E zero() { return GF2E{}; }
  static GF2E one() { return from_u64(1); }

  /// Uniformly random element.
  static GF2E random(Rng& rng) {
    GF2E r;
    for (unsigned i = 0; i < kLimbs; ++i) r.limbs_[i] = rng.next_u64();
    if constexpr (Bits % 64 != 0) {
      r.limbs_[kLimbs - 1] &= (std::uint64_t{1} << (Bits % 64)) - 1;
    }
    return r;
  }

  /// Uniformly random non-zero element (rejection; expected < 2 draws).
  static GF2E random_nonzero(Rng& rng) {
    for (;;) {
      GF2E r = random(rng);
      if (!r.is_zero()) return r;
    }
  }

  bool is_zero() const {
    for (unsigned i = 0; i < kLimbs; ++i)
      if (limbs_[i] != 0) return false;
    return true;
  }

  /// Low 64 bits of the representation (whole element when Bits <= 64).
  std::uint64_t to_u64() const { return limbs_[0]; }

  std::uint64_t limb(unsigned i) const { return i < kLimbs ? limbs_[i] : 0; }

  /// Bit `i` of the polynomial representation (used to derive challenge
  /// bits from a reconstructed field element, AnonChan step 2).
  bool bit(unsigned i) const {
    GFOR14_EXPECTS(i < Bits);
    return (limbs_[i / 64] >> (i % 64)) & 1;
  }

  friend GF2E operator+(GF2E a, GF2E b) {
    for (unsigned i = 0; i < kLimbs; ++i) a.limbs_[i] ^= b.limbs_[i];
    return a;
  }
  friend GF2E operator-(GF2E a, GF2E b) { return a + b; }  // char 2
  GF2E& operator+=(GF2E o) { return *this = *this + o; }
  GF2E& operator-=(GF2E o) { return *this = *this - o; }

  friend GF2E operator*(GF2E a, GF2E b) {
    if constexpr (Bits <= 16) {
      // Whole-group exp/log tables: three lookups, no reduction.
      if (a.is_zero() || b.is_zero()) return GF2E{};
      const auto& t = ff::gf2_small_tables<Bits>();
      GF2E r;
      r.limbs_[0] = t.exp[static_cast<std::uint32_t>(t.log[a.limbs_[0]]) +
                          t.log[b.limbs_[0]]];
      return r;
    } else if constexpr (Bits <= 64) {
      GF2E r;
      r.limbs_[0] = reduce_small(ff::clmul64(a.limbs_[0], b.limbs_[0]));
      return r;
    } else {
      Wide acc{};
      mul_acc_wide(a, b, acc);
      return reduce_wide(acc);
    }
  }
  GF2E& operator*=(GF2E o) { return *this = *this * o; }

  /// Multiplicative inverse; requires non-zero.
  GF2E inverse() const {
    GFOR14_EXPECTS(!is_zero());
    if constexpr (Bits <= 16) {
      const auto& t = ff::gf2_small_tables<Bits>();
      GF2E r;
      r.limbs_[0] =
          t.exp[ff::Gf2SmallTables<Bits>::kOrder - t.log[limbs_[0]]];
      return r;
    } else {
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
  }

  friend GF2E operator/(GF2E a, GF2E b) { return a * b.inverse(); }

  friend bool operator==(const GF2E&, const GF2E&) = default;

  /// Hex string, most significant limb first (for logs and test failures).
  std::string to_string() const {
    static const char* digits = "0123456789abcdef";
    std::string s;
    s.reserve(kLimbs * 16 + 2);
    s += "0x";
    bool started = false;
    for (unsigned li = kLimbs; li-- > 0;) {
      for (int nib = 15; nib >= 0; --nib) {
        const unsigned v = (limbs_[li] >> (nib * 4)) & 0xF;
        if (v != 0) started = true;
        if (started) s += digits[v];
      }
    }
    if (!started) s += '0';
    return s;
  }

  /// Number of bytes in the canonical serialization.
  static constexpr std::size_t byte_size() { return Bits / 8; }

  /// Little-endian canonical serialization (appends to `out`).
  void serialize(std::vector<std::uint8_t>& out) const {
    for (std::size_t i = 0; i < byte_size(); ++i)
      out.push_back(static_cast<std::uint8_t>(limbs_[i / 8] >> ((i % 8) * 8)));
  }

  /// Inverse of serialize(): strict — `bytes` must be exactly byte_size()
  /// little-endian bytes, and any bits beyond the field width must be zero
  /// (vacuously true for the supported sizes, whose width is a whole number
  /// of bytes; the check stays as a guard for future field widths).
  static std::optional<GF2E> deserialize(std::span<const std::uint8_t> bytes) {
    if (bytes.size() != byte_size()) return std::nullopt;
    GF2E r;
    for (std::size_t i = 0; i < bytes.size(); ++i)
      r.limbs_[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << ((i % 8) * 8);
    if constexpr (Bits % 64 != 0) {
      if ((r.limbs_[kLimbs - 1] >> (Bits % 64)) != 0) return std::nullopt;
    }
    return r;
  }

  // --- Raw limb access (wide span kernels, ff/batch.hpp) ------------------
  // A GF2E is exactly its limb array (no padding, standard layout), so a
  // contiguous span of elements is a contiguous array of limbs. The batch
  // kernels use this for vector loads/stores; for Bits <= 64 the stride is
  // one std::uint64_t per element.

  std::uint64_t* raw_limbs() { return limbs_.data(); }
  const std::uint64_t* raw_limbs() const { return limbs_.data(); }

  // --- Lazily-reduced product accumulation (span kernels, ff/ops.hpp) -----
  // An inner product over the field can XOR-accumulate raw carry-less
  // products and reduce ONCE, instead of reducing every term: addition is
  // XOR, and reduction is GF(2)-linear.

  /// Unreduced product accumulator: twice the limbs of an element.
  using Wide = std::array<std::uint64_t, 2 * kLimbs>;

  /// acc ^= a * b, unreduced (schoolbook carry-less multiply over limbs).
  static void mul_acc_wide(const GF2E& a, const GF2E& b, Wide& acc) {
    if constexpr (Bits <= 64) {
      const unsigned __int128 p = ff::clmul64(a.limbs_[0], b.limbs_[0]);
      acc[0] ^= static_cast<std::uint64_t>(p);
      acc[1] ^= static_cast<std::uint64_t>(p >> 64);
    } else {
      const auto xor_at = [&acc](unsigned limb, unsigned __int128 v) {
        acc[limb] ^= static_cast<std::uint64_t>(v);
        acc[limb + 1] ^= static_cast<std::uint64_t>(v >> 64);
      };
      xor_at(0, ff::clmul64(a.limbs_[0], b.limbs_[0]));
      xor_at(1, ff::clmul64(a.limbs_[0], b.limbs_[1]));
      xor_at(1, ff::clmul64(a.limbs_[1], b.limbs_[0]));
      xor_at(2, ff::clmul64(a.limbs_[1], b.limbs_[1]));
    }
  }

  /// Reduces an accumulated Wide value into the field.
  static GF2E reduce_wide(const Wide& w) {
    if constexpr (Bits <= 64) {
      GF2E r;
      r.limbs_[0] = reduce_small(
          (static_cast<unsigned __int128>(w[1]) << 64) | w[0]);
      return r;
    } else {
      // Fold the top 128 bits down twice: x^128 == 0x87 (GCM reduction).
      // 0x87 has 4 set bits, so each fold is a few constant shift-XORs over
      // the (lo, hi) limb pair — no clmul dispatch on the reduction path.
      std::array<std::uint64_t, 4> p = w;
      for (int round = 0; round < 2; ++round) {
        const std::uint64_t lo = p[2];
        const std::uint64_t hi = p[3];
        if ((lo | hi) == 0) break;
        p[2] = p[3] = 0;
        for (std::uint64_t m = Gf2Modulus<Bits>::low; m != 0; m &= m - 1) {
          const int s = __builtin_ctzll(m);
          p[0] ^= lo << s;
          p[1] ^= hi << s;
          if (s != 0) {
            p[1] ^= lo >> (64 - s);
            p[2] ^= hi >> (64 - s);
          }
        }
      }
      GF2E r;
      r.limbs_[0] = p[0];
      r.limbs_[1] = p[1];
      return r;
    }
  }

 private:
  static std::uint64_t reduce_small(unsigned __int128 p) {
    // Fold-based reduction modulo x^Bits + low: since x^Bits == low, the
    // high part folds down by hi * low. The moduli are low-weight (4-5 set
    // bits), so the fold is a handful of constant shift-XORs — the unrolled
    // carry-less product by the constant, cheaper than any clmul dispatch.
    // Two folds always suffice.
    constexpr std::uint64_t low = Gf2Modulus<Bits>::low;
    constexpr unsigned __int128 mask =
        Bits == 64 ? static_cast<unsigned __int128>(~0ULL)
                   : ((static_cast<unsigned __int128>(1) << Bits) - 1);
    while ((p >> Bits) != 0) {
      const unsigned __int128 hi = p >> Bits;
      unsigned __int128 fold = 0;
      for (std::uint64_t m = low; m != 0; m &= m - 1)
        fold ^= hi << __builtin_ctzll(m);
      p = (p & mask) ^ fold;
    }
    return static_cast<std::uint64_t>(p);
  }

  std::array<std::uint64_t, kLimbs> limbs_{};
};

template <unsigned Bits>
std::ostream& operator<<(std::ostream& os, const GF2E<Bits>& x);

using F8 = GF2E<8>;
using F16 = GF2E<16>;
using F32 = GF2E<32>;
using F64 = GF2E<64>;
using F128 = GF2E<128>;

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
