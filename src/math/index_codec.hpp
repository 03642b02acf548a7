// Packed field encoding of index lists: the one encoding of the slabs
// AnonChan only ever opens and never combines linearly — the permutations
// pi_j, the non-zero index lists and the receiver's g_1..g_n (Figure 1,
// steps 1, 3 and 4).
//
// An index i of [0, ell) is stored as i + 1 in a slot of b = bit_width(ell)
// bits, k = floor(64 / b) slots per GF(2^64) word, slot s of a word in bits
// [s b, (s + 1) b) (the lowest slot in the lowest bits). The +1 keeps every
// slot of a valid encoding non-zero, so a missing or default (zero) VSS
// value never decodes. Decoding accepts only canonical words: no bit set at
// or above k b, zero in the unused slots of the last word, every used slot
// in [1, ell]. So each valid index list has exactly one encoding.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "ff/gf2e.hpp"
#include "math/permutation.hpp"

namespace gfor14 {

class IndexCodec {
 public:
  /// The codec of indices in [0, ell); requires 1 <= ell < 2^63.
  explicit IndexCodec(std::size_t ell);

  std::size_t ell() const { return ell_; }
  /// Bits per slot: bit_width(ell).
  unsigned slot_bits() const { return bits_; }
  /// Slots per word: floor(64 / slot_bits()).
  std::size_t per_word() const { return per_word_; }
  /// Words that hold `count` indices: ceil(count / per_word()).
  std::size_t words(std::size_t count) const {
    return (count + per_word_ - 1) / per_word_;
  }

  /// Packs `indices` (each below ell) into `out`, which must hold exactly
  /// words(indices.size()) words.
  void encode(std::span<const std::size_t> indices, std::span<Fld> out) const;

  /// A permutation of [0, ell) (ell packed images); nullopt on a
  /// non-canonical word or a list that is not a bijection.
  std::optional<Permutation> decode_permutation(std::span<const Fld> enc) const;

  /// A strictly increasing list of `count` indices — distinct by
  /// construction; nullopt on a non-canonical word or any non-increase.
  std::optional<std::vector<std::size_t>> decode_index_list(
      std::span<const Fld> enc, std::size_t count) const;

 private:
  /// The `count` indices packed in `enc`; nullopt unless enc is the
  /// canonical encoding of some list of `count` indices in [0, ell).
  std::optional<std::vector<std::size_t>> decode(std::span<const Fld> enc,
                                                 std::size_t count) const;

  std::size_t ell_;
  unsigned bits_;
  std::size_t per_word_;
};

}  // namespace gfor14
