#include "math/index_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/expect.hpp"

namespace gfor14 {

IndexCodec::IndexCodec(std::size_t ell)
    : ell_(ell), bits_(static_cast<unsigned>(std::bit_width(ell))) {
  // bits_ < 64 keeps every shift below the word width.
  GFOR14_EXPECTS(ell >= 1 && bits_ < 64);
  per_word_ = 64 / bits_;
}

void IndexCodec::encode(std::span<const std::size_t> indices,
                        std::span<Fld> out) const {
  GFOR14_EXPECTS(out.size() == words(indices.size()));
  for (std::size_t w = 0; w < out.size(); ++w) {
    std::uint64_t word = 0;
    const std::size_t first = w * per_word_;
    const std::size_t slots = std::min(per_word_, indices.size() - first);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t idx = indices[first + s];
      GFOR14_EXPECTS(idx < ell_);
      word |= (static_cast<std::uint64_t>(idx) + 1) << (s * bits_);
    }
    out[w] = Fld::from_u64(word);
  }
}

std::optional<std::vector<std::size_t>> IndexCodec::decode(
    std::span<const Fld> enc, std::size_t count) const {
  if (enc.size() != words(count)) return std::nullopt;
  const std::uint64_t mask = (std::uint64_t{1} << bits_) - 1;
  std::vector<std::size_t> out(count);
  for (std::size_t w = 0; w < enc.size(); ++w) {
    std::uint64_t word = enc[w].to_u64();
    const std::size_t first = w * per_word_;
    const std::size_t slots = std::min(per_word_, count - first);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::uint64_t v = word & mask;
      if (v == 0 || v > ell_) return std::nullopt;
      out[first + s] = static_cast<std::size_t>(v - 1);
      word >>= bits_;
    }
    // What is left are the bits at or above k b and, in the last word, the
    // unused slots: a canonical word has none of them set.
    if (word != 0) return std::nullopt;
  }
  return out;
}

std::optional<Permutation> IndexCodec::decode_permutation(
    std::span<const Fld> enc) const {
  auto images = decode(enc, ell_);
  if (!images) return std::nullopt;
  return Permutation::from_images(std::move(*images));
}

std::optional<std::vector<std::size_t>> IndexCodec::decode_index_list(
    std::span<const Fld> enc, std::size_t count) const {
  auto list = decode(enc, count);
  if (!list) return std::nullopt;
  for (std::size_t m = 1; m < list->size(); ++m)
    if ((*list)[m] <= (*list)[m - 1]) return std::nullopt;
  return list;
}

}  // namespace gfor14
