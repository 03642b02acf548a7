#include "common/digest.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "ff/batch.hpp"

namespace gfor14 {

namespace {

/// Words per dot-product block.
constexpr std::size_t kMessageBlock = 1024;

/// K^1 .. K^kMessageBlock, built once per process.
const std::array<Fld, kMessageBlock>& key_powers() {
  static const std::array<Fld, kMessageBlock> powers = [] {
    std::array<Fld, kMessageBlock> p;
    const Fld key = Fld::from_u64(kMessageKey);
    Fld acc = key;
    for (Fld& v : p) {
      v = acc;
      acc *= key;
    }
    return p;
  }();
  return powers;
}

}  // namespace

Fld message_digest(std::span<const Fld> words) {
  const auto& powers = key_powers();
  const Fld stride = powers.back();  // K^kMessageBlock
  // Block j contributes K^(j*B) * dot(block_j, K^1..K^len); Horner from the
  // last block down applies the K^(j*B) factors.
  Fld h = Fld::zero();
  const std::size_t blocks = (words.size() + kMessageBlock - 1) / kMessageBlock;
  for (std::size_t j = blocks; j-- > 0;) {
    const std::span<const Fld> block = words.subspan(
        j * kMessageBlock,
        std::min(kMessageBlock, words.size() - j * kMessageBlock));
    h = h * stride +
        ff::batch::dot(block, std::span<const Fld>(powers).first(block.size()));
  }
  return h;
}

}  // namespace gfor14
