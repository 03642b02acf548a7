// Permutations and the packed index codec (AnonChan shares permutations
// and index lists several indices per field word and disqualifies dealers
// whose reconstruction is not canonical, not a permutation or not strictly
// increasing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "math/index_codec.hpp"
#include "math/permutation.hpp"

namespace gfor14 {
namespace {

TEST(Permutation, IdentityActsTrivially) {
  const auto id = Permutation::identity(5);
  std::vector<int> v = {10, 20, 30, 40, 50};
  EXPECT_EQ(id.apply(v), v);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(id(k), k);
}

TEST(Permutation, RandomIsBijection) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = Permutation::random(rng, 20);
    std::vector<bool> seen(20, false);
    for (std::size_t k = 0; k < 20; ++k) {
      ASSERT_LT(p(k), 20u);
      EXPECT_FALSE(seen[p(k)]);
      seen[p(k)] = true;
    }
  }
}

TEST(Permutation, RandomIsUniformOnFirstImage) {
  Rng rng(5);
  const std::size_t n = 8, trials = 40000;
  std::vector<std::size_t> counts(n, 0);
  for (std::size_t i = 0; i < trials; ++i)
    counts[Permutation::random(rng, n)(0)] += 1;
  EXPECT_LT(chi_square_uniform(counts), chi_square_critical_001(n - 1));
}

TEST(Permutation, InverseComposesToIdentity) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const auto p = Permutation::random(rng, 12);
    EXPECT_EQ(p.compose(p.inverse()), Permutation::identity(12));
    EXPECT_EQ(p.inverse().compose(p), Permutation::identity(12));
  }
}

TEST(Permutation, ComposeAssociativeAction) {
  Rng rng(9);
  const auto a = Permutation::random(rng, 10);
  const auto b = Permutation::random(rng, 10);
  for (std::size_t k = 0; k < 10; ++k)
    EXPECT_EQ(a.compose(b)(k), a(b(k)));
}

TEST(Permutation, ApplyFollowsPaperConvention) {
  // Figure 1: w[k] = v[pi(k)].
  Rng rng(11);
  const auto pi = Permutation::random(rng, 6);
  std::vector<Fld> v(6);
  for (auto& x : v) x = Fld::random(rng);
  const auto w = pi.apply(v);
  for (std::size_t k = 0; k < 6; ++k) EXPECT_EQ(w[k], v[pi(k)]);
}

TEST(Permutation, ApplyComposition) {
  // Applying pi then sigma equals applying pi.compose(sigma):
  // (sigma applied to w)[k] = w[sigma(k)] = v[pi(sigma(k))].
  Rng rng(13);
  const auto pi = Permutation::random(rng, 7);
  const auto sigma = Permutation::random(rng, 7);
  std::vector<Fld> v(7);
  for (auto& x : v) x = Fld::random(rng);
  EXPECT_EQ(sigma.apply(pi.apply(v)), pi.compose(sigma).apply(v));
}

TEST(Permutation, FromImagesValidation) {
  EXPECT_TRUE(Permutation::from_images({2, 0, 1}).has_value());
  EXPECT_FALSE(Permutation::from_images({0, 0, 1}).has_value());  // repeat
  EXPECT_FALSE(Permutation::from_images({0, 1, 3}).has_value());  // range
  EXPECT_TRUE(Permutation::from_images({}).has_value());          // empty
}

// --- IndexCodec -------------------------------------------------------------

/// The codec's words for `indices` (each below codec.ell()).
std::vector<Fld> pack(const IndexCodec& codec,
                      const std::vector<std::size_t>& indices) {
  std::vector<Fld> out(codec.words(indices.size()));
  codec.encode(indices, std::span<Fld>(out));
  return out;
}

std::uint64_t word_of(const std::vector<Fld>& enc, std::size_t w) {
  return enc[w].to_u64();
}

TEST(IndexCodec, SlotGeometry) {
  // b = bit_width(ell) bits per slot (indices are stored + 1, up to ell),
  // k = floor(64 / b) slots per word.
  const struct {
    std::size_t ell;
    unsigned bits;
    std::size_t per_word;
  } cases[] = {{8, 4, 16},   {255, 8, 8},   {256, 9, 7},
               {512, 10, 6}, {1024, 11, 5}, {2304, 12, 5}};
  for (const auto& c : cases) {
    const IndexCodec codec(c.ell);
    EXPECT_EQ(codec.slot_bits(), c.bits) << "ell " << c.ell;
    EXPECT_EQ(codec.per_word(), c.per_word) << "ell " << c.ell;
    EXPECT_EQ(codec.words(c.ell), (c.ell + c.per_word - 1) / c.per_word);
  }
  EXPECT_EQ(IndexCodec(255).per_word() * IndexCodec(255).slot_bits(), 64u);
  EXPECT_EQ(IndexCodec(2304).words(16), 4u);
  EXPECT_EQ(IndexCodec(2304).words(0), 0u);
}

TEST(IndexCodec, RoundTripsPermutationsAndIndexLists) {
  Rng rng(17);
  for (std::size_t ell : {8u, 255u, 256u, 512u, 1024u, 2304u}) {
    SCOPED_TRACE("ell " + std::to_string(ell));
    const IndexCodec codec(ell);
    for (int trial = 0; trial < 4; ++trial) {
      const auto p = Permutation::random(rng, ell);
      const std::vector<std::size_t> images(p.images().begin(),
                                            p.images().end());
      const auto enc = pack(codec, images);
      ASSERT_EQ(enc.size(), codec.words(ell));
      const auto back = codec.decode_permutation(enc);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, p);
      // Lowest slot in the lowest bits, stored + 1.
      EXPECT_EQ(word_of(enc, 0) & ((std::uint64_t{1} << codec.slot_bits()) - 1),
                p(0) + 1);
    }
    for (std::size_t d : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
      auto list = sample_without_replacement(rng, std::min(d, ell), ell);
      std::sort(list.begin(), list.end());
      const auto back = codec.decode_index_list(pack(codec, list), list.size());
      ASSERT_TRUE(back.has_value()) << "d " << d;
      EXPECT_EQ(*back, list);
    }
    // The extreme indices survive.
    const std::vector<std::size_t> ends = {0, ell - 1};
    EXPECT_EQ(codec.decode_index_list(pack(codec, ends), 2), ends);
  }
}

TEST(IndexCodec, EncodingIsNonzero) {
  // Slots hold index + 1, so no used slot of a valid encoding is zero and a
  // defaulted (zero) VSS value cannot decode.
  const IndexCodec codec(2304);
  const auto id = Permutation::identity(2304);
  for (Fld f : pack(codec, {id.images().begin(), id.images().end()}))
    EXPECT_FALSE(f.is_zero());
  EXPECT_FALSE(codec.decode_permutation(
      std::vector<Fld>(codec.words(2304), Fld::zero())));
  EXPECT_FALSE(codec.decode_index_list(std::vector<Fld>(4, Fld::zero()), 16));
}

TEST(IndexCodec, RejectsEveryNonCanonicalWord) {
  // ell = 2304: 12-bit slots, 5 per word, bits 60-63 are padding. A list of
  // 7 indices fills one word and two slots of a second.
  const IndexCodec codec(2304);
  const std::vector<std::size_t> list = {3, 40, 41, 900, 1500, 2000, 2303};
  const auto good = pack(codec, list);
  ASSERT_EQ(good.size(), 2u);
  ASSERT_TRUE(codec.decode_index_list(good, 7).has_value());
  const auto with = [&](std::size_t w, std::uint64_t word) {
    auto enc = good;
    enc[w] = Fld::from_u64(word);
    return enc;
  };
  const std::uint64_t slot = 0xFFF;
  // A bit above k b = 60, in a full word and in the last one.
  for (unsigned bit : {60u, 63u}) {
    EXPECT_FALSE(codec.decode_index_list(
        with(0, word_of(good, 0) | std::uint64_t{1} << bit), 7));
    EXPECT_FALSE(codec.decode_index_list(
        with(1, word_of(good, 1) | std::uint64_t{1} << bit), 7));
  }
  // An unused slot of the last word is non-zero.
  EXPECT_FALSE(codec.decode_index_list(
      with(1, word_of(good, 1) | std::uint64_t{5} << 24), 7));
  EXPECT_FALSE(codec.decode_index_list(
      with(1, word_of(good, 1) | std::uint64_t{1} << 59), 7));
  // A slot is 0, or greater than ell (2305 and the all-ones 4095).
  EXPECT_FALSE(codec.decode_index_list(with(0, word_of(good, 0) & ~slot), 7));
  EXPECT_FALSE(codec.decode_index_list(
      with(0, (word_of(good, 0) & ~(slot << 48)) | std::uint64_t{2305} << 48),
      7));
  EXPECT_FALSE(codec.decode_index_list(
      with(1, word_of(good, 1) | slot << 12), 7));
  // Not strictly increasing: a repeat, and a swap of two slots.
  EXPECT_FALSE(codec.decode_index_list(pack(codec, {3, 40, 40, 900, 1500,
                                                    2000, 2303}), 7));
  EXPECT_FALSE(codec.decode_index_list(pack(codec, {3, 41, 40, 900, 1500,
                                                    2000, 2303}), 7));
  // A word count that does not fit the list.
  EXPECT_FALSE(codec.decode_index_list(std::span<const Fld>(good).first(1), 7));
  EXPECT_FALSE(codec.decode_index_list(good, 11));
  // Not a permutation: canonical words, a repeated image.
  const IndexCodec small(8);
  EXPECT_FALSE(small.decode_permutation(pack(small, {0, 1, 2, 3, 4, 5, 6, 6})));
  EXPECT_TRUE(small.decode_permutation(pack(small, {7, 1, 2, 3, 4, 5, 6, 0})));
}

TEST(IndexCodec, RandomWordsNeverDecode) {
  // Random field words are essentially never canonical, and words with
  // only padding bits or unused-slot bits set are never so.
  Rng rng(19);
  const IndexCodec codec(2304);
  std::vector<Fld> random_enc(codec.words(2304));
  for (auto& f : random_enc) f = Fld::random(rng);
  EXPECT_FALSE(codec.decode_permutation(random_enc).has_value());
  const auto id = Permutation::identity(2304);
  const auto good = pack(codec, {id.images().begin(), id.images().end()});
  for (int trial = 0; trial < 200; ++trial) {
    auto enc = good;
    const std::size_t w = rng.next_below(enc.size());
    // Padding is bits 60-63; the last word (2304 = 460 * 5 + 4) also has
    // its fifth slot, bits 48-59, unused.
    const std::uint64_t pad = w + 1 == enc.size() ? 0xFFFF'0000'0000'0000ULL
                                                  : 0xF000'0000'0000'0000ULL;
    std::uint64_t bits = rng.next_u64() & pad;
    if (bits == 0) bits = pad & (~pad + 1);  // the lowest padding bit
    enc[w] = Fld::from_u64(enc[w].to_u64() | bits);
    EXPECT_FALSE(codec.decode_permutation(enc).has_value()) << "word " << w;
  }
}

TEST(Permutation, OutOfRangeApplicationThrows) {
  const auto p = Permutation::identity(3);
  EXPECT_THROW(p(3), ContractViolation);
  std::vector<int> wrong_size(4);
  EXPECT_THROW(p.apply(wrong_size), ContractViolation);
}

}  // namespace
}  // namespace gfor14
