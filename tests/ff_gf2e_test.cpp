// Field axioms and arithmetic identities for both supported fields,
// GF(2^32) and GF(2^64).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ff/gf2e.hpp"

namespace gfor14 {
namespace {

template <typename F>
class Gf2eTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<F32, F64>;
TYPED_TEST_SUITE(Gf2eTest, FieldTypes);

TYPED_TEST(Gf2eTest, AdditionIsXorAndSelfInverse) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto a = TypeParam::random(rng);
    const auto b = TypeParam::random(rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a + a, TypeParam::zero());        // characteristic 2
    EXPECT_EQ((a + b) + b, a);                  // subtraction == addition
    EXPECT_EQ(a - b, a + b);
  }
}

TYPED_TEST(Gf2eTest, MultiplicationCommutativeAssociativeDistributive) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto a = TypeParam::random(rng);
    const auto b = TypeParam::random(rng);
    const auto c = TypeParam::random(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TYPED_TEST(Gf2eTest, MultiplicativeIdentityAndZero) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const auto a = TypeParam::random(rng);
    EXPECT_EQ(a * TypeParam::one(), a);
    EXPECT_EQ(a * TypeParam::zero(), TypeParam::zero());
  }
}

TYPED_TEST(Gf2eTest, InverseRoundTrips) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    const auto a = TypeParam::random_nonzero(rng);
    EXPECT_EQ(a * a.inverse(), TypeParam::one());
    EXPECT_EQ(a / a, TypeParam::one());
    EXPECT_EQ((a.inverse()).inverse(), a);
  }
}

TYPED_TEST(Gf2eTest, FrobeniusConsistency) {
  // Squaring is a field homomorphism: (a + b)^2 == a^2 + b^2.
  Rng rng(29);
  for (int i = 0; i < 50; ++i) {
    const auto a = TypeParam::random(rng);
    const auto b = TypeParam::random(rng);
    EXPECT_EQ((a + b) * (a + b), a * a + b * b);
  }
}

TYPED_TEST(Gf2eTest, InverseOfOneIsOne) {
  EXPECT_EQ(TypeParam::one().inverse(), TypeParam::one());
}

TYPED_TEST(Gf2eTest, InverseOfZeroThrows) {
  EXPECT_THROW(TypeParam::zero().inverse(), ContractViolation);
}

TYPED_TEST(Gf2eTest, RandomNonzeroIsNonzero) {
  Rng rng(19);
  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(TypeParam::random_nonzero(rng).is_zero());
}

TYPED_TEST(Gf2eTest, SerializationIsCanonicalAndSized) {
  Rng rng(23);
  const auto a = TypeParam::random(rng);
  std::vector<std::uint8_t> bytes;
  a.serialize(bytes);
  EXPECT_EQ(bytes.size(), TypeParam::byte_size());
  std::vector<std::uint8_t> again;
  a.serialize(again);
  EXPECT_EQ(bytes, again);
}

TYPED_TEST(Gf2eTest, DeserializeRoundTrips) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    const auto a = TypeParam::random(rng);
    std::vector<std::uint8_t> bytes;
    a.serialize(bytes);
    const auto back = TypeParam::deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
  // Zero and one round-trip too.
  for (const auto v : {TypeParam::zero(), TypeParam::one()}) {
    std::vector<std::uint8_t> bytes;
    v.serialize(bytes);
    const auto back = TypeParam::deserialize(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
  }
}

TYPED_TEST(Gf2eTest, DeserializeRejectsWrongLength) {
  std::vector<std::uint8_t> bytes(TypeParam::byte_size(), 0x5A);
  EXPECT_TRUE(TypeParam::deserialize(bytes).has_value());
  // Too short, too long, and empty are all strict failures — no truncation
  // or zero-padding.
  bytes.pop_back();
  EXPECT_FALSE(TypeParam::deserialize(bytes).has_value());
  bytes.resize(TypeParam::byte_size() + 1, 0);
  EXPECT_FALSE(TypeParam::deserialize(bytes).has_value());
  EXPECT_FALSE(
      TypeParam::deserialize(std::span<const std::uint8_t>{}).has_value());
}

TYPED_TEST(Gf2eTest, DeserializeAcceptsMaxedBytes) {
  // All supported widths are whole bytes, so the all-ones pattern is a
  // valid canonical encoding and must round-trip rather than be rejected
  // by the range guard.
  std::vector<std::uint8_t> bytes(TypeParam::byte_size(), 0xFF);
  const auto v = TypeParam::deserialize(bytes);
  ASSERT_TRUE(v.has_value());
  std::vector<std::uint8_t> again;
  v->serialize(again);
  EXPECT_EQ(again, bytes);
}

TEST(Gf2e64, KnownReduction) {
  // x^63 * x = x^64 == x^4 + x^3 + x + 1 == 0x1B (mod the F64 polynomial).
  const F64 x63 = F64::from_u64(1ULL << 63);
  const F64 x = F64::from_u64(2);
  EXPECT_EQ(x63 * x, F64::from_u64(0x1B));
}

TEST(Gf2e32, KnownReduction) {
  // x^31 * x = x^32 == x^7 + x^3 + x^2 + 1 == 0x8D (mod the F32 polynomial).
  const F32 x31 = F32::from_u64(1ULL << 31);
  const F32 x = F32::from_u64(2);
  EXPECT_EQ(x31 * x, F32::from_u64(0x8D));
}

TEST(Gf2e, BitAccessorMatchesLimbs) {
  const F64 v = F64::from_u64(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(63));
}

TEST(Gf2e, EvalPointsDistinctAndNonzero) {
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_FALSE(eval_point<64>(i).is_zero());
    for (std::size_t j = i + 1; j < 64; ++j)
      EXPECT_NE(eval_point<64>(i), eval_point<64>(j));
  }
}

TEST(Gf2e, FromU64RangeCheckedForF32) {
  EXPECT_THROW(F32::from_u64(1ULL << 32), ContractViolation);
  EXPECT_NO_THROW(F32::from_u64(0xFFFFFFFF));
}

TEST(Gf2e, ToStringHex) {
  EXPECT_EQ(F64::from_u64(0).to_string(), "0x0");
  EXPECT_EQ(F64::from_u64(0x1B).to_string(), "0x1b");
}

}  // namespace
}  // namespace gfor14
