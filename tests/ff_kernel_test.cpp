// Differential tests for the carry-less-multiply kernel layer: the hardware
// path (when present) must agree bit-for-bit with the bit-loop oracle,
// across both field sizes that ride on it, dispatch must resolve from CPU
// detection alone, and the batch-inversion / span kernels must match their
// elementwise references. The tests force the bit-loop kernel themselves,
// so hardware hosts cover the portable path too.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "ff/gf2e.hpp"
#include "ff/kernel.hpp"
#include "ff/ops.hpp"
#include "math/lagrange_cache.hpp"
#include "math/poly.hpp"

namespace gfor14 {
namespace {

/// Operands that exercise reduction corner cases: sparse, dense, boundary.
std::vector<std::uint64_t> edge_operands() {
  return {0ULL,
          1ULL,
          2ULL,
          3ULL,
          0x1BULL,
          0x87ULL,
          1ULL << 31,
          1ULL << 32,
          1ULL << 62,
          1ULL << 63,
          (1ULL << 63) | 1ULL,
          0x5555555555555555ULL,
          0xAAAAAAAAAAAAAAAAULL,
          0xFFFFFFFFFFFFFFFFULL,
          0xFFFFFFFF00000000ULL,
          0x00000000FFFFFFFFULL};
}

TEST(FfKernel, HardwareMatchesBitloopOracle) {
  if (!ff::hardware_available()) GTEST_SKIP() << "no clmul hardware";
  Rng rng(103);
  for (std::uint64_t a : edge_operands())
    for (std::uint64_t b : edge_operands())
      EXPECT_EQ(ff::clmul64_hardware(a, b), ff::clmul64_bitloop(a, b));
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const ff::u128 expect = ff::clmul64_bitloop(a, b);
    ASSERT_EQ(ff::clmul64_hardware(a, b), expect)
        << "a=" << a << " b=" << b;
  }
}

/// Field-level differential: every selectable kernel must produce identical
/// products and inverses for both fields (each multiply is one dispatched
/// clmul64 plus a constant fold).
template <typename F>
void field_products_match_across_kernels() {
  std::vector<ff::Kernel> kernels = {ff::Kernel::kBitloop};
  if (ff::hardware_available())
    kernels.push_back(ff::active_kernel() == ff::Kernel::kPmull
                          ? ff::Kernel::kPmull
                          : ff::Kernel::kPclmul);
  Rng rng(107);
  for (int i = 0; i < 500; ++i) {
    const F a = F::random(rng);
    const F b = F::random(rng);
    ASSERT_TRUE(ff::set_kernel(ff::Kernel::kBitloop));
    const F expect = a * b;
    const F expect_inv = expect.is_zero() ? F::zero() : expect.inverse();
    for (ff::Kernel k : kernels) {
      ASSERT_TRUE(ff::set_kernel(k));
      EXPECT_EQ(a * b, expect) << ff::kernel_name(k);
      if (!expect.is_zero())
        EXPECT_EQ(expect.inverse(), expect_inv) << ff::kernel_name(k);
    }
  }
  ff::reset_kernel();
}

TEST(FfKernel, F64ProductsMatchAcrossKernels) {
  field_products_match_across_kernels<F64>();
}

TEST(FfKernel, F32ProductsMatchAcrossKernels) {
  field_products_match_across_kernels<F32>();
}

TEST(FfKernel, SetKernelRejectsUnavailableHardware) {
  // Exactly one of the two hardware kernels can be valid on any host; the
  // other must be rejected without changing the active kernel.
  ASSERT_TRUE(ff::set_kernel(ff::Kernel::kBitloop));
  const bool pclmul_ok = ff::set_kernel(ff::Kernel::kPclmul);
  if (!pclmul_ok) EXPECT_EQ(ff::active_kernel(), ff::Kernel::kBitloop);
  ASSERT_TRUE(ff::set_kernel(ff::Kernel::kBitloop));
  const bool pmull_ok = ff::set_kernel(ff::Kernel::kPmull);
  if (!pmull_ok) EXPECT_EQ(ff::active_kernel(), ff::Kernel::kBitloop);
  EXPECT_FALSE(pclmul_ok && pmull_ok);  // mutually exclusive ISAs
  EXPECT_EQ(pclmul_ok || pmull_ok, ff::hardware_available());
  ff::reset_kernel();
  // After reset the kernel re-resolves from CPU detection on next use.
  EXPECT_NE(ff::active_kernel_name(), nullptr);
  ff::reset_kernel();
}

TEST(FfKernel, ResolvesFromCpuOnly) {
  // The environment has no say in dispatch: a stale kernel override
  // variable must not pull the resolution off the host's best kernel.
  setenv("GFOR14_FF_KERNEL", "bitloop", 1);
  ff::reset_kernel();
  const ff::Kernel resolved = ff::active_kernel();
#if defined(__x86_64__)
  const ff::Kernel hw = ff::Kernel::kPclmul;
#else
  const ff::Kernel hw = ff::Kernel::kPmull;
#endif
  EXPECT_EQ(resolved, ff::hardware_available() ? hw : ff::Kernel::kBitloop);
  ff::reset_kernel();
}

template <typename F>
class FfOpsTest : public ::testing::Test {};

using OpsFieldTypes = ::testing::Types<F32, F64>;
TYPED_TEST_SUITE(FfOpsTest, OpsFieldTypes);

TYPED_TEST(FfOpsTest, BatchInverseMatchesElementwiseInverse) {
  Rng rng(109);
  for (std::size_t len : {1u, 2u, 3u, 17u, 100u}) {
    std::vector<TypeParam> xs(len);
    for (auto& x : xs) x = TypeParam::random_nonzero(rng);
    std::vector<TypeParam> expect(len);
    for (std::size_t i = 0; i < len; ++i) expect[i] = xs[i].inverse();
    ff::batch_inverse(std::span<TypeParam>(xs));
    EXPECT_EQ(xs, expect);
  }
}

TYPED_TEST(FfOpsTest, BatchInverseThrowsOnZeroAndEmptyIsNoop) {
  std::vector<TypeParam> with_zero = {TypeParam::one(), TypeParam::zero()};
  EXPECT_THROW(ff::batch_inverse(std::span<TypeParam>(with_zero)),
               ContractViolation);
  std::vector<TypeParam> empty;
  EXPECT_NO_THROW(ff::batch_inverse(std::span<TypeParam>(empty)));
}

TYPED_TEST(FfOpsTest, DotMatchesNaiveInnerProduct) {
  Rng rng(113);
  for (std::size_t len : {0u, 1u, 2u, 7u, 64u}) {
    std::vector<TypeParam> a(len), b(len);
    for (auto& x : a) x = TypeParam::random(rng);
    for (auto& x : b) x = TypeParam::random(rng);
    TypeParam expect = TypeParam::zero();
    for (std::size_t i = 0; i < len; ++i) expect += a[i] * b[i];
    EXPECT_EQ(ff::dot(std::span<const TypeParam>(a),
                      std::span<const TypeParam>(b)),
              expect);
  }
}

TYPED_TEST(FfOpsTest, AxpyMatchesNaiveUpdate) {
  Rng rng(127);
  for (const bool zero_c : {false, true}) {
    const TypeParam c =
        zero_c ? TypeParam::zero() : TypeParam::random_nonzero(rng);
    std::vector<TypeParam> x(33), y(40), expect;
    for (auto& v : x) v = TypeParam::random(rng);
    for (auto& v : y) v = TypeParam::random(rng);
    expect = y;
    for (std::size_t i = 0; i < x.size(); ++i) expect[i] += c * x[i];
    ff::axpy(c, std::span<const TypeParam>(x), std::span<TypeParam>(y));
    EXPECT_EQ(y, expect);
  }
}

TYPED_TEST(FfOpsTest, DotOfEmptySpansIsZero) {
  // Regression: the empty case must return the additive identity without
  // touching either data pointer (spans over null are legal when empty).
  const std::span<const TypeParam> empty;
  EXPECT_EQ(ff::dot(empty, empty), TypeParam::zero());
}

TYPED_TEST(FfOpsTest, AxpyOnEmptySpansIsNoop) {
  Rng rng(131);
  const std::span<const TypeParam> empty_x;
  std::span<TypeParam> empty_y;
  EXPECT_NO_THROW(
      ff::axpy(TypeParam::random_nonzero(rng), empty_x, empty_y));
  // Zero coefficient on a non-empty span must leave y untouched (and is
  // allowed to skip the loop entirely).
  std::vector<TypeParam> x(9), y(9);
  for (auto& v : x) v = TypeParam::random(rng);
  for (auto& v : y) v = TypeParam::random(rng);
  const std::vector<TypeParam> before = y;
  ff::axpy(TypeParam::zero(), std::span<const TypeParam>(x),
           std::span<TypeParam>(y));
  EXPECT_EQ(y, before);
}

TEST(LagrangeCacheTest, HitsReturnIdenticalCoefficients) {
  auto& cache = LagrangeCache::instance();
  cache.clear();
  std::vector<Fld> xs;
  for (std::size_t i = 0; i < 5; ++i) xs.push_back(eval_point<64>(i));
  const auto& first = cache.coefficients(xs, Fld::zero());
  EXPECT_EQ(first, lagrange_coefficients(xs, Fld::zero()));
  const std::size_t size_after_first = cache.size();
  const auto& second = cache.coefficients(xs, Fld::zero());
  EXPECT_EQ(&first, &second);  // cache hit: same stored vector
  EXPECT_EQ(cache.size(), size_after_first);
  // A different evaluation point is a distinct entry.
  const auto& other = cache.coefficients(xs, Fld::from_u64(99));
  EXPECT_NE(&first, &other);
  EXPECT_EQ(other, lagrange_coefficients(xs, Fld::from_u64(99)));
  EXPECT_GT(cache.size(), size_after_first);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace gfor14
