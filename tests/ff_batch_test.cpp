// Differential suite for the span-kernel batch layer (ff/batch.hpp): every
// batch operation must agree bit-for-bit with the scalar elementwise oracle
// over GF(2^64) (the only width the batch layer serves), across span
// lengths (including empty, odd, and unaligned), and every kernel
// configuration reachable on the host — scalar-kernel overrides (bitloop /
// hardware) crossed with the span-kernel override (scalar / wide). The SoA share containers ride the same
// contract, and a recorded adversarial AnonChan session replays
// byte-identically at 1 and 4 worker lanes under every configuration,
// certifying that none of the kernel paths leaks into the wire transcript.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/replay.hpp"
#include "common/rng.hpp"
#include "fault_hits.hpp"
#include "ff/batch.hpp"
#include "ff/gf2e.hpp"
#include "ff/kernel.hpp"
#include "ff/ops.hpp"
#include "math/bivariate.hpp"
#include "math/lagrange_cache.hpp"
#include "math/poly.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"
#include "vss/soa.hpp"

namespace gfor14 {
namespace {

/// Lengths that hit every vector-width boundary: empty, sub-lane, one lane,
/// 2 and 4 element SIMD groups, the 256-bit (4x64) groups plus remainders,
/// and long spans around 256 and beyond.
const std::size_t kLens[] = {0,  1,  2,  3,   7,   8,   15,  16,  17,
                             31, 32, 63, 64,  65,  255, 256, 257, 1000};

/// A kernel configuration under test: a scalar multiply kernel (the
/// dispatch the wide path degrades through) plus a span kernel.
struct KernelConfig {
  ff::Kernel scalar;
  ff::SpanKernel span;
};

std::vector<KernelConfig> host_configs() {
  std::vector<KernelConfig> configs = {
      {ff::Kernel::kBitloop, ff::SpanKernel::kScalar},
      {ff::Kernel::kBitloop, ff::SpanKernel::kWide},
  };
  if (ff::hardware_available()) {
#if defined(__x86_64__) || defined(_M_X64)
    const ff::Kernel hw = ff::Kernel::kPclmul;
#else
    const ff::Kernel hw = ff::Kernel::kPmull;
#endif
    configs.push_back({hw, ff::SpanKernel::kScalar});
    configs.push_back({hw, ff::SpanKernel::kWide});
  }
  return configs;
}

/// RAII kernel override: applies a config, restores dispatch on exit.
class ScopedKernels {
 public:
  explicit ScopedKernels(KernelConfig c) {
    EXPECT_TRUE(ff::set_kernel(c.scalar));
    EXPECT_TRUE(ff::set_span_kernel(c.span));
  }
  ~ScopedKernels() {
    ff::reset_kernel();
    ff::reset_span_kernel();
  }
};

template <typename F>
class FfBatchTest : public ::testing::Test {};

using BatchFieldTypes = ::testing::Types<F64>;
TYPED_TEST_SUITE(FfBatchTest, BatchFieldTypes);

template <typename F>
std::vector<F> random_vec(Rng& rng, std::size_t len) {
  std::vector<F> v(len);
  for (auto& x : v) x = F::random(rng);
  return v;
}

TYPED_TEST(FfBatchTest, AxpyMatchesScalarOracleAcrossKernels) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(211);
    for (const std::size_t len : kLens) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        if (off > len) continue;
        const auto x = random_vec<TypeParam>(rng, len);
        auto y = random_vec<TypeParam>(rng, len);
        const TypeParam c = TypeParam::random(rng);
        auto expect = y;
        for (std::size_t i = off; i < len; ++i) expect[i] += c * x[i];
        ff::batch::axpy<kBits>(
            c, std::span<const TypeParam>(x.data() + off, len - off),
            std::span<TypeParam>(y.data() + off, len - off));
        ASSERT_EQ(y, expect)
            << "len=" << len << " off=" << off << " scalar_kernel="
            << ff::kernel_name(cfg.scalar)
            << " span=" << ff::span_kernel_name(cfg.span);
      }
    }
  }
}

TYPED_TEST(FfBatchTest, DotMatchesScalarOracleAcrossKernels) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(223);
    for (const std::size_t len : kLens) {
      for (const std::size_t off : {std::size_t{0}, std::size_t{1}}) {
        if (off > len) continue;
        const auto a = random_vec<TypeParam>(rng, len);
        const auto b = random_vec<TypeParam>(rng, len);
        const std::span<const TypeParam> sa(a.data() + off, len - off);
        const std::span<const TypeParam> sb(b.data() + off, len - off);
        // The oracle is ff::dot itself (Wide accumulation): the batch layer
        // promises identical bits, not merely an equal field value.
        const TypeParam expect = ff::dot(sa, sb);
        ASSERT_EQ(ff::batch::dot<kBits>(sa, sb), expect)
            << "len=" << len << " off=" << off << " scalar_kernel="
            << ff::kernel_name(cfg.scalar)
            << " span=" << ff::span_kernel_name(cfg.span);
      }
    }
  }
}

TYPED_TEST(FfBatchTest, ScaleAndHornerFoldMatchScalarOracle) {
  constexpr unsigned kBits = TypeParam::kBits;
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    Rng rng(227);
    for (const std::size_t len : kLens) {
      const TypeParam c = TypeParam::random(rng);
      auto y = random_vec<TypeParam>(rng, len);
      auto expect = y;
      for (auto& v : expect) v = c * v;
      ff::batch::scale<kBits>(c, std::span<TypeParam>(y));
      ASSERT_EQ(y, expect) << "scale len=" << len;

      const auto plane = random_vec<TypeParam>(rng, len);
      auto acc = random_vec<TypeParam>(rng, len);
      auto fold_expect = acc;
      for (std::size_t i = 0; i < len; ++i)
        fold_expect[i] = c * fold_expect[i] + plane[i];
      ff::batch::horner_fold<kBits>(c, std::span<TypeParam>(acc),
                                    std::span<const TypeParam>(plane));
      ASSERT_EQ(acc, fold_expect) << "horner_fold len=" << len;
      // Empty plane degrades to a pure scale step.
      auto acc2 = fold_expect;
      auto scale_expect = fold_expect;
      for (auto& v : scale_expect) v = c * v;
      ff::batch::horner_fold<kBits>(c, std::span<TypeParam>(acc2),
                                    std::span<const TypeParam>());
      ASSERT_EQ(acc2, scale_expect) << "horner_fold empty plane len=" << len;
    }
  }
}

// --- SoA share containers (vss/soa.hpp) ------------------------------------

TEST(SoaContainers, SliceViewMatchesPolyEvalAndWireLayout) {
  Rng rng(239);
  const std::size_t m = 37, coeffs = 4;
  std::vector<Poly> polys;
  std::vector<Fld> wire;
  for (std::size_t k = 0; k < m; ++k) {
    polys.push_back(Poly::random(rng, coeffs - 1));
    const auto& pc = polys.back().coeffs();
    for (std::size_t c = 0; c < coeffs; ++c)
      wire.push_back(c < pc.size() ? pc[c] : Fld::zero());
  }
  vss::SliceView block(std::span<const Fld>(wire), coeffs);
  ASSERT_EQ(block.size(), m);
  ASSERT_EQ(block.coeffs_per_poly(), coeffs);
  // The view reads the k-major wire layout in place, and its columns are
  // the coefficient planes.
  EXPECT_EQ(block.words().data(), wire.data());
  for (std::size_t c = 0; c < coeffs; ++c) {
    std::vector<Fld> column(m);
    block.column(c, 0, std::span<Fld>(column));
    for (std::size_t k = 0; k < m; ++k)
      EXPECT_EQ(column[k], wire[k * coeffs + c]);
  }
  for (const Fld x : {Fld::zero(), Fld::one(), Fld::random(rng)}) {
    std::vector<Fld> all(m);
    block.eval_range(x, 0, std::span<Fld>(all));
    std::vector<Fld> tail(m - 5);
    block.eval_range(x, 5, std::span<Fld>(tail));
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(all[k], polys[k].eval(x)) << "k=" << k;
      EXPECT_EQ(block.eval_at(k, x), polys[k].eval(x)) << "k=" << k;
      if (k >= 5) {
        EXPECT_EQ(tail[k - 5], all[k]) << "k=" << k;
      }
    }
  }
  block = vss::SliceView::zeros(m, coeffs);  // the default message
  ASSERT_EQ(block.size(), m);
  EXPECT_TRUE(block.words().empty());
  std::vector<Fld> zeros(m, Fld::one());
  block.eval_range(Fld::random(rng), 0, std::span<Fld>(zeros));
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_EQ(block.eval_at(k, Fld::random(rng)), Fld::zero());
    EXPECT_EQ(zeros[k], Fld::zero());
  }
}

// Dealing straight into SoA planes draws exactly what the per-secret
// scalar dealer draws: same polynomials, same RNG consumption.
TEST(SoaContainers, BivariateBatchDealsLikeScalarDealer) {
  for (const std::size_t deg : {0, 1, 2, 4}) {
    Rng seed_rng(233 + deg);
    const std::size_t m = 29;
    std::vector<Fld> secrets;
    for (std::size_t k = 0; k < m; ++k) secrets.push_back(Fld::random(seed_rng));
    Rng scalar_rng(977), batch_rng(977);
    std::vector<SymmetricBivariate> polys;
    for (const Fld s : secrets)
      polys.push_back(SymmetricBivariate::random_with_secret(scalar_rng, deg, s));
    vss::BivariateBatch batch;
    batch.random_with_secrets(batch_rng, deg, std::span<const Fld>(secrets));
    ASSERT_EQ(batch.size(), m);
    EXPECT_EQ(scalar_rng.next_u64(), batch_rng.next_u64()) << "deg=" << deg;
    for (std::size_t i = 0; i <= deg; ++i)
      for (std::size_t j = 0; j <= deg; ++j)
        for (std::size_t k = 0; k < m; ++k)
          EXPECT_EQ(batch.plane(i, j)[k], polys[k].coeff(i, j))
              << "deg=" << deg << " i=" << i << " j=" << j << " k=" << k;
    const Fld x = Fld::random(seed_rng), y = eval_point<64>(3);
    for (std::size_t k = 0; k < m; ++k) {
      EXPECT_EQ(batch.eval(k, x, y), polys[k].eval(x, y)) << "k=" << k;
      EXPECT_EQ(batch.eval(k, y, x), polys[k].eval(x, y)) << "k=" << k;
    }
  }
}

TEST(SoaContainers, BivariateBatchSlicesMatchScalarSlices) {
  Rng rng(241);
  const std::size_t deg = 2, m = 1300;  // slices_kmajor spans several chunks
  std::vector<Fld> secrets;
  for (std::size_t k = 0; k < m; ++k) secrets.push_back(Fld::random(rng));
  Rng scalar_rng(243), batch_rng(243);
  std::vector<SymmetricBivariate> polys;
  for (const Fld s : secrets)
    polys.push_back(SymmetricBivariate::random_with_secret(scalar_rng, deg, s));
  vss::BivariateBatch batch;
  batch.random_with_secrets(batch_rng, deg, std::span<const Fld>(secrets));
  std::vector<Fld> wire(m * (deg + 1));
  std::vector<std::vector<Fld>> columns(deg + 1, std::vector<Fld>(m));
  for (std::size_t party = 0; party < 5; ++party) {
    const Fld y0 = eval_point<64>(party);
    batch.slices_kmajor(y0, std::span<Fld>(wire));
    const vss::SliceView block(std::span<const Fld>(wire), deg + 1);
    for (std::size_t c = 0; c <= deg; ++c)
      block.column(c, 0, std::span<Fld>(columns[c]));
    for (std::size_t k = 0; k < m; ++k) {
      const Poly expect = polys[k].slice(y0);
      const auto& ec = expect.coeffs();
      for (std::size_t c = 0; c <= deg; ++c) {
        const Fld want = c < ec.size() ? ec[c] : Fld::zero();
        EXPECT_EQ(columns[c][k], want)
            << "party=" << party << " k=" << k << " c=" << c;
        EXPECT_EQ(wire[k * (deg + 1) + c], want)
            << "party=" << party << " k=" << k << " c=" << c;
      }
    }
  }
}

TEST(SoaContainers, SharePoolEvalRangeMatchesEvalOne) {
  Rng rng(251);
  vss::SharePool pool;
  pool.configure(3);
  EXPECT_EQ(pool.append_zero(8), 0u);
  EXPECT_EQ(pool.append_zero(5), 8u);
  ASSERT_EQ(pool.count(), 13u);
  for (std::size_t k = 0; k < pool.count(); ++k) {
    const auto coeffs = random_vec<Fld>(rng, 3);
    pool.set_column(k, std::span<const Fld>(coeffs));
  }
  const Fld alpha = eval_point<64>(2);
  std::vector<Fld> ranged(5);
  pool.eval_range(alpha, 8, std::span<Fld>(ranged));
  for (std::size_t i = 0; i < ranged.size(); ++i)
    EXPECT_EQ(ranged[i], pool.eval_one(8 + i, alpha)) << "i=" << i;
}

// --- end-to-end byte identity ----------------------------------------------

/// Records the RB anonymous channel at n = 5 under a fault plan and a
/// rushing share-corrupting adversary (the audit_replay_test configuration:
/// the richest wire transcript the protocol produces).
net::Recording record_run(std::uint64_t seed, std::size_t threads) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  const net::FaultPlan plan = testutil::party0_faults();
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
  auto recorder =
      std::make_shared<net::Recorder>(net::Recorder::Options{true});
  net.attach_observer(recorder);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  net::Recording rec = recorder->take();
  EXPECT_TRUE(testutil::every_fault_hit(plan, rec));
  return rec;
}

std::optional<audit::Divergence> replay_run(const net::Recording& reference,
                                            std::uint64_t seed,
                                            std::size_t threads) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  const net::FaultPlan plan = testutil::party0_faults();
  auto faults = std::make_shared<net::FaultEngine>(plan, seed);
  net.attach_faults(faults);
  auto verifier = std::make_shared<audit::ReplayVerifier>(reference);
  net.attach_observer(verifier);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  EXPECT_TRUE(testutil::every_fault_hit(plan, faults->events()));
  return verifier->finish();
}

TEST(BatchByteIdentity, ReplayHoldsAcrossLanesAndSpanKernels) {
  // Record under the default kernels at one lane, then certify the
  // transcript byte-for-byte at 1 and 4 lanes, and again at 4 lanes under
  // every host kernel configuration: the SoA/batch hot paths must be
  // invisible on the wire regardless of lane count or kernel choice.
  LagrangeCache::instance().clear();
  const net::Recording reference = record_run(4241, 1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LagrangeCache::instance().clear();
    const auto divergence = replay_run(reference, 4241, threads);
    EXPECT_FALSE(divergence.has_value())
        << "diverged at " << threads << " lanes: round "
        << divergence->round;
  }
  for (const KernelConfig cfg : host_configs()) {
    ScopedKernels guard(cfg);
    LagrangeCache::instance().clear();
    const auto divergence = replay_run(reference, 4241, 4);
    EXPECT_FALSE(divergence.has_value())
        << ff::kernel_name(cfg.scalar) << "/"
        << ff::span_kernel_name(cfg.span) << " diverged: round "
        << divergence->round;
  }
  LagrangeCache::instance().clear();
}

}  // namespace
}  // namespace gfor14
