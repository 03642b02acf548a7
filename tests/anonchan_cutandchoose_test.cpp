// Focused coverage of the cut-and-choose opening machinery (Figure 1,
// step 3) at the slab level: the honest open verifies on BOTH challenge
// branches, each tampering class is caught on exactly the branch that
// audits it, shares tampered on the wire are filtered out by the
// information-checking layer, and the only way past the proof is guessing
// every one of the kappa_cc challenge bits — probability 2^-kappa_cc.
// Round B's batched zero test catches a single bad entry wherever it sits,
// and two equal errors that a plain sum would cancel. A malformed packed
// word of an opened slab (pi_j, an index list, g_i) disqualifies or blames
// its dealer wherever it sits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "anonchan/attacks.hpp"
#include "anonchan/cut_and_choose.hpp"
#include "common/stats.hpp"
#include "net/adversary.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

using anonchan::AnonChan;
using anonchan::BatchLayout;
using anonchan::Params;
using vss::SchemeKind;

// Shares one dealer's commitment (built by `strategy`) on a fresh network
// and exposes the opened cut-and-choose views per copy.
struct SharedCommitment {
  net::Network net;
  std::unique_ptr<vss::VssScheme> vss;
  Params params;
  BatchLayout layout;
  anonchan::SenderCommitment commitment;

  /// Round B's batching coefficient, drawn after the commitment.
  Fld rho;

  SharedCommitment(anonchan::SenderStrategy& strategy, std::uint64_t seed)
      : net(4, seed),
        vss(vss::make_vss(SchemeKind::kRB, net)),
        params(Params::practical(4, 3)),
        layout(BatchLayout::make(params, 0, /*is_receiver=*/false)) {
    commitment =
        strategy.build(params, layout, Fld::from_u64(77), net.rng_of(0));
    std::vector<std::vector<Fld>> batches(net.n());
    batches[0] = commitment.secrets;
    vss->share_all(batches);
    rho = Fld::random(net.rng_of(1));
  }

  std::vector<Fld> open(const std::vector<vss::LinComb>& values) {
    return vss->reconstruct_public(values);
  }

  /// Round A, challenge bit 0: the opened permutation of copy j.
  std::optional<Permutation> open_permutation(std::size_t j) {
    return params.codec().decode_permutation(open(layout.perm[j].all()));
  }
  /// Round A, challenge bit 1: the opened index list of copy j.
  std::optional<std::vector<std::size_t>> open_index_list(std::size_t j) {
    return params.codec().decode_index_list(open(layout.idx[j].all()),
                                            params.d);
  }

  /// Round B for copy j: whether the zero test over `opened` opens to zero.
  bool zero_test_passes(std::size_t j, const anonchan::Opening& opened) {
    return opens_zero(j, opened, rho);
  }
  bool opens_zero(std::size_t j, const anonchan::Opening& opened, Fld r) {
    return open({anonchan::zero_test(params, layout, j, opened, r)})[0]
        .is_zero();
  }
};

TEST(CutAndChooseOpen, HonestOpenVerifiesOnBothBranches) {
  anonchan::HonestSender honest;
  SharedCommitment sc(honest, 314159);
  for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
    // Bit 0 branch: the permutation decodes and the permuted-difference
    // vector u[k] = v[pi(k)] - w_j[k] reconstructs to all zeros.
    const auto pi = sc.open_permutation(j);
    ASSERT_TRUE(pi.has_value()) << "copy " << j;
    EXPECT_TRUE(sc.zero_test_passes(j, *pi));
    // Bit 1 branch: the index list decodes, matches the ground-truth
    // non-zero positions of w_j = pi_j(v), and the zero/equality checks
    // all reconstruct to zero.
    const auto idx = sc.open_index_list(j);
    ASSERT_TRUE(idx.has_value()) << "copy " << j;
    EXPECT_EQ(*idx, anonchan::permuted_indices(*pi, sc.commitment.v_indices,
                                               sc.params.ell));
    EXPECT_TRUE(sc.zero_test_passes(j, *idx));
  }
}

TEST(CutAndChooseOpen, UnequalEntriesCaughtByIndexBranchOnly) {
  // A d-sparse vector with unequal entries: every copy is a genuine
  // permutation of v (bit 0 passes), but the consecutive-difference checks
  // of the bit 1 branch expose the inequality.
  anonchan::UnequalEntriesAttack attack;
  SharedCommitment sc(attack, 271828);
  for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
    const auto pi = sc.open_permutation(j);
    ASSERT_TRUE(pi.has_value());
    EXPECT_TRUE(sc.zero_test_passes(j, *pi));
    const auto idx = sc.open_index_list(j);
    ASSERT_TRUE(idx.has_value());
    EXPECT_FALSE(sc.zero_test_passes(j, *idx));
  }
}

TEST(CutAndChooseOpen, WrongCopiesCaughtByPermutationBranchOnly) {
  // Proper but unrelated copies: each w_j is d-sparse with a truthful index
  // list (bit 1 passes), while the claimed pi_j does not map v onto w_j.
  anonchan::WrongCopyAttack attack;
  SharedCommitment sc(attack, 161803);
  bool caught_somewhere = false;
  for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
    const auto idx = sc.open_index_list(j);
    ASSERT_TRUE(idx.has_value());
    EXPECT_TRUE(sc.zero_test_passes(j, *idx));
    const auto pi = sc.open_permutation(j);
    ASSERT_TRUE(pi.has_value());
    if (!sc.zero_test_passes(j, *pi))
      caught_somewhere = true;
  }
  EXPECT_TRUE(caught_somewhere);
}

TEST(CutAndChooseOpen, WireTamperedSharesAreFilteredByTheICLayer) {
  // Tampered-share detection: corrupt parties rewrite every outgoing share
  // during the reconstruction rounds (rushing adversary, replace_pending).
  // The information-checking layer rejects the forged shares, so every
  // opened value is still the committed one and the honest open verifies.
  anonchan::HonestSender honest;
  SharedCommitment sc(honest, 141421);
  sc.net.corrupt_first(sc.net.max_t_half());  // t = 1 for n = 4
  sc.net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
    const auto pi = sc.open_permutation(j);
    ASSERT_TRUE(pi.has_value());
    EXPECT_TRUE(sc.zero_test_passes(j, *pi));
    const auto idx = sc.open_index_list(j);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(*idx, anonchan::permuted_indices(*pi, sc.commitment.v_indices,
                                               sc.params.ell));
    EXPECT_TRUE(sc.zero_test_passes(j, *idx));
  }
}

// --- Round B's batched zero test ------------------------------------------

/// An honest commitment whose every copy w_j gets `error` added to the
/// entries pick(params, non-zero index list of w_j). Entries count
/// component-major: e < ell is w_x[e], otherwise w_a[e - ell].
class TamperedCopies final : public anonchan::SenderStrategy {
 public:
  using Pick = std::function<std::vector<std::size_t>(
      const Params&, const std::vector<std::size_t>&)>;
  TamperedCopies(Pick pick, Fld error)
      : pick_(std::move(pick)), error_(error) {}

  anonchan::SenderCommitment build(const Params& params,
                                   const BatchLayout& layout, Fld input,
                                   Rng& rng) override {
    auto c = anonchan::HonestSender().build(params, layout, input, rng);
    for (std::size_t j = 0; j < params.kappa_cc; ++j) {
      // The tag component is non-zero exactly at w_j's non-zero entries.
      std::vector<std::size_t> nonzero;
      for (std::size_t k = 0; k < params.ell; ++k)
        if (!c.secrets[layout.w_a[j].base + k].is_zero()) nonzero.push_back(k);
      for (std::size_t e : pick_(params, nonzero)) {
        const vss::Slab& w = e < params.ell ? layout.w_x[j] : layout.w_a[j];
        c.secrets[w.base + e % params.ell] += error_;
      }
    }
    return c;
  }

 private:
  Pick pick_;
  Fld error_;
};

/// The first, a middle and the last of `count` positions.
std::vector<std::size_t> ends_and_middle(std::size_t count) {
  return {0, count / 2, count - 1};
}

/// The w entry of the q-th alleged zero entry on the index-list branch (x
/// components first, then a components, as round B orders them).
std::size_t alleged_zero_entry(const Params& params,
                               const std::vector<std::size_t>& nonzero,
                               std::size_t q) {
  const std::size_t per_component = params.ell - params.d;
  std::size_t seen = 0;
  for (std::size_t k = 0; k < params.ell; ++k) {
    if (std::find(nonzero.begin(), nonzero.end(), k) != nonzero.end())
      continue;
    if (seen++ == q % per_component)
      return (q < per_component ? 0 : params.ell) + k;
  }
  ADD_FAILURE() << "no alleged zero entry " << q;
  return 0;
}

/// Runs one n = 4 channel with P0 corrupt, committing through `strategy`;
/// true iff P0 ends outside PASS with a public anonchan.check.nonzero blame
/// while every honest input is delivered.
bool disqualified_by_zero_test(
    std::shared_ptr<anonchan::SenderStrategy> strategy, std::uint64_t seed) {
  net::Network net(4, seed);
  net.set_corrupt(0, true);
  auto vss = vss::make_vss(SchemeKind::kRB, net);
  AnonChan chan(net, *vss, Params::practical(4, 3));
  chan.set_strategy(0, std::move(strategy));
  const std::vector<Fld> inputs = {Fld::from_u64(77), Fld::from_u64(201),
                                   Fld::from_u64(202), Fld::zero()};
  const auto out = chan.run(3, inputs);
  for (std::size_t i = 1; i < 3; ++i)
    EXPECT_TRUE(out.delivered(inputs[i])) << "honest input " << i;
  bool blamed = false;
  for (const auto& b : net.blames())
    blamed |= b.accused == 0 && b.reason == "anonchan.check.nonzero";
  return !out.pass[0] && blamed;
}

TEST(CutAndChooseZeroTest, OneWrongCopyEntryIsCaughtAtAnyPosition) {
  // w_j differs from pi_j(v) in exactly one entry: the first, a middle or
  // the last of the 2 ell permuted differences. Both branches see it (on the
  // index-list branch as a non-zero alleged zero or a non-zero consecutive
  // difference), so the dealer is disqualified whatever the challenge.
  const Params params = Params::practical(4, 3);
  for (std::size_t q : ends_and_middle(2 * params.ell)) {
    SCOPED_TRACE("entry " + std::to_string(q));
    const auto pick = [q](const Params&, const std::vector<std::size_t>&) {
      return std::vector<std::size_t>{q};
    };
    TamperedCopies attack(pick, Fld::from_u64(5));
    SharedCommitment sc(attack, 60000 + q);
    for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
      const auto pi = sc.open_permutation(j);
      ASSERT_TRUE(pi.has_value());
      EXPECT_FALSE(sc.zero_test_passes(j, *pi));
      const auto idx = sc.open_index_list(j);
      ASSERT_TRUE(idx.has_value());
      EXPECT_FALSE(sc.zero_test_passes(j, *idx));
    }
    EXPECT_TRUE(disqualified_by_zero_test(
        std::make_shared<TamperedCopies>(pick, Fld::from_u64(5)), 61000 + q));
  }
}

TEST(CutAndChooseZeroTest, OneNonzeroAllegedZeroEntryIsCaughtAtAnyPosition) {
  // One alleged zero entry of w_j is non-zero: the first, a middle or the
  // last of the 2 (ell - d) alleged zeros the index-list branch tests. The
  // permutation branch sees the same entry as a permuted difference.
  const Params params = Params::practical(4, 3);
  for (std::size_t q : ends_and_middle(2 * (params.ell - params.d))) {
    SCOPED_TRACE("alleged zero " + std::to_string(q));
    const auto pick = [q](const Params& p,
                          const std::vector<std::size_t>& nonzero) {
      return std::vector<std::size_t>{alleged_zero_entry(p, nonzero, q)};
    };
    TamperedCopies attack(pick, Fld::from_u64(9));
    SharedCommitment sc(attack, 62000 + q);
    for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
      const auto idx = sc.open_index_list(j);
      ASSERT_TRUE(idx.has_value());
      EXPECT_FALSE(sc.zero_test_passes(j, *idx));
      const auto pi = sc.open_permutation(j);
      ASSERT_TRUE(pi.has_value());
      EXPECT_FALSE(sc.zero_test_passes(j, *pi));
    }
    EXPECT_TRUE(disqualified_by_zero_test(
        std::make_shared<TamperedCopies>(pick, Fld::from_u64(9)), 63000 + q));
  }
}

TEST(CutAndChooseZeroTest, EqualErrorsThatCancelInAPlainSumAreCaught) {
  // The same error in two alleged zero entries (the first and the last):
  // in characteristic 2 they cancel in any sum with equal coefficients, so
  // the zero test opens 0 at rho = 1 on both branches. Distinct powers of a
  // random rho keep them apart.
  const auto pick = [](const Params& p,
                       const std::vector<std::size_t>& nonzero) {
    const std::size_t last = 2 * (p.ell - p.d) - 1;
    return std::vector<std::size_t>{alleged_zero_entry(p, nonzero, 0),
                                    alleged_zero_entry(p, nonzero, last)};
  };
  TamperedCopies attack(pick, Fld::from_u64(0xC0FFEE));
  SharedCommitment sc(attack, 64000);
  for (std::size_t j = 0; j < sc.params.kappa_cc; ++j) {
    const auto idx = sc.open_index_list(j);
    ASSERT_TRUE(idx.has_value());
    EXPECT_TRUE(sc.opens_zero(j, *idx, Fld::one()));
    EXPECT_FALSE(sc.zero_test_passes(j, *idx));
    const auto pi = sc.open_permutation(j);
    ASSERT_TRUE(pi.has_value());
    EXPECT_TRUE(sc.opens_zero(j, *pi, Fld::one()));
    EXPECT_FALSE(sc.zero_test_passes(j, *pi));
  }
  EXPECT_TRUE(disqualified_by_zero_test(
      std::make_shared<TamperedCopies>(pick, Fld::from_u64(0xC0FFEE)), 64001));
}

// --- Malformed packed words --------------------------------------------------

/// Forwards to a real scheme, but rewrites chosen words of one dealer's
/// batch before the sharing phase: that dealer then commits, consistently,
/// to the rewritten words.
class TamperedDealing final : public vss::VssScheme {
 public:
  using Rewrite = std::function<std::uint64_t(std::uint64_t)>;
  TamperedDealing(std::unique_ptr<vss::VssScheme> inner, net::PartyId dealer,
                  std::vector<std::size_t> words, Rewrite rewrite)
      : inner_(std::move(inner)),
        dealer_(dealer),
        words_(std::move(words)),
        rewrite_(std::move(rewrite)) {}

  std::size_t n() const override { return inner_->n(); }
  std::size_t t() const override { return inner_->t(); }
  const char* name() const override { return inner_->name(); }
  void set_dealer_behaviour(net::PartyId d, vss::DealerBehaviour b) override {
    inner_->set_dealer_behaviour(d, b);
  }
  void set_false_complaints(bool enabled) override {
    inner_->set_false_complaints(enabled);
  }
  vss::ShareResult share_all(
      const std::vector<std::vector<Fld>>& batches) override {
    auto tampered = batches;
    for (std::size_t w : words_) {
      Fld& f = tampered[dealer_].at(w);
      f = Fld::from_u64(rewrite_(f.to_u64()));
    }
    return inner_->share_all(tampered);
  }
  std::size_t count(net::PartyId d) const override { return inner_->count(d); }
  std::vector<Fld> reconstruct_public(
      const std::vector<vss::LinComb>& values) override {
    return inner_->reconstruct_public(values);
  }
  std::vector<Fld> reconstruct_private(
      net::PartyId receiver, const std::vector<vss::LinComb>& values) override {
    return inner_->reconstruct_private(receiver, values);
  }
  std::vector<std::vector<Fld>> reconstruct_private_multi(
      const std::vector<PrivateRequest>& requests) override {
    return inner_->reconstruct_private_multi(requests);
  }
  Fld committed_value(const vss::LinComb& v) const override {
    return inner_->committed_value(v);
  }
  std::size_t share_rounds() const override { return inner_->share_rounds(); }
  std::size_t share_broadcast_rounds() const override {
    return inner_->share_broadcast_rounds();
  }

 private:
  std::unique_ptr<vss::VssScheme> inner_;
  net::PartyId dealer_;
  std::vector<std::size_t> words_;
  Rewrite rewrite_;
};

/// perfbench chan_n6_rb's shape: n = 6, RB, kappa = 2, d = 16, ell = 2304
/// (12-bit slots, 5 per word, bits 60-63 padding).
Params chan_shape() {
  Params params = Params::practical(6, 2);
  params.d = 16;
  params.ell = 4 * 6 * 6 * params.d;
  return params;
}

/// A malformation at the first, a middle and the last word of a slab of
/// `words` words holding `count` indices: a padding bit, an out-of-range
/// slot, a non-zero unused slot (or, in a full last word, a zero slot).
struct Malformation {
  std::size_t word;
  TamperedDealing::Rewrite rewrite;
  std::string what;
};
std::vector<Malformation> malformations(const Params& params,
                                        std::size_t count) {
  const IndexCodec codec = params.codec();
  const unsigned b = codec.slot_bits();
  const std::uint64_t slot = (std::uint64_t{1} << b) - 1;
  const std::size_t words = codec.words(count);
  const std::size_t last_used = count - (words - 1) * codec.per_word();
  const std::uint64_t ell_plus_one = params.ell + 1;
  std::vector<Malformation> out;
  out.push_back({0, [](std::uint64_t w) { return w | std::uint64_t{1} << 63; },
                 "padding bit"});
  out.push_back({words / 2,
                 [=](std::uint64_t w) { return (w & ~slot) | ell_plus_one; },
                 "slot > ell"});
  if (last_used < codec.per_word()) {
    out.push_back({words - 1,
                   [=](std::uint64_t w) { return w | 1ULL << (last_used * b); },
                   "unused slot set"});
  } else {
    out.push_back({words - 1, [=](std::uint64_t w) { return w & ~slot; },
                   "zero slot"});
  }
  return out;
}

/// Runs chan-shape channels with `rewrite` applied to word `word` of every
/// copy's slab (`slab_of` picks pi_j or the index list) of corrupt dealer
/// P0, over the first seeds from `seed` until the challenge opens one of
/// those slabs; expects P0 disqualified with exactly `blame` and every
/// honest input delivered.
void expect_dealer_disqualified(
    const std::function<const vss::Slab&(const BatchLayout&, std::size_t)>&
        slab_of,
    bool opened_on_bit, const Malformation& m, const std::string& blame,
    std::uint64_t seed) {
  SCOPED_TRACE(m.what + " in word " + std::to_string(m.word));
  const Params params = chan_shape();
  const BatchLayout layout = BatchLayout::make(params, 0, false);
  std::vector<std::size_t> words;
  for (std::size_t j = 0; j < params.kappa_cc; ++j)
    words.push_back(slab_of(layout, j).base + m.word);
  for (std::uint64_t s = seed; s < seed + 8; ++s) {
    net::Network net(6, s);
    net.set_corrupt(0, true);
    TamperedDealing vss(vss::make_vss(SchemeKind::kRB, net), 0, words,
                        m.rewrite);
    AnonChan chan(net, vss, params);
    std::vector<Fld> inputs;
    for (std::uint64_t i = 0; i < 6; ++i) inputs.push_back(Fld::from_u64(300 + i));
    inputs[5] = Fld::zero();
    const auto out = chan.run(5, inputs);
    const auto& bits = out.challenge_bits;
    if (std::find(bits.begin(), bits.end(), opened_on_bit) == bits.end())
      continue;  // neither tampered slab was opened: try the next seed
    EXPECT_FALSE(out.pass[0]);
    for (std::size_t i = 1; i < 5; ++i)
      EXPECT_TRUE(out.delivered(inputs[i])) << "honest input " << i;
    const auto blames = net.blames();
    ASSERT_EQ(blames.size(), 1u);
    EXPECT_EQ(blames[0].accused, 0u);
    EXPECT_EQ(blames[0].reason, blame);
    return;
  }
  ADD_FAILURE() << "no seed opened the tampered slab";
}

TEST(CutAndChooseOpen, MalformedPermutationWordDisqualifiesAtAnyPosition) {
  const Params params = chan_shape();
  for (const auto& m : malformations(params, params.ell))
    expect_dealer_disqualified(
        [](const BatchLayout& l, std::size_t j) -> const vss::Slab& {
          return l.perm[j];
        },
        /*opened_on_bit=*/false, m, "anonchan.open.bad_permutation", 70000);
}

TEST(CutAndChooseOpen, MalformedIndexListWordDisqualifiesAtAnyPosition) {
  const Params params = chan_shape();
  for (const auto& m : malformations(params, params.d))
    expect_dealer_disqualified(
        [](const BatchLayout& l, std::size_t j) -> const vss::Slab& {
          return l.idx[j];
        },
        /*opened_on_bit=*/true, m, "anonchan.open.bad_index_list", 71000);
}

TEST(CutAndChooseOpen, MalformedGWordIsBlamedOnTheReceiver) {
  // g is always opened; a corrupt receiver whose g_i does not decode is
  // blamed publicly, the identity stands in, and every input arrives.
  const Params params = chan_shape();
  const BatchLayout layout = BatchLayout::make(params, 5, true);
  std::size_t gi = 0;
  for (const auto& m : malformations(params, params.ell)) {
    SCOPED_TRACE(m.what + " in word " + std::to_string(m.word) + " of g_" +
                 std::to_string(gi));
    net::Network net(6, 72000 + gi);
    net.set_corrupt(5, true);
    TamperedDealing vss(vss::make_vss(SchemeKind::kRB, net), 5,
                        {layout.g[gi].base + m.word}, m.rewrite);
    AnonChan chan(net, vss, params);
    std::vector<Fld> inputs;
    for (std::uint64_t i = 0; i < 6; ++i) inputs.push_back(Fld::from_u64(300 + i));
    const auto out = chan.run(5, inputs);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_TRUE(out.delivered(inputs[i])) << "input " << i;
    const auto blames = net.blames();
    ASSERT_EQ(blames.size(), 1u);
    EXPECT_EQ(blames[0].accused, 5u);
    EXPECT_EQ(blames[0].reason, "anonchan.deliver.bad_g_permutation");
    gi = (gi + 2) % params.n;
  }
}

TEST(CutAndChooseOpen, EscapePathIsExactlyGuessingEveryChallengeBit) {
  // The 2^-kappa_cc escape: the optimal generic cheat survives iff every
  // one of the kappa_cc challenge-bit guesses is right. With kappa_cc = 3
  // the escape rate must straddle 1/8; and whenever the cheat escapes, the
  // dense vector enters the sum and wipes out the honest messages — the
  // failure mode the statistical bound prices.
  const std::size_t kappa_cc = 3;
  const std::size_t trials = 60;
  std::size_t escapes = 0;
  for (std::size_t trial = 0; trial < trials; ++trial) {
    net::Network net(4, 52000 + trial);
    net.set_corrupt(0, true);
    auto vss = vss::make_vss(SchemeKind::kRB, net);
    AnonChan chan(net, *vss, Params::practical(4, kappa_cc));
    chan.set_strategy(0, std::make_shared<anonchan::GuessingAttack>());
    std::vector<Fld> inputs = {Fld::zero(), Fld::from_u64(201),
                               Fld::from_u64(202), Fld::zero()};
    const auto out = chan.run(3, inputs);
    ASSERT_EQ(out.challenge_bits.size(), kappa_cc);
    if (!out.pass[0]) continue;
    ++escapes;
    EXPECT_FALSE(out.delivered(inputs[1]));
    EXPECT_FALSE(out.delivered(inputs[2]));
  }
  const auto ci = wilson_interval(escapes, trials);
  EXPECT_LT(ci.lo, 1.0 / 8.0);
  EXPECT_GT(ci.hi, 1.0 / 8.0);
}

}  // namespace
}  // namespace gfor14
