// Extensions beyond the paper's core protocol: anonymous publication
// (many-to-all), the PW96 player-elimination improvement (footnote 1), the
// SHZI02/BTHR07 polynomial pseudosignatures (Section 4's comparison), and
// the ablation switches.
#include <gtest/gtest.h>

#include <algorithm>

#include "anonchan/anonchan.hpp"
#include "anonchan/attacks.hpp"
#include "baselines/pw96.hpp"
#include "net/adversary.hpp"
#include "net/recorder.hpp"
#include "pseudosig/shzi02.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

Fld fe(std::uint64_t v) { return Fld::from_u64(v); }

std::vector<Fld> inputs_for(std::size_t n, std::uint64_t base = 100) {
  std::vector<Fld> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = fe(base + i);
  return x;
}

// --- Anonymous publication (many-to-all) -----------------------------------

TEST(AnonPublish, EveryPartyLearnsTheMultiset) {
  const std::size_t n = 4;
  net::Network net(n, 51);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 4));
  const auto inputs = inputs_for(n);
  const auto out = chan.publish(inputs);
  for (Fld x : inputs) EXPECT_TRUE(out.delivered(x));
  EXPECT_LE(out.y.size(), n);
}

TEST(AnonPublish, OneRoundCheaperThanAnonChan) {
  // Publication derives the relocation permutations from the joint
  // challenge instead of a receiver's VSS-shared g_i, saving the g
  // reconstruction round: r_VSS-share + 4.
  const std::size_t n = 4;
  net::Network net(n, 52);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::light(n));
  const auto out = chan.publish(inputs_for(n));
  EXPECT_EQ(out.costs.rounds, vss->share_rounds() + 4);
  EXPECT_EQ(out.costs.rounds + 1, chan.expected_rounds());
  EXPECT_EQ(out.costs.broadcast_rounds, vss->share_broadcast_rounds());
}

TEST(AnonPublish, CheatersAreDisqualified) {
  const std::size_t n = 4;
  net::Network net(n, 53);
  net.set_corrupt(0, true);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 8));
  chan.set_strategy(0, std::make_shared<anonchan::DenseVectorAttack>());
  const auto inputs = inputs_for(n);
  const auto out = chan.publish(inputs);
  EXPECT_FALSE(out.pass[0]);
  for (std::size_t i = 1; i < n; ++i) EXPECT_TRUE(out.delivered(inputs[i]));
}

TEST(AnonPublish, DisqualifiedDealerIsBlamedPublicly) {
  // The cut-and-choose that catches the cheater is run()'s own, so its
  // public blame record is too.
  const std::size_t n = 4;
  net::Network net(n, 53);
  net.set_corrupt(0, true);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 8));
  chan.set_strategy(0, std::make_shared<anonchan::DenseVectorAttack>());
  const auto out = chan.publish(inputs_for(n));
  ASSERT_FALSE(out.pass[0]);
  const auto blames = net.blames();
  ASSERT_EQ(blames.size(), 1u);
  EXPECT_EQ(blames[0].accuser, net::kPublicBlame);
  EXPECT_EQ(blames[0].accused, 0u);
  EXPECT_EQ(blames[0].reason.rfind("anonchan.", 0), 0u) << blames[0].reason;
}

/// Final transcript digest and round count of an honest n = 5 publication.
std::pair<std::uint64_t, std::size_t> publish_transcript(
    vss::SchemeKind kind, std::size_t lanes) {
  constexpr std::size_t kN = 5;
  net::Network net(kN, 20140806);
  net.set_threads(lanes);
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  auto vss = vss::make_vss(kind, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(kN, 4));
  const auto out = chan.publish(inputs_for(kN));
  EXPECT_EQ(out.y.size(), kN);
  EXPECT_EQ(recorder->recording().rounds.size(), vss->share_rounds() + 4);
  return {recorder->recording().final_digest,
          recorder->recording().rounds.size()};
}

TEST(AnonPublish, GoldenTranscript) {
  // The publication's full transcript at 1 and 4 lanes. Re-pinned when
  // round B became one batched zero test per (dealer, copy), and again when
  // pi_j and the index lists were packed several indices per shared word:
  // fewer secrets are dealt and round A opens fewer words, while the
  // delivered multiset, challenge bits and PASS set stay the same.
  const struct {
    vss::SchemeKind kind;
    std::uint64_t digest;
    std::size_t rounds;
  } cases[] = {{vss::SchemeKind::kRB, 0x12c57e5e696c8bf5ULL, 13},
               {vss::SchemeKind::kGGOR13, 0xae0e9b8d9c3692e8ULL, 25}};
  for (const auto& c : cases) {
    for (std::size_t lanes : {1u, 4u}) {
      const auto [digest, rounds] = publish_transcript(c.kind, lanes);
      EXPECT_EQ(digest, c.digest)
          << "lanes " << lanes << ": got 0x" << std::hex << digest;
      EXPECT_EQ(rounds, c.rounds) << "lanes " << lanes;
    }
  }
}

// --- PW96 player elimination -------------------------------------------------

TEST(Pw96Elimination, LinearAttemptsInsteadOfQuadratic) {
  for (std::size_t n : {6u, 8u, 10u}) {
    net::Network net(n, 54);
    const std::size_t t = net.max_t_half();
    net.corrupt_first(t);
    const auto out = baselines::run_pw96_elimination(
        net, inputs_for(n), baselines::Pw96Adversary::kMaximal);
    EXPECT_EQ(out.disrupted_attempts, t);
    EXPECT_GE(out.attempts, baselines::pw96_elimination_worst_case_attempts(t));
    EXPECT_LE(out.attempts,
              baselines::pw96_elimination_worst_case_attempts(t) + 3);
    EXPECT_EQ(out.parties_eliminated, 2 * t);
    // Everything still delivered.
    for (Fld x : inputs_for(n))
      EXPECT_NE(std::find(out.delivered.begin(), out.delivered.end(), x),
                out.delivered.end());
  }
}

TEST(Pw96Elimination, MuchCheaperThanFaultLocalization) {
  const std::size_t n = 10;
  net::Network net_a(n, 55), net_b(n, 55);
  net_a.corrupt_first(net_a.max_t_half());
  net_b.corrupt_first(net_b.max_t_half());
  const auto slow = baselines::run_pw96(net_a, inputs_for(n),
                                        baselines::Pw96Adversary::kMaximal);
  const auto fast = baselines::run_pw96_elimination(
      net_b, inputs_for(n), baselines::Pw96Adversary::kMaximal);
  EXPECT_LT(3 * fast.costs.rounds, slow.costs.rounds);
}

TEST(Pw96Elimination, NoAdversaryIsConstant) {
  net::Network net(6, 56);
  const auto out = baselines::run_pw96_elimination(
      net, inputs_for(6), baselines::Pw96Adversary::kNone);
  EXPECT_EQ(out.disrupted_attempts, 0u);
  EXPECT_LE(out.costs.rounds, 8u);
}

// --- SHZI02 polynomial pseudosignatures ---------------------------------------

class ShziFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 5;

  static const pseudosig::ShziScheme& shared() {
    static net::Network net(kN, 61);
    static auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    static pseudosig::ShziScheme scheme = pseudosig::ShziScheme::setup(
        net, *vss, /*signer=*/0, pseudosig::ShziParams{3});
    return scheme;
  }
};

TEST_F(ShziFixture, SignaturesVerifyForEveryVerifier) {
  const auto& scheme = shared();
  for (std::uint64_t m : {1u, 2u, 77u}) {
    const auto sig = scheme.sign(fe(m));
    for (net::PartyId v = 1; v < kN; ++v)
      EXPECT_TRUE(scheme.verify(sig, v)) << "m=" << m << " v=" << v;
  }
}

TEST_F(ShziFixture, TransfersWithoutDegradation) {
  // The signature object is self-contained: the SAME check passes at every
  // hop — no levels, the anti-[PW96] tradeoff property.
  const auto& scheme = shared();
  const auto sig = scheme.sign(fe(5));
  for (int hop = 0; hop < 10; ++hop)
    for (net::PartyId v = 1; v < kN; ++v) EXPECT_TRUE(scheme.verify(sig, v));
}

TEST_F(ShziFixture, AlteredMessageOrSigmaRejected) {
  const auto& scheme = shared();
  auto sig = scheme.sign(fe(9));
  sig.message = fe(10);
  for (net::PartyId v = 1; v < kN; ++v) EXPECT_FALSE(scheme.verify(sig, v));
  auto sig2 = scheme.sign(fe(9));
  sig2.sigma = sig2.sigma + Poly::constant(Fld::one());
  for (net::PartyId v = 1; v < kN; ++v) EXPECT_FALSE(scheme.verify(sig2, v));
}

TEST_F(ShziFixture, RandomForgeryFails) {
  const auto& scheme = shared();
  Rng rng(62);
  for (int trial = 0; trial < 50; ++trial) {
    pseudosig::ShziSignature forged{fe(123), Poly::random(rng, 2)};
    for (net::PartyId v = 1; v < kN; ++v)
      EXPECT_FALSE(scheme.verify(forged, v));
  }
}

TEST_F(ShziFixture, OversizedSigmaRejected) {
  const auto& scheme = shared();
  Rng rng(63);
  pseudosig::ShziSignature forged{fe(5), Poly::random(rng, 10)};
  EXPECT_FALSE(scheme.verify(forged, 1));
}

TEST(Shzi, SetupIsCommunicationLean) {
  // The Section 4 tradeoff: polynomial pseudosignatures move orders of
  // magnitude fewer field elements than the anonymous-channel setup.
  net::Network net(4, 64);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  const auto scheme = pseudosig::ShziScheme::setup(net, *vss, 0,
                                                   pseudosig::ShziParams{3});
  EXPECT_LT(scheme.setup_costs().p2p_elements, 10'000u);
  const auto sig = scheme.sign(fe(4));
  EXPECT_TRUE(scheme.verify(sig, 2));
}

// --- Ablations ----------------------------------------------------------------

TEST(Ablation, WithoutTagsDuplicateMessagesCollapse) {
  const std::size_t n = 4;
  net::Network net(n, 71);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  auto params = anonchan::Params::practical(n, 4);
  params.use_tags = false;
  anonchan::AnonChan chan(net, *vss, params);
  auto inputs = inputs_for(n);
  inputs[1] = inputs[0];  // duplicate message
  const auto out = chan.run(n - 1, inputs);
  // Without tags the two identical messages form the SAME pair (x, 0):
  // delivered once — multiset semantics lost (|Y| == n-1, not n).
  EXPECT_EQ(std::count(out.y.begin(), out.y.end(), inputs[0]), 1);
  EXPECT_EQ(out.y.size(), n - 1);
}

TEST(Ablation, OverTightThresholdDropsHonestInputs) {
  // threshold_factor = 1.0 demands ALL d copies collision-free; with the
  // practical profile collisions do occur, so some inputs vanish across a
  // few runs (while the paper's 1/2 threshold never loses any).
  const std::size_t n = 5;
  std::size_t lost_tight = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    net::Network net(n, 72 + seed);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    auto params = anonchan::Params::practical(n, 4);
    params.threshold_factor = 1.0;
    anonchan::AnonChan chan(net, *vss, params);
    const auto inputs = inputs_for(n);
    const auto out = chan.run(n - 1, inputs);
    for (Fld x : inputs)
      if (!out.delivered(x)) ++lost_tight;
  }
  EXPECT_GT(lost_tight, 0u);
}

TEST(Ablation, IdentityGStillDeliversAgainstOurAttackSpace) {
  // Without the receiver's random relocation the protocol still delivers
  // against the implemented attacks (honest positions are already uniform
  // and hidden); the permutations are needed for the PROOF's uniformity
  // premise, not defeated by any strategy in our library — documented in
  // DESIGN.md, quantified in bench_ablation.
  const std::size_t n = 4;
  net::Network net(n, 73);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 4));
  chan.set_identity_g(true);
  const auto inputs = inputs_for(n);
  const auto out = chan.run(n - 1, inputs);
  for (Fld x : inputs) EXPECT_TRUE(out.delivered(x));
}

// --- Full-protocol runs under message-level adversaries ------------------------

TEST(AnonChanNetworkAdversary, ShareCorruptionDuringWholeRun) {
  // Corrupt parties garble every p2p payload they send for the WHOLE
  // protocol (sharing included): the dealer misbehaviour surfaces as VSS
  // disqualification or cut-and-choose failure; honest inputs survive.
  const std::size_t n = 5;
  net::Network net(n, 81);
  net.set_corrupt(1, true);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 4));
  const auto inputs = inputs_for(n);
  const auto out = chan.run(n - 1, inputs);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(out.delivered(inputs[i])) << i;
  }
}

TEST(AnonChanNetworkAdversary, SilentCorruptPartiesDoNotBlockDelivery) {
  const std::size_t n = 5;
  net::Network net(n, 82);
  net.set_corrupt(2, true);
  net.attach_adversary(std::make_shared<net::SilentAdversary>());
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 4));
  const auto inputs = inputs_for(n);
  const auto out = chan.run(n - 1, inputs);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(out.delivered(inputs[i])) << i;
  }
}

}  // namespace
}  // namespace gfor14
