// Adversarial-input robustness: every decoder that consumes wire data must
// reject malformed input gracefully (never crash, never mis-accept), and
// the protocols must survive corrupt parties injecting random-shaped
// payloads mid-execution (the default-message convention of Section 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "anonchan/anonchan.hpp"
#include "anonchan/cut_and_choose.hpp"
#include "math/index_codec.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "pseudosig/pseudosig.hpp"
#include "vss/icp_protocol.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

std::vector<Fld> random_payload(Rng& rng, std::size_t max_len) {
  std::vector<Fld> out(rng.next_below(max_len + 1));
  for (auto& f : out) {
    // Mix raw random elements with small "plausible" integers to hit both
    // decoder paths.
    f = rng.next_bool() ? Fld::random(rng)
                        : Fld::from_u64(rng.next_below(64));
  }
  return out;
}

/// Random words for an IndexCodec: raw random elements, small "plausible"
/// integers, and canonical words with only padding or unused-slot bits
/// added, to hit every rejection path.
std::vector<Fld> random_packed(Rng& rng, const IndexCodec& codec,
                               std::size_t count) {
  std::vector<Fld> out(codec.words(count));
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::size_t slots =
        std::min(codec.per_word(), count - w * codec.per_word());
    const unsigned filled = static_cast<unsigned>(slots) * codec.slot_bits();
    switch (rng.next_below(3)) {
      case 0:
        out[w] = Fld::random(rng);
        break;
      case 1:
        out[w] = Fld::from_u64(rng.next_below(64));
        break;
      default: {
        // A canonical word: slots in [1, ell], ...
        std::uint64_t word = 0;
        for (std::size_t s = 0; s < slots; ++s)
          word |= (1 + rng.next_below(codec.ell())) << (s * codec.slot_bits());
        // ... sometimes with random bits at or above the used slots.
        if (rng.next_bool() && filled < 64)
          word |= rng.next_u64() & ~((std::uint64_t{1} << filled) - 1);
        out[w] = Fld::from_u64(word);
      }
    }
  }
  return out;
}

TEST(FuzzDecode, PackedPermutationDecoderNeverCrashes) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    const IndexCodec codec(1 + rng.next_below(12));
    // Mostly the right word count, sometimes one off.
    std::size_t count = codec.ell();
    if (rng.next_below(8) == 0) count += codec.per_word();
    const auto enc = random_packed(rng, codec, count);
    if (auto p = codec.decode_permutation(enc)) {
      // Anything accepted must be a genuine bijection of [0, ell) whose
      // encoding is exactly the input (canonical words only).
      ASSERT_EQ(p->size(), codec.ell());
      std::vector<bool> seen(p->size(), false);
      for (std::size_t k = 0; k < p->size(); ++k) {
        ASSERT_LT((*p)(k), p->size());
        ASSERT_FALSE(seen[(*p)(k)]);
        seen[(*p)(k)] = true;
      }
      std::vector<Fld> again(enc.size());
      codec.encode(p->images(), std::span<Fld>(again));
      ASSERT_EQ(again, enc);
    }
  }
}

TEST(FuzzDecode, IndexListDecoderNeverCrashesAndValidates) {
  Rng rng(2);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const IndexCodec codec(1 + rng.next_below(32));
    const std::size_t count = 1 + rng.next_below(10);
    const auto enc = random_packed(rng, codec, count);
    if (auto idx = codec.decode_index_list(enc, count)) {
      ++accepted;
      ASSERT_EQ(idx->size(), count);
      std::size_t prev = SIZE_MAX;
      for (std::size_t v : *idx) {
        ASSERT_LT(v, codec.ell());
        if (prev != SIZE_MAX) {
          ASSERT_GT(v, prev);
        }
        prev = v;
      }
      std::vector<Fld> again(enc.size());
      codec.encode(*idx, std::span<Fld>(again));
      ASSERT_EQ(again, enc);
    }
  }
  EXPECT_GT(accepted, 0u);  // the canonical inputs reach the accept path
}

TEST(FuzzDecode, PseudosignatureDeserializeNeverCrashes) {
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto enc = random_payload(rng, 24);
    const auto sig = pseudosig::Pseudosignature::deserialize(enc);
    if (sig) {
      // Round-trip stability for anything accepted.
      EXPECT_EQ(pseudosig::Pseudosignature::deserialize(sig->serialize())
                    ->serialize(),
                sig->serialize());
    }
  }
}

TEST(FuzzDecode, MacKeyUnpackTotal) {
  Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    const Fld packed = Fld::random(rng);
    if (auto key = pseudosig::MacKey::unpack(packed)) {
      EXPECT_FALSE(key->a.is_zero());
      EXPECT_EQ(key->pack(), packed);
    }
  }
}

/// Corrupt parties substitute random-shaped payloads for everything they
/// send, every round — a chaos monkey over the whole protocol stack.
class ChaosAdversary : public net::Adversary {
 public:
  void on_round(net::Network& net) override {
    for (net::PartyId p = 0; p < net.n(); ++p) {
      if (!net.is_corrupt(p)) continue;
      for (net::PartyId to = 0; to < net.n(); ++to) {
        if (to == p) continue;
        std::vector<net::Payload> junk;
        const std::size_t count = net.adversary_rng().next_below(3);
        for (std::size_t k = 0; k < count; ++k)
          junk.push_back(random_payload(net.adversary_rng(), 40));
        net.replace_pending(p, to, std::move(junk));
      }
    }
  }

 private:
  std::vector<Fld> random_payload(Rng& rng, std::size_t max_len) {
    std::vector<Fld> out(rng.next_below(max_len + 1));
    for (auto& f : out) f = Fld::random(rng);
    return out;
  }
};

TEST(FuzzProtocol, VssSurvivesChaosTraffic) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    net::Network net(5, 90 + seed);
    net.set_corrupt(1, true);
    net.set_corrupt(3, true);
    net.attach_adversary(std::make_shared<ChaosAdversary>());
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    std::vector<std::vector<Fld>> batches(5);
    batches[0] = {Fld::from_u64(42), Fld::from_u64(43)};
    const auto result = vss->share_all(batches);
    EXPECT_TRUE(result.qualified[0]);
    const auto recon = vss->reconstruct_public(
        {vss::LinComb::of({0, 0}), vss::LinComb::of({0, 1})});
    EXPECT_EQ(recon[0], Fld::from_u64(42));
    EXPECT_EQ(recon[1], Fld::from_u64(43));
  }
}

// --- wire-level byte/length mutations via the fault engine -----------------
//
// The ChaosAdversary above replaces whole payloads; the FaultEngine probes
// the finer-grained failure shapes — truncated, extended, element- and
// bit-corrupted traffic — against each parse path that consumes wire data.

net::FaultPlan mutation_plan(Rng& rng, const std::vector<net::PartyId>& from,
                             std::size_t n, std::size_t rounds,
                             std::size_t count) {
  net::FaultPlan::RandomSpec spec;
  spec.targets = from;
  spec.n = n;
  spec.rounds = rounds;
  spec.count = count;
  spec.allow_crash = false;  // keep the mutated traffic flowing
  return net::FaultPlan::random(rng, spec);
}

TEST(FuzzProtocol, VssSliceParsePathSurvivesWireMutations) {
  // Random truncation/extension/corruption of the corrupt dealers' sharing
  // traffic hits round_distribute_slices and the finalize consistency scan;
  // honest sharings must stay qualified and reconstruct exactly.
  Rng rng(2014);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    net::Network net(5, 300 + seed);
    net.set_corrupt(1, true);
    net.set_corrupt(3, true);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    const auto plan = mutation_plan(rng, {1, 3}, 5,
                                    vss->share_rounds() + 4, 10);
    net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
    std::vector<std::vector<Fld>> batches(5);
    batches[0] = {Fld::from_u64(42), Fld::from_u64(43)};
    const auto result = vss->share_all(batches);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_TRUE(result.qualified[0]);
    const auto recon = vss->reconstruct_public(
        {vss::LinComb::of({0, 0}), vss::LinComb::of({0, 1})});
    EXPECT_EQ(recon[0], Fld::from_u64(42));
    EXPECT_EQ(recon[1], Fld::from_u64(43));
    for (const auto& b : net.blames())
      EXPECT_TRUE(b.accused == 1 || b.accused == 3)
          << "blame names honest party " << b.accused << " (" << b.reason
          << ")";
  }
}

TEST(FuzzProtocol, IcpTagParsePathSurvivesWireMutations) {
  // Mutated distribution traffic (tags to INT, keys to R) must never throw:
  // the session either catches the dealer at consistency time or the reveal
  // verdict comes back as a plain bool.
  Rng rng(77);
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    net::Network net(4, 500 + seed);
    net.set_corrupt(0, true);
    const auto plan = mutation_plan(rng, {0}, 4, 3, 4);
    net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
    vss::IcpSession session(net, 0, 1, 2);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    bool distributed = false;
    EXPECT_NO_THROW(distributed = session.distribute(
                        {Fld::from_u64(7), Fld::from_u64(8)}));
    bool verdict = false;
    EXPECT_NO_THROW(verdict = session.reveal(0));
    // A reveal that verifies despite the faults is only acceptable when the
    // distribution also went through unfaulted.
    if (verdict) {
      EXPECT_TRUE(distributed);
    }
  }
}

TEST(FuzzProtocol, IcpTruncatedRevealIsRejectedWithBlame) {
  // Deterministic malformed-reveal probe: distribution and consistency run
  // clean (engine rounds 0-2), then the intermediary's reveal payload is
  // truncated to nothing at round 3. R must reject and blame INT.
  net::Network net(4, 1234);
  net.set_corrupt(1, true);
  net::FaultPlan plan;
  plan.truncate(3, 1, 2, 2);
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, 9));
  vss::IcpSession session(net, 0, 1, 2);
  ASSERT_TRUE(session.distribute({Fld::from_u64(5)}));
  EXPECT_FALSE(session.reveal(0));
  bool blamed = false;
  for (const auto& b : net.blames())
    blamed = blamed || (b.accused == 1 && b.reason == "icp.reveal.malformed");
  EXPECT_TRUE(blamed);
}

TEST(FuzzProtocol, CutAndChooseOpeningSurvivesWireMutations) {
  // The cut-and-choose openings travel on the broadcast channel; mutating
  // every broadcast the corrupt party makes (index lists, permutations,
  // opened shares) must leave honest deliveries intact and never pin blame
  // on an honest party.
  Rng rng(4242);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    net::Network net(5, 700 + seed);
    net.set_corrupt(2, true);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 4));
    net::FaultPlan plan;
    for (std::size_t r = 0; r < chan.expected_rounds(); ++r) {
      const std::size_t pick = rng.next_below(4);
      if (pick == 0)
        plan.truncate(r, 2, 0, 1 + rng.next_below(3),
                      net::FaultChannel::kBroadcast);
      else if (pick == 1)
        plan.extend(r, 2, 0, 1 + rng.next_below(3),
                    net::FaultChannel::kBroadcast);
      else if (pick == 2)
        plan.corrupt_element(r, 2, 0, 1 + rng.next_below(3),
                             net::FaultChannel::kBroadcast);
      else
        plan.corrupt_bit(r, 2, 0, 1 + rng.next_below(4),
                         net::FaultChannel::kBroadcast);
    }
    net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
    std::vector<Fld> inputs(5);
    for (std::size_t i = 0; i < 5; ++i) inputs[i] = Fld::from_u64(900 + i);
    const auto out = chan.run(4, inputs);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (std::size_t i = 0; i < 5; ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(out.pass[i]) << "honest party " << i << " disqualified";
      EXPECT_TRUE(out.delivered(inputs[i])) << i;
    }
    for (const auto& b : net.blames())
      EXPECT_EQ(b.accused, 2u) << b.reason;
  }
}

TEST(FuzzProtocol, AnonChanSurvivesChaosTraffic) {
  net::Network net(5, 99);
  net.set_corrupt(2, true);
  net.attach_adversary(std::make_shared<ChaosAdversary>());
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 4));
  std::vector<Fld> inputs(5);
  for (std::size_t i = 0; i < 5; ++i) inputs[i] = Fld::from_u64(800 + i);
  const auto out = chan.run(4, inputs);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(out.delivered(inputs[i])) << i;
  }
}

}  // namespace
}  // namespace gfor14
