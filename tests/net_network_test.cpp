// The synchronous network simulator: delivery, cost accounting, rushing
// adversary semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "net/adversary.hpp"
#include "net/network.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14::net {
namespace {

Payload pay(std::initializer_list<std::uint64_t> vals) {
  Payload p;
  for (auto v : vals) p.push_back(Fld::from_u64(v));
  return p;
}

TEST(Network, DeliversAtEndOfRound) {
  Network net(3, 1);
  net.begin_round();
  net.send(0, 1, pay({7}));
  net.send(0, 2, pay({8, 9}));
  net.end_round();
  ASSERT_EQ(net.delivered().p2p[1][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[1][0][0], pay({7}));
  ASSERT_EQ(net.delivered().p2p[2][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[2][0][0], pay({8, 9}));
  EXPECT_TRUE(net.delivered().p2p[0][1].empty());
}

TEST(Network, MultipleMessagesPerPairPreserveOrder) {
  Network net(2, 1);
  net.begin_round();
  net.send(0, 1, pay({1}));
  net.send(0, 1, pay({2}));
  net.end_round();
  ASSERT_EQ(net.delivered().p2p[1][0].size(), 2u);
  EXPECT_EQ(net.delivered().p2p[1][0][0], pay({1}));
  EXPECT_EQ(net.delivered().p2p[1][0][1], pay({2}));
}

TEST(Network, BroadcastReachesEveryone) {
  Network net(4, 1);
  net.begin_round();
  net.broadcast(2, pay({5}));
  net.end_round();
  ASSERT_EQ(net.delivered().bcast[2].size(), 1u);
  EXPECT_EQ(net.delivered().bcast[2][0], pay({5}));
}

TEST(Network, CostAccounting) {
  Network net(3, 1);
  // Round 1: p2p only.
  net.begin_round();
  net.send(0, 1, pay({1, 2, 3}));
  net.end_round();
  // Round 2: broadcast (twice by one party, once by another).
  net.begin_round();
  net.broadcast(0, pay({1}));
  net.broadcast(0, pay({2}));
  net.broadcast(1, pay({3, 4}));
  net.end_round();
  // Round 3: nothing.
  net.begin_round();
  net.end_round();
  const auto& c = net.costs();
  EXPECT_EQ(c.rounds, 3u);
  EXPECT_EQ(c.broadcast_rounds, 1u);
  EXPECT_EQ(c.broadcast_invocations, 3u);
  EXPECT_EQ(c.p2p_messages, 1u);
  EXPECT_EQ(c.p2p_elements, 3u);
  EXPECT_EQ(c.broadcast_elements, 4u);
}

TEST(Network, CostReportDifference) {
  Network net(2, 1);
  net.begin_round();
  net.send(0, 1, pay({1}));
  net.end_round();
  const CostReport snap = net.cost_snapshot();
  net.begin_round();
  net.send(1, 0, pay({1, 2}));
  net.broadcast(0, pay({3}));
  net.end_round();
  const CostReport delta = net.costs() - snap;
  EXPECT_EQ(delta.rounds, 1u);
  EXPECT_EQ(delta.p2p_messages, 1u);
  EXPECT_EQ(delta.p2p_elements, 2u);
  EXPECT_EQ(delta.broadcast_invocations, 1u);
}

TEST(Network, CostReportDifferenceGuardsUnderflow) {
  Network net(2, 1);
  const CostReport before = net.cost_snapshot();
  net.begin_round();
  net.send(0, 1, pay({1}));
  net.broadcast(0, pay({2}));
  net.end_round();
  const CostReport after = net.cost_snapshot();
  // Subtracting a LATER snapshot from an earlier one is a caller bug —
  // every counter field must be guarded, not silently wrapped to ~2^64.
  EXPECT_THROW(before - after, ContractViolation);
  // The correct orientation still works, and a report minus itself is zero.
  const CostReport zero = after - after;
  EXPECT_EQ(zero.rounds, 0u);
  EXPECT_EQ(zero.p2p_elements, 0u);
  // Mixed-field underflow (one field smaller, others equal) also throws.
  CostReport tweaked = after;
  tweaked.broadcast_elements += 1;
  EXPECT_THROW(after - tweaked, ContractViolation);
}

/// Per-party traffic summed from a recording's delivered messages — the
/// per-party view `gfor14-audit matrix` derives from the same stream.
struct PartyTraffic {
  std::vector<std::size_t> p2p_messages_sent, p2p_elements_sent,
      p2p_elements_received, broadcast_invocations, broadcast_elements;
};

PartyTraffic party_traffic(const Recording& rec) {
  PartyTraffic t;
  for (auto* v : {&t.p2p_messages_sent, &t.p2p_elements_sent,
                  &t.p2p_elements_received, &t.broadcast_invocations,
                  &t.broadcast_elements})
    v->assign(rec.n, 0);
  for (const auto& round : rec.rounds)
    for (const auto& m : round.messages) {
      if (m.broadcast) {
        t.broadcast_invocations[m.from] += 1;
        t.broadcast_elements[m.from] += m.elements;
      } else {
        t.p2p_messages_sent[m.from] += 1;
        t.p2p_elements_sent[m.from] += m.elements;
        t.p2p_elements_received[m.to] += m.elements;
      }
    }
  return t;
}

TEST(Network, PerPartyCostAttribution) {
  Network net(3, 1);
  auto recorder = std::make_shared<Recorder>();
  net.attach_observer(recorder);
  net.begin_round();
  net.send(0, 1, pay({1, 2, 3}));
  net.send(0, 2, pay({4}));
  net.broadcast(1, pay({5, 6}));
  net.end_round();
  const PartyTraffic t = party_traffic(recorder->recording());
  EXPECT_EQ(t.p2p_messages_sent[0], 2u);
  EXPECT_EQ(t.p2p_elements_sent[0], 4u);
  EXPECT_EQ(t.p2p_elements_received[0], 0u);
  EXPECT_EQ(t.p2p_elements_received[1], 3u);
  EXPECT_EQ(t.broadcast_invocations[1], 1u);
  EXPECT_EQ(t.broadcast_elements[1], 2u);
  // Per-party sends sum to the network totals.
  std::size_t sent = 0, received = 0;
  for (std::size_t p = 0; p < net.n(); ++p) {
    sent += t.p2p_elements_sent[p];
    received += t.p2p_elements_received[p];
  }
  EXPECT_EQ(sent, net.costs().p2p_elements);
  EXPECT_EQ(received, net.costs().p2p_elements);
}

TEST(Network, PerPartyTrafficTracksReplacedTraffic) {
  Network net(3, 1);
  net.corrupt_first(1);
  // The adversary swaps corrupt party 0's 3-element payload for 1 element.
  auto adv = std::make_shared<CallbackAdversary>([](Network& n) {
    n.replace_pending(0, 1, {Payload{Fld::from_u64(9)}});
  });
  net.attach_adversary(adv);
  auto recorder = std::make_shared<Recorder>();
  net.attach_observer(recorder);
  net.begin_round();
  net.send(0, 1, pay({1, 2, 3}));
  net.end_round();
  const PartyTraffic t = party_traffic(recorder->recording());
  EXPECT_EQ(t.p2p_elements_sent[0], 1u);
  EXPECT_EQ(t.p2p_elements_received[1], 1u);
  EXPECT_EQ(net.costs().p2p_elements, 1u);
}

// Regression for the asymmetric replace_pending accounting: dropping or
// shrinking a corrupt party's pending traffic must DECREASE the message
// counters just as growing it increases them. The seed implementation only
// ever incremented p2p_messages (when the substitute list was larger), so a
// drop attack left phantom messages on the books and a repeated
// drop-then-resend cycle inflated the counter without bound.
TEST(Network, ReplacePendingAccountsDroppedMessagesSymmetrically) {
  Network net(3, 1);
  net.corrupt_first(1);
  auto adv = std::make_shared<CallbackAdversary>([](Network& n) {
    n.replace_pending(0, 1, {});  // drop attack: withhold everything
  });
  net.attach_adversary(adv);
  net.begin_round();
  net.send(0, 1, pay({1, 2}));
  net.send(0, 1, pay({3}));
  net.send(2, 1, pay({4}));  // honest traffic, untouched
  net.end_round();
  // Only the honest message remains on the books — the two withheld
  // messages never hit the wire.
  EXPECT_EQ(net.costs().p2p_messages, 1u);
  EXPECT_EQ(net.costs().p2p_elements, 1u);
}

// Shrinking (2 messages -> 1) and growing (1 -> 3) are mirror cases of the
// same symmetric accounting.
TEST(Network, ReplacePendingAccountsResizedSubstituteLists) {
  Network net(3, 1);
  net.corrupt_first(1);
  auto adv = std::make_shared<CallbackAdversary>([](Network& n) {
    n.replace_pending(0, 1, {pay({7})});                      // 2 -> 1
    n.replace_pending(0, 2, {pay({8}), pay({9}), pay({10})});  // 1 -> 3
  });
  net.attach_adversary(adv);
  net.begin_round();
  net.send(0, 1, pay({1}));
  net.send(0, 1, pay({2}));
  net.send(0, 2, pay({3}));
  net.end_round();
  EXPECT_EQ(net.costs().p2p_messages, 4u);
  EXPECT_EQ(net.costs().p2p_elements, 4u);
  ASSERT_EQ(net.delivered().p2p[1][0].size(), 1u);
  ASSERT_EQ(net.delivered().p2p[2][0].size(), 3u);
}

/// Collects each round's CostReport delta.
class DeltaObserver : public RoundObserver {
 public:
  void on_round_end(const Network& net, const CostReport& d) override {
    EXPECT_EQ(net.n(), 3u);
    deltas.push_back(d);
  }
  std::vector<CostReport> deltas;
};

TEST(Network, ObserverReceivesPerRoundDeltas) {
  Network net(3, 1);
  const auto obs = std::make_shared<DeltaObserver>();
  net.attach_observer(obs);
  net.begin_round();
  net.send(0, 1, pay({1, 2}));
  net.end_round();
  net.begin_round();
  net.broadcast(2, pay({3}));
  net.end_round();
  const auto& deltas = obs->deltas;
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].rounds, 1u);
  EXPECT_EQ(deltas[0].p2p_elements, 2u);
  EXPECT_EQ(deltas[0].broadcast_invocations, 0u);
  EXPECT_EQ(deltas[1].broadcast_rounds, 1u);
  EXPECT_EQ(deltas[1].broadcast_elements, 1u);
  net.detach_observer(obs.get());
  net.begin_round();
  net.end_round();
  EXPECT_EQ(deltas.size(), 2u);  // a detached observer no longer fires
}

// Regression: the recorded adversary view of a full AnonChan run must be
// bit-identical across two identically-seeded executions. The replay-based
// privacy tests depend on this determinism; any hidden nondeterminism
// (iteration order, uninitialized reads, global RNG use) breaks it.
TEST(Network, RecordingAdversaryTranscriptIsDeterministic) {
  auto transcript = [] {
    Network net(4, 777);
    net.corrupt_first(1);
    auto adv = std::make_shared<RecordingAdversary>();
    net.attach_adversary(adv);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::light(4));
    std::vector<Fld> inputs;
    for (std::size_t i = 0; i < 4; ++i) inputs.push_back(Fld::from_u64(i + 1));
    chan.run(2, inputs);
    return adv->flat_transcript();
  };
  const auto first = transcript();
  const auto second = transcript();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Network, CorruptionBookkeeping) {
  Network net(5, 1);
  EXPECT_EQ(net.max_t_half(), 2u);
  EXPECT_EQ(net.max_t_third(), 1u);
  net.corrupt_first(2);
  EXPECT_TRUE(net.is_corrupt(0));
  EXPECT_TRUE(net.is_corrupt(1));
  EXPECT_FALSE(net.is_corrupt(2));
  EXPECT_EQ(net.num_corrupt(), 2u);
  net.set_corrupt(0, false);
  EXPECT_EQ(net.num_corrupt(), 1u);
}

TEST(Network, RushingAdversarySeesHonestTrafficBeforeDelivery) {
  Network net(3, 1);
  net.corrupt_first(1);
  bool saw = false;
  auto adv = std::make_shared<CallbackAdversary>([&](Network& n) {
    // Adversary inspects the pending message to corrupt party 0, then sends
    // a dependent message from party 0 in the same round (rushing).
    auto pending = n.pending_to_corrupt(0);
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].peer, 1u);
    EXPECT_EQ(pending[0].payload(), pay({42}));
    saw = true;
    n.send(0, 2, pay({pending[0].payload()[0].to_u64() + 1}));
  });
  net.attach_adversary(adv);
  net.begin_round();
  net.send(1, 0, pay({42}));
  net.end_round();
  EXPECT_TRUE(saw);
  // The rushed message is delivered in the SAME round.
  ASSERT_EQ(net.delivered().p2p[2][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[2][0][0], pay({43}));
}

TEST(Network, ReplacePendingSubstitutesCorruptTraffic) {
  Network net(3, 1);
  net.corrupt_first(1);
  auto adv = std::make_shared<ShareCorruptingAdversary>();
  net.attach_adversary(adv);
  net.begin_round();
  net.send(0, 1, pay({5}));  // corrupt party's outgoing, will be garbled
  net.send(2, 1, pay({6}));  // honest traffic, untouched
  net.end_round();
  ASSERT_EQ(net.delivered().p2p[1][0].size(), 1u);
  EXPECT_NE(net.delivered().p2p[1][0][0], pay({5}));  // ~2^-64 flake risk
  EXPECT_EQ(net.delivered().p2p[1][0][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[1][2][0], pay({6}));
}

TEST(Network, SilentAdversaryDropsCorruptMessages) {
  Network net(3, 1);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<SilentAdversary>());
  net.begin_round();
  net.send(0, 2, pay({5}));
  net.send(1, 2, pay({6}));
  net.end_round();
  EXPECT_TRUE(net.delivered().p2p[2][0].empty());
  ASSERT_EQ(net.delivered().p2p[2][1].size(), 1u);
}

TEST(Network, RecordingAdversaryCapturesViewOnly) {
  Network net(3, 1);
  net.corrupt_first(1);
  auto adv = std::make_shared<RecordingAdversary>();
  net.attach_adversary(adv);
  net.begin_round();
  net.send(1, 0, pay({10}));  // honest -> corrupt: visible
  net.send(1, 2, pay({11}));  // honest -> honest: invisible
  net.broadcast(2, pay({12}));  // broadcast: visible
  net.end_round();
  ASSERT_EQ(adv->views().size(), 1u);
  const auto& view = adv->views()[0];
  ASSERT_EQ(view.to_corrupt.size(), 1u);
  EXPECT_EQ(std::get<2>(view.to_corrupt[0]), pay({10}));
  EXPECT_EQ(view.broadcasts[2][0], pay({12}));
  const auto flat = adv->flat_transcript();
  // Contains 10 and 12 but never the honest->honest payload 11.
  bool has11 = false;
  for (Fld f : flat)
    if (f == Fld::from_u64(11)) has11 = true;
  EXPECT_FALSE(has11);
}

TEST(Network, GuardsAgainstMisuse) {
  Network net(2, 1);
  EXPECT_THROW(net.send(0, 1, pay({1})), ContractViolation);  // no round
  net.begin_round();
  EXPECT_THROW(net.begin_round(), ContractViolation);  // nested
  EXPECT_THROW(net.send(0, 2, pay({1})), ContractViolation);  // bad party
  EXPECT_THROW(net.pending_to_corrupt(0), ContractViolation);  // not corrupt
  net.end_round();
  EXPECT_THROW(net.end_round(), ContractViolation);
}

TEST(Network, PartyRngsAreIndependentAndDeterministic) {
  Network a(3, 99), b(3, 99);
  EXPECT_EQ(a.rng_of(0).next_u64(), b.rng_of(0).next_u64());
  Network c(3, 99);
  EXPECT_NE(c.rng_of(0).next_u64(), c.rng_of(1).next_u64());
}

TEST(Network, PartyRngsSitOnTheirOwnCacheLines) {
  // Parties draw concurrently on different lanes; no two streams may share
  // a line, or each draw invalidates a neighbour's line.
  static_assert(Network::kCacheLine == 64);
  static_assert(sizeof(Rng) <= Network::kCacheLine);
  Network net(6, 7);
  std::vector<std::uintptr_t> lines;
  for (PartyId p = 0; p < net.n(); ++p) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&net.rng_of(p));
    EXPECT_EQ(addr % Network::kCacheLine, 0u) << "party " << p;
    lines.push_back(addr / Network::kCacheLine);
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::adjacent_find(lines.begin(), lines.end()), lines.end());
}

// Regression for the PendingView dangling-reference hazard: the seed
// implementation held `const Payload&` members, so replace_pending on the
// viewed channel freed the memory under a live view and a subsequent read
// was use-after-free (ASan-visible). Views now carry a channel stamp and
// payload() fails loudly once the queue is rewritten.
TEST(Network, PendingViewPoisonedByReplaceOnSameChannel) {
  Network net(3, 1);
  net.corrupt_first(1);
  auto adv = std::make_shared<CallbackAdversary>([](Network& n) {
    auto views = n.pending_to_corrupt(0);
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].payload(), pay({1, 2, 3}));  // valid before rewrite
    // The adversary also owns corrupt party 0's outgoing channel 0 -> 1.
    auto out = n.pending_from_corrupt(0);
    ASSERT_EQ(out.size(), 1u);
    n.replace_pending(0, 1, {pay({9})});
    // The outgoing view pointed into the rewritten queue: poisoned. Reading
    // through it previously returned freed memory; now it throws.
    EXPECT_THROW(out[0].payload(), ContractViolation);
    // The incoming view is on channel 1 -> 0, untouched: still valid.
    EXPECT_EQ(views[0].payload(), pay({1, 2, 3}));
  });
  net.attach_adversary(adv);
  net.begin_round();
  net.send(1, 0, pay({1, 2, 3}));
  net.send(0, 1, pay({4}));
  net.end_round();
}

TEST(Network, PendingViewPoisonedByRoundEnd) {
  Network net(2, 1);
  net.corrupt_first(1);
  std::vector<PendingView> stash;
  auto adv = std::make_shared<CallbackAdversary>(
      [&](Network& n) { stash = n.pending_to_corrupt(0); });
  net.attach_adversary(adv);
  net.begin_round();
  net.send(1, 0, pay({7}));
  net.end_round();
  ASSERT_EQ(stash.size(), 1u);
  EXPECT_THROW(stash[0].payload(), ContractViolation);
}

TEST(Network, RoundWatchdogThrowsAtLimit) {
  Network net(2, 1);
  net.set_max_rounds(3);
  for (int i = 0; i < 3; ++i) {
    net.begin_round();
    net.end_round();
  }
  EXPECT_THROW(net.begin_round(), RoundLimitExceeded);
  // Raising the limit unwedges the network.
  net.set_max_rounds(5);
  net.begin_round();
  net.end_round();
}

TEST(Network, RoundBudgetGuardTightensAndRestores) {
  Network net(2, 1);
  net.begin_round();
  net.end_round();  // 1 round on the books
  {
    RoundBudgetGuard outer(net, 10);
    EXPECT_EQ(net.max_rounds(), 11u);
    {
      RoundBudgetGuard inner(net, 2);  // tighter: 1 + 2 = 3
      EXPECT_EQ(net.max_rounds(), 3u);
      {
        RoundBudgetGuard loose(net, 100);  // looser: must NOT widen
        EXPECT_EQ(net.max_rounds(), 3u);
      }
      EXPECT_EQ(net.max_rounds(), 3u);
    }
    EXPECT_EQ(net.max_rounds(), 11u);
  }
  EXPECT_EQ(net.max_rounds(), 0u);  // watchdog off again
}

TEST(Network, BlameRecordsBucketedAndOrdered) {
  Network net(3, 1);
  net.blame(2, 0, "late");
  net.blame(0, 1, "malformed");
  net.blame(kPublicBlame, 1, "bad broadcast");
  net.blame(0, 2, "short payload");
  const auto records = net.blames();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(net.blame_count(), 4u);
  // Flattened ascending accuser, kPublicBlame last; insertion order within.
  EXPECT_EQ(records[0].accuser, 0u);
  EXPECT_EQ(records[0].reason, "malformed");
  EXPECT_EQ(records[1].accuser, 0u);
  EXPECT_EQ(records[1].accused, 2u);
  EXPECT_EQ(records[2].accuser, 2u);
  EXPECT_EQ(records[3].accuser, kPublicBlame);
}

}  // namespace
}  // namespace gfor14::net
