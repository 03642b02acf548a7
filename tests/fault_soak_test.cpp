// Seed-replayable fault-injection soak harness (DESIGN.md §9).
//
// Three layers of assurance:
//
//  1. FaultPlan unit coverage: the CLI spec grammar round-trips, malformed
//     specs are rejected with a diagnostic, and the engine's queue rewrites
//     are reflected exactly in the network cost accounting.
//  2. Byte-identity: attaching a FaultEngine with an EMPTY plan leaves the
//     full execution — delivered transcript, protocol output, CostReport,
//     net.* metric deltas — byte-identical to running with no engine at
//     all, at 1 and 4 worker lanes (differential against the PR-3 parallel
//     round engine). Replaying the same (plan, seed) pair is likewise
//     byte-identical, including the fault event log.
//  3. Randomized soak: >= 200 scenarios drawn from a master seed (printed,
//     and overridable via GFOR14_FAULT_SEED for replay) run the anonymous
//     channel under random in-model fault plans — wire faults only on
//     traffic originating at the <= t < n/2 corrupt parties, optionally
//     composed with the rushing message-level adversaries. The invariants:
//     honest parties never throw, the protocol terminates within
//     expected_rounds(), honest parties are never disqualified, and every
//     blame record accuses a corrupt party.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/replay.hpp"
#include "baselines/dcnet.hpp"
#include "common/metrics.hpp"
#include "fault_hits.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "server/supervisor.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

void append_u64(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
  s += ' ';
}

// Transcript capture goes through the flight recorder (same construction
// as parallel_engine_test.cpp): two executions are byte-identical iff
// audit::first_divergence finds nothing between their recordings, and any
// mismatch is reported with its exact (round, channel, byte) coordinates.
::testing::AssertionResult identical(const net::Recording& a,
                                     const net::Recording& b) {
  if (const auto d = audit::first_divergence(a, b))
    return ::testing::AssertionFailure() << d->format();
  return ::testing::AssertionSuccess();
}

constexpr std::array<const char*, 6> kNetMetricNames = {
    "net.rounds",        "net.broadcast_rounds", "net.broadcast_invocations",
    "net.p2p_messages",  "net.p2p_elements",     "net.broadcast_elements"};

std::array<std::uint64_t, 6> net_metric_values() {
  std::array<std::uint64_t, 6> out{};
  for (std::size_t i = 0; i < kNetMetricNames.size(); ++i)
    out[i] = metrics::Registry::instance().counter(kNetMetricNames[i]).value();
  return out;
}

struct RunResult {
  net::Recording recording;  ///< full-fidelity transcript of the run
  std::string output;
  net::CostReport costs;
  std::array<std::uint64_t, 6> net_metrics{};
  std::string events;  ///< serialized fault event log (empty if no engine)
};

std::string serialize_anonchan(const anonchan::Output& out) {
  std::string s = "y:";
  for (Fld f : out.y) append_u64(s, f.to_u64());
  s += " pass:";
  for (bool p : out.pass) s += p ? '1' : '0';
  return s;
}

std::string serialize_events(const net::FaultEngine& engine) {
  std::string s;
  for (const auto& e : engine.events()) {
    s += net::fault_kind_name(e.spec.kind);
    append_u64(s, e.round);
    append_u64(s, e.spec.from);
    append_u64(s, e.spec.to);
    append_u64(s, e.messages_hit);
    append_u64(s, e.elements_delta);
    s += ';';
  }
  return s;
}

std::string serialize_blames(const net::Network& net) {
  std::string s;
  for (const auto& b : net.blames()) {
    append_u64(s, b.accuser);
    append_u64(s, b.accused);
    s += b.reason;
    append_u64(s, b.round);
    s += ';';
  }
  return s;
}

/// Runs the RB anonymous channel at n = 5, optionally with a fault engine
/// attached (nullopt = no engine at all, the true baseline).
RunResult execute_channel(std::uint64_t seed, std::size_t threads,
                          const std::optional<net::FaultPlan>& plan,
                          std::uint64_t fault_seed) {
  net::Network net(5, seed);
  net.set_threads(threads);
  std::shared_ptr<net::FaultEngine> engine;
  if (plan) {
    engine = std::make_shared<net::FaultEngine>(*plan, fault_seed);
    net.attach_faults(engine);
  }
  const auto metrics_before = net_metric_values();
  const auto costs_before = net.cost_snapshot();
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  RunResult r;
  r.output = serialize_anonchan(chan.run(4, inputs));
  r.output += " blames:" + serialize_blames(net);
  r.recording = recorder->take();
  r.costs = net.costs() - costs_before;
  const auto metrics_after = net_metric_values();
  for (std::size_t i = 0; i < r.net_metrics.size(); ++i)
    r.net_metrics[i] = metrics_after[i] - metrics_before[i];
  if (engine) r.events = serialize_events(*engine);
  return r;
}

// --- FaultPlan grammar -----------------------------------------------------

TEST(FaultPlanTest, ParsesTheDocumentedGrammar) {
  std::string error;
  auto plan =
      net::FaultPlan::parse("drop@3:0->2,corrupt@5:1->*:2,trunc@0:2->bcast:1,"
                            "crash@7:0,bitflip@2:1->3:4,replay@6:0->1,"
                            "ext@4:3->bcast:2",
                            &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->specs.size(), 7u);
  EXPECT_EQ(plan->specs[0],
            (net::FaultSpec{net::FaultKind::kDrop, 3, 0, 2,
                            net::FaultChannel::kP2p, 0}));
  EXPECT_EQ(plan->specs[1],
            (net::FaultSpec{net::FaultKind::kCorruptElement, 5, 1,
                            net::kAllReceivers, net::FaultChannel::kP2p, 2}));
  EXPECT_EQ(plan->specs[2],
            (net::FaultSpec{net::FaultKind::kTruncate, 0, 2, 0,
                            net::FaultChannel::kBroadcast, 1}));
  EXPECT_EQ(plan->specs[3],
            (net::FaultSpec{net::FaultKind::kCrash, 7, 0, 0,
                            net::FaultChannel::kP2p, 0}));
  EXPECT_EQ(plan->specs[4],
            (net::FaultSpec{net::FaultKind::kCorruptBit, 2, 1, 3,
                            net::FaultChannel::kP2p, 4}));
  EXPECT_EQ(plan->specs[5],
            (net::FaultSpec{net::FaultKind::kReplayStale, 6, 0, 1,
                            net::FaultChannel::kP2p, 0}));
  EXPECT_EQ(plan->specs[6],
            (net::FaultSpec{net::FaultKind::kExtend, 4, 3, 0,
                            net::FaultChannel::kBroadcast, 2}));
  // senders() reports each targeted origin once.
  const auto senders = plan->senders();
  EXPECT_EQ(senders, (std::vector<net::PartyId>{0, 1, 2, 3}));
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"drop", "drop@", "drop@x:0->1", "drop@1:0", "drop@1:0->",
        "frobnicate@1:0->1", "crash@1", "crash@1:0:2", "drop@1:0->1:junk",
        "drop@1:0->1,", ",", "drop@1:0>1"}) {
    std::string error;
    EXPECT_FALSE(net::FaultPlan::parse(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultPlanTest, EveryKindRoundTripsThroughBothNames) {
  ASSERT_EQ(std::size(net::kFaultKinds), 7u);
  for (std::size_t i = 0; i < std::size(net::kFaultKinds); ++i) {
    const auto& row = net::kFaultKinds[i];
    SCOPED_TRACE(row.name);
    EXPECT_EQ(static_cast<std::size_t>(row.kind), i);  // every kind, once
    // Spec token -> kind.
    const std::string spec =
        std::string(row.token) +
        (row.kind == net::FaultKind::kCrash ? "@1:0" : "@1:0->2:1");
    std::string error;
    const auto plan = net::FaultPlan::parse(spec, &error);
    ASSERT_TRUE(plan.has_value()) << spec << ": " << error;
    EXPECT_EQ(plan->specs.at(0).kind, row.kind);
    // Kind <-> canonical name.
    EXPECT_STREQ(net::fault_kind_name(row.kind), row.name);
    EXPECT_EQ(net::fault_kind_from_name(row.name), row.kind);
  }
  // Each text format reads only its own names.
  EXPECT_FALSE(net::FaultPlan::parse("truncate@1:0->2:1").has_value());
  EXPECT_FALSE(net::fault_kind_from_name("trunc").has_value());

  // Canonical names survive a recording's JSON round trip: party 0 sends
  // one payload to party 1 per round, and each round faults it with the
  // next kind (a crash last, silencing the final round).
  net::FaultPlan plan;
  plan.drop(0, 0, 1)
      .truncate(1, 0, 1, 1)
      .extend(2, 0, 1, 1)
      .corrupt_element(3, 0, 1, 1)
      .corrupt_bit(4, 0, 1, 1)
      .replay_stale(5, 0, 1)
      .crash(6, 0);
  net::Network net(3, 12);
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, 12));
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  for (std::uint64_t r = 0; r < 7; ++r) {
    net.begin_round();
    net.send(0, 1, {Fld::from_u64(r), Fld::from_u64(r + 1)});
    net.end_round();
  }
  const net::Recording rec = recorder->take();
  EXPECT_TRUE(testutil::every_fault_hit(plan, rec));
  std::string error;
  const auto back = net::Recording::from_json(rec.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  std::vector<net::FaultKind> kinds;
  for (const auto& round : back->rounds)
    for (const auto& f : round.faults) kinds.push_back(f.spec.kind);
  std::vector<net::FaultKind> want;
  for (const auto& row : net::kFaultKinds) want.push_back(row.kind);
  EXPECT_EQ(kinds, want);
}

TEST(FaultPlanTest, RandomPlansOnlyTargetTheGivenParties) {
  Rng rng(99);
  net::FaultPlan::RandomSpec spec;
  spec.targets = {1, 3};
  spec.n = 5;
  spec.rounds = 10;
  spec.count = 64;
  const auto plan = net::FaultPlan::random(rng, spec);
  ASSERT_EQ(plan.specs.size(), 64u);
  for (const auto& s : plan.specs) {
    EXPECT_TRUE(s.from == 1 || s.from == 3);
    EXPECT_LT(s.round, 10u);
    if (s.kind != net::FaultKind::kCrash &&
        s.channel == net::FaultChannel::kP2p && s.to != net::kAllReceivers) {
      EXPECT_LT(s.to, 5u);
    }
  }
}

// --- engine accounting -----------------------------------------------------

TEST(FaultEngineTest, QueueRewritesAreReflectedInCostAccounting) {
  net::FaultPlan plan;
  plan.drop(0, 0, 1)
      .truncate(0, 0, 2, 1)
      .extend(0, 1, 2, 3)
      .crash(1, 3);
  auto engine = std::make_shared<net::FaultEngine>(plan, 7);
  net::Network net(4, 11);
  net.attach_faults(engine);

  // Round 0: everyone sends 2 elements to everyone else.
  net.begin_round();
  for (net::PartyId i = 0; i < 4; ++i)
    for (net::PartyId j = 0; j < 4; ++j)
      if (i != j) net.send(i, j, {Fld::from_u64(10 + i), Fld::from_u64(20 + i)});
  net.end_round();
  // drop removed one 2-element message, truncate one element, extend added 3.
  EXPECT_EQ(net.costs().p2p_messages, 12u - 1u);
  EXPECT_EQ(net.costs().p2p_elements, 24u - 2u - 1u + 3u);
  EXPECT_TRUE(net.delivered().p2p[1][0].empty());
  ASSERT_EQ(net.delivered().p2p[2][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[2][0][0].size(), 1u);
  ASSERT_EQ(net.delivered().p2p[2][1].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[2][1][0].size(), 5u);

  // Round 1: the standing crash of party 3 silences it entirely.
  const auto before = net.costs();
  net.begin_round();
  for (net::PartyId j = 0; j < 3; ++j) net.send(3, j, {Fld::from_u64(1)});
  net.broadcast(3, {Fld::from_u64(2)});
  net.end_round();
  const auto delta = net.costs() - before;
  EXPECT_EQ(delta.p2p_messages, 0u);
  EXPECT_EQ(delta.p2p_elements, 0u);
  EXPECT_EQ(delta.broadcast_elements, 0u);
  for (net::PartyId j = 0; j < 3; ++j)
    EXPECT_TRUE(net.delivered().p2p[j][3].empty());
  EXPECT_TRUE(net.delivered().bcast[3].empty());

  // Every scheduled spec that hit traffic shows up in the event log.
  EXPECT_EQ(engine->events().size(), 4u);
  EXPECT_EQ(engine->rounds_seen(), 2u);
}

TEST(FaultEngineTest, ReplayStaleSubstitutesEarlierTraffic) {
  net::FaultPlan plan;
  plan.replay_stale(2, 0, 1);
  auto engine = std::make_shared<net::FaultEngine>(plan, 3);
  net::Network net(3, 5);
  net.attach_faults(engine);

  const net::Payload old_msg = {Fld::from_u64(111)};
  net.begin_round();  // round 0: the message to be replayed later
  net.send(0, 1, old_msg);
  net.end_round();
  net.begin_round();  // round 1: channel idle
  net.end_round();
  net.begin_round();  // round 2: fresh message gets replaced by the stale one
  net.send(0, 1, {Fld::from_u64(222), Fld::from_u64(223)});
  net.end_round();
  ASSERT_EQ(net.delivered().p2p[1][0].size(), 1u);
  EXPECT_EQ(net.delivered().p2p[1][0][0], old_msg);
}

// --- byte-identity ---------------------------------------------------------

class FaultSoakTest : public ::testing::Test {
 protected:
  // The byte-identity assertions compare net.* metric deltas; start each
  // test from a zeroed process-wide registry (cached handles stay valid).
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

TEST_F(FaultSoakTest, EmptyPlanIsByteIdenticalToNoEngine) {
  for (std::uint64_t seed : {2014ULL, 77ULL}) {
    const RunResult baseline = execute_channel(seed, 1, std::nullopt, 0);
    ASSERT_FALSE(baseline.recording.rounds.empty());
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const RunResult with_empty =
          execute_channel(seed, threads, net::FaultPlan{}, 42);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      EXPECT_TRUE(identical(baseline.recording, with_empty.recording));
      EXPECT_EQ(baseline.output, with_empty.output);
      EXPECT_EQ(baseline.costs, with_empty.costs);
      EXPECT_EQ(baseline.net_metrics, with_empty.net_metrics);
      EXPECT_TRUE(with_empty.events.empty());
    }
  }
}

TEST_F(FaultSoakTest, SameSeedReplayIsByteIdentical) {
  // Every event lands on party 0's traffic: R1 slices (round 0), an R2
  // check word (round 1) and the delivery rounds 9 and 10, before the
  // crash silences it from round 11.
  net::FaultPlan plan;
  plan.corrupt_element(0, 0, net::kAllReceivers, 2)
      .corrupt_bit(1, 0, 1, 3)
      .drop(9, 0, 2)
      .extend(10, 0, net::kAllReceivers, 2)
      .crash(11, 0);
  const RunResult a = execute_channel(31337, 1, plan, 5150);
  const RunResult b = execute_channel(31337, 1, plan, 5150);
  EXPECT_TRUE(testutil::every_fault_hit(plan, a.recording));
  EXPECT_TRUE(identical(a.recording, b.recording));
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.costs, b.costs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_FALSE(a.events.empty());
  // The faulty run must differ from the clean baseline somewhere — the plan
  // is not a silent no-op.
  const RunResult clean = execute_channel(31337, 1, std::nullopt, 0);
  EXPECT_TRUE(
      audit::first_divergence(a.recording, clean.recording).has_value());
}

TEST_F(FaultSoakTest, FaultyRunsAreThreadCountIndependent) {
  net::FaultPlan plan;
  plan.corrupt_element(1, 0, net::kAllReceivers, 1)
      .truncate(0, 0, 3, 2)
      .crash(6, 0);
  const RunResult serial = execute_channel(90210, 1, plan, 8);
  const RunResult parallel = execute_channel(90210, 4, plan, 8);
  EXPECT_TRUE(testutil::every_fault_hit(plan, serial.recording));
  EXPECT_TRUE(identical(serial.recording, parallel.recording));
  EXPECT_EQ(serial.output, parallel.output);
  EXPECT_EQ(serial.costs, parallel.costs);
  EXPECT_EQ(serial.events, parallel.events);
}

// --- randomized soak -------------------------------------------------------

TEST_F(FaultSoakTest, CrashedCorruptDealerNeverBlocksHonestDelivery) {
  // A corrupt party that is silent from the very first round is the harshest
  // availability fault. Under the default-message convention its missing
  // traffic is read as canonical defaults, so it commits to the all-zero
  // contribution (indistinguishable from a silent non-sender) — and the
  // single honest sender's message must still land, inside the constant
  // round bill, with every blame record naming the crashed party.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    net::Network net(5, seed);
    net.corrupt_first(1);
    net::FaultPlan plan;
    plan.crash(0, 0);
    net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 4));
    std::vector<Fld> inputs(5, Fld::zero());
    inputs[2] = Fld::from_u64(0xBEEF);
    const auto out = chan.run(4, inputs);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    for (std::size_t i = 1; i < 5; ++i) EXPECT_TRUE(out.pass[i]);
    EXPECT_TRUE(out.delivered(inputs[2]));
    EXPECT_LE(out.costs.rounds, chan.expected_rounds());
    EXPECT_FALSE(net.blames().empty());
    for (const auto& b : net.blames()) EXPECT_EQ(b.accused, 0u);
  }
}

TEST_F(FaultSoakTest, RandomizedSoakHoldsRobustnessInvariants) {
  std::string bad;
  const auto env_seed = net::seed_from_env("GFOR14_FAULT_SEED", 20140806, &bad);
  ASSERT_TRUE(env_seed.has_value()) << "malformed GFOR14_FAULT_SEED=" << bad;
  const std::uint64_t master_seed = *env_seed;
  std::printf("GFOR14_FAULT_SEED=%llu (set this env var to replay)\n",
              static_cast<unsigned long long>(master_seed));
  Rng master(master_seed);

  constexpr std::size_t kScenarios = 208;
  std::size_t faults_applied = 0;  // events that hit at least one message
  for (std::size_t it = 0; it < kScenarios; ++it) {
    const std::uint64_t net_seed = master.next_u64();
    const std::uint64_t plan_seed = master.next_u64();
    const std::size_t n = 4 + it % 3;

    // Scheme rotation; the corruption budget honours each scheme's bound
    // (t < n/3 for BGW, t < n/2 otherwise) so every scenario is in-model.
    net::Network net(n, net_seed);
    vss::SchemeKind scheme = vss::SchemeKind::kRB;
    if (it % 3 == 1) scheme = vss::SchemeKind::kGGOR13;
    if (it % 3 == 2 && net.max_t_third() > 0) scheme = vss::SchemeKind::kBGW;
    const std::size_t t_max = scheme == vss::SchemeKind::kBGW
                                  ? net.max_t_third()
                                  : net.max_t_half();
    const std::size_t t = 1 + master.next_below(t_max);
    net.corrupt_first(t);

    // Message-level adversaries compose with the wire faults in a fraction
    // of the scenarios (RB only — the configuration the adversaries' own
    // differential tests pin down).
    if (scheme == vss::SchemeKind::kRB) {
      if (it % 7 == 3)
        net.attach_adversary(std::make_shared<net::SilentAdversary>());
      else if (it % 7 == 5)
        net.attach_adversary(
            std::make_shared<net::ShareCorruptingAdversary>());
    }

    auto vss = vss::make_vss(scheme, net);
    const bool practical = it % 8 == 0;
    anonchan::AnonChan chan(net, *vss,
                            practical
                                ? anonchan::Params::practical(n, 2 + it % 3)
                                : anonchan::Params::light(n));

    net::FaultPlan::RandomSpec rs;
    for (std::size_t p = 0; p < t; ++p)
      rs.targets.push_back(static_cast<net::PartyId>(p));
    rs.n = n;
    rs.rounds = chan.expected_rounds();
    rs.count = 1 + master.next_below(8);
    rs.max_amount = 1 + master.next_below(6);
    const auto plan = net::FaultPlan::random(master, rs);
    auto engine = std::make_shared<net::FaultEngine>(plan, plan_seed);
    net.attach_faults(engine);

    std::vector<Fld> inputs;
    for (std::size_t i = 0; i < n; ++i)
      inputs.push_back(Fld::from_u64(0x5000 + 16 * it + i));
    const net::PartyId receiver = static_cast<net::PartyId>(n - 1);

    SCOPED_TRACE("scenario=" + std::to_string(it) + " n=" + std::to_string(n) +
                 " t=" + std::to_string(t) +
                 " scheme=" + std::to_string(static_cast<int>(scheme)) +
                 " net_seed=" + std::to_string(net_seed) +
                 " plan_seed=" + std::to_string(plan_seed) +
                 " master_seed=" + std::to_string(master_seed));
    try {
      const auto out = chan.run(receiver, inputs);
      // Honest parties terminate with well-defined outputs, inside the
      // constant round bill, and are never disqualified.
      ASSERT_EQ(out.pass.size(), n);
      EXPECT_LE(out.costs.rounds, chan.expected_rounds());
      for (std::size_t i = t; i < n; ++i)
        EXPECT_TRUE(out.pass[i]) << "honest party " << i << " disqualified";
      // In-model faults only ever incriminate corrupt parties.
      for (const auto& b : net.blames())
        EXPECT_LT(b.accused, t) << "blame names honest party " << b.accused
                                << " (" << b.reason << ")";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "honest execution threw: " << e.what();
    }
    for (const auto& event : engine->events())
      if (event.messages_hit > 0) ++faults_applied;
  }
  // The soak must actually exercise the engine: only events that hit a
  // message count, scheduled no-ops do not.
  EXPECT_GT(faults_applied, kScenarios);
}

// --- concurrent-session fault soak (DESIGN.md §13) -------------------------
// Half of a co-scheduled fleet carries randomized in-model FaultPlans; the
// other half is clean. Fault isolation is the claim under test: a faulty
// session must blame/degrade exactly as it does alone (PR 4 contract), and
// the CLEAN sessions scheduled next to it must stay byte-identical to
// their solo baselines — a fault engine that leaked one rewritten payload
// across sessions diverges the recording comparison at the exact byte.
// Replayable via GFOR14_FAULT_SEED like the randomized soak above.
TEST_F(FaultSoakTest, ConcurrentFaultySessionsDoNotPerturbCleanOnes) {
  std::string bad;
  const auto env_seed = net::seed_from_env("GFOR14_FAULT_SEED", 20140808, &bad);
  ASSERT_TRUE(env_seed.has_value()) << "malformed GFOR14_FAULT_SEED=" << bad;
  const std::uint64_t master_seed = *env_seed;
  std::printf("GFOR14_FAULT_SEED=%llu (set this env var to replay)\n",
              static_cast<unsigned long long>(master_seed));

  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kN = 5;
  constexpr std::size_t kT = 2;  // in-model for RB: t < n/2

  // Session shapes are pure functions of (master_seed, id): odd ids draw a
  // random plan from an id-forked stream, even ids stay clean. The plan's
  // targets are the first kT parties; the session marks them corrupt.
  const auto make_config = [&](std::size_t id) {
    server::SessionConfig cfg;
    cfg.id = id;
    cfg.n = kN;
    cfg.scheme = vss::SchemeKind::kRB;
    cfg.kappa = 2;
    if (id % 2 == 1) {
      net::FaultPlan::RandomSpec rs;
      for (std::size_t p = 0; p < kT; ++p)
        rs.targets.push_back(static_cast<net::PartyId>(p));
      rs.n = kN;
      rs.rounds = 16;
      Rng plan_rng = Rng(master_seed).fork(0xFA017 + id);
      rs.count = 2 + plan_rng.next_below(5);
      rs.max_amount = 1 + plan_rng.next_below(4);
      cfg.faults = net::FaultPlan::random(plan_rng, rs);
    }
    return cfg;
  };

  // Solo baselines first, on the test thread, under distinct scopes.
  std::vector<server::SessionResult> solo;
  for (std::size_t id = 0; id < kSessions; ++id) {
    server::SessionConfig cfg = make_config(id);
    cfg.scope_label = "solo-soak/" + std::to_string(id);
    solo.push_back(server::run_attempt(cfg, master_seed, server::AttemptSpec{})
                       .result.value());
  }

  // Then the whole fleet in one wave of the runtime: one attempt each, so a
  // faulty session is never retried with its plan cleared.
  server::SupervisorOptions sup;
  sup.master_seed = master_seed;
  sup.threads = 4;
  sup.retry.max_attempts = 1;
  server::SupervisedRuntime runtime(sup);
  for (std::size_t id = 0; id < kSessions; ++id)
    ASSERT_TRUE(runtime.try_submit(make_config(id)));
  const auto report = runtime.drain();
  ASSERT_TRUE(report.failures.empty());
  ASSERT_EQ(report.completed.size(), kSessions);

  std::size_t faults_applied = 0;
  for (std::size_t id = 0; id < kSessions; ++id) {
    const auto& co = report.completed[id];
    ASSERT_EQ(co.config.id, id);
    SCOPED_TRACE("session=" + std::to_string(id) +
                 (id % 2 == 1 ? " (faulty)" : " (clean)") +
                 " master_seed=" + std::to_string(master_seed));
    // Both halves byte-identical to their own solo executions — clean
    // sessions prove fault isolation, faulty ones prove the fault engine's
    // seed-replay contract survives co-scheduling.
    if (const auto d = audit::first_divergence(solo[id].recording,
                                               co.recording))
      ADD_FAILURE() << d->format();
    EXPECT_EQ(solo[id].transcript_digest, co.transcript_digest);
    EXPECT_EQ(solo[id].costs, co.costs);
    EXPECT_EQ(solo[id].counters, co.counters);

    ASSERT_EQ(co.output.pass.size(), kN);
    if (id % 2 == 0) {
      // Clean sessions deliver everything and blame no one.
      EXPECT_EQ(co.messages_delivered, kN - 1);
      EXPECT_TRUE(co.blames.empty());
      EXPECT_TRUE(co.fault_events.empty());
      for (std::size_t p = 0; p < kN; ++p) EXPECT_TRUE(co.output.pass[p]);
    } else {
      // Faulty sessions degrade per the PR 4 contract: honest parties are
      // never disqualified and blames only ever name the corrupt targets.
      for (std::size_t p = kT; p < kN; ++p)
        EXPECT_TRUE(co.output.pass[p]) << "honest party " << p;
      for (const auto& b : co.blames)
        EXPECT_LT(b.accused, kT) << "blame names honest party " << b.accused
                                 << " (" << b.reason << ")";
      faults_applied += co.fault_events.size();
    }
  }
  // The faulty half must actually fire faults, not schedule no-ops only.
  EXPECT_GT(faults_applied, 0u);
}

}  // namespace
}  // namespace gfor14
