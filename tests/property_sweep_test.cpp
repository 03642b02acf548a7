// Randomized property sweeps: the core invariants under many random seeds,
// inputs, thresholds and scheme choices — the "property-based" layer on
// top of the targeted unit suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <string>

#include "anonchan/anonchan.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

using vss::LinComb;
using vss::SchemeKind;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, VssRandomLinearCombinationsReconstructCorrectly) {
  // Property: for random batches and random linear combinations, public
  // reconstruction equals the plaintext combination — over every scheme.
  const std::uint64_t seed = GetParam();
  Rng meta(seed);
  for (SchemeKind kind :
       {SchemeKind::kBGW, SchemeKind::kRB, SchemeKind::kGGOR13}) {
    const std::size_t n = 4 + meta.next_below(4);  // 4..7
    net::Network net(n, seed * 3 + 1);
    auto vss = make_vss(kind, net);
    std::vector<std::vector<Fld>> batches(n);
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t m = 1 + meta.next_below(4);
      for (std::size_t k = 0; k < m; ++k)
        batches[d].push_back(Fld::random(meta));
    }
    vss->share_all(batches);
    for (int combo = 0; combo < 5; ++combo) {
      LinComb v;
      Fld expected = Fld::zero();
      for (std::size_t d = 0; d < n; ++d) {
        for (std::size_t k = 0; k < batches[d].size(); ++k) {
          if (meta.next_bool()) continue;
          const Fld c = Fld::random(meta);
          v.add({d, k}, c);
          expected += c * batches[d][k];
        }
      }
      const Fld constant = Fld::random(meta);
      v.add_constant(constant);
      expected += constant;
      ASSERT_EQ(vss->reconstruct_public({v})[0], expected)
          << "scheme " << vss->name() << " seed " << seed;
    }
  }
}

TEST_P(SeedSweep, VssCommitmentStableUnderRandomCorruptionSets) {
  // Property: for a random corruption set of size <= t, reconstruction of
  // an honest dealer's secret returns the dealt value even when every
  // corrupt party garbles its reveals.
  const std::uint64_t seed = GetParam();
  Rng meta(seed);
  const std::size_t n = 5 + meta.next_below(3);  // 5..7
  net::Network net(n, seed * 7 + 3);
  const std::size_t t = net.max_t_half();
  // Random corruption set avoiding a randomly chosen honest dealer.
  const std::size_t dealer = meta.next_below(n);
  std::size_t corrupted = 0;
  while (corrupted < t) {
    const std::size_t p = meta.next_below(n);
    if (p == dealer || net.is_corrupt(p)) continue;
    net.set_corrupt(p, true);
    ++corrupted;
  }
  auto vss = make_vss(SchemeKind::kRB, net);
  std::vector<std::vector<Fld>> batches(n);
  const Fld secret = Fld::random(meta);
  batches[dealer] = {secret};
  vss->share_all(batches);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  EXPECT_EQ(vss->reconstruct_public({LinComb::of({dealer, 0})})[0], secret);
}

TEST_P(SeedSweep, AnonChanDeliversRandomInputsWithRandomReceiver) {
  const std::uint64_t seed = GetParam();
  Rng meta(seed);
  const std::size_t n = 4 + meta.next_below(2);  // 4..5
  net::Network net(n, seed * 11 + 5);
  auto vss = make_vss(SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 3));
  std::vector<Fld> inputs(n);
  for (auto& x : inputs) x = Fld::random_nonzero(meta);
  const net::PartyId receiver =
      static_cast<net::PartyId>(meta.next_below(n));
  const auto out = chan.run(receiver, inputs);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(out.delivered(inputs[i]))
        << "seed " << seed << " party " << i;
  EXPECT_LE(out.y.size(), n);
}

TEST_P(SeedSweep, OutputMultisetEqualsInputMultisetWhenAllHonest) {
  // Stronger than delivery: with all-honest parties the output IS the
  // input multiset (no spurious extras survive the d/2 threshold at
  // practical parameters in these runs).
  const std::uint64_t seed = GetParam();
  Rng meta(seed);
  const std::size_t n = 4;
  net::Network net(n, seed * 13 + 7);
  auto vss = make_vss(SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 4));
  std::vector<Fld> inputs(n);
  for (auto& x : inputs) x = Fld::random_nonzero(meta);
  const auto out = chan.run(0, inputs);
  auto sorted = [](std::vector<Fld> v) {
    std::vector<std::uint64_t> u;
    for (Fld f : v) u.push_back(f.to_u64());
    std::sort(u.begin(), u.end());
    return u;
  };
  EXPECT_EQ(sorted(out.y), sorted(inputs)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// Appends every round's cost delta and delivered traffic to a string.
class TranscriptObserver : public net::RoundObserver {
 public:
  void on_round_end(const net::Network& nw,
                    const net::CostReport& delta) override {
    transcript += std::to_string(delta.p2p_elements) + "|" +
                  std::to_string(delta.broadcast_elements) + ":";
    const auto& tr = nw.delivered();
    for (std::size_t to = 0; to < nw.n(); ++to)
      for (std::size_t from = 0; from < nw.n(); ++from)
        for (const auto& payload : tr.p2p[to][from])
          for (Fld f : payload) transcript += std::to_string(f.to_u64()) + ",";
    for (std::size_t from = 0; from < nw.n(); ++from)
      for (const auto& payload : tr.bcast[from])
        for (Fld f : payload) transcript += std::to_string(f.to_u64()) + ",";
    transcript += "\n";
  }
  std::string transcript;
};

TEST(ParallelSweep, RandomConfigurationsMatchSerialByteForByte) {
  // Property: for RANDOM configurations (n, scheme, receiver, corruption,
  // lane count, inputs), a parallel execution is byte-identical to the
  // serial one — the randomized companion to the fixed-scenario
  // differential suite in parallel_engine_test.cpp.
  //
  // The sweep seed is fresh each run and printed below; replay any failure
  // exactly by setting the one environment variable GFOR14_SWEEP_SEED.
  std::random_device rd;
  const std::uint64_t fresh = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  std::string bad;
  const auto env_seed = net::seed_from_env("GFOR14_SWEEP_SEED", fresh, &bad);
  ASSERT_TRUE(env_seed.has_value()) << "malformed GFOR14_SWEEP_SEED=" << bad;
  const std::uint64_t sweep_seed = *env_seed;
  std::printf("[ParallelSweep] GFOR14_SWEEP_SEED=%llu (export to replay)\n",
              static_cast<unsigned long long>(sweep_seed));

  Rng meta(sweep_seed);
  for (int iter = 0; iter < 4; ++iter) {
    const std::size_t n = 4 + meta.next_below(2);        // 4..5
    const std::size_t kappa = 2 + meta.next_below(2);    // 2..3
    const std::size_t sessions = 1 + meta.next_below(2);  // 1..2
    const SchemeKind kind = std::array{SchemeKind::kRB, SchemeKind::kBGW,
                                       SchemeKind::kGGOR13}[meta.next_below(3)];
    const std::size_t threads = 2 + meta.next_below(3);  // 2..4
    const std::uint64_t net_seed = meta.next_u64();
    const net::PartyId receiver =
        static_cast<net::PartyId>(meta.next_below(n));
    const bool corrupt_one = meta.next_bool();
    std::vector<std::vector<Fld>> many(sessions);
    for (auto& inputs : many) {
      inputs.resize(n);
      for (auto& x : inputs) x = Fld::random_nonzero(meta);
    }

    auto run_once = [&](std::size_t lanes) {
      net::Network net(n, net_seed);
      net.set_threads(lanes);
      if (corrupt_one && receiver != 0) net.set_corrupt(0, true);
      const auto obs = std::make_shared<TranscriptObserver>();
      net.attach_observer(obs);
      auto vss = make_vss(kind, net);
      anonchan::AnonChan chan(net, *vss,
                              anonchan::Params::practical(n, kappa));
      const auto out = chan.run_many(receiver, many);
      std::string transcript = std::move(obs->transcript);
      for (const auto& session : out.sessions)
        for (Fld f : session.y)
          transcript += "y" + std::to_string(f.to_u64());
      for (bool p : out.pass) transcript += p ? '1' : '0';
      transcript += "r" + std::to_string(out.costs.rounds);
      return transcript;
    };

    const std::string serial = run_once(1);
    const std::string parallel = run_once(threads);
    ASSERT_EQ(serial, parallel)
        << "GFOR14_SWEEP_SEED=" << sweep_seed << " iter " << iter
        << " n=" << n << " kappa=" << kappa << " sessions=" << sessions
        << " threads=" << threads;
  }
}

}  // namespace
}  // namespace gfor14
