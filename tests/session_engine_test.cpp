// Session-isolation differential suite for the session runtime
// (DESIGN.md §13).
//
// The runtime's contract extends §8's "byte-identical at any lane count"
// to "byte-identical at any session interleaving": for every admitted
// session, the delivered transcript, protocol output, CostReport,
// blame/fault logs and scoped metrics counters must match the same
// SessionConfig executed alone on the test thread — at any runtime thread
// count, co-scheduled with any mix of other sessions (different n, scheme,
// params profile, lane request, fault plan). Every comparison below goes
// through the flight recorder so a violation pins the exact (round,
// channel, byte) where one session observed another.
//
// The suite also pins the runtime's supporting invariants: session scopes
// roll up exactly into the process root, the Rng lineage is a pure
// function of (master seed, session id) — independent of submission order
// — and the process-wide LagrangeCache keeps its hit+miss accounting exact
// under cross-session contention (the split may shift, the sum may not).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "audit/replay.hpp"
#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "fault_hits.hpp"
#include "math/lagrange_cache.hpp"
#include "math/poly.hpp"
#include "server/supervisor.hpp"

namespace gfor14 {
namespace {

constexpr std::uint64_t kMasterSeed = 20140808;

::testing::AssertionResult identical(const net::Recording& a,
                                     const net::Recording& b) {
  if (const auto d = audit::first_divergence(a, b))
    return ::testing::AssertionFailure() << d->format();
  return ::testing::AssertionSuccess();
}

std::string serialize_output(const anonchan::Output& out) {
  std::string s = "y:";
  for (Fld f : out.y) s += std::to_string(f.to_u64()) + ' ';
  s += "t:";
  for (const auto& [x, a] : out.t_pairs)
    s += std::to_string(x.to_u64()) + '/' + std::to_string(a.to_u64()) + ' ';
  s += "pass:";
  for (bool p : out.pass) s += p ? '1' : '0';
  return s;
}

std::string serialize_blames(const std::vector<net::BlameRecord>& blames) {
  std::string s;
  for (const auto& b : blames)
    s += std::to_string(b.accuser) + "->" + std::to_string(b.accused) + '@' +
         std::to_string(b.round) + ':' + b.reason + ';';
  return s;
}

std::string serialize_faults(const std::vector<net::FaultEvent>& events) {
  std::string s;
  for (const auto& e : events)
    s += std::to_string(static_cast<int>(e.spec.kind)) + '@' +
         std::to_string(e.round) + ':' + std::to_string(e.messages_hit) +
         '/' + std::to_string(e.elements_delta) + ';';
  return s;
}

/// The mixed fleet: session id i deterministically picks its shape, so the
/// same fleet can be rebuilt for solo baselines, permuted submission and
/// different runtime thread counts. Mixes n ∈ {4,5,6}, all three VSS
/// schemes, kappa ∈ {2,3}, both params profiles, lanes ∈ {1,4,hw} and
/// clean vs faulty sessions. (Field width is compile-time — GF(2^64) — so
// "different field" mixing is out of scope; see DESIGN.md §13.)
server::SessionConfig fleet_config(std::size_t i) {
  server::SessionConfig cfg;
  cfg.id = i;
  cfg.n = 4 + (i % 3);
  switch (i % 3) {
    case 0: cfg.scheme = vss::SchemeKind::kRB; break;
    case 1: cfg.scheme = vss::SchemeKind::kGGOR13; break;
    default: cfg.scheme = vss::SchemeKind::kBGW; break;
  }
  cfg.kappa = 2 + (i % 2);
  cfg.light = (i % 4) == 3;
  const std::size_t lane_mix[] = {1, 4, hardware_threads()};
  cfg.lanes = lane_mix[i % 3];
  if (i % 3 == 2) cfg.faults = testutil::party0_faults();
  return cfg;
}

/// Runs one config alone on the test thread under a distinct "solo/<id>"
/// scope — the baseline every co-scheduled execution is compared against.
server::SessionResult solo_baseline(std::size_t i) {
  server::SessionConfig cfg = fleet_config(i);
  cfg.scope_label = "solo/" + std::to_string(i);
  auto result = server::run_attempt(cfg, kMasterSeed, server::AttemptSpec{})
                    .result.value();
  if (!cfg.faults.empty()) {
    EXPECT_TRUE(testutil::every_fault_hit(cfg.faults, result.recording));
  }
  return result;
}

/// Admits every config up front and drains the runtime — one wave, one
/// attempt per session. Completed results come back in admission order.
std::vector<server::SessionResult> run_fleet(
    const std::vector<server::SessionConfig>& fleet, std::size_t threads) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = threads;
  sup.retry.max_attempts = 1;
  server::SupervisedRuntime runtime(sup);
  for (const auto& cfg : fleet) EXPECT_TRUE(runtime.try_submit(cfg));
  auto report = runtime.drain();
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.waves, 1u);
  return std::move(report.completed);
}

std::vector<server::SessionConfig> fleet_of(std::size_t sessions) {
  std::vector<server::SessionConfig> fleet;
  for (std::size_t i = 0; i < sessions; ++i) fleet.push_back(fleet_config(i));
  return fleet;
}

void expect_session_equal(const server::SessionResult& solo,
                          const server::SessionResult& co) {
  EXPECT_EQ(solo.config.id, co.config.id);
  EXPECT_TRUE(identical(solo.recording, co.recording));
  EXPECT_EQ(solo.transcript_digest, co.transcript_digest);
  EXPECT_EQ(solo.costs, co.costs);
  EXPECT_EQ(serialize_output(solo.output), serialize_output(co.output));
  EXPECT_EQ(solo.messages_delivered, co.messages_delivered);
  EXPECT_EQ(serialize_blames(solo.blames), serialize_blames(co.blames));
  EXPECT_EQ(serialize_faults(solo.fault_events),
            serialize_faults(co.fault_events));
  // The scoped counters are the per-session resource attribution (net.*,
  // vss.* and friends); names are scope-relative, so "solo/3" and
  // "session/3" snapshots compare directly.
  EXPECT_EQ(solo.counters, co.counters);
  EXPECT_EQ(solo.seeds.net_seed, co.seeds.net_seed);
  EXPECT_EQ(solo.seeds.fault_seed, co.seeds.fault_seed);
}

class SessionIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

TEST_F(SessionIsolationTest, ConcurrentSessionsMatchSoloBaselinesByteForByte) {
  // Solo baselines once for the largest fleet; every K reuses its prefix.
  constexpr std::size_t kMaxSessions = 16;
  std::vector<server::SessionResult> solo;
  for (std::size_t i = 0; i < kMaxSessions; ++i)
    solo.push_back(solo_baseline(i));
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    ASSERT_FALSE(solo[i].recording.rounds.empty()) << "session " << i;
    ASSERT_GT(solo[i].messages_delivered, 0u) << "session " << i;
  }

  for (std::size_t sessions : {std::size_t{1}, std::size_t{4}, kMaxSessions}) {
    const auto results = run_fleet(fleet_of(sessions), 4);
    ASSERT_EQ(results.size(), sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
      SCOPED_TRACE("K=" + std::to_string(sessions) + " session=" +
                   std::to_string(i));
      expect_session_equal(solo[i], results[i]);
    }
  }
}

TEST_F(SessionIsolationTest, InterleavingIsThreadCountIndependent) {
  // The same fleet at 1 runtime strand and at 4: per-session payloads
  // must be byte-identical (only wall-clock fields may differ).
  constexpr std::size_t kSessions = 8;
  const auto a = run_fleet(fleet_of(kSessions), 1);
  const auto b = run_fleet(fleet_of(kSessions), 4);
  ASSERT_EQ(a.size(), kSessions);
  ASSERT_EQ(b.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session=" + std::to_string(i));
    expect_session_equal(a[i], b[i]);
  }
}

TEST_F(SessionIsolationTest, SubmissionOrderDoesNotChangeAnySession) {
  // Seeds derive from (master, id) alone, scopes are keyed by id, and the
  // report preserves admission order — so a permuted fleet must produce
  // the identical per-id results.
  constexpr std::size_t kSessions = 6;
  auto reversed_fleet = fleet_of(kSessions);
  std::reverse(reversed_fleet.begin(), reversed_fleet.end());
  const auto a = run_fleet(fleet_of(kSessions), 4);
  const auto b = run_fleet(reversed_fleet, 4);
  ASSERT_EQ(a.size(), kSessions);
  ASSERT_EQ(b.size(), kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session=" + std::to_string(i));
    expect_session_equal(a[i], b[kSessions - 1 - i]);
  }
}

TEST_F(SessionIsolationTest, EverySessionReplayVerifiesAgainstItsRecording) {
  // The co-scheduled recordings drive a solo re-execution through the
  // audit verifier — the same check `serve --verify` and the CI job perform.
  const auto results = run_fleet(fleet_of(4), 4);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& s : results) {
    const auto divergence = server::replay_verify(s, kMasterSeed);
    EXPECT_FALSE(divergence.has_value())
        << "session " << s.config.id << ": " << divergence->format();
  }
}

TEST_F(SessionIsolationTest, SessionScopesRollUpExactlyIntoTheRoot) {
  constexpr std::size_t kSessions = 4;
  const auto results = run_fleet(fleet_of(kSessions), 4);
  ASSERT_EQ(results.size(), kSessions);

  // Sum each counter across the per-session snapshots; the root (zeroed in
  // SetUp) must hold exactly that total for every such counter.
  std::map<std::string, std::uint64_t> expected;
  for (const auto& s : results)
    for (const auto& [name, value] : s.counters) expected[name] += value;
  ASSERT_FALSE(expected.empty());
  auto& root = metrics::Registry::instance();
  for (const auto& [name, total] : expected)
    EXPECT_EQ(root.counter(name).value(), total) << name;

  // Re-rolling is idempotent: deltas were consumed, totals must not move.
  root.roll_up();
  for (const auto& [name, total] : expected)
    EXPECT_EQ(root.counter(name).value(), total) << name;
}

TEST_F(SessionIsolationTest, DuplicateSessionIdsAreRejected) {
  server::SupervisedRuntime runtime(server::SupervisorOptions{});
  EXPECT_TRUE(runtime.try_submit(fleet_config(0)));
  EXPECT_THROW(runtime.try_submit(fleet_config(0)), ContractViolation);
}

TEST_F(SessionIsolationTest, DrainedRuntimeAdmitsNothingMore) {
  server::SupervisedRuntime runtime(server::SupervisorOptions{});
  EXPECT_TRUE(runtime.try_submit(fleet_config(0)));
  (void)runtime.drain();
  EXPECT_FALSE(runtime.try_submit(fleet_config(1)));
  EXPECT_EQ(runtime.run_wave(), 0u);
}

TEST_F(SessionIsolationTest, SeedLineageIsAPureFunctionOfMasterAndId) {
  const auto a = server::derive_seeds(kMasterSeed, 7);
  const auto b = server::derive_seeds(kMasterSeed, 7);
  EXPECT_EQ(a.net_seed, b.net_seed);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  // Distinct ids (and distinct masters) must give distinct streams.
  std::map<std::uint64_t, std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 1024; ++id) {
    const auto s = server::derive_seeds(kMasterSeed, id);
    EXPECT_NE(s.net_seed, s.fault_seed);
    const auto [it, inserted] = seen.emplace(s.net_seed, id);
    EXPECT_TRUE(inserted) << "net_seed collision: ids " << it->second
                          << " and " << id;
  }
  const auto other = server::derive_seeds(kMasterSeed + 1, 7);
  EXPECT_NE(a.net_seed, other.net_seed);
}

TEST_F(SessionIsolationTest, LagrangeCacheStaysExactUnderContention) {
  // 16 raw threads (more than the pool would grant) hammer overlapping
  // coefficient keys concurrently. The invariant the cache promises
  // (lagrange_cache.hpp): every coefficients() call bumps EXACTLY one of
  // math.lagrange_cache.{hit,miss} — the split may shift under racing
  // misses, the sum may not.
  LagrangeCache::instance().clear();
  auto& hit =
      metrics::Registry::instance().counter("math.lagrange_cache.hit");
  auto& miss =
      metrics::Registry::instance().counter("math.lagrange_cache.miss");
  const std::uint64_t before = hit.value() + miss.value();

  // Overlapping key sets: party point prefixes of sizes 3..6, evaluated at
  // points 0..3 — the shapes VSS reconstruction uses.
  std::vector<std::vector<Fld>> keysets;
  for (std::size_t size = 3; size <= 6; ++size) {
    std::vector<Fld> xs;
    for (std::size_t i = 0; i < size; ++i) xs.push_back(eval_point<64>(i));
    keysets.push_back(std::move(xs));
  }

  constexpr std::size_t kThreads = 16;
  constexpr std::size_t kIters = 200;
  std::atomic<std::uint64_t> coeff_calls{0};
  std::atomic<std::size_t> wrong_values{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t iter = 0; iter < kIters; ++iter) {
        for (std::size_t k = 0; k < keysets.size(); ++k) {
          const auto& xs = keysets[k];
          const Fld at = Fld::from_u64((iter + t + k) % 4);
          const auto& cached =
              LagrangeCache::instance().coefficients(xs, at);
          coeff_calls.fetch_add(1, std::memory_order_relaxed);
          if (iter == 0 && cached != lagrange_coefficients(xs, at))
            wrong_values.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(wrong_values.load(), 0u);
  const std::uint64_t delta = hit.value() + miss.value() - before;
  EXPECT_EQ(delta, coeff_calls.load());
  // 16 threads × 4 key sets × 4 eval points: at most 16 distinct keys may
  // cache — everything else must have been a hit.
  EXPECT_GE(hit.value(), delta - kThreads * keysets.size() * 4);
}

}  // namespace
}  // namespace gfor14
