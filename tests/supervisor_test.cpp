// Supervised streaming runtime suite (DESIGN.md §14).
//
// Pins the three contracts the supervisor adds on top of the §13 session
// isolation story:
//
//  1. Schedule determinism: the full admit/fail/retry ScheduleEvent log,
//     the completed results and the contained FailureRecords of a fixed
//     (master_seed, policy, chaos, admission sequence) are byte-identical
//     at 1 and 4 engine threads.
//  2. Crash containment: injected strand crashes, round-budget overruns and
//     whole-fleet failures become FailureRecords (kind, failing round,
//     blame set) — never a propagated exception, and never a session left
//     in a non-terminal state after drain.
//  3. Isolation under churn: clean co-scheduled sessions stay byte-identical
//     to solo run_attempt() baselines while their neighbours crash and
//     retry; a retried session's transcript differs from its attempt-0
//     recording only through the (master, id, attempt) Rng lineage.
//
// Plus the report rate-math guards (empty sample / empty drain never
// yields inf or NaN) and the bounded-queue backpressure behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "audit/replay.hpp"
#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "fault_hits.hpp"
#include "server/supervisor.hpp"

namespace gfor14 {
namespace {

constexpr std::uint64_t kMasterSeed = 20260808;

::testing::AssertionResult identical(const net::Recording& a,
                                     const net::Recording& b) {
  if (const auto d = audit::first_divergence(a, b))
    return ::testing::AssertionFailure() << d->format();
  return ::testing::AssertionSuccess();
}

/// Small mixed fleet: id picks n / scheme / profile and whether the session
/// carries wire faults, so the same fleet rebuilds for baselines and for
/// both thread counts.
server::SessionConfig fleet_config(std::size_t i) {
  server::SessionConfig cfg;
  cfg.id = i;
  cfg.n = 4 + (i % 2);
  cfg.scheme = (i % 2) ? vss::SchemeKind::kGGOR13 : vss::SchemeKind::kRB;
  cfg.kappa = 2;
  cfg.light = (i % 4) == 1;
  if (i % 4 == 2) cfg.faults = testutil::party0_faults();
  return cfg;
}

/// Chaos plan used across the suite: sessions with id % 3 == 0 crash on
/// attempt 0 and run clean from attempt 1 on.
server::ChaosOptions churn_chaos() {
  server::ChaosOptions chaos;
  chaos.enabled = true;
  chaos.every = 3;
  chaos.crash_attempts = 1;
  return chaos;
}

server::SupervisorOptions churn_options(std::size_t threads) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = threads;
  sup.queue_capacity = 64;
  sup.retry.max_attempts = 3;
  sup.chaos = churn_chaos();
  return sup;
}

server::RuntimeReport run_fleet(server::SupervisorOptions sup,
                                std::size_t sessions) {
  server::SupervisedRuntime runtime(sup);
  for (std::size_t i = 0; i < sessions; ++i) {
    const bool admitted = runtime.try_submit(fleet_config(i));
    EXPECT_TRUE(admitted);
  }
  return runtime.drain();
}

/// The attempt-0 solo baseline of fleet_config(id), run on the test thread
/// under its own "solo/<id>" scope.
server::SessionResult solo_baseline(std::uint64_t id) {
  server::SessionConfig cfg = fleet_config(id);
  cfg.scope_label = "solo/" + std::to_string(id);
  auto result = server::run_attempt(cfg, kMasterSeed, server::AttemptSpec{})
                    .result.value();
  if (!cfg.faults.empty()) {
    EXPECT_TRUE(testutil::every_fault_hit(cfg.faults, result.recording));
  }
  return result;
}

std::string describe_failures(const std::vector<server::FailureRecord>& fs) {
  std::string s;
  for (const auto& f : fs) s += f.describe() + "\n";
  return s;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

TEST_F(SupervisorTest, ScheduleReplaysIdenticallyAtAnyThreadCount) {
  constexpr std::size_t kSessions = 9;
  const auto serial = run_fleet(churn_options(1), kSessions);
  metrics::Registry::reset_for_test();
  const auto parallel = run_fleet(churn_options(4), kSessions);

  // The whole admit/fail/retry schedule, rendered canonically, must match.
  EXPECT_EQ(server::format_schedule(serial.schedule),
            server::format_schedule(parallel.schedule));
  // Deterministic aggregates.
  EXPECT_EQ(serial.admitted, parallel.admitted);
  EXPECT_EQ(serial.completed_sessions, parallel.completed_sessions);
  EXPECT_EQ(serial.failed_sessions, parallel.failed_sessions);
  EXPECT_EQ(serial.retries, parallel.retries);
  EXPECT_EQ(serial.waves, parallel.waves);
  EXPECT_EQ(serial.retry_rate, parallel.retry_rate);
  EXPECT_EQ(serial.messages_delivered, parallel.messages_delivered);
  // Contained failures match field-for-field (describe() covers id,
  // attempt, kind, failing round and blame set).
  EXPECT_EQ(describe_failures(serial.failures),
            describe_failures(parallel.failures));
  // Completed results arrive in the same (wave, admission) order with the
  // same transcripts.
  ASSERT_EQ(serial.completed.size(), parallel.completed.size());
  for (std::size_t i = 0; i < serial.completed.size(); ++i) {
    SCOPED_TRACE("completed[" + std::to_string(i) + "]");
    EXPECT_EQ(serial.completed[i].config.id, parallel.completed[i].config.id);
    EXPECT_EQ(serial.completed[i].attempt, parallel.completed[i].attempt);
    EXPECT_EQ(serial.completed[i].transcript_digest,
              parallel.completed[i].transcript_digest);
    EXPECT_TRUE(identical(serial.completed[i].recording,
                          parallel.completed[i].recording));
  }
}

TEST_F(SupervisorTest, CleanSessionsStayByteIdenticalWhileNeighborsCrash) {
  // ids 0, 3, 6 crash on attempt 0 and retry; the others run clean. Every
  // clean session must be byte-identical to its solo run_attempt()
  // baseline — the §13 isolation contract extended across churn.
  constexpr std::size_t kSessions = 8;
  const auto report = run_fleet(churn_options(4), kSessions);
  ASSERT_EQ(report.completed_sessions, kSessions);
  ASSERT_EQ(report.failed_attempts, 3u);  // ids 0, 3, 6

  for (const auto& result : report.completed) {
    if (result.attempt != 0) continue;  // retried neighbours checked below
    SCOPED_TRACE("session " + std::to_string(result.config.id));
    const auto baseline = solo_baseline(result.config.id);
    EXPECT_TRUE(identical(baseline.recording, result.recording));
    EXPECT_EQ(baseline.transcript_digest, result.transcript_digest);
    EXPECT_EQ(baseline.costs, result.costs);
    EXPECT_EQ(baseline.messages_delivered, result.messages_delivered);
    EXPECT_EQ(baseline.counters, result.counters);
  }
}

TEST_F(SupervisorTest, RetryLineageIsFreshButPinnedToSessionAndAttempt) {
  // Attempt 0 must reproduce the original two-argument lineage; retries
  // re-fork by attempt, giving fresh independent seeds.
  const auto a0 = server::derive_seeds(kMasterSeed, 5);
  const auto a0_explicit = server::derive_seeds(kMasterSeed, 5, 0);
  EXPECT_EQ(a0.net_seed, a0_explicit.net_seed);
  EXPECT_EQ(a0.fault_seed, a0_explicit.fault_seed);
  const auto a1 = server::derive_seeds(kMasterSeed, 5, 1);
  const auto a2 = server::derive_seeds(kMasterSeed, 5, 2);
  EXPECT_NE(a0.net_seed, a1.net_seed);
  EXPECT_NE(a1.net_seed, a2.net_seed);
  // Pure function of (master, id, attempt).
  EXPECT_EQ(a1.net_seed, server::derive_seeds(kMasterSeed, 5, 1).net_seed);

  // End to end: a crashed session's successful retry carries attempt 1,
  // runs under the attempt-1 seeds, and its transcript differs from the
  // attempt-0 solo baseline of the same config — only the lineage changed.
  server::SupervisorOptions sup = churn_options(2);
  sup.chaos.every = 1;  // every session crashes on attempt 0
  const auto report = run_fleet(sup, 2);
  ASSERT_EQ(report.completed_sessions, 2u);
  ASSERT_EQ(report.failed_attempts, 2u);
  for (const auto& result : report.completed) {
    SCOPED_TRACE("session " + std::to_string(result.config.id));
    EXPECT_EQ(result.attempt, 1u);
    const auto expect_seeds =
        server::derive_seeds(kMasterSeed, result.config.id, 1);
    EXPECT_EQ(result.seeds.net_seed, expect_seeds.net_seed);

    const auto attempt0 = solo_baseline(result.config.id);
    EXPECT_NE(attempt0.transcript_digest, result.transcript_digest);

    // And the retried transcript still replay-verifies under its own
    // (id, attempt) lineage.
    const auto divergence = server::replay_verify(result, kMasterSeed);
    EXPECT_FALSE(divergence.has_value())
        << "session " << result.config.id << ": " << divergence->format();
  }
}

TEST_F(SupervisorTest, InjectedCrashesAreContainedWithRoundAndBlame) {
  server::SupervisorOptions sup = churn_options(4);
  sup.retry.max_attempts = 1;  // no retries: every crash is a give-up
  sup.chaos.every = 1;
  const auto report = run_fleet(sup, 3);
  EXPECT_EQ(report.completed_sessions, 0u);
  EXPECT_EQ(report.failed_sessions, 3u);
  ASSERT_EQ(report.failures.size(), 3u);
  for (const auto& f : report.failures) {
    SCOPED_TRACE("session " + std::to_string(f.session_id));
    EXPECT_EQ(f.kind, net::FailureKind::kInjectedCrash);
    const auto planned = server::chaos_crash_round(sup.chaos, kMasterSeed,
                                                   f.session_id, 0);
    ASSERT_TRUE(planned.has_value());
    EXPECT_EQ(f.failing_round, *planned);
    EXPECT_FALSE(f.what.empty());
  }
}

TEST_F(SupervisorTest, RoundBudgetOverrunFailsWithRoundLimit) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = 2;
  sup.retry.max_attempts = 2;
  sup.retry.round_budget = 3;  // far below the rounds a session needs
  const auto report = run_fleet(sup, 2);
  EXPECT_EQ(report.completed_sessions, 0u);
  EXPECT_EQ(report.failed_sessions, 2u);
  EXPECT_EQ(report.failures.size(), 4u);  // 2 sessions x 2 attempts
  for (const auto& f : report.failures) {
    EXPECT_EQ(f.kind, net::FailureKind::kRoundLimit);
    EXPECT_EQ(f.failing_round, 3u);
  }
  // The schedule records the full lifecycle: admit, fail, retry with capped
  // exponential backoff (base 1: retry 1 eligible at wave 0+1+1), second
  // fail, give-up — all deterministic.
  const std::string schedule = server::format_schedule(report.schedule);
  EXPECT_NE(schedule.find("w0 admit id=0 attempt=0"), std::string::npos)
      << schedule;
  EXPECT_NE(schedule.find("w0 fail id=0 attempt=0 cause=round_limit"),
            std::string::npos)
      << schedule;
  EXPECT_NE(schedule.find("w0 retry id=0 attempt=1 eligible=w2"),
            std::string::npos)
      << schedule;
  EXPECT_NE(schedule.find("w2 give_up id=0 attempt=1 cause=round_limit"),
            std::string::npos)
      << schedule;
}

TEST_F(SupervisorTest, BackoffIsCappedExponential) {
  server::RetryPolicy policy;  // base 1, cap 8
  EXPECT_EQ(policy.backoff_waves(1), 1u);
  EXPECT_EQ(policy.backoff_waves(2), 2u);
  EXPECT_EQ(policy.backoff_waves(3), 4u);
  EXPECT_EQ(policy.backoff_waves(4), 8u);
  EXPECT_EQ(policy.backoff_waves(5), 8u);  // capped
  EXPECT_EQ(policy.backoff_waves(70), 8u);  // shift-overflow safe
}

TEST_F(SupervisorTest, ChaosCrashRoundIsAPureFunctionOfScheduleCoords) {
  const auto chaos = churn_chaos();
  const auto a = server::chaos_crash_round(chaos, kMasterSeed, 3, 0);
  const auto b = server::chaos_crash_round(chaos, kMasterSeed, 3, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_GE(*a, server::ChaosOptions::kMinRound);
  EXPECT_LT(*a, server::ChaosOptions::kMaxRound);
  // Non-selected ids and exhausted crash_attempts are spared; disabled
  // chaos never injects.
  EXPECT_FALSE(server::chaos_crash_round(chaos, kMasterSeed, 4, 0));
  EXPECT_FALSE(server::chaos_crash_round(chaos, kMasterSeed, 3, 1));
  server::ChaosOptions off;
  EXPECT_FALSE(server::chaos_crash_round(off, kMasterSeed, 3, 0));
}

TEST_F(SupervisorTest, BackpressureBoundsTheQueueAndNothingLeaks) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = 2;
  sup.queue_capacity = 2;
  sup.retry.max_attempts = 1;
  server::SupervisedRuntime runtime(sup);

  // A feeder thread pushes 6 light sessions through a queue of 2 with
  // blocking submits; the main thread drives waves. The queue must never
  // exceed its capacity and every session must reach a terminal state.
  constexpr std::size_t kSessions = 6;
  std::atomic<bool> fed{false};
  std::thread feeder([&] {
    for (std::size_t i = 0; i < kSessions; ++i) {
      server::SessionConfig cfg;
      cfg.id = i;
      cfg.n = 4;
      cfg.light = true;
      EXPECT_TRUE(runtime.submit(cfg));
    }
    fed.store(true);
  });
  while (!fed.load() || !runtime.idle()) {
    if (runtime.run_wave() == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  feeder.join();
  const auto report = runtime.drain();

  EXPECT_LE(report.queue_high_water, sup.queue_capacity);
  EXPECT_EQ(report.admitted, kSessions);
  EXPECT_EQ(report.completed_sessions, kSessions);
  EXPECT_EQ(report.failed_sessions, 0u);
  EXPECT_EQ(runtime.queue_depth(), 0u);
  for (std::size_t i = 0; i < kSessions; ++i)
    EXPECT_EQ(runtime.state_of(i), server::SessionState::kCompleted);
  // Closed runtime rejects both admission paths.
  server::SessionConfig late;
  late.id = 99;
  late.n = 4;
  late.light = true;
  EXPECT_FALSE(runtime.submit(late));
  EXPECT_FALSE(runtime.try_submit(late));
}

TEST_F(SupervisorTest, TrySubmitRejectsWhenTheQueueIsFull) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.queue_capacity = 1;
  server::SupervisedRuntime runtime(sup);
  server::SessionConfig a = fleet_config(0);
  server::SessionConfig b = fleet_config(1);
  EXPECT_TRUE(runtime.try_submit(a));
  EXPECT_FALSE(runtime.try_submit(b));  // full, non-blocking
  EXPECT_EQ(runtime.run_wave(), 1u);    // frees the slot
  EXPECT_TRUE(runtime.try_submit(b));
  const auto report = runtime.drain();
  EXPECT_EQ(report.completed_sessions, 2u);
}

TEST_F(SupervisorTest, HealthCountersTrackTheSchedule) {
  const auto report = run_fleet(churn_options(2), 6);  // ids 0, 3 crash
  auto& root = metrics::Registry::instance();
  EXPECT_EQ(root.counter("server.admitted").value(), report.admitted);
  EXPECT_EQ(root.counter("server.completed").value(),
            report.completed_sessions);
  EXPECT_EQ(root.counter("server.failed").value(), report.failed_attempts);
  EXPECT_EQ(root.counter("server.retried").value(), report.retries);
  EXPECT_EQ(root.counter("server.failed_sessions").value(),
            report.failed_sessions);
  EXPECT_EQ(root.gauge("server.queue_depth").value(), 0.0);
  // Everything retried to success: the engine ends healthy.
  EXPECT_EQ(report.failed_sessions, 0u);
  EXPECT_EQ(root.gauge("server.degraded").value(), 0.0);
}

TEST_F(SupervisorTest, EngineRateMathNeverYieldsInfOrNaN) {
  // percentile_sorted is total on empty samples.
  EXPECT_EQ(server::percentile_sorted({}, 0.5), 0.0);

  // And a drained-empty runtime reports all-zero rates, not NaN.
  server::SupervisedRuntime runtime(server::SupervisorOptions{});
  const auto report = runtime.drain();
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_TRUE(std::isfinite(report.messages_per_sec));
  EXPECT_EQ(report.p50_admit_to_complete_ms, 0.0);
  EXPECT_EQ(report.retry_rate, 0.0);
}

TEST_F(SupervisorTest, BatchEngineContainsFailuresInsteadOfThrowing) {
  // A config that violates a precondition (n >= 3) dies inside its strand
  // before its Network exists; the wave's catch-all turns it into exactly
  // one FailureRecord, and its healthy neighbour in the same wave completes
  // byte-identical to its solo run.
  server::SessionConfig bad = fleet_config(0);
  bad.n = 2;
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = 2;
  sup.retry.max_attempts = 1;
  server::SupervisedRuntime runtime(sup);
  ASSERT_TRUE(runtime.try_submit(bad));
  ASSERT_TRUE(runtime.try_submit(fleet_config(1)));
  const auto report = runtime.drain();

  EXPECT_EQ(report.waves, 1u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].session_id, bad.id);
  EXPECT_EQ(report.failures[0].kind, net::FailureKind::kContractViolation);
  EXPECT_EQ(report.failed_sessions, 1u);
  EXPECT_EQ(runtime.state_of(bad.id), server::SessionState::kFailed);

  ASSERT_EQ(report.completed.size(), 1u);
  const auto& good = report.completed[0];
  EXPECT_EQ(good.config.id, 1u);
  const auto baseline = solo_baseline(1);
  EXPECT_TRUE(identical(baseline.recording, good.recording));
  EXPECT_EQ(baseline.transcript_digest, good.transcript_digest);
  EXPECT_EQ(baseline.costs, good.costs);
  EXPECT_EQ(baseline.messages_delivered, good.messages_delivered);
  EXPECT_GT(good.messages_delivered, 0u);
  EXPECT_EQ(baseline.counters, good.counters);
}

TEST_F(SupervisorTest, RetryRateSloBreachesAndRecoversIdenticallyAcrossLanes) {
  // Deterministic SLO: retry_rate derives from the replayable schedule, so
  // its breach wave, its since-wave anchor and its recovery wave must be
  // byte-identical at 1 and 4 engine threads.
  const auto drive = [](std::size_t threads) {
    metrics::Registry::reset_for_test();
    server::SupervisorOptions sup = churn_options(threads);
    sup.slo.max_retry_rate = 0.25;
    server::SupervisedRuntime runtime(sup);
    std::vector<server::SloStatus> statuses;
    // Wave 0: id 0 crashes (chaos), ids 1-2 complete — rate 1/3 breaches.
    for (std::size_t id : {0u, 1u, 2u})
      EXPECT_TRUE(runtime.try_submit(fleet_config(id)));
    EXPECT_EQ(runtime.run_wave(), 3u);
    statuses.push_back(runtime.slo_status());
    // Wave 2 (the retry's backoff skips wave 1): the retry completes; the
    // rate is unchanged, so the breach persists with its wave-0 anchor.
    // Legacy degradation (pending retry) has cleared — the gauge now trips
    // on the SLO alone.
    EXPECT_EQ(runtime.run_wave(), 1u);
    statuses.push_back(runtime.slo_status());
    EXPECT_EQ(metrics::Registry::instance().gauge("server.degraded").value(),
              1.0);
    // Wave 3: six clean arrivals dilute the rate to 1/9 — recovery.
    for (std::size_t id : {4u, 5u, 7u, 8u, 10u, 11u})
      EXPECT_TRUE(runtime.try_submit(fleet_config(id)));
    EXPECT_EQ(runtime.run_wave(), 6u);
    statuses.push_back(runtime.slo_status());
    const auto report = runtime.drain();
    EXPECT_EQ(report.failed_sessions, 0u);
    EXPECT_FALSE(report.slo.degraded());
    statuses.push_back(report.slo);
    return statuses;
  };

  const auto serial = drive(1);
  const auto parallel = drive(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    EXPECT_EQ(serial[i].to_json().dump(2), parallel[i].to_json().dump(2));
  }

  ASSERT_EQ(serial[0].breaches.size(), 1u);
  EXPECT_EQ(serial[0].wave, 0u);
  EXPECT_EQ(serial[0].breaches[0].slo, "retry_rate");
  EXPECT_EQ(serial[0].breaches[0].target, 0.25);
  EXPECT_EQ(serial[0].breaches[0].actual, 1.0 / 3.0);
  EXPECT_EQ(serial[0].breaches[0].since_wave, 0u);
  EXPECT_EQ(serial[0].describe(),
            "DEGRADED (retry_rate 0.33 > 0.25 (since wave 0))");
  // Anchored, not restamped: wave 2 still reports "since wave 0".
  ASSERT_EQ(serial[1].breaches.size(), 1u);
  EXPECT_EQ(serial[1].wave, 2u);
  EXPECT_EQ(serial[1].breaches[0].since_wave, 0u);
  // Recovered: the breach and its anchor are gone.
  EXPECT_EQ(serial[2].wave, 3u);
  EXPECT_FALSE(serial[2].degraded());
  EXPECT_EQ(serial[2].describe(), "healthy");
  EXPECT_EQ(metrics::Registry::instance().gauge("server.slo_breaches").value(),
            0.0);
}

TEST_F(SupervisorTest, HonestDeliverySloSeparatesFromTheLegacyFlag) {
  // honest_delivery = completed / terminal sessions. A permanent give-up
  // breaches it immediately; later clean completions raise the fraction
  // back to the target — structured recovery even though the legacy boolean
  // (any failed session, ever) stays tripped forever.
  const auto drive = [](std::size_t threads) {
    metrics::Registry::reset_for_test();
    server::SupervisorOptions sup = churn_options(threads);
    sup.retry.max_attempts = 1;  // the chaos crash becomes a give-up
    sup.slo.min_honest_delivery = 0.9;
    server::SupervisedRuntime runtime(sup);
    std::vector<server::SloStatus> statuses;
    // Wave 0: id 0 gives up, id 1 completes — honest 1/2.
    for (std::size_t id : {0u, 1u})
      EXPECT_TRUE(runtime.try_submit(fleet_config(id)));
    EXPECT_EQ(runtime.run_wave(), 2u);
    statuses.push_back(runtime.slo_status());
    // Wave 1: four clean completions — 5/6 still under 0.9.
    for (std::size_t id : {4u, 5u, 7u, 8u})
      EXPECT_TRUE(runtime.try_submit(fleet_config(id)));
    EXPECT_EQ(runtime.run_wave(), 4u);
    statuses.push_back(runtime.slo_status());
    // Wave 2: four more — 9/10 meets the target exactly, recovery.
    for (std::size_t id : {10u, 11u, 13u, 14u})
      EXPECT_TRUE(runtime.try_submit(fleet_config(id)));
    EXPECT_EQ(runtime.run_wave(), 4u);
    statuses.push_back(runtime.slo_status());
    const auto report = runtime.drain();
    EXPECT_EQ(report.failed_sessions, 1u);  // legacy story: still failed
    EXPECT_FALSE(report.slo.degraded());    // structured story: recovered
    statuses.push_back(report.slo);
    return statuses;
  };

  const auto serial = drive(1);
  const auto parallel = drive(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("transition " + std::to_string(i));
    EXPECT_EQ(serial[i].to_json().dump(2), parallel[i].to_json().dump(2));
  }

  ASSERT_EQ(serial[0].breaches.size(), 1u);
  EXPECT_EQ(serial[0].breaches[0].slo, "honest_delivery");
  EXPECT_EQ(serial[0].breaches[0].actual, 0.5);
  EXPECT_EQ(serial[0].breaches[0].since_wave, 0u);
  ASSERT_EQ(serial[1].breaches.size(), 1u);
  EXPECT_EQ(serial[1].breaches[0].actual, 5.0 / 6.0);
  EXPECT_EQ(serial[1].breaches[0].since_wave, 0u);  // anchored at first sight
  EXPECT_EQ(serial[1].describe(),
            "DEGRADED (honest_delivery 0.83 < 0.90 (since wave 0))");
  EXPECT_FALSE(serial[2].degraded());
  EXPECT_FALSE(serial[3].degraded());
}

TEST_F(SupervisorTest, ChurnSoakDrainsCleanAndReplayVerifies) {
  // Bounded end-to-end churn soak: streaming admission, crashes, retries —
  // then every completed transcript must replay byte-identically solo and
  // every admitted session must be terminal.
  server::SupervisorOptions sup = churn_options(4);
  sup.queue_capacity = 3;
  server::SupervisedRuntime runtime(sup);
  constexpr std::size_t kSessions = 9;
  std::atomic<bool> fed{false};
  std::thread feeder([&] {
    for (std::size_t i = 0; i < kSessions; ++i)
      EXPECT_TRUE(runtime.submit(fleet_config(i)));
    fed.store(true);
  });
  while (!fed.load() || !runtime.idle()) {
    if (runtime.run_wave() == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  feeder.join();
  const auto report = runtime.drain();

  EXPECT_EQ(report.admitted, kSessions);
  EXPECT_EQ(report.completed_sessions + report.failed_sessions, kSessions);
  EXPECT_EQ(report.failed_sessions, 0u);  // crashes all retried to success
  EXPECT_GT(report.retries, 0u);
  EXPECT_LE(report.queue_high_water, sup.queue_capacity);
  for (const auto& result : report.completed) {
    const auto divergence = server::replay_verify(result, kMasterSeed);
    EXPECT_FALSE(divergence.has_value())
        << "session " << result.config.id << " attempt " << result.attempt
        << ": " << divergence->format();
  }
}

}  // namespace
}  // namespace gfor14
