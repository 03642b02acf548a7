// Supervised streaming session runtime (DESIGN.md §14): the one way
// sessions execute, whether a caller streams them or admits a whole batch
// up front and drains it in one wave.
//
// Three pieces, one determinism story:
//
//  * Bounded admission queue with backpressure. submit() admits a session
//    while the runtime is running — it blocks while queue_capacity sessions
//    are already admitted-but-unfinished and returns false once admission
//    is closed; try_submit() is the non-blocking variant. Every session
//    walks the lifecycle admitted -> running -> completed | failed, with
//    retries looping failed attempts back to admitted.
//
//  * Crash containment. Every attempt executes through
//    server::run_attempt(), which catches the whole failure taxonomy of
//    net/failure.hpp (RoundLimitExceeded, ProtocolError, ContractViolation,
//    chaos-injected strand crashes, delivery shortfalls)
//    INSIDE the session — a failing session becomes a FailureRecord
//    carrying the exception kind, the failing round and the blame set, and
//    never an exception propagating out of the runtime or a hung strand.
//    Co-scheduled clean sessions stay byte-identical to their solo
//    baselines (the §13 isolation contract extends across neighbours
//    crashing and retrying).
//
//  * Deterministic retry/backoff. Execution proceeds in logical WAVES: each
//    run_wave() runs every eligible admitted session (admission order)
//    across the thread pool behind one barrier, then schedules retries.
//    A failed attempt with budget left re-enters the queue at wave
//    `current + 1 + min(1 << (attempt-1), 8)` — capped logical
//    exponential backoff, measured in waves, not wall time. Retries
//    draw a fresh Rng lineage derive_seeds(master_seed, id, attempt).
//    Because failure is a pure function of (config, master_seed, attempt,
//    policy) and wave arithmetic never consults the clock, a fixed
//    (master_seed, policy, admission sequence) replays the exact same
//    admit/fail/retry ScheduleEvent log at ANY thread count — which
//    tests/supervisor_test.cpp pins at 1 vs 4 strands.
//
// Engine health surfaces through the root metrics registry:
// server.{admitted,completed,failed,retried,failed_sessions} counters and
// server.{queue_depth,degraded,slo_breaches} gauges — exported via --prom /
// telemetry. On top sits the declarative SLO layer (slo.hpp): targets from
// SupervisorOptions::slo are re-evaluated at every wave barrier and each
// violated one becomes a structured breach (target, actual, since-wave)
// carried by slo_status() / RuntimeReport::slo and rendered by
// `gfor14-audit top` and the serve summary in place of a bare boolean.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "server/session.hpp"
#include "server/slo.hpp"

namespace gfor14::server {

/// Lifecycle of one admitted session.
enum class SessionState : std::uint8_t {
  kAdmitted,   ///< queued (initial admission or retry backoff elapsed)
  kRunning,    ///< executing inside the current wave
  kCompleted,  ///< an attempt succeeded; result collected
  kFailed,     ///< retry budget exhausted; FailureRecord(s) collected
};
const char* session_state_name(SessionState state);

/// Deterministic retry policy: everything here is logical (attempts, waves,
/// rounds, deliveries), so failures replay with the schedule. Retries always
/// run with the session's fault plan cleared (AttemptSpec::attempt).
struct RetryPolicy {
  /// Waves to wait before retry k is eligible: min(1 << (k-1), 8).
  static constexpr std::size_t kBackoffCap = 8;

  /// Total attempts per session (1 = no retry).
  std::size_t max_attempts = 3;
  /// Per-attempt round budget (Network watchdog); 0 = unlimited.
  std::size_t round_budget = 0;
  /// Minimum honest deliveries for success; 0 = off.
  std::size_t min_delivered = 0;

  /// Backoff in waves before attempt `attempt` (>= 1) becomes eligible.
  std::size_t backoff_waves(std::size_t attempt) const;
};

/// Deterministic chaos injection for churn soak: selected sessions get a
/// strand crash (net::InjectedCrash thrown at a round barrier) on their
/// early attempts. The crash round is a pure function of
/// (master_seed, session_id, attempt), so chaos replays with the schedule.
struct ChaosOptions {
  /// Crash round drawn uniformly from [kMinRound, kMaxRound).
  static constexpr std::size_t kMinRound = 2;
  static constexpr std::size_t kMaxRound = 10;

  bool enabled = false;
  /// Sessions with id % every == 0 crash (every = 1 crashes all).
  std::size_t every = 3;
  /// Inject only on attempts < crash_attempts (so retries can succeed).
  std::size_t crash_attempts = 1;
};

/// The crash round chaos would inject for (session, attempt), or nullopt.
/// Pure function of (options, master_seed, session_id, attempt).
std::optional<std::size_t> chaos_crash_round(const ChaosOptions& chaos,
                                             std::uint64_t master_seed,
                                             std::uint64_t session_id,
                                             std::size_t attempt);

struct SupervisorOptions {
  /// Root of every session's Rng lineage
  /// (seeds = derive_seeds(master, id, attempt)).
  std::uint64_t master_seed = 20140715;
  /// Concurrent session strands per wave; 0 selects
  /// common::default_threads() (GFOR14_THREADS / CLI --threads).
  std::size_t threads = 0;
  /// Bounded admission queue: submit() blocks while this many sessions are
  /// admitted-but-unfinished.
  std::size_t queue_capacity = 64;
  RetryPolicy retry;
  ChaosOptions chaos;
  /// Declarative health targets, re-evaluated at every wave barrier
  /// (slo.hpp). The default block checks nothing.
  SloTargets slo;
};

/// One entry of the replayable admit/fail/retry schedule. The sequence of
/// events (and every field except nothing — wall time is never recorded
/// here) is a pure function of (master_seed, policy, chaos, admission
/// sequence); format_schedule() renders it canonically for comparison.
struct ScheduleEvent {
  enum class Kind : std::uint8_t {
    kAdmit,     ///< session entered the queue
    kComplete,  ///< attempt succeeded
    kFail,      ///< attempt failed (contained); retry may follow
    kRetry,     ///< failed session re-queued for a later wave
    kGiveUp,    ///< retry budget exhausted; session permanently failed
  };
  Kind kind = Kind::kAdmit;
  std::size_t wave = 0;  ///< wave the event was recorded in
  std::uint64_t session_id = 0;
  std::size_t attempt = 0;
  /// kRetry: the wave the retry becomes eligible at.
  std::size_t eligible_wave = 0;
  /// kFail / kGiveUp: the contained failure's taxonomy kind.
  net::FailureKind failure = net::FailureKind::kUnknownException;
};
const char* schedule_event_name(ScheduleEvent::Kind kind);
/// One line per event, canonical — equal strings == equal schedules.
std::string format_schedule(const std::vector<ScheduleEvent>& events);

/// Everything one drained runtime produced. `completed`, `failures` and
/// `schedule` are deterministic (given the admission sequence); wall/latency
/// fields are environmental.
struct RuntimeReport {
  /// Successful sessions in completion order — (wave, admission) order,
  /// which is thread-count independent.
  std::vector<SessionResult> completed;
  /// Every contained failed attempt, in (wave, admission) order.
  std::vector<FailureRecord> failures;
  std::vector<ScheduleEvent> schedule;
  std::size_t admitted = 0;
  std::size_t completed_sessions = 0;
  std::size_t failed_sessions = 0;   ///< gave up after max_attempts
  std::size_t failed_attempts = 0;   ///< == failures.size()
  std::size_t retries = 0;
  std::size_t waves = 0;
  std::size_t threads = 0;
  std::size_t queue_high_water = 0;  ///< max queue depth observed
  std::size_t messages_delivered = 0;
  double retry_rate = 0.0;  ///< retries / admitted (deterministic)
  // Environmental:
  double wall_ms = 0.0;  ///< runtime construction -> drain return
  double messages_per_sec = 0.0;  ///< 0 when wall_ms == 0 (never inf/NaN)
  double p50_admit_to_complete_ms = 0.0;
  double p95_admit_to_complete_ms = 0.0;
  /// Structured health at drain time: every still-violated target with its
  /// since-wave anchor. The deterministic breaches (retry_rate,
  /// honest_delivery) replay at any thread count; the environmental ones
  /// (round wall, throughput) do not.
  SloStatus slo;
};

/// q-quantile of an ascending-sorted sample (nearest-rank with rounding);
/// 0 on an empty sample.
double percentile_sorted(const std::vector<double>& sorted, double q);

/// The supervised streaming runtime. Admission is thread-safe (feeders may
/// submit from any thread, with blocking backpressure); wave execution is
/// driven from ONE caller thread via run_wave()/drain() — the waves
/// themselves fan out over the shared ThreadPool. NOTE: a thread driving
/// waves must use try_submit (blocking submit from the wave thread would
/// wait on itself).
class SupervisedRuntime {
 public:
  explicit SupervisedRuntime(SupervisorOptions options = {});
  ~SupervisedRuntime();

  SupervisedRuntime(const SupervisedRuntime&) = delete;
  SupervisedRuntime& operator=(const SupervisedRuntime&) = delete;

  const SupervisorOptions& options() const { return options_; }
  std::size_t threads() const;

  /// Blocking bounded admission: waits while the queue is full, returns
  /// false once admission is closed. Session ids must be unique over the
  /// runtime's lifetime (lineage + scope identity) — duplicates throw.
  bool submit(SessionConfig config);
  /// Non-blocking admission: false when the queue is full or closed.
  bool try_submit(SessionConfig config);
  /// Closes admission: subsequent submits return false, blocked submitters
  /// wake and return false. Draining continues until the queue empties.
  void close();

  /// Sessions admitted but not yet completed/failed.
  std::size_t queue_depth() const;
  /// Highest queue depth ever observed.
  std::size_t queue_high_water() const;
  /// Lifecycle state; throws for an id never admitted.
  SessionState state_of(std::uint64_t id) const;
  /// True when no session is admitted or running (retry backlog included).
  bool idle() const;

  /// Runs one logical wave on the calling thread: every eligible admitted
  /// session executes across the pool behind one barrier, outcomes are
  /// recorded, retries scheduled. Returns the number of attempts executed
  /// (0 when the queue holds no work at all; a backlog of future-wave
  /// retries fast-forwards the wave counter instead of spinning).
  std::size_t run_wave();

  /// Closes admission, runs waves until the queue is empty, and returns the
  /// final report. Every admitted session is guaranteed terminal
  /// (completed or failed) in the report — no leaked sessions.
  RuntimeReport drain();

  /// Structured health as of the last wave barrier (or the initial empty
  /// status before any wave ran).
  SloStatus slo_status() const;

 private:
  struct Entry {
    SessionConfig config;
    SessionState state = SessionState::kAdmitted;
    std::size_t attempt = 0;        ///< next attempt to execute
    std::size_t eligible_wave = 0;  ///< earliest wave the entry may run in
    std::size_t admission_index = 0;
    std::chrono::steady_clock::time_point admitted_at;
  };

  bool admit_locked(SessionConfig&& config, std::unique_lock<std::mutex>&);
  std::size_t pending_locked() const;
  void set_queue_gauges_locked();
  /// Re-evaluates the SLO targets against live scoped metrics at a wave
  /// barrier and updates the server.slo_breaches gauge.
  void evaluate_slo_locked(std::size_t wave);
  AttemptSpec make_attempt_spec(const Entry& entry) const;

  SupervisorOptions options_;
  std::chrono::steady_clock::time_point started_;

  mutable std::mutex mu_;
  std::condition_variable space_;
  bool closed_ = false;
  bool draining_wave_ = false;
  std::size_t wave_ = 0;
  std::size_t waves_run_ = 0;
  std::size_t admission_counter_ = 0;
  std::size_t high_water_ = 0;
  std::map<std::uint64_t, Entry> entries_;  ///< every id ever admitted
  std::vector<ScheduleEvent> schedule_;
  std::vector<SessionResult> completed_;
  std::vector<FailureRecord> failures_;
  std::vector<double> admit_to_complete_ms_;
  std::size_t retries_ = 0;
  std::size_t failed_sessions_ = 0;      ///< give-ups so far
  std::size_t messages_delivered_ = 0;   ///< across completed sessions
  SloMonitor slo_;

  /// Root-registry health counters/gauges, resolved at construction.
  struct Meters {
    metrics::Counter* admitted = nullptr;
    metrics::Counter* completed = nullptr;
    metrics::Counter* failed = nullptr;
    metrics::Counter* retried = nullptr;
    metrics::Counter* failed_sessions = nullptr;
    metrics::Gauge* queue_depth = nullptr;
    metrics::Gauge* degraded = nullptr;
    metrics::Gauge* slo_breaches = nullptr;
  };
  Meters meters_;
};

}  // namespace gfor14::server
