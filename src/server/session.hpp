// One logical AnonChan session (DESIGN.md §13): a self-contained protocol
// execution with its own Network, Rng lineage, fault plan, flight recorder
// and scoped metrics registry.
//
// A session owns NOTHING shared: every piece of mutable protocol state —
// party RNGs, pending queues, fault engine, recorder — is private to the
// session, so any number of sessions may execute concurrently (on the
// common::ThreadPool, via server::SupervisedRuntime) without observing each
// other. The only cross-session state is immutable-after-insert pure-value
// caches (LagrangeCache / EncodePlan tables) and the atomic metrics
// counters, neither of which can carry information INTO a transcript. The
// isolation contract this buys is the one the differential suites
// (tests/session_engine_test.cpp, tests/supervisor_test.cpp) pin down: a
// session's delivered transcript, CostReport, blame/fault logs and scoped
// net./vss. counters are byte-identical whether the session runs alone on
// the calling thread or interleaved with any mix of other sessions at any
// runtime thread count.
//
// Rng lineage: all of a session's randomness derives from
// derive_seeds(master_seed, id, attempt) — a fresh fork of the master
// stream keyed by the session id (and, for retries, re-forked by the
// attempt number), independent of submission order and of every other
// session's draws. Two sessions share entropy only if they share an id,
// which SupervisedRuntime::submit rejects.
//
// run_attempt() is the one way a session executes: every defined failure
// mode is caught INSIDE the call, while the session's Network is still
// alive, and folded into a structured FailureRecord (exception taxonomy
// kind, failing round, blame set). The supervisor (supervisor.hpp) builds
// its crash-containment and retry story entirely on this primitive.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "anonchan/params.hpp"
#include "audit/replay.hpp"
#include "common/metrics.hpp"
#include "net/failure.hpp"
#include "net/faultplan.hpp"
#include "net/network.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14::server {

/// Everything that defines one logical session. Plain data; the runtime
/// copies it into the attempt and echoes it back in the result.
struct SessionConfig {
  std::uint64_t id = 0;  ///< unique per runtime: scope name + Rng lineage
  std::size_t n = 5;
  vss::SchemeKind scheme = vss::SchemeKind::kRB;
  std::size_t kappa = 3;     ///< cut-and-choose copies (practical profile)
  bool light = false;        ///< use Params::light(n) instead of practical
  /// Receiver party; SIZE_MAX selects n - 1.
  net::PartyId receiver = static_cast<net::PartyId>(-1);
  /// Per-party inputs; empty selects the canonical pattern (distinct
  /// non-zero message per sender, zero for the receiver).
  std::vector<Fld> inputs;
  /// Wire-fault script for this session; parties it targets are marked
  /// corrupt. Empty = clean session (strict no-op, no engine attached).
  net::FaultPlan faults;
  /// Explicit fault-engine seed; nullopt derives it from the Rng lineage.
  std::optional<std::uint64_t> fault_seed;
  /// Worker lanes for the session's own round engine. When the session is
  /// co-scheduled with others the nested parallel_for runs inline (the
  /// pool forbids two parallel levels), which is transcript-equivalent by
  /// the DESIGN.md §8 lane-count-independence contract.
  std::size_t lanes = 1;
  /// Metrics scope name under the process root; "" = "session/<id>".
  std::string scope_label;

  net::PartyId effective_receiver() const {
    return receiver == static_cast<net::PartyId>(-1)
               ? static_cast<net::PartyId>(n - 1)
               : receiver;
  }
  anonchan::Params params() const;
  std::vector<Fld> effective_inputs() const;
  std::string effective_scope_label() const;
};

/// The session's independent randomness, forked from the runtime master
/// seed by session id and attempt number. Pure function of
/// (master_seed, id, attempt): independent of submission order, scheduling,
/// and every other session's draws. Attempt 0 reproduces the original
/// two-argument lineage exactly.
struct SessionSeeds {
  std::uint64_t net_seed = 0;    ///< Network seed (per-party Rng lineage)
  std::uint64_t fault_seed = 0;  ///< FaultEngine seed (unless pinned)
};
SessionSeeds derive_seeds(std::uint64_t master_seed, std::uint64_t session_id,
                          std::size_t attempt = 0);

/// One execution attempt's supervision envelope (DESIGN.md §14): which
/// attempt of the session this is (selects the Rng lineage) plus the
/// containment limits the supervisor imposes. Plain data, deterministic —
/// the supervisor derives it purely from (policy, session id, attempt).
/// A default AttemptSpec is the plain solo run.
struct AttemptSpec {
  /// Selects the Rng lineage. Retries (attempt > 0) run with the config's
  /// fault plan cleared: the crashed member was replaced.
  std::size_t attempt = 0;
  /// Per-attempt round budget enforced by the Network watchdog; the attempt
  /// dies with a kRoundLimit FailureRecord when exceeded. 0 = unlimited.
  std::size_t round_budget = 0;
  /// Chaos injection: throw net::InjectedCrash after this many round
  /// barriers, simulating the session strand dying mid-run.
  std::optional<std::size_t> crash_at_round;
  /// Minimum honest deliveries for the attempt to count as success; a
  /// completed run below this fails with kDeliveryShortfall. 0 = off.
  std::size_t min_delivered = 0;
};

/// Structured containment record of one failed attempt: what died, where,
/// and who the session blamed before dying. This is the supervisor's whole
/// interface to failure — a supervised session NEVER propagates an
/// exception past run_attempt().
struct FailureRecord {
  std::uint64_t session_id = 0;
  std::size_t attempt = 0;
  net::FailureKind kind = net::FailureKind::kUnknownException;
  std::string what;               ///< exception message / shortfall note
  std::size_t failing_round = 0;  ///< Network costs().rounds at failure
  /// Distinct accused parties from the session's blame records at failure
  /// time, ascending (kPublicBlame excluded — it names the same parties).
  std::vector<net::PartyId> blamed;
  double wall_ms = 0.0;  ///< environmental, never compared

  std::string describe() const;
};

/// Everything one completed session produced.
struct SessionResult {
  SessionConfig config;  ///< the config as EXECUTED (retries drop faults)
  SessionSeeds seeds;
  std::size_t attempt = 0;  ///< lineage attempt that produced this result
  anonchan::Output output;
  net::CostReport costs;          ///< this session's own network, from zero
  net::Recording recording;       ///< full per-session transcript
  std::uint64_t transcript_digest = 0;
  std::vector<net::BlameRecord> blames;
  std::vector<net::FaultEvent> fault_events;
  /// Name-sorted counters of the session's metrics scope after the final
  /// roll-up — the deterministic per-session attribution (net.*, vss.*).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::size_t messages_delivered = 0;  ///< honest inputs present in Y
  double wall_ms = 0.0;                ///< environmental, never compared
  std::string scope_name;
};

/// Exactly one of result / failure is set.
struct SessionOutcome {
  std::optional<SessionResult> result;
  std::optional<FailureRecord> failure;
  bool ok() const { return result.has_value(); }
};

/// Executes ONE attempt of a session on the calling thread (plus the
/// session's own lanes when not nested in a pool strand): attaches the
/// session's metrics scope, builds the private Network/VSS/AnonChan stack
/// with the (master_seed, id, attempt) Rng lineage, applies the
/// AttemptSpec's containment limits, and catches every failure (taxonomy of
/// net/failure.hpp) into a FailureRecord while the Network is still alive —
/// so the record carries the failing round and the blame set. On success
/// the scope is rolled up into the process root before `counters` is
/// snapshotted. Thread-safe: everything it touches is session-private or
/// thread-safe, so it may run on any pool strand.
SessionOutcome run_attempt(const SessionConfig& config,
                           std::uint64_t master_seed, const AttemptSpec& spec);

/// Re-executes a result's configuration solo (fresh Network, same
/// (id, attempt) lineage, serial engine context) with a ReplayVerifier
/// attached and returns the first divergence from the recorded transcript —
/// nullopt certifies that the co-scheduled execution was byte-identical to
/// an isolated one. This is the per-session audit hook the CLI's
/// `serve --verify` and the session-soak CI job call.
std::optional<audit::Divergence> replay_verify(const SessionResult& result,
                                               std::uint64_t master_seed);

}  // namespace gfor14::server
