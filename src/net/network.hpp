// Synchronous complete network with secure pairwise channels and a physical
// broadcast channel — the exact resource model of Section 2 of the paper.
//
// Execution is organized in rounds. Within a round the orchestrating
// protocol first computes and submits all honest parties' messages, then (if
// an adversary is attached) hands control to the adversary, which may
// inspect every pending message addressed to a corrupt party and every
// pending broadcast before submitting the corrupt parties' own messages —
// this evaluation order is the standard simulation of a *rushing*
// adversary. end_round() then delivers all pending traffic at once.
//
// Parallel round engine: run_round(handler) executes every party's round
// handler — its local computation plus the outgoing messages it submits to
// its RoundLane — on the worker pool when threads() > 1, then merges the
// per-party lanes into the pending queues in canonical (sender id,
// submission sequence) order before the adversary turn and delivery. The
// merged pending state, and therefore the delivered transcript, every cost
// counter, every trace span and every rushing-adversary decision, is
// byte-identical to the serial execution of the same handlers (locked in by
// tests/parallel_engine_test.cpp). See DESIGN.md §8 for the determinism
// contract.
//
// The network keeps the cost counters that the experiments report:
//   * rounds                — total synchronous rounds elapsed;
//   * broadcast_rounds      — rounds in which the physical broadcast channel
//                             was used at least once (the scarce resource
//                             the paper minimizes: AnonChan over GGOR13 VSS
//                             uses exactly 2);
//   * broadcast_invocations — individual broadcast() calls;
//   * p2p_messages / field elements transferred on each channel type.
//
// Round clock: end_round() reads steady_clock exactly once per round, after
// delivery and cost accounting and before the observers run. The reading is
// the barrier-to-barrier wall since the previous end_round() (since
// construction for the first round); it feeds the net.round_wall_us
// histogram for every round, however the round was driven, and observers
// read it through last_round_wall_us() instead of keeping their own clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "ff/gf2e.hpp"

namespace gfor14::net {

using PartyId = std::size_t;
using Payload = std::vector<Fld>;
/// One channel's ordered payloads for one round.
using PayloadQueue = std::vector<Payload>;

/// Aggregate resource usage of an execution (see header comment).
struct CostReport {
  std::size_t rounds = 0;
  std::size_t broadcast_rounds = 0;
  std::size_t broadcast_invocations = 0;
  std::size_t p2p_messages = 0;
  std::size_t p2p_elements = 0;
  std::size_t broadcast_elements = 0;

  /// Differential accounting between two snapshots of the SAME network,
  /// taken at round boundaries (where counters are monotone). Subtracting a
  /// later snapshot from an earlier one is a caller bug and throws.
  CostReport operator-(const CostReport& o) const;

  bool operator==(const CostReport&) const = default;
};

class Network;

/// A pending message as observed by the rushing adversary. The view stays
/// valid until the queue it points into is rewritten (replace_pending or a
/// fault on the same (from, to) channel) or the round ends; payload() then
/// throws ContractViolation instead of reading freed memory — adversaries
/// that need the data past that point must copy it first.
class PendingView {
 public:
  /// Sender for pending_to_corrupt; receiver for pending_from_corrupt.
  PartyId peer;

  /// The queued payload; throws when the view has been invalidated.
  const Payload& payload() const;

 private:
  friend class Network;
  PendingView(PartyId peer_in, const Network* net, PartyId from, PartyId to,
              std::size_t index, std::uint64_t stamp)
      : peer(peer_in),
        net_(net),
        from_(from),
        to_(to),
        index_(index),
        stamp_(stamp) {}

  const Network* net_;
  PartyId from_, to_;
  std::size_t index_;
  std::uint64_t stamp_;
};

/// Traffic delivered at the end of one round.
struct RoundTraffic {
  /// p2p[to][from] = ordered payloads sent from `from` to `to` this round.
  std::vector<std::vector<PayloadQueue>> p2p;
  /// bcast[from] = ordered payloads broadcast by `from` this round.
  std::vector<PayloadQueue> bcast;

  void reset(std::size_t n);
};

/// Thrown by begin_round() when the round watchdog limit is exceeded — a
/// fault-wedged protocol fails with a diagnostic instead of looping forever.
class RoundLimitExceeded : public ProtocolError {
 public:
  explicit RoundLimitExceeded(const std::string& what) : ProtocolError(what) {}
};

/// A party-local misbehaviour record under the default-message convention:
/// `accuser` observed traffic from `accused` that was missing or malformed
/// (or a publicly checkable fault, recorded with accuser == kPublicBlame)
/// and substituted the canonical default. Blame records are diagnostics —
/// disqualification stays a protocol-layer decision.
struct BlameRecord {
  PartyId accuser = 0;
  PartyId accused = 0;
  std::string reason;
  std::size_t round = 0;  ///< costs().rounds when recorded
};

/// Accuser id for publicly attributed faults (visible to all parties).
inline constexpr PartyId kPublicBlame = static_cast<PartyId>(-1);

/// One adversarial rewrite of a pending queue during the rushing
/// adversary's turn (replace_pending). Recorded so the flight recorder can
/// attribute transcript changes to the adversary rather than to wire
/// faults; purely observational — the log has no effect on execution.
struct TamperRecord {
  std::size_t round = 0;  ///< costs().rounds when the rewrite happened
  PartyId from = 0;
  PartyId to = 0;          ///< meaningless when broadcast
  bool broadcast = false;
};

class FaultEngine;
class Network;

/// Passive end-of-round observer — the network's one end-of-round
/// callback: called by end_round() after delivery, cost accounting, the
/// round clock read and metrics, with this round's CostReport delta, on the
/// orchestrating thread, in attachment order. Observers read delivered(),
/// last_round_wall_us(), blames(), tamper_log() and the fault engine's
/// event log; they must not mutate the network. The flight recorder
/// (net/recorder.hpp), the replay verifier (audit/replay.hpp) and ad-hoc
/// diagnostics attach through this.
class RoundObserver {
 public:
  virtual ~RoundObserver() = default;
  virtual void on_round_end(const Network& net,
                            const CostReport& round_delta) = 0;
};

/// Per-party outgoing-traffic buffer for run_round. A handler running on a
/// worker thread submits its messages here instead of calling Network::send
/// directly; the lanes are merged into the pending queues at the round
/// barrier in (sender id, submission sequence) order, which reproduces the
/// serial engine's pending state exactly (the serial loops iterate parties
/// in ascending id order).
class RoundLane {
 public:
  void send(PartyId to, Payload payload) {
    items_.push_back({to, false, std::move(payload)});
  }
  void broadcast(Payload payload) {
    items_.push_back({0, true, std::move(payload)});
  }

 private:
  friend class Network;
  struct Item {
    PartyId to;
    bool is_broadcast;
    Payload payload;
  };
  std::vector<Item> items_;
};

/// One party's round computation: reads whatever protocol state it needs
/// (prior delivered() traffic, its own rng_of(p) stream), writes only to
/// party-indexed slots and to its RoundLane. Handlers for distinct parties
/// may run concurrently — see DESIGN.md §8 for the full contract.
using PartyHandler = std::function<void(PartyId, RoundLane&)>;

/// Message-level adversary hook (rushing). Protocol-level misbehaviour
/// (e.g. committing to improper vectors) is modelled by behaviour objects at
/// the protocol layer; this hook covers attacks expressed directly on
/// channel traffic, such as corrupting shares during reconstruction.
class Adversary {
 public:
  virtual ~Adversary() = default;
  /// Called each round after all honest sends, before delivery.
  virtual void on_round(Network& net) = 0;
};

class Network {
 public:
  /// Creates a network of n parties; all protocol randomness derives from
  /// `seed` (per-party forked generators), so executions are reproducible.
  Network(std::size_t n, std::uint64_t seed);

  std::size_t n() const { return n_; }
  /// Maximum corruptions for the honest-majority setting: ceil(n/2) - 1.
  std::size_t max_t_half() const { return (n_ - 1) / 2; }
  /// Maximum corruptions for the perfect setting: ceil(n/3) - 1.
  std::size_t max_t_third() const { return (n_ - 1) / 3; }

  void set_corrupt(PartyId p, bool corrupt);
  bool is_corrupt(PartyId p) const;
  std::size_t num_corrupt() const;
  /// Marks parties 0..t-1 corrupt (tests often use this static choice).
  void corrupt_first(std::size_t t);

  /// Party p's private stream. Each sits on its own kCacheLine-byte line.
  Rng& rng_of(PartyId p);
  /// The line size the per-party streams are padded to.
  static constexpr std::size_t kCacheLine = 64;
  Rng& adversary_rng() { return adv_rng_; }

  void attach_adversary(std::shared_ptr<Adversary> adv) { adversary_ = std::move(adv); }
  Adversary* adversary() const { return adversary_.get(); }

  /// Attaches a passive end-of-round observer (see RoundObserver). Any
  /// number may be attached; they run in attachment order.
  void attach_observer(std::shared_ptr<RoundObserver> obs) {
    observers_.push_back(std::move(obs));
  }
  /// Detaches a previously attached observer; unknown pointers are ignored.
  void detach_observer(const RoundObserver* obs);

  /// Chronological log of adversarial pending-queue rewrites (see
  /// TamperRecord). Grows over the network's lifetime; stable at round
  /// boundaries.
  const std::vector<TamperRecord>& tamper_log() const { return tamper_log_; }

  /// Attaches a fault-injection engine (net/faultplan.hpp): its plan is
  /// applied every end_round() after the adversary turn, before delivery.
  /// An engine with an empty plan is byte-identical to no engine at all.
  void attach_faults(std::shared_ptr<FaultEngine> engine) {
    fault_engine_ = std::move(engine);
  }
  FaultEngine* fault_engine() const { return fault_engine_.get(); }

  /// Round watchdog: begin_round() throws RoundLimitExceeded once
  /// costs().rounds reaches `limit`. 0 (the default) disables the check.
  /// Protocols with a known round bill set a budget via RoundBudgetGuard.
  void set_max_rounds(std::size_t limit) { max_rounds_ = limit; }
  std::size_t max_rounds() const { return max_rounds_; }

  /// Records a default-message substitution or publicly checkable fault.
  /// Callable from party p's round handler only for accuser == p (the
  /// records are bucketed per accuser, one writer each — the same slot
  /// discipline as every other party-indexed state under DESIGN.md §8).
  void blame(PartyId accuser, PartyId accused, std::string_view reason);
  /// All blame records, flattened in ascending accuser order (kPublicBlame
  /// last); deterministic at round boundaries for any thread count.
  std::vector<BlameRecord> blames() const;
  std::size_t blame_count() const;

  /// Lane count for run_round and for_each_party: 1 = serial (the default,
  /// or the GFOR14_THREADS process default at construction), > 1 runs party
  /// handlers on the shared worker pool. 0 selects hardware_threads().
  void set_threads(std::size_t threads);
  std::size_t threads() const { return threads_; }

  // --- Round protocol -----------------------------------------------------
  /// Executes one full synchronous round: begin_round, every party's
  /// handler (parallel when threads() > 1), canonical lane merge, adversary
  /// turn, delivery. Byte-identical to calling the handlers serially in
  /// ascending party order with direct send/broadcast.
  void run_round(const PartyHandler& handler);

  /// Runs fn(p) for every party on the round engine's lanes — for the
  /// compute-only halves of a round (parsing delivered traffic, building
  /// commitments) that write to party-indexed slots but send nothing.
  void for_each_party(const std::function<void(PartyId)>& fn) const;

  void begin_round();
  /// Secure (private, authenticated) channel send; delivered at end_round.
  void send(PartyId from, PartyId to, Payload payload);
  /// Physical broadcast channel; delivered to everyone at end_round.
  void broadcast(PartyId from, Payload payload);
  /// Runs the adversary hook (if any) and delivers all pending traffic.
  void end_round();

  /// Traffic delivered by the most recent end_round().
  const RoundTraffic& delivered() const { return *delivered_; }
  /// The same traffic as a shared handle: every round's delivered traffic
  /// is immutable once published, so an observer may keep it alive past
  /// the round (the flight recorder retains payloads this way, uncopied).
  /// A view into a payload must hold this handle while it reads; when the
  /// last handle drops, the large payloads go back to the BufferRecycler.
  const std::shared_ptr<const RoundTraffic>& delivered_shared() const {
    return delivered_;
  }
  /// Barrier-to-barrier wall of the most recent end_round() in
  /// microseconds — the value it observed into net.round_wall_us.
  /// Environmental; 0 before the first round.
  double last_round_wall_us() const { return last_round_wall_us_; }

  // --- Rushing-adversary visibility (valid between begin/end round) -------
  /// Pending payloads addressed to a corrupt party this round. Views, not
  /// copies: the payloads stay owned by the pending queue (see PendingView).
  std::vector<PendingView> pending_to_corrupt(PartyId to) const;
  /// Pending broadcasts of this round (broadcasts are public by nature).
  const std::vector<PayloadQueue>& pending_broadcasts() const;
  /// Pending payloads a corrupt party is about to send (the adversary owns
  /// its parties' outgoing traffic and may rewrite it via replace_pending).
  std::vector<PendingView> pending_from_corrupt(PartyId from) const;
  /// Replaces a corrupt party's pending p2p messages to one receiver.
  void replace_pending(PartyId from, PartyId to, std::vector<Payload> payloads);

  const CostReport& costs() const { return costs_; }
  /// Snapshot for differential accounting of a protocol segment.
  CostReport cost_snapshot() const { return costs_; }

  /// The metrics scope this network reports into — Registry::current() at
  /// construction time (a session scope when the constructing thread had a
  /// RegistryAttachment, the process root otherwise). Components built
  /// around this network (VSS engines, protocols) charge their metrics
  /// here so per-session attribution follows the network. end_round()
  /// rolls the scope up into its parent at every round barrier, so parent
  /// totals are exact whenever a round boundary has been reached.
  metrics::Registry& registry() const { return *registry_; }
  const std::shared_ptr<metrics::Registry>& registry_shared() const {
    return registry_;
  }

 private:
  friend class PendingView;
  friend class FaultEngine;

  /// Rewrites a pending queue with symmetric cost accounting (the shared
  /// core of replace_pending and fault injection; no corruption check) and
  /// poisons outstanding PendingViews of that channel.
  void substitute_p2p(PartyId from, PartyId to, std::vector<Payload> payloads);
  /// Same for a party's pending broadcasts (fault injection only — the
  /// adversary API deliberately cannot retract broadcasts).
  void substitute_broadcast(PartyId from, std::vector<Payload> payloads);

  std::uint64_t channel_stamp(PartyId from, PartyId to) const {
    return channel_stamp_[to * n_ + from];
  }

  /// Cached handles into registry_ — one relaxed atomic add per field per
  /// round on the hot path, resolved once at construction.
  struct Meters {
    metrics::Counter* rounds = nullptr;
    metrics::Counter* broadcast_rounds = nullptr;
    metrics::Counter* broadcast_invocations = nullptr;
    metrics::Counter* p2p_messages = nullptr;
    metrics::Counter* p2p_elements = nullptr;
    metrics::Counter* broadcast_elements = nullptr;
    metrics::Counter* alloc_count = nullptr;
    metrics::Counter* alloc_bytes = nullptr;
    metrics::Histogram* round_wall = nullptr;
  };

  std::size_t n_;
  std::size_t threads_;
  std::shared_ptr<metrics::Registry> registry_;
  Meters meters_;
  std::vector<bool> corrupt_;
  /// One party's stream alone on its cache line. Parties draw from their
  /// streams at the same time on different lanes (dealing, commitments,
  /// pair challenges); two 32-byte states on one line would make every draw
  /// of one party invalidate the other's line (DESIGN.md §8).
  struct alignas(kCacheLine) LaneRng {
    Rng rng;
  };
  static_assert(sizeof(LaneRng) == kCacheLine && alignof(LaneRng) == kCacheLine);
  std::vector<LaneRng> party_rng_;
  Rng adv_rng_;
  std::shared_ptr<Adversary> adversary_;
  std::shared_ptr<FaultEngine> fault_engine_;

  bool in_round_ = false;
  bool in_adversary_turn_ = false;
  RoundTraffic pending_;
  /// Published at end_round() and never mutated afterwards.
  std::shared_ptr<const RoundTraffic> delivered_;
  bool round_used_broadcast_ = false;
  CostReport costs_;
  CostReport round_start_costs_;
  /// The round clock: previous barrier (construction before round 0) and
  /// the wall it closed.
  std::chrono::steady_clock::time_point prev_barrier_;
  double last_round_wall_us_ = 0.0;
  std::vector<std::shared_ptr<RoundObserver>> observers_;
  std::vector<TamperRecord> tamper_log_;
  std::size_t max_rounds_ = 0;  ///< 0 = watchdog off

  /// Per-channel validity stamps for PendingView poisoning: every channel
  /// gets a fresh stamp each begin_round(), and substitute_p2p bumps the
  /// rewritten channel's stamp, invalidating views of that queue only.
  std::vector<std::uint64_t> channel_stamp_;
  std::uint64_t stamp_counter_ = 0;

  /// Blame records bucketed per accuser (index n_ holds kPublicBlame).
  std::vector<std::vector<BlameRecord>> blame_;
};

/// RAII round budget: on construction sets the watchdog limit to
/// costs().rounds + budget (tightening only — an enclosing tighter limit is
/// kept); restores the previous limit on destruction. Protocols whose round
/// bill is known wrap their execution in one of these so a fault-wedged run
/// dies with RoundLimitExceeded instead of spinning.
class RoundBudgetGuard {
 public:
  RoundBudgetGuard(Network& net, std::size_t budget)
      : net_(net), previous_(net.max_rounds()) {
    const std::size_t limit = net.costs().rounds + budget;
    if (previous_ == 0 || limit < previous_) net.set_max_rounds(limit);
  }
  ~RoundBudgetGuard() { net_.set_max_rounds(previous_); }

  RoundBudgetGuard(const RoundBudgetGuard&) = delete;
  RoundBudgetGuard& operator=(const RoundBudgetGuard&) = delete;

 private:
  Network& net_;
  std::size_t previous_;
};

}  // namespace gfor14::net
