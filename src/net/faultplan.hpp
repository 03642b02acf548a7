// Deterministic, seed-replayable fault injection on the simulated network.
//
// A FaultPlan is a script of faults addressed at precise
// (round, from, to, channel) coordinates: message drops, payload truncation
// and extension, element- and bit-level corruption, stale-message replay,
// and party crashes that begin at a given round and persist. The plan is
// executed by a FaultEngine attached to a Network: every end_round(), after
// the rushing adversary's turn and before delivery, the engine rewrites the
// pending queues according to the specs scheduled for that round. Faults
// therefore compose with the message-level adversaries (adversary.hpp) —
// the adversary sees and rewrites traffic first, the wire faults apply to
// whatever it left behind.
//
// Determinism: all fault randomness (corruption values, element/bit picks)
// comes from one Rng owned by the engine and seeded explicitly, and specs
// are applied in a canonical order (crashes by party id, then scripted
// specs in plan order). The same (plan, seed, network seed) triple replays
// byte-identically at any thread count, because the engine runs entirely on
// the orchestrating thread. An EMPTY plan is a strict no-op: the engine
// touches neither queues, nor costs, nor metrics, so executions with
// FaultPlan{} attached are byte-identical to executions with no engine at
// all (locked in by tests/fault_soak_test.cpp).
//
// Observability: every applied fault bumps net.fault.* counters, appends a
// FaultEvent to the engine's log, and — when tracing is enabled — emits a
// "net.fault.<kind>" span (one JSON line via the PR-1 JSONL sink).
//
// Model note: the paper's adversary controls only corrupt parties; secure
// channels between honest parties are reliable by assumption. Plans used to
// argue protocol properties must therefore only target traffic ORIGINATING
// at corrupt parties (FaultPlan::random does); the engine itself accepts
// arbitrary coordinates so tests can probe out-of-model behaviour too.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace gfor14::net {

enum class FaultKind : std::uint8_t {
  kDrop,            ///< remove every pending payload on the channel
  kTruncate,        ///< remove `amount` trailing elements of each payload
  kExtend,          ///< append `amount` random elements to each payload
  kCorruptElement,  ///< overwrite `amount` random elements with random values
  kCorruptBit,      ///< flip `amount` random bits across the payloads
  kReplayStale,     ///< substitute the channel's most recent earlier traffic
  kCrash,           ///< party sends nothing from `round` on (standing fault)
};

enum class FaultChannel : std::uint8_t { kP2p, kBroadcast };

/// The two names of each kind: its token in the FaultPlan::parse grammar
/// and its canonical name in recordings and reports.
struct FaultKindNames {
  FaultKind kind;
  std::string_view token;
  const char* name;
};
inline constexpr FaultKindNames kFaultKinds[] = {
    {FaultKind::kDrop, "drop", "drop"},
    {FaultKind::kTruncate, "trunc", "truncate"},
    {FaultKind::kExtend, "ext", "extend"},
    {FaultKind::kCorruptElement, "corrupt", "corrupt_element"},
    {FaultKind::kCorruptBit, "bitflip", "corrupt_bit"},
    {FaultKind::kReplayStale, "replay", "replay_stale"},
    {FaultKind::kCrash, "crash", "crash"},
};

const char* fault_kind_name(FaultKind kind);
/// Inverse of fault_kind_name; nullopt for any other string.
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// A replay-seed environment override (GFOR14_FAULT_SEED,
/// GFOR14_SWEEP_SEED), a decimal u64 read whole from the variable `var`:
/// `fallback` when it is unset, nullopt (with its value in `*bad` when
/// non-null) when it is anything else.
std::optional<std::uint64_t> seed_from_env(const char* var,
                                           std::uint64_t fallback,
                                           std::string* bad = nullptr);

struct FaultSpec {
  FaultKind kind = FaultKind::kDrop;
  /// Round the fault fires, counted from the engine's attachment (0-based).
  /// For kCrash this is the first affected round.
  std::size_t round = 0;
  PartyId from = 0;
  /// Receiver for p2p faults; kAllReceivers hits every (from, *) channel.
  /// Ignored for broadcast faults and crashes.
  PartyId to = 0;
  FaultChannel channel = FaultChannel::kP2p;
  /// Element/bit count for truncate/extend/corrupt; ignored otherwise.
  std::size_t amount = 1;

  bool operator==(const FaultSpec&) const = default;
};

/// `to` wildcard: the fault applies to every receiver of `from`.
inline constexpr PartyId kAllReceivers = static_cast<PartyId>(-1);

/// A scriptable set of fault specs. Plain data with builder helpers; attach
/// to a network via Network::attach_faults(std::make_shared<FaultEngine>(...)).
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }

  FaultPlan& add(FaultSpec spec) {
    specs.push_back(spec);
    return *this;
  }
  FaultPlan& drop(std::size_t round, PartyId from, PartyId to,
                  FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kDrop, round, from, to, ch, 0});
  }
  FaultPlan& truncate(std::size_t round, PartyId from, PartyId to,
                      std::size_t elements,
                      FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kTruncate, round, from, to, ch, elements});
  }
  FaultPlan& extend(std::size_t round, PartyId from, PartyId to,
                    std::size_t elements,
                    FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kExtend, round, from, to, ch, elements});
  }
  FaultPlan& corrupt_element(std::size_t round, PartyId from, PartyId to,
                             std::size_t elements,
                             FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kCorruptElement, round, from, to, ch, elements});
  }
  FaultPlan& corrupt_bit(std::size_t round, PartyId from, PartyId to,
                         std::size_t bits,
                         FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kCorruptBit, round, from, to, ch, bits});
  }
  FaultPlan& replay_stale(std::size_t round, PartyId from, PartyId to,
                          FaultChannel ch = FaultChannel::kP2p) {
    return add({FaultKind::kReplayStale, round, from, to, ch, 0});
  }
  FaultPlan& crash(std::size_t round, PartyId party) {
    return add({FaultKind::kCrash, round, party, 0, FaultChannel::kP2p, 0});
  }

  /// Every distinct sender the plan targets (for marking parties corrupt).
  std::vector<PartyId> senders() const;

  /// Parses the CLI spec grammar; nullopt (with a message in `error` when
  /// non-null) on malformed input. Comma-separated entries:
  ///   crash@R:P                      party P crashes from round R
  ///   KIND@R:F->T[:AMT]              p2p fault on channel F -> T at round R
  ///   KIND@R:F->*[:AMT]              ... on every receiver of F
  ///   KIND@R:F->bcast[:AMT]          ... on F's broadcasts
  /// with KIND a kFaultKinds token other than crash, e.g.
  ///   "drop@3:0->2,corrupt@5:1->*:2,crash@7:0".
  static std::optional<FaultPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);

  /// Configuration for random plan generation (fault-soak harness).
  struct RandomSpec {
    std::vector<PartyId> targets;  ///< parties whose traffic may be faulted
    std::size_t n = 0;  ///< party count; p2p receivers drawn from [0, n),
                        ///< else every p2p fault uses kAllReceivers
    std::size_t rounds = 1;  ///< faults land in [0, rounds)
    std::size_t count = 0;   ///< number of specs to draw
    bool allow_crash = true;
    bool allow_broadcast = true;
    std::size_t max_amount = 4;
  };
  /// Draws `spec.count` random faults against the target parties only — the
  /// in-model adversary shape (honest-to-honest channels stay reliable).
  static FaultPlan random(Rng& rng, const RandomSpec& spec);
};

/// One applied fault, as recorded in the engine log.
struct FaultEvent {
  FaultSpec spec;
  std::size_t round = 0;          ///< engine round the fault fired in
  std::size_t messages_hit = 0;   ///< payloads affected (0 = scheduled no-op)
  std::size_t elements_delta = 0; ///< elements removed/added/overwritten
};

/// Executes a FaultPlan against a Network. Attach with
/// net.attach_faults(engine); the network calls apply() each end_round().
class FaultEngine {
 public:
  FaultEngine(FaultPlan plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }
  /// Rounds elapsed since attachment (== number of apply() calls).
  std::size_t rounds_seen() const { return round_; }
  /// Chronological log of every fault actually applied.
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Called by Network::end_round() after the adversary turn, before
  /// delivery. Rewrites the pending queues per the plan; a strict no-op
  /// (no metrics, no logs, no queue access) when the plan is empty.
  void apply(Network& net);

 private:
  void apply_one(Network& net, const FaultSpec& spec, std::size_t round);
  void apply_payload_fault(const FaultSpec& spec, Payload& payload,
                           FaultEvent& event);
  void record_stale(Network& net);
  void note(Network& net, const FaultSpec& spec, std::size_t round,
            FaultEvent event);

  FaultPlan plan_;
  Rng rng_;
  std::size_t round_ = 0;
  std::vector<FaultEvent> events_;
  /// Most recent non-empty queue seen per replay-targeted channel, keyed by
  /// (from, to) with to == kAllReceivers+broadcast encoded separately.
  struct StaleKey {
    PartyId from;
    PartyId to;
    FaultChannel channel;
    auto operator<=>(const StaleKey&) const = default;
  };
  std::vector<std::pair<StaleKey, std::vector<Payload>>> stale_;
  std::vector<StaleKey> stale_watch_;  ///< channels replay specs reference
};

}  // namespace gfor14::net
