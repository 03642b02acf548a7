// Wire-level flight recorder (DESIGN.md §10).
//
// A Recorder is a RoundObserver that streams every delivered p2p and
// broadcast message of every round — flattened in canonical (round, sender,
// receiver, sequence) order, each message carrying its header coordinates
// and the running 64-bit digest of its channel, plus (at full fidelity) the
// payload itself — together with the round's CostReport delta, adversarial
// tamper records, applied fault events and new blame records, into an
// in-memory Recording. The Recording serializes to a versioned JSON file
// whose header captures full provenance (git sha, compiler, field kernel,
// thread configuration) and a caller-supplied config block (protocol,
// seeds, fault plan), so any recording found in a CI log or soak archive
// can be re-executed and diffed.
//
// Because PRs 3-4 pinned a byte-identity determinism contract — the same
// (seeds, plan, lane count) replays the exact transcript — a recording is
// not merely a log: it is a *checkable claim*. The replay verifier
// (audit/replay.hpp) re-runs the recorded configuration and reports the
// first divergence down to the byte offset.
//
// Digest definition (frozen; changing it bumps kVersion): every message
// first gets its word-wise message digest h = message_digest(payload)
// (common/digest.hpp: sum_k w_k * K^(k+1) over Fld). Each channel — one
// per ordered (from, to) pair plus one per broadcasting sender — and the
// whole-transcript stream then keep an incremental FNV-1a/64 (Digest64).
// For every message, in canonical order, the channel digest absorbs
//   round, seq, element_count, h
// and the transcript digest absorbs
//   channel_tag (0 = p2p, 1 = bcast), from, to (0 for bcast), round, seq,
//   element_count, h
// (each as one u64; h as its 64-bit representation, Fld::to_u64). The
// per-byte work is one field multiply-accumulate inside message_digest;
// the FNV chains cost O(messages). Recordings of other format versions are
// rejected on load.
//
// Ownership: a live recorder copies no payload. Network publishes each
// round's delivered traffic as an immutable shared RoundTraffic; at full
// fidelity the RecordedRound keeps that storage alive through its
// type-erased `owner` and every RecordedMessage::payload is a span into
// it. A loaded recording owns one flat word vector per round instead, freed
// when the last Recording sharing it is destroyed. Copying a Recording
// shares that storage; payloads are read-only in both cases.
//
// Fidelity is one switch: "full" (headers + digests + payloads, replayable
// to the byte) or "profile" (headers + per-round profile annotations only).
// Profile fidelity skips every per-element pass — no message digest, no
// payload retention — so its per-round cost is O(messages), not
// O(traffic bytes); it exists so the §15 causal profiler can ride along a
// run inside the <5% overhead budget. Profile recordings drive critpath /
// waterfall / top exactly like full ones, and replaying one still checks
// the header stream (counts, shapes, fault/tamper/blame logs) but
// certifies no payload bytes: every stored digest is zero by definition.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/digest.hpp"
#include "common/json.hpp"
#include "net/faultplan.hpp"
#include "net/network.hpp"

namespace gfor14::net {

/// 16-digit lowercase hex of v (payload elements and digests are 64-bit
/// values; JSON numbers are doubles and lose bits past 2^53, so the
/// recording format stores them as hex strings).
std::string hex_u64(std::uint64_t v);
/// Strict inverse of hex_u64 (1-16 lowercase hex digits); nullopt otherwise.
std::optional<std::uint64_t> parse_hex_u64(std::string_view s);

/// One delivered message in canonical order.
struct RecordedMessage {
  bool broadcast = false;
  PartyId from = 0;
  PartyId to = 0;               ///< 0 and meaningless when broadcast
  std::size_t seq = 0;          ///< index within its channel queue this round
  std::size_t elements = 0;     ///< payload length in field elements
  std::uint64_t digest = 0;     ///< running channel digest after this message
  /// Read-only view into the owning round's storage (RecordedRound::owner);
  /// empty in profile recordings.
  std::span<const Fld> payload;
};

/// Post-hoc profiling annotations of one round (DESIGN.md §15). The alloc
/// deltas are barrier-exact differences of the deterministic `net.alloc.*` /
/// `vss.alloc.*` counters and the phase string is the orchestrating thread's
/// open-span path at the round barrier — both replay-stable under the §8
/// contract. `wall_us` is the network's round clock for this round
/// (Network::last_round_wall_us, the same sample net.round_wall_us
/// observed); it measures the machine and is environmental. None of
/// these fields is absorbed into the frozen channel/transcript digests or
/// compared by the replay differ; recordings written before this block parse
/// with all-zero profiles.
struct RoundProfile {
  double wall_us = 0.0;  ///< environmental: barrier-to-barrier round wall
  std::uint64_t net_alloc_count = 0;
  std::uint64_t net_alloc_bytes = 0;
  std::uint64_t vss_alloc_count = 0;
  std::uint64_t vss_alloc_bytes = 0;
  std::string phase;  ///< Tracer::current_path(); empty when tracing is off
};

/// Everything the recorder captured about one round.
struct RecordedRound {
  std::size_t index = 0;  ///< rounds since the recorder attached (0-based)
  CostReport delta;
  RoundProfile profile;
  std::vector<RecordedMessage> messages;
  std::vector<TamperRecord> tampers;
  std::vector<FaultEvent> faults;
  std::vector<BlameRecord> blames;
  /// Keeps the storage the message payload spans point into alive: the
  /// network's delivered RoundTraffic for a live recording, one flat word
  /// vector for a loaded one; null when no payload is retained.
  std::shared_ptr<const void> owner;
};

/// A complete recording: header (format version, provenance, config) plus
/// the per-round stream and the final transcript digest.
struct Recording {
  static constexpr const char* kFormat = "gfor14.recording";
  static constexpr std::size_t kVersion = 2;

  std::size_t n = 0;
  bool full = true;        ///< false = profile fidelity (headers only)
  json::Value provenance;  ///< provenance::collect() at record time
  json::Value config;      ///< caller-supplied (protocol, seeds, fault plan)
  std::vector<RecordedRound> rounds;
  std::uint64_t final_digest = Digest64().value();

  /// The fidelity tier's name, "full" or "profile": the JSON `fidelity`
  /// tag and what tools print.
  const char* fidelity() const { return full ? "full" : "profile"; }

  json::Value to_json() const;
  /// Strict parse; on failure returns nullopt and, when `error` is
  /// non-null, a diagnostic naming the offending field.
  static std::optional<Recording> from_json(const json::Value& v,
                                            std::string* error = nullptr);

  bool save(const std::string& path) const;
  static std::optional<Recording> load(const std::string& path,
                                       std::string* error = nullptr);
};

/// The observer. Attach with net.attach_observer(recorder); every
/// end_round() appends one RecordedRound. All work happens on the
/// orchestrating thread after the adversary and fault engine have settled
/// the round, so recording composes with any adversary/fault/lane-count
/// configuration without perturbing it.
struct RecorderOptions {
  bool full = true;  ///< false = profile fidelity

  /// Profile fidelity: headers + round profiles, zero per-element work.
  static RecorderOptions profile() { return {false}; }
};

class Recorder : public RoundObserver {
 public:
  using Options = RecorderOptions;

  explicit Recorder(Options opt = {}, json::Value config = json::Value());

  void on_round_end(const Network& net, const CostReport& delta) override;

  const Recording& recording() const { return rec_; }
  /// Moves the finished recording out (the recorder is then spent).
  Recording take() { return std::move(rec_); }

 private:
  Options opt_;
  Recording rec_;
  Digest64 transcript_;
  std::map<std::uint64_t, Digest64> channels_;  ///< keyed per channel
  std::size_t round_index_ = 0;
  std::size_t faults_seen_ = 0;
  std::size_t tampers_seen_ = 0;
  std::map<PartyId, std::size_t> blames_seen_;  ///< per accuser bucket
  /// Previous barrier's view of the profiled alloc counters, so each
  /// RoundProfile stores per-round deltas.
  std::uint64_t prev_net_alloc_count_ = 0;
  std::uint64_t prev_net_alloc_bytes_ = 0;
  std::uint64_t prev_vss_alloc_count_ = 0;
  std::uint64_t prev_vss_alloc_bytes_ = 0;
};

}  // namespace gfor14::net
