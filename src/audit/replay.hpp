// Replay verification against a flight recording (DESIGN.md §10).
//
// PRs 3-4 established the byte-identity determinism contract: the same
// (seeds, fault plan, lane count) replays the exact delivered transcript.
// This module turns that contract into a checkable subsystem. A recording
// (net/recorder.hpp) is the reference; re-executing the recorded
// configuration with a ReplayVerifier attached diffs the live traffic
// against it message by message, in the recorder's canonical order, and
// reports the FIRST divergence as precise coordinates: (round, channel,
// from, to, message sequence, byte offset into the payload). The ad-hoc
// transcript-string comparisons that parallel_engine_test.cpp and
// fault_soak_test.cpp grew up with are promoted into first_divergence(),
// which those suites now call.
//
// Byte offsets index the little-endian byte serialization of the payload
// (8 bytes per field element), matching Fld::serialize. Divergences
// witnessed only by a channel digest, a side log or a fidelity mismatch
// carry kUnknownOffset.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "net/recorder.hpp"

namespace gfor14::audit {

/// First point where a live execution (or a second recording) departs from
/// a reference recording.
struct Divergence {
  static constexpr std::size_t kUnknownOffset = static_cast<std::size_t>(-1);

  std::size_t round = 0;  ///< recording-relative round index (0-based)
  bool broadcast = false;
  net::PartyId from = 0;
  net::PartyId to = 0;  ///< 0 and meaningless for broadcast divergences
  std::size_t seq = 0;  ///< message sequence within its channel that round
  /// Offset of the first differing byte in the payload serialization;
  /// kUnknownOffset when the witness is a digest/log mismatch instead.
  std::size_t byte_offset = kUnknownOffset;
  std::string description;

  /// "round 4, p2p 0->2, msg 1: payloads differ at byte 17 (...)".
  std::string format() const;
};

/// Compares two rounds captured with identical recorder options. Returns
/// the first divergence in canonical order, or nullopt when byte-identical
/// (messages, cost delta, tamper/fault/blame logs). RoundProfile
/// annotations are deliberately NOT compared: wall_us is environmental and
/// the deterministic annotations are derived views, not transcript.
std::optional<Divergence> diff_rounds(const net::RecordedRound& reference,
                                      const net::RecordedRound& candidate);

/// First divergence between two whole recordings; header blocks
/// (provenance, config) are informational and not compared. Recordings of
/// different fidelity diverge at round 0 before any message is compared.
std::optional<Divergence> first_divergence(const net::Recording& reference,
                                           const net::Recording& candidate);

/// Live verifier: attach to the network, re-run the recorded
/// configuration, then call finish(). The first divergent round is
/// captured and later rounds are ignored (the transcript is already
/// off-contract; every subsequent round would diverge noisily).
class ReplayVerifier : public net::RoundObserver {
 public:
  explicit ReplayVerifier(net::Recording reference);

  void on_round_end(const net::Network& net,
                    const net::CostReport& delta) override;

  /// Declares the live execution complete: a recording with more rounds
  /// than were replayed becomes a divergence. Returns divergence().
  const std::optional<Divergence>& finish();

  bool ok() const { return !divergence_.has_value(); }
  const std::optional<Divergence>& divergence() const { return divergence_; }
  std::size_t rounds_checked() const { return rounds_checked_; }

 private:
  net::Recording reference_;
  net::Recorder live_;  ///< canonicalizes live rounds exactly like recording
  std::size_t rounds_checked_ = 0;
  std::optional<Divergence> divergence_;
};

}  // namespace gfor14::audit
