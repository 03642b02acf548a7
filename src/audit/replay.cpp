#include "audit/replay.hpp"

#include <algorithm>
#include <span>

namespace gfor14::audit {

namespace {

std::string channel_str(bool broadcast, net::PartyId from, net::PartyId to) {
  if (broadcast) return "bcast " + std::to_string(from);
  return "p2p " + std::to_string(from) + "->" + std::to_string(to);
}

std::string coords_str(const net::RecordedMessage& m) {
  return channel_str(m.broadcast, m.from, m.to) + " seq " +
         std::to_string(m.seq);
}

/// Offset of the first differing byte in the little-endian serialization of
/// the two payloads (8 bytes per element); nullopt when identical.
std::optional<std::size_t> first_diff_byte(std::span<const Fld> a,
                                           std::span<const Fld> b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    const std::uint64_t x = a[i].to_u64();
    const std::uint64_t y = b[i].to_u64();
    if (x == y) continue;
    for (std::size_t j = 0; j < 8; ++j)
      if (((x >> (8 * j)) & 0xFF) != ((y >> (8 * j)) & 0xFF))
        return i * 8 + j;
  }
  if (a.size() != b.size()) return common * 8;
  return std::nullopt;
}

Divergence at_message(std::size_t round, const net::RecordedMessage& m,
                      std::string description) {
  Divergence d;
  d.round = round;
  d.broadcast = m.broadcast;
  d.from = m.from;
  d.to = m.to;
  d.seq = m.seq;
  d.description = std::move(description);
  return d;
}

Divergence at_round(std::size_t round, std::string description) {
  Divergence d;
  d.round = round;
  d.description = std::move(description);
  return d;
}

std::string serialize_tampers(const std::vector<net::TamperRecord>& ts) {
  std::string s;
  for (const auto& t : ts)
    s += std::to_string(t.round) + (t.broadcast ? "b" : "p") +
         std::to_string(t.from) + ">" + std::to_string(t.to) + ";";
  return s;
}

std::string serialize_faults(const std::vector<net::FaultEvent>& fs) {
  std::string s;
  for (const auto& f : fs)
    s += std::string(net::fault_kind_name(f.spec.kind)) + "@" +
         std::to_string(f.round) + ":" + std::to_string(f.spec.from) + ">" +
         std::to_string(f.spec.to) + ":" + std::to_string(f.messages_hit) +
         ":" + std::to_string(f.elements_delta) + ";";
  return s;
}

std::string serialize_blames(const std::vector<net::BlameRecord>& bs) {
  std::string s;
  for (const auto& b : bs)
    s += std::to_string(b.accuser) + ">" + std::to_string(b.accused) + ":" +
         b.reason + "@" + std::to_string(b.round) + ";";
  return s;
}

}  // namespace

std::string Divergence::format() const {
  std::string s = "round " + std::to_string(round) + ", " +
                  channel_str(broadcast, from, to) + ", msg " +
                  std::to_string(seq) + ": " + description;
  if (byte_offset != kUnknownOffset)
    s += " (first differing byte offset " + std::to_string(byte_offset) + ")";
  return s;
}

std::optional<Divergence> diff_rounds(const net::RecordedRound& reference,
                                      const net::RecordedRound& candidate) {
  const std::size_t common =
      std::min(reference.messages.size(), candidate.messages.size());
  for (std::size_t i = 0; i < common; ++i) {
    const net::RecordedMessage& ref = reference.messages[i];
    const net::RecordedMessage& live = candidate.messages[i];
    if (ref.broadcast != live.broadcast || ref.from != live.from ||
        ref.to != live.to || ref.seq != live.seq)
      return at_message(reference.index, ref,
                        "message coordinates differ: recorded " +
                            coords_str(ref) + ", live " + coords_str(live));
    if (!ref.payload.empty() || !live.payload.empty()) {
      if (const auto offset = first_diff_byte(ref.payload, live.payload)) {
        Divergence d = at_message(
            reference.index, ref,
            ref.payload.size() == live.payload.size()
                ? "payloads differ"
                : "payload length differs: recorded " +
                      std::to_string(ref.payload.size()) + " elements, live " +
                      std::to_string(live.payload.size()));
        d.byte_offset = *offset;
        return d;
      }
    } else if (ref.elements != live.elements) {
      Divergence d = at_message(
          reference.index, ref,
          "payload length differs: recorded " + std::to_string(ref.elements) +
              " elements, live " + std::to_string(live.elements));
      d.byte_offset = std::min(ref.elements, live.elements) * 8;
      return d;
    }
    if (ref.digest != live.digest)
      return at_message(reference.index, ref,
                        "channel digest differs: recorded " +
                            net::hex_u64(ref.digest) + ", live " +
                            net::hex_u64(live.digest));
  }
  if (reference.messages.size() != candidate.messages.size()) {
    const bool extra = candidate.messages.size() > common;
    const net::RecordedMessage& m = extra ? candidate.messages[common]
                                          : reference.messages[common];
    return at_message(reference.index, m,
                      extra ? "live execution delivered an extra message"
                            : "recorded message missing from live execution");
  }
  if (!(reference.delta == candidate.delta))
    return at_round(reference.index, "round cost delta differs");
  if (serialize_tampers(reference.tampers) !=
      serialize_tampers(candidate.tampers))
    return at_round(reference.index, "adversary tamper log differs");
  if (serialize_faults(reference.faults) != serialize_faults(candidate.faults))
    return at_round(reference.index, "fault event log differs");
  if (serialize_blames(reference.blames) != serialize_blames(candidate.blames))
    return at_round(reference.index, "blame log differs");
  return std::nullopt;
}

std::optional<Divergence> first_divergence(const net::Recording& reference,
                                           const net::Recording& candidate) {
  // A profile recording carries neither payloads nor digests, so comparing
  // it message by message against a full one would report the missing
  // bytes as a difference.
  if (reference.full != candidate.full)
    return at_round(0, std::string("fidelity differs: ") +
                           reference.fidelity() + " vs " +
                           candidate.fidelity());
  const std::size_t common =
      std::min(reference.rounds.size(), candidate.rounds.size());
  for (std::size_t r = 0; r < common; ++r)
    if (auto d = diff_rounds(reference.rounds[r], candidate.rounds[r]))
      return d;
  if (reference.rounds.size() != candidate.rounds.size())
    return at_round(common,
                    reference.rounds.size() > candidate.rounds.size()
                        ? "recording has more rounds than the candidate"
                        : "candidate has more rounds than the recording");
  if (reference.final_digest != candidate.final_digest)
    return at_round(common, "final transcript digest differs: recorded " +
                                net::hex_u64(reference.final_digest) +
                                ", candidate " +
                                net::hex_u64(candidate.final_digest));
  return std::nullopt;
}

ReplayVerifier::ReplayVerifier(net::Recording reference)
    : reference_(std::move(reference)),
      // Match the reference's fidelity tier: a profile-fidelity reference
      // only certifies the header stream, so the live recorder must not
      // absorb digests either or every digest would "differ" from the
      // recorded zeros.
      live_(net::Recorder::Options{reference_.full}) {}

void ReplayVerifier::on_round_end(const net::Network& net,
                                  const net::CostReport& delta) {
  if (divergence_) return;  // already off-contract; stop at the first
  live_.on_round_end(net, delta);
  const std::size_t r = rounds_checked_++;
  if (r >= reference_.rounds.size()) {
    divergence_ =
        at_round(r, "live execution ran more rounds than the recording");
    return;
  }
  divergence_ =
      diff_rounds(reference_.rounds[r], live_.recording().rounds[r]);
}

const std::optional<Divergence>& ReplayVerifier::finish() {
  if (!divergence_ && rounds_checked_ < reference_.rounds.size())
    divergence_ = at_round(
        rounds_checked_,
        "recording has " + std::to_string(reference_.rounds.size()) +
            " rounds but the live execution ended after " +
            std::to_string(rounds_checked_));
  if (!divergence_ && reference_.final_digest !=
                          live_.recording().final_digest)
    divergence_ = at_round(rounds_checked_, "final transcript digest differs");
  return divergence_;
}

}  // namespace gfor14::audit
