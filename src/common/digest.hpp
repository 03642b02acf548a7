// Transcript digests for the flight recorder (DESIGN.md §10).
//
// The recorder needs a cheap, platform-independent fingerprint of channel
// traffic so that full-fidelity recordings can be compared and chained
// without re-reading every payload. Two frozen pieces make it up (changing
// either, or the recorder's absorption order, is a recording-format
// version bump):
//
//   * message_digest — a word-wise polynomial hash of one payload over the
//     field, h = sum_k w_k * K^(k+1) with the fixed non-zero key
//     kMessageKey. Because every K^k is non-zero, changing any single word
//     always changes h. It is evaluated in 1024-word blocks with the span
//     dot-product kernel against one process-wide table K^1..K^1024, the
//     blocks combined by Horner in K^1024, so the per-byte cost is one
//     field multiply-accumulate and the function keeps no state
//     (thread-safe). The block size does not affect the value.
//   * Digest64 — incremental FNV-1a/64 over the little-endian byte
//     expansion of each absorbed word. The recorder feeds it a few
//     header words plus one message_digest per message, so its serial
//     chain costs O(messages), not O(bytes).
//
// This is an integrity check against *accidental* divergence (a
// nondeterminism bug, a corrupted recording file), not a cryptographic
// commitment — the simulator's adversary is a C++ object with direct queue
// access, so collision resistance buys nothing here.
#pragma once

#include <cstdint>
#include <span>

#include "ff/gf2e.hpp"

namespace gfor14 {

/// Incremental FNV-1a/64 accumulator. Words are absorbed as 8 little-endian
/// bytes each, so the digest of a sequence is well defined across platforms
/// and independent of how callers chunk their input.
class Digest64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  constexpr Digest64() = default;
  explicit constexpr Digest64(std::uint64_t state) : state_(state) {}

  constexpr void absorb_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (v >> (8 * i)) & 0xFF;
      state_ *= kPrime;
    }
  }

  constexpr std::uint64_t value() const { return state_; }

  constexpr bool operator==(const Digest64&) const = default;

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// The message-digest key K (frozen; any non-zero field element works).
inline constexpr std::uint64_t kMessageKey = 0x9e3779b97f4a7c15ULL;

/// sum_k words[k] * K^(k+1) over Fld; zero for an empty message.
Fld message_digest(std::span<const Fld> words);

}  // namespace gfor14
