// Critical-path profiler (DESIGN.md §15).
//
// Answers "where did this run's time go" straight from a flight recording.
// The network is synchronous (paper §2), so a round's critical chain is the
// heaviest party's compute-plus-sends chain followed by the merge barrier:
// per round r and party p, compute weight 1 + elements p sends in r, one
// send of weight 1 + payload elements per delivered message, and a barrier
// of weight 1. analyze() takes the max over parties per round (ties to the
// smaller id). Weights are LOGICAL — element counts, not microseconds — so
// the report is byte-identical across lane counts, exactly like the
// recording it came from.
//
// Wall-clock enters ONLY in the waterfall view: each round's recorded wall
// (RoundProfile.wall_us, the network's one round-clock sample, the same
// value net.round_wall_us observed) is distributed across the round's
// critical segments proportionally to their logical weights, with the final
// segment taking the exact remainder — so per round, segment walls sum to
// the recorded wall bit-for-bit. analyze() also attributes the
// deterministic net.alloc.* / vss.alloc.* deltas to phases via the rounds'
// recorded phase annotations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "net/recorder.hpp"

namespace gfor14::audit {

/// One segment of a round's critical chain. `weight` is logical; `wall_us`
/// is that segment's share of the round's recorded wall (0 when the report
/// was built without wall distribution).
struct RoundSegment {
  std::string name;  ///< "compute" | "send" | "merge"
  std::uint64_t weight = 0;
  double wall_us = 0.0;
};

/// The critical chain of one recorded round.
struct RoundCritPath {
  std::size_t round = 0;
  net::PartyId dominant = 0;   ///< party owning the max-weight chain
  std::uint64_t weight = 0;    ///< chain weight (sum of segments)
  std::size_t messages = 0;    ///< messages the dominant party sent
  std::size_t elements = 0;    ///< elements the dominant party sent
  double wall_us = 0.0;        ///< the round's recorded wall (environmental)
  std::string phase;           ///< recorded phase annotation ("" = untraced)
  std::vector<RoundSegment> segments;
};

/// Deterministic counters summed over the rounds annotated with one phase.
struct PhaseAttribution {
  std::string phase;  ///< "(untraced)" for rounds without an annotation
  std::size_t rounds = 0;
  std::size_t messages = 0;
  std::size_t elements = 0;
  std::uint64_t net_alloc_count = 0;
  std::uint64_t net_alloc_bytes = 0;
  std::uint64_t vss_alloc_count = 0;
  std::uint64_t vss_alloc_bytes = 0;
  double wall_us = 0.0;  ///< environmental
};

struct CritPathReport {
  std::vector<RoundCritPath> rounds;
  /// Phase attribution in order of first appearance in the recording.
  std::vector<PhaseAttribution> phases;
  std::uint64_t total_weight = 0;
  double total_wall_us = 0.0;
  /// Party with the largest summed chain weight over all rounds (ties to
  /// the smaller id).
  net::PartyId dominant_party = 0;
  std::size_t dominant_rounds = 0;  ///< rounds that party dominates

  /// Deterministic block always included; wall fields (per-segment shares,
  /// per-round wall, phase wall) only when `include_wall`.
  json::Value to_json(bool include_wall) const;
};

/// Full analysis of a recording: per-round critical chains, phase
/// attribution, dominance. Fails (nullopt + diagnostic) on an empty
/// recording or a message endpoint outside [0, n) — malformed recordings
/// must not produce plausible-looking profiles.
std::optional<CritPathReport> analyze(const net::Recording& rec,
                                      std::string* error = nullptr);

/// Human-readable critical-path table. Deterministic: wall columns appear
/// only when `with_wall` (the default `gfor14-audit critpath` output is
/// byte-identical across lane counts).
std::string render_critpath(const CritPathReport& report, bool with_wall);

/// Per-round latency waterfall: one bar per round, recorded wall split
/// across the round's critical segments (exact reconciliation per round).
std::string render_waterfall(const CritPathReport& report, std::size_t width);

}  // namespace gfor14::audit
