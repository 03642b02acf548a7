// Human-readable audit views over a flight recording (DESIGN.md §10).
//
// A Recording already contains everything the paper's accountability story
// needs to be inspected after the fact: who talked to whom and how much,
// what happened round by round, and which parties were blamed for which
// observed faults. These renderers turn that stream into terminal tables
// for the gfor14-audit CLI; they read only the Recording (never a live
// network), so any archived recording can be audited offline.
#pragma once

#include <string>

#include "common/json.hpp"
#include "net/recorder.hpp"

namespace gfor14::audit {

/// printf into a std::string sized from vsnprintf's return value, so rows
/// of any length (wide waterfalls, long phase paths) come back whole.
std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Per-party communication matrix: p2p field elements sent from row party
/// to column party, plus per-sender broadcast totals and per-party sums.
std::string render_matrix(const net::Recording& rec);

/// Per-round timeline: message/element counts, adversary tampers, fault
/// events and new blame records for each recorded round.
std::string render_timeline(const net::Recording& rec);

/// Blame & fault attribution: every blame record grouped by accused party
/// (public verdicts first), then the full fault-event log.
std::string render_attribution(const net::Recording& rec);

/// `top`-style resource view over a telemetry document
/// (telemetry::TelemetrySampler::to_json(), or the `telemetry` block of a
/// schema-3 BENCH artifact): per-counter totals with rates over the last
/// sampling interval, then the environment block (RSS, round-wall p50/p95)
/// when present. Works live (gfor14_cli --top renders the sampler at exit)
/// and offline (gfor14-audit top FILE).
std::string render_top(const json::Value& telemetry_doc);

}  // namespace gfor14::audit
