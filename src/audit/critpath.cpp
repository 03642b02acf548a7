#include "audit/critpath.hpp"

#include <algorithm>
#include <map>

#include "audit/report.hpp"

namespace gfor14::audit {

namespace {

/// Canonical per-party view of one recorded round: the party's sends in
/// recording order plus their element total. Callers have range-checked
/// every sender against n.
struct PartySends {
  std::vector<const net::RecordedMessage*> messages;
  std::size_t elements = 0;
};

std::vector<PartySends> sends_by_party(const net::RecordedRound& round,
                                       std::size_t n) {
  std::vector<PartySends> out(n);
  for (const net::RecordedMessage& m : round.messages) {
    out[m.from].messages.push_back(&m);
    out[m.from].elements += m.elements;
  }
  return out;
}

constexpr std::uint64_t kBarrierWeight = 1;

std::uint64_t compute_weight(const PartySends& sends) {
  return 1 + static_cast<std::uint64_t>(sends.elements);
}
std::uint64_t send_weight(const net::RecordedMessage& m) {
  return 1 + static_cast<std::uint64_t>(m.elements);
}

}  // namespace

std::optional<CritPathReport> analyze(const net::Recording& rec,
                                      std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<CritPathReport> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (rec.rounds.empty()) return fail("recording has no rounds");
  if (rec.n == 0) return fail("recording has no parties");
  for (const net::RecordedRound& round : rec.rounds)
    for (const net::RecordedMessage& m : round.messages)
      if (m.from >= rec.n || (!m.broadcast && m.to >= rec.n))
        return fail(fmt("round %zu: message endpoint out of range (n=%zu)",
                        round.index, rec.n));

  CritPathReport report;
  std::map<net::PartyId, std::size_t> dominance;
  std::map<std::string, std::size_t> phase_index;
  for (const net::RecordedRound& round : rec.rounds) {
    const auto per_party = sends_by_party(round, rec.n);
    RoundCritPath rc;
    rc.round = round.index;
    rc.wall_us = round.profile.wall_us;
    rc.phase = round.profile.phase;
    // The synchronous round's critical chain: the max over parties of
    // compute + sends, ties to the smaller id.
    std::uint64_t best_chain = 0;
    for (net::PartyId p = 0; p < rec.n; ++p) {
      std::uint64_t chain = compute_weight(per_party[p]);
      for (const net::RecordedMessage* m : per_party[p].messages)
        chain += send_weight(*m);
      if (chain > best_chain) {
        best_chain = chain;
        rc.dominant = p;
      }
    }
    const PartySends& dom = per_party[rc.dominant];
    rc.messages = dom.messages.size();
    rc.elements = dom.elements;
    rc.weight = best_chain + kBarrierWeight;
    // Segments: the dominant party's compute, its sends, the merge barrier.
    rc.segments.push_back({"compute", compute_weight(dom), 0.0});
    std::uint64_t send_total = 0;
    for (const net::RecordedMessage* m : dom.messages)
      send_total += send_weight(*m);
    if (send_total > 0) rc.segments.push_back({"send", send_total, 0.0});
    rc.segments.push_back({"merge", kBarrierWeight, 0.0});
    // Wall distribution: proportional to weight, last segment takes the
    // exact remainder so the per-round segment sum reconciles bit-for-bit
    // with the recorded round wall.
    if (rc.wall_us > 0.0) {
      double assigned = 0.0;
      for (std::size_t i = 0; i < rc.segments.size(); ++i) {
        if (i + 1 == rc.segments.size()) {
          rc.segments[i].wall_us = rc.wall_us - assigned;
        } else {
          rc.segments[i].wall_us =
              rc.wall_us * static_cast<double>(rc.segments[i].weight) /
              static_cast<double>(rc.weight);
          assigned += rc.segments[i].wall_us;
        }
      }
    }
    report.total_weight += rc.weight;
    report.total_wall_us += rc.wall_us;
    ++dominance[rc.dominant];

    const std::string phase_key = rc.phase.empty() ? "(untraced)" : rc.phase;
    auto [it, inserted] =
        phase_index.try_emplace(phase_key, report.phases.size());
    if (inserted) {
      PhaseAttribution attr;
      attr.phase = phase_key;
      report.phases.push_back(std::move(attr));
    }
    PhaseAttribution& attr = report.phases[it->second];
    ++attr.rounds;
    attr.messages += round.messages.size();
    for (const net::RecordedMessage& m : round.messages)
      attr.elements += m.elements;
    attr.net_alloc_count += round.profile.net_alloc_count;
    attr.net_alloc_bytes += round.profile.net_alloc_bytes;
    attr.vss_alloc_count += round.profile.vss_alloc_count;
    attr.vss_alloc_bytes += round.profile.vss_alloc_bytes;
    attr.wall_us += round.profile.wall_us;

    report.rounds.push_back(std::move(rc));
  }

  for (const auto& [party, rounds] : dominance)
    if (rounds > report.dominant_rounds) {
      report.dominant_rounds = rounds;
      report.dominant_party = party;
    }
  return report;
}

json::Value CritPathReport::to_json(bool include_wall) const {
  json::Value doc = json::Value::object();
  doc.set("total_weight", static_cast<double>(total_weight));
  doc.set("dominant_party", static_cast<double>(dominant_party));
  doc.set("dominant_rounds", static_cast<double>(dominant_rounds));
  if (include_wall) doc.set("total_wall_us", total_wall_us);
  json::Value rounds_json = json::Value::array();
  for (const RoundCritPath& r : rounds) {
    json::Value o = json::Value::object();
    o.set("round", static_cast<double>(r.round));
    o.set("dominant", static_cast<double>(r.dominant));
    o.set("weight", static_cast<double>(r.weight));
    o.set("messages", static_cast<double>(r.messages));
    o.set("elements", static_cast<double>(r.elements));
    o.set("phase", r.phase);
    json::Value segs = json::Value::array();
    for (const RoundSegment& s : r.segments) {
      json::Value so = json::Value::object();
      so.set("name", s.name);
      so.set("weight", static_cast<double>(s.weight));
      if (include_wall) so.set("wall_us", s.wall_us);
      segs.push_back(std::move(so));
    }
    o.set("segments", std::move(segs));
    if (include_wall) o.set("wall_us", r.wall_us);
    rounds_json.push_back(std::move(o));
  }
  doc.set("rounds", std::move(rounds_json));
  json::Value phases_json = json::Value::array();
  for (const PhaseAttribution& p : phases) {
    json::Value o = json::Value::object();
    o.set("phase", p.phase);
    o.set("rounds", static_cast<double>(p.rounds));
    o.set("messages", static_cast<double>(p.messages));
    o.set("elements", static_cast<double>(p.elements));
    o.set("net_alloc_count", static_cast<double>(p.net_alloc_count));
    o.set("net_alloc_bytes", static_cast<double>(p.net_alloc_bytes));
    o.set("vss_alloc_count", static_cast<double>(p.vss_alloc_count));
    o.set("vss_alloc_bytes", static_cast<double>(p.vss_alloc_bytes));
    if (include_wall) o.set("wall_us", p.wall_us);
    phases_json.push_back(std::move(o));
  }
  doc.set("phases", std::move(phases_json));
  return doc;
}

std::string render_critpath(const CritPathReport& report, bool with_wall) {
  std::string out;
  out += fmt("critical path: %zu rounds, total weight %llu, dominant party "
             "%zu (%zu/%zu rounds)\n",
             report.rounds.size(),
             static_cast<unsigned long long>(report.total_weight),
             static_cast<std::size_t>(report.dominant_party),
             report.dominant_rounds, report.rounds.size());
  out += with_wall
             ? "round  party   weight  msgs  elems      wall_us  phase\n"
             : "round  party   weight  msgs  elems  phase\n";
  for (const RoundCritPath& r : report.rounds) {
    const std::string phase = r.phase.empty() ? "-" : r.phase;
    if (with_wall)
      out += fmt("%5zu  %5zu  %7llu  %4zu  %5zu  %11.1f  %s\n", r.round,
                 static_cast<std::size_t>(r.dominant),
                 static_cast<unsigned long long>(r.weight), r.messages,
                 r.elements, r.wall_us, phase.c_str());
    else
      out += fmt("%5zu  %5zu  %7llu  %4zu  %5zu  %s\n", r.round,
                 static_cast<std::size_t>(r.dominant),
                 static_cast<unsigned long long>(r.weight), r.messages,
                 r.elements, phase.c_str());
  }
  out += "\nphase attribution (deterministic counters):\n";
  out += "rounds   elems  net.alloc         vss.alloc         phase\n";
  for (const PhaseAttribution& p : report.phases)
    out += fmt("%6zu  %6zu  %4llu/%-10llu  %4llu/%-10llu  %s\n", p.rounds,
               p.elements, static_cast<unsigned long long>(p.net_alloc_count),
               static_cast<unsigned long long>(p.net_alloc_bytes),
               static_cast<unsigned long long>(p.vss_alloc_count),
               static_cast<unsigned long long>(p.vss_alloc_bytes),
               p.phase.c_str());
  return out;
}

std::string render_waterfall(const CritPathReport& report, std::size_t width) {
  if (width == 0) width = 48;
  std::string out;
  // Scale to the slowest round (or heaviest, when the recording predates
  // wall annotations).
  double max_wall = 0.0;
  std::uint64_t max_weight = 0;
  for (const RoundCritPath& r : report.rounds) {
    max_wall = std::max(max_wall, r.wall_us);
    max_weight = std::max(max_weight, r.weight);
  }
  const bool use_wall = max_wall > 0.0;
  out += use_wall ? fmt("latency waterfall: %zu rounds, total %.1f us "
                        "(segments: #=compute =send .=merge)\n",
                        report.rounds.size(), report.total_wall_us)
                  : fmt("latency waterfall: %zu rounds, logical weights (no "
                        "wall recorded; segments: #=compute =send .=merge)\n",
                        report.rounds.size());
  for (const RoundCritPath& r : report.rounds) {
    const double total = use_wall ? r.wall_us : static_cast<double>(r.weight);
    const double scale = use_wall ? max_wall : static_cast<double>(max_weight);
    std::string bar;
    for (const RoundSegment& s : r.segments) {
      const double share = use_wall ? s.wall_us : static_cast<double>(s.weight);
      const std::size_t cells =
          scale > 0.0 ? static_cast<std::size_t>(share / scale *
                                                 static_cast<double>(width))
                      : 0;
      const char glyph =
          s.name == "compute" ? '#' : (s.name == "send" ? '=' : '.');
      bar.append(cells, glyph);
    }
    if (bar.empty() && total > 0.0) bar = ".";
    const std::string phase = r.phase.empty() ? "-" : r.phase;
    out += use_wall ? fmt("%5zu %10.1f us  p%-2zu |%-*s| %s\n", r.round,
                          r.wall_us, static_cast<std::size_t>(r.dominant),
                          static_cast<int>(width), bar.c_str(), phase.c_str())
                    : fmt("%5zu %10llu w   p%-2zu |%-*s| %s\n", r.round,
                          static_cast<unsigned long long>(r.weight),
                          static_cast<std::size_t>(r.dominant),
                          static_cast<int>(width), bar.c_str(), phase.c_str());
  }
  return out;
}

}  // namespace gfor14::audit
