#include "audit/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <map>
#include <vector>

namespace gfor14::audit {

std::string fmt(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list sizing;
  va_copy(sizing, args);
  const int len = std::vsnprintf(nullptr, 0, format, sizing);
  va_end(sizing);
  std::string out;
  if (len > 0) {
    out.resize(static_cast<std::size_t>(len));
    std::vsnprintf(out.data(), out.size() + 1, format, args);
  }
  va_end(args);
  return out;
}

namespace {

std::string party_str(net::PartyId p) {
  if (p == net::kPublicBlame) return "public";
  return "P" + std::to_string(p);
}

}  // namespace

std::string render_matrix(const net::Recording& rec) {
  const std::size_t n = rec.n;
  std::vector<std::vector<std::size_t>> p2p(n, std::vector<std::size_t>(n, 0));
  std::vector<std::size_t> bcast(n, 0);
  for (const auto& round : rec.rounds)
    for (const auto& m : round.messages) {
      if (m.from >= n || (!m.broadcast && m.to >= n)) continue;
      if (m.broadcast)
        bcast[m.from] += m.elements;
      else
        p2p[m.from][m.to] += m.elements;
    }

  std::string out = "communication matrix (field elements sent, " +
                    std::to_string(rec.rounds.size()) + " recorded rounds)\n";
  out += fmt("%-8s", "from\\to");
  for (std::size_t to = 0; to < n; ++to)
    out += fmt(" %9s", party_str(static_cast<net::PartyId>(to)).c_str());
  out += fmt(" %9s %9s\n", "bcast", "total");
  std::size_t grand = 0;
  for (std::size_t from = 0; from < n; ++from) {
    out += fmt("%-8s", party_str(static_cast<net::PartyId>(from)).c_str());
    std::size_t row_total = bcast[from];
    for (std::size_t to = 0; to < n; ++to) {
      out += fmt(" %9zu", p2p[from][to]);
      row_total += p2p[from][to];
    }
    out += fmt(" %9zu %9zu\n", bcast[from], row_total);
    grand += row_total;
  }
  out += fmt("%-8s", "recv");
  for (std::size_t to = 0; to < n; ++to) {
    std::size_t col = 0;
    for (std::size_t from = 0; from < n; ++from) col += p2p[from][to];
    out += fmt(" %9zu", col);
  }
  out += fmt(" %9s %9zu\n", "", grand);
  return out;
}

std::string render_timeline(const net::Recording& rec) {
  std::string out = "round timeline (" + std::to_string(rec.rounds.size()) +
                    " recorded rounds)\n";
  out += fmt("%-6s %6s %9s %6s %7s %7s %7s\n", "round", "msgs", "elements",
             "bcast", "tamper", "faults", "blames");
  for (const auto& round : rec.rounds) {
    std::size_t elements = 0, bcasts = 0;
    for (const auto& m : round.messages) {
      elements += m.elements;
      if (m.broadcast) ++bcasts;
    }
    out += fmt("%-6zu %6zu %9zu %6zu %7zu %7zu %7zu\n", round.index,
               round.messages.size(), elements, bcasts, round.tampers.size(),
               round.faults.size(), round.blames.size());
    for (const auto& f : round.faults)
      out += fmt("       fault: %s from=%s hit=%zu delta=%zu\n",
                 net::fault_kind_name(f.spec.kind),
                 party_str(f.spec.from).c_str(), f.messages_hit,
                 f.elements_delta);
    for (const auto& t : round.tampers)
      out += fmt("       tamper: %s %s%s\n",
                 t.broadcast ? "bcast" : "p2p", party_str(t.from).c_str(),
                 t.broadcast ? "" : ("->" + party_str(t.to)).c_str());
    for (const auto& b : round.blames)
      out += fmt("       blame: %s accuses %s: %s\n",
                 party_str(b.accuser).c_str(), party_str(b.accused).c_str(),
                 b.reason.c_str());
  }
  return out;
}

std::string render_attribution(const net::Recording& rec) {
  // Accused -> records; std::map orders kPublicBlame (PartyId(-1)) last,
  // so iterate it twice to surface public verdicts first.
  std::map<net::PartyId, std::vector<const net::BlameRecord*>> by_accused;
  std::size_t total_blames = 0;
  for (const auto& round : rec.rounds)
    for (const auto& b : round.blames) {
      by_accused[b.accused].push_back(&b);
      ++total_blames;
    }

  std::string out =
      "blame attribution (" + std::to_string(total_blames) + " records)\n";
  if (by_accused.empty()) out += "  (no blame records)\n";
  for (const bool public_pass : {true, false})
    for (const auto& [accused, records] : by_accused) {
      const bool any_public = [&] {
        for (const auto* b : records)
          if (b->accuser == net::kPublicBlame) return true;
        return false;
      }();
      if (any_public != public_pass) continue;
      out += "  accused " + party_str(accused) + " (" +
             std::to_string(records.size()) + "):\n";
      for (const auto* b : records)
        out += fmt("    round %zu, accuser %s: %s\n", b->round,
                   party_str(b->accuser).c_str(), b->reason.c_str());
    }

  std::size_t total_faults = 0;
  for (const auto& round : rec.rounds) total_faults += round.faults.size();
  out += "fault events (" + std::to_string(total_faults) + ")\n";
  if (total_faults == 0) out += "  (no fault events)\n";
  for (const auto& round : rec.rounds)
    for (const auto& f : round.faults)
      out += fmt("  round %zu: %s from=%s to=%s hit=%zu delta=%zu\n", f.round,
                 net::fault_kind_name(f.spec.kind),
                 party_str(f.spec.from).c_str(),
                 f.spec.to == net::kAllReceivers ? "*"
                                                 : party_str(f.spec.to).c_str(),
                 f.messages_hit, f.elements_delta);
  return out;
}

namespace {

std::string human_bytes(double b) {
  if (b >= 1024.0 * 1024.0) return fmt("%.1f MiB", b / (1024.0 * 1024.0));
  if (b >= 1024.0) return fmt("%.1f KiB", b / 1024.0);
  return fmt("%.0f B", b);
}

}  // namespace

std::string render_top(const json::Value& doc) {
  const json::Value* snaps = doc.find("snapshots");
  const std::size_t count = snaps ? snaps->size() : 0;
  const double interval =
      doc.find("interval") ? doc.find("interval")->as_double() : 0.0;
  const double stride =
      doc.find("stride") ? doc.find("stride")->as_double() : interval;
  const double rounds =
      doc.find("rounds") ? doc.find("rounds")->as_double() : 0.0;

  std::string out =
      fmt("telemetry: %zu snapshots, %.0f rounds observed "
          "(interval %.0f, effective stride %.0f)\n",
          count, rounds, interval, stride);
  if (count == 0) {
    out += "  (no snapshots)\n";
    return out;
  }

  // Totals come from the last snapshot; rates from the delta between the
  // last two (per round, so they are comparable across sampling intervals).
  const json::Value& last = snaps->at(count - 1);
  const json::Value* prev = count >= 2 ? &snaps->at(count - 2) : nullptr;
  const double last_round =
      last.find("round") ? last.find("round")->as_double() : 0.0;
  const double prev_round =
      prev && prev->find("round") ? prev->find("round")->as_double() : 0.0;
  const double dr = last_round - prev_round;

  out += fmt("%-36s %14s %14s\n", "counter", "total",
             prev ? "per-round*" : "per-round");
  const json::Value* counters = last.find("counters");
  const json::Value* prev_counters = prev ? prev->find("counters") : nullptr;
  if (counters)
    for (const auto& [name, v] : counters->members()) {
      double rate = 0.0;
      if (dr > 0) {
        const json::Value* pv =
            prev_counters ? prev_counters->find(name) : nullptr;
        rate = (v.as_double() - (pv ? pv->as_double() : 0.0)) / dr;
      } else if (last_round > 0) {
        rate = v.as_double() / last_round;
      }
      out += fmt("%-36s %14.0f %14.1f\n", name.c_str(), v.as_double(), rate);
    }
  out += prev ? "  (*rate over the last sampling interval)\n"
              : "  (rate averaged over the whole run)\n";

  const json::Value* env = doc.find("environment");

  // Supervised-engine health (DESIGN.md §14/§15): present only when
  // server.* counters were sampled, i.e. the document came from a
  // supervised run. When the run carried an SLO annotation, structured
  // breach reasons replace the legacy any-session-failed boolean.
  if (counters) {
    const auto cval = [&](const char* key) {
      const json::Value* v = counters->find(key);
      return v ? v->as_double() : 0.0;
    };
    if (cval("server.admitted") > 0) {
      const json::Value* slo = env ? env->find("slo") : nullptr;
      const json::Value* breaches = slo ? slo->find("breaches") : nullptr;
      const bool slo_degraded =
          slo && slo->find("degraded") && slo->find("degraded")->as_bool();
      const bool degraded = cval("server.failed_sessions") > 0 || slo_degraded;
      out += fmt("engine: %s | %.0f admitted, %.0f completed, %.0f retried, "
                 "%.0f attempts failed, %.0f sessions failed\n",
                 degraded ? "DEGRADED" : "healthy", cval("server.admitted"),
                 cval("server.completed"), cval("server.retried"),
                 cval("server.failed"), cval("server.failed_sessions"));
      if (breaches)
        for (const json::Value& b : breaches->items()) {
          const auto field = [&](const char* key) {
            const json::Value* v = b.find(key);
            return v ? v->as_double() : 0.0;
          };
          const std::string name =
              b.find("slo") ? b.find("slo")->as_string() : "?";
          // Delivery/throughput targets are minima, the others maxima —
          // same direction convention as server::SloBreach::describe().
          const bool minimum =
              name == "messages_per_sec" || name == "honest_delivery";
          out += fmt("  slo breach: %s %.2f %s %.2f (since wave %.0f)\n",
                     name.c_str(), field("actual"), minimum ? "<" : ">",
                     field("target"), field("since_wave"));
        }
    }
  }

  if (env == nullptr) return out;
  out += "environment\n";
  if (const json::Value* rss = env->find("rss_bytes"))
    if (rss->size() > 0)
      out += "  rss              " +
             human_bytes(rss->at(rss->size() - 1).as_double()) + "\n";
  if (const json::Value* peak = env->find("peak_rss_bytes"))
    out += "  peak rss         " + human_bytes(peak->as_double()) + "\n";
  if (const json::Value* wall = env->find("wall_us"))
    if (wall->size() > 0)
      out += fmt("  wall             %.1f ms\n",
                 wall->at(wall->size() - 1).as_double() / 1000.0);
  if (const json::Value* rw = env->find("round_wall")) {
    const auto field = [&](const char* key) {
      const json::Value* v = rw->find(key);
      return v ? v->as_double() : 0.0;
    };
    out += fmt("  round wall       p50 %.1f us, p95 %.1f us (%.0f rounds)\n",
               field("p50_us"), field("p95_us"), field("count"));
  }
  return out;
}

}  // namespace gfor14::audit
