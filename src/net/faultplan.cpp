#include "net/faultplan.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string_view>

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gfor14::net {

static_assert(std::size(kFaultKinds) == 7, "one row per FaultKind");

const char* fault_kind_name(FaultKind kind) {
  for (const auto& row : kFaultKinds)
    if (row.kind == kind) return row.name;
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (const auto& row : kFaultKinds)
    if (name == row.name) return row.kind;
  return std::nullopt;
}

std::vector<PartyId> FaultPlan::senders() const {
  std::set<PartyId> out;
  for (const auto& spec : specs) out.insert(spec.from);
  return {out.begin(), out.end()};
}

namespace {

/// An unsigned decimal read whole: no sign, space, prefix or trailing text.
template <typename T>
bool parse_size(std::string_view text, T& out) {
  if (text.empty()) return false;
  const auto* end = text.data() + text.size();
  const auto result = std::from_chars(text.data(), end, out);
  return result.ec == std::errc{} && result.ptr == end;
}

std::optional<FaultSpec> parse_entry(std::string_view entry,
                                     std::string& error) {
  const auto fail = [&](std::string msg) -> std::optional<FaultSpec> {
    error = "fault spec \"" + std::string(entry) + "\": " + std::move(msg);
    return std::nullopt;
  };
  const std::size_t at = entry.find('@');
  if (at == std::string_view::npos) return fail("missing '@'");
  const std::string_view token = entry.substr(0, at);
  const auto* row = std::find_if(
      std::begin(kFaultKinds), std::end(kFaultKinds),
      [&](const FaultKindNames& r) { return r.token == token; });
  if (row == std::end(kFaultKinds)) {
    std::string want;
    for (const auto& r : kFaultKinds)
      want += (want.empty() ? "" : "|") + std::string(r.token);
    return fail("unknown fault kind \"" + std::string(token) + "\" (want " +
                want + ")");
  }
  std::string_view rest = entry.substr(at + 1);
  const std::size_t colon = rest.find(':');
  if (colon == std::string_view::npos) return fail("missing ':' after round");
  FaultSpec spec;
  spec.kind = row->kind;
  if (!parse_size(rest.substr(0, colon), spec.round))
    return fail("bad round number");
  rest = rest.substr(colon + 1);

  if (spec.kind == FaultKind::kCrash) {
    if (!parse_size(rest, spec.from)) return fail("bad crash party id");
    spec.amount = 0;
    return spec;
  }

  const std::size_t arrow = rest.find("->");
  if (arrow == std::string_view::npos) return fail("missing '->'");
  if (!parse_size(rest.substr(0, arrow), spec.from))
    return fail("bad sender id");
  rest = rest.substr(arrow + 2);
  // Optional trailing ":AMT".
  std::string_view target = rest;
  const std::size_t amt_colon = rest.find(':');
  if (amt_colon != std::string_view::npos) {
    target = rest.substr(0, amt_colon);
    if (!parse_size(rest.substr(amt_colon + 1), spec.amount))
      return fail("bad amount");
  }
  if (target == "bcast") {
    spec.channel = FaultChannel::kBroadcast;
    spec.to = 0;
  } else if (target == "*") {
    spec.to = kAllReceivers;
  } else if (!parse_size(target, spec.to)) {
    return fail("bad receiver (want party id, '*' or 'bcast')");
  }
  // Normalize: drop and replay ignore the amount; parsed specs compare equal
  // to builder-constructed ones.
  if (spec.kind == FaultKind::kDrop || spec.kind == FaultKind::kReplayStale)
    spec.amount = 0;
  return spec;
}

}  // namespace

std::optional<std::uint64_t> seed_from_env(const char* var,
                                           std::uint64_t fallback,
                                           std::string* bad) {
  const char* env = std::getenv(var);
  if (env == nullptr) return fallback;
  std::uint64_t seed = 0;
  if (parse_size(env, seed)) return seed;
  if (bad) *bad = env;
  return std::nullopt;
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  std::string local_error;
  std::string_view rest = spec;
  bool expect_entry = !rest.empty();
  while (expect_entry) {
    const std::size_t comma = rest.find(',');
    const std::string_view entry = rest.substr(0, comma);
    expect_entry = comma != std::string_view::npos;
    rest = expect_entry ? rest.substr(comma + 1) : std::string_view{};
    if (entry.empty()) {
      if (error) *error = "empty fault spec entry (stray comma?)";
      return std::nullopt;
    }
    const auto parsed = parse_entry(entry, local_error);
    if (!parsed) {
      if (error) *error = local_error;
      return std::nullopt;
    }
    plan.specs.push_back(*parsed);
  }
  return plan;
}

FaultPlan FaultPlan::random(Rng& rng, const RandomSpec& spec) {
  GFOR14_EXPECTS(!spec.targets.empty() || spec.count == 0);
  FaultPlan plan;
  // Payload faults first, crashes optionally at the end: a crash is drawn
  // with probability ~1/8 per slot so most random plans keep all parties
  // talking (crashes otherwise mask every later fault on their channels).
  for (std::size_t i = 0; i < spec.count; ++i) {
    FaultSpec f;
    f.round = rng.next_below(std::max<std::size_t>(spec.rounds, 1));
    f.from = spec.targets[rng.next_below(spec.targets.size())];
    if (spec.allow_crash && rng.next_below(8) == 0) {
      f.kind = FaultKind::kCrash;
      f.amount = 0;
      plan.specs.push_back(f);
      continue;
    }
    constexpr FaultKind kPayloadKinds[] = {
        FaultKind::kDrop,           FaultKind::kTruncate,
        FaultKind::kExtend,         FaultKind::kCorruptElement,
        FaultKind::kCorruptBit,     FaultKind::kReplayStale,
    };
    f.kind = kPayloadKinds[rng.next_below(std::size(kPayloadKinds))];
    f.amount = 1 + rng.next_below(std::max<std::size_t>(spec.max_amount, 1));
    if (spec.allow_broadcast && rng.next_below(3) == 0) {
      f.channel = FaultChannel::kBroadcast;
      f.to = 0;
    } else {
      f.channel = FaultChannel::kP2p;
      if (spec.n == 0 || rng.next_below(4) == 0) {
        f.to = kAllReceivers;
      } else {
        f.to = rng.next_below(spec.n);
      }
    }
    plan.specs.push_back(f);
  }
  return plan;
}

FaultEngine::FaultEngine(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), rng_(seed) {
  for (const auto& spec : plan_.specs) {
    if (spec.kind != FaultKind::kReplayStale) continue;
    const StaleKey key{spec.from, spec.to, spec.channel};
    if (std::find(stale_watch_.begin(), stale_watch_.end(), key) ==
        stale_watch_.end())
      stale_watch_.push_back(key);
  }
}

void FaultEngine::apply(Network& net) {
  const std::size_t round = round_++;
  if (plan_.specs.empty()) return;  // strict no-op: nothing touched

  // 1. Standing crash faults, ascending party id: once a party's crash
  // round has passed, none of its traffic ever reaches the wire again.
  std::vector<PartyId> crashed;
  for (const auto& spec : plan_.specs) {
    if (spec.kind != FaultKind::kCrash || spec.round > round) continue;
    if (spec.from < net.n() &&
        std::find(crashed.begin(), crashed.end(), spec.from) == crashed.end())
      crashed.push_back(spec.from);
  }
  std::sort(crashed.begin(), crashed.end());
  for (PartyId party : crashed) {
    FaultEvent event;
    for (PartyId to = 0; to < net.n(); ++to) {
      auto& queue = net.pending_.p2p[to][party];
      if (queue.empty()) continue;
      event.messages_hit += queue.size();
      for (const auto& p : queue) event.elements_delta += p.size();
      net.substitute_p2p(party, to, {});
    }
    auto& bqueue = net.pending_.bcast[party];
    if (!bqueue.empty()) {
      event.messages_hit += bqueue.size();
      for (const auto& p : bqueue) event.elements_delta += p.size();
      net.substitute_broadcast(party, {});
    }
    // One log entry per round the crash actually silenced something, plus
    // one on the activation round so the log shows when the party died.
    const bool activation =
        std::any_of(plan_.specs.begin(), plan_.specs.end(), [&](const auto& s) {
          return s.kind == FaultKind::kCrash && s.from == party &&
                 s.round == round;
        });
    if (event.messages_hit > 0 || activation)
      note(net, {FaultKind::kCrash, round, party, 0, FaultChannel::kP2p, 0},
           round, event);
  }

  // 2. Scripted payload faults for this round, in plan order.
  for (const auto& spec : plan_.specs) {
    if (spec.kind == FaultKind::kCrash || spec.round != round) continue;
    apply_one(net, spec, round);
  }

  // 3. Snapshot the channels replay specs watch — the post-fault queues are
  // what gets delivered, i.e. the genuine stale traffic of this round.
  record_stale(net);
}

void FaultEngine::apply_one(Network& net, const FaultSpec& spec,
                            std::size_t round) {
  if (spec.from >= net.n()) return;  // out-of-range spec: scheduled no-op
  FaultEvent event;

  const auto substitute = [&](PartyId to, std::vector<Payload> payloads) {
    if (spec.channel == FaultChannel::kBroadcast)
      net.substitute_broadcast(spec.from, std::move(payloads));
    else
      net.substitute_p2p(spec.from, to, std::move(payloads));
  };
  const auto queue_of = [&](PartyId to) -> PayloadQueue& {
    return spec.channel == FaultChannel::kBroadcast
               ? net.pending_.bcast[spec.from]
               : net.pending_.p2p[to][spec.from];
  };
  std::vector<PartyId> receivers;
  if (spec.channel == FaultChannel::kBroadcast) {
    receivers.push_back(0);  // one logical broadcast queue per sender
  } else if (spec.to == kAllReceivers) {
    for (PartyId to = 0; to < net.n(); ++to) receivers.push_back(to);
  } else if (spec.to < net.n()) {
    receivers.push_back(spec.to);
  }

  for (PartyId to : receivers) {
    auto& queue = queue_of(to);
    switch (spec.kind) {
      case FaultKind::kDrop: {
        if (queue.empty()) break;
        event.messages_hit += queue.size();
        for (const auto& p : queue) event.elements_delta += p.size();
        substitute(to, {});
        break;
      }
      case FaultKind::kReplayStale: {
        // A replay key stores the channel's own coordinates, so a wildcard
        // spec looks up each concrete receiver's snapshot.
        const StaleKey key{spec.from,
                           spec.channel == FaultChannel::kBroadcast
                               ? PartyId{0}
                               : to,
                           spec.channel};
        const std::vector<Payload>* snapshot = nullptr;
        for (const auto& [k, snap] : stale_)
          if (k == key) snapshot = &snap;
        if (snapshot == nullptr) break;  // nothing recorded yet: no-op
        event.messages_hit += snapshot->size();
        for (const auto& p : *snapshot) event.elements_delta += p.size();
        substitute(to, *snapshot);
        break;
      }
      default: {
        if (queue.empty()) break;
        std::vector<Payload> mutated(queue.begin(), queue.end());
        FaultEvent local;
        for (auto& payload : mutated) apply_payload_fault(spec, payload, local);
        if (local.messages_hit == 0) break;  // e.g. truncate of empty payloads
        event.messages_hit += local.messages_hit;
        event.elements_delta += local.elements_delta;
        substitute(to, std::move(mutated));
        break;
      }
    }
  }

  note(net, spec, round, event);
}

void FaultEngine::apply_payload_fault(const FaultSpec& spec, Payload& payload,
                                      FaultEvent& event) {
  switch (spec.kind) {
    case FaultKind::kTruncate: {
      const std::size_t cut = std::min(spec.amount, payload.size());
      if (cut == 0) return;
      payload.resize(payload.size() - cut);
      event.messages_hit += 1;
      event.elements_delta += cut;
      return;
    }
    case FaultKind::kExtend: {
      if (spec.amount == 0) return;
      for (std::size_t i = 0; i < spec.amount; ++i)
        payload.push_back(Fld::random(rng_));
      event.messages_hit += 1;
      event.elements_delta += spec.amount;
      return;
    }
    case FaultKind::kCorruptElement: {
      if (payload.empty() || spec.amount == 0) return;
      for (std::size_t i = 0; i < spec.amount; ++i) {
        const std::size_t at = rng_.next_below(payload.size());
        payload[at] = Fld::random(rng_);
      }
      event.messages_hit += 1;
      event.elements_delta += std::min(spec.amount, payload.size());
      return;
    }
    case FaultKind::kCorruptBit: {
      if (payload.empty() || spec.amount == 0) return;
      constexpr unsigned kFlippableBits =
          Fld::kBits < 64 ? Fld::kBits : 64;
      for (std::size_t i = 0; i < spec.amount; ++i) {
        const std::size_t at = rng_.next_below(payload.size());
        const unsigned bit =
            static_cast<unsigned>(rng_.next_below(kFlippableBits));
        // Addition is XOR in GF(2^e): adding the basis element 2^bit flips
        // exactly that coefficient.
        payload[at] += Fld::from_u64(std::uint64_t{1} << bit);
      }
      event.messages_hit += 1;
      event.elements_delta += std::min(spec.amount, payload.size());
      return;
    }
    default:
      return;  // drop / replay / crash never reach the per-payload path
  }
}

void FaultEngine::record_stale(Network& net) {
  for (const StaleKey& watch : stale_watch_) {
    std::vector<StaleKey> concrete;
    if (watch.channel == FaultChannel::kBroadcast) {
      concrete.push_back({watch.from, 0, watch.channel});
    } else if (watch.to == kAllReceivers) {
      for (PartyId to = 0; to < net.n(); ++to)
        concrete.push_back({watch.from, to, watch.channel});
    } else if (watch.to < net.n()) {
      concrete.push_back(watch);
    }
    for (const StaleKey& key : concrete) {
      if (key.from >= net.n()) continue;
      const auto& queue = key.channel == FaultChannel::kBroadcast
                              ? net.pending_.bcast[key.from]
                              : net.pending_.p2p[key.to][key.from];
      if (queue.empty()) continue;  // keep the last non-empty snapshot
      auto it = std::find_if(stale_.begin(), stale_.end(),
                             [&](const auto& e) { return e.first == key; });
      if (it == stale_.end())
        stale_.emplace_back(key,
                            std::vector<Payload>(queue.begin(), queue.end()));
      else
        it->second.assign(queue.begin(), queue.end());
    }
  }
}

void FaultEngine::note(Network& net, const FaultSpec& spec, std::size_t round,
                       FaultEvent event) {
  event.spec = spec;
  event.round = round;
  // Counters are created lazily on the first applied fault, so fault-free
  // executions (and empty plans) leave the metrics registry untouched.
  // Attribution follows the network's scope: a per-session registry sees
  // its own session's faults, the root sees everything after roll-up.
  net.registry()
      .counter(std::string("net.fault.") + fault_kind_name(spec.kind))
      .add(1);
  if (event.messages_hit > 0)
    net.registry().counter("net.fault.messages_hit").add(event.messages_hit);
  if (trace::Tracer::instance().enabled()) {
    trace::Span span(std::string("net.fault.") + fault_kind_name(spec.kind));
    span.metric("round", static_cast<double>(round));
    span.metric("from", static_cast<double>(spec.from));
    if (spec.kind != FaultKind::kCrash) {
      span.metric("to", spec.to == kAllReceivers
                            ? -1.0
                            : static_cast<double>(spec.to));
      span.metric("broadcast",
                  spec.channel == FaultChannel::kBroadcast ? 1.0 : 0.0);
    }
    span.metric("messages_hit", static_cast<double>(event.messages_hit));
    span.metric("elements_delta", static_cast<double>(event.elements_delta));
  }
  events_.push_back(std::move(event));
}

}  // namespace gfor14::net
