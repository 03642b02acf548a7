#include "net/recorder.hpp"

#include <algorithm>
#include <array>
#include <fstream>

#include "common/provenance.hpp"
#include "common/trace.hpp"

namespace gfor14::net {

namespace {

// Channel keys for the per-channel digest map: p2p channels are ordered
// (from, to) pairs, broadcast channels are senders. Party ids are < 2^20
// by a wide margin (the simulator caps n at 32).
std::uint64_t p2p_key(PartyId from, PartyId to) {
  return (static_cast<std::uint64_t>(from) << 20) |
         static_cast<std::uint64_t>(to);
}
std::uint64_t bcast_key(PartyId from) {
  return (1ULL << 40) | static_cast<std::uint64_t>(from);
}

// Party ids that may legitimately be sentinels (kPublicBlame,
// kAllReceivers == size_t(-1)) are stored as the JSON number -1.
json::Value party_to_json(PartyId p) {
  if (p == static_cast<PartyId>(-1)) return json::Value(-1);
  return json::Value(p);
}

/// Reads a count field through the checked accessor: false when absent or
/// not a non-negative integer <= 2^53.
template <typename T>
bool count_from_json(const json::Value* f, T& dst) {
  if (f == nullptr) return false;
  const auto v = f->as_count();
  if (!v) return false;
  dst = static_cast<T>(*v);
  return true;
}

/// A party id or the -1 sentinel; false when absent or anything else.
bool party_from_json(const json::Value* f, PartyId& dst) {
  if (f != nullptr && f->is_number() && f->as_double() == -1) {
    dst = static_cast<PartyId>(-1);
    return true;
  }
  return count_from_json(f, dst);
}

bool cost_report_from_json(const json::Value& v, CostReport& out) {
  if (!v.is_object()) return false;
  const auto field = [&](const char* name, std::size_t& dst) {
    return count_from_json(v.find(name), dst);
  };
  return field("rounds", out.rounds) &&
         field("broadcast_rounds", out.broadcast_rounds) &&
         field("broadcast_invocations", out.broadcast_invocations) &&
         field("p2p_messages", out.p2p_messages) &&
         field("p2p_elements", out.p2p_elements) &&
         field("broadcast_elements", out.broadcast_elements);
}

/// Payload words decoded while a recording file is parsed: every message
/// payload array's words in one flat vector, which all loaded rounds share.
struct LoadedPayloads {
  struct Array {
    std::size_t offset = 0, count = 0;
    const char* error = nullptr;  ///< the first bad element's diagnostic
  };
  std::shared_ptr<std::vector<Fld>> words =
      std::make_shared<std::vector<Fld>>();
  std::vector<Array> arrays;

  /// The json::Value::ElementSink of Recording::load's parse.
  void element(std::size_t array, const std::string_view* text) {
    while (arrays.size() <= array) arrays.push_back({words->size(), 0, nullptr});
    Array& a = arrays[array];
    ++a.count;
    if (a.error != nullptr) return;
    const auto word = text ? parse_hex_u64(*text) : std::nullopt;
    if (text == nullptr) a.error = "payload element is not a string";
    else if (!word) a.error = "malformed payload element";
    else words->push_back(Fld::from_u64(*word));
  }
};

/// Recording::from_json, reading message payloads from `loaded` (the k-th
/// payload array of the document is loaded->arrays[k]) when it is non-null.
std::optional<Recording> recording_from_json(const json::Value& v,
                                             const LoadedPayloads* loaded,
                                             std::string* error);

}  // namespace

std::string hex_u64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view s) {
  // Digit value per byte, 16 for anything but a lowercase hex digit: a
  // table lookup, since branching on random recorded digits mispredicts.
  static constexpr auto kDigit = [] {
    std::array<std::uint8_t, 256> t{};
    t.fill(16);
    for (int c = 0; c < 16; ++c)
      t[static_cast<unsigned char>("0123456789abcdef"[c])] = c;
    return t;
  }();
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  unsigned seen = 0;
  for (char c : s) {
    const unsigned d = kDigit[static_cast<unsigned char>(c)];
    seen |= d;
    v = v << 4 | (d & 15);
  }
  if (seen & 16) return std::nullopt;
  return v;
}

Recorder::Recorder(Options opt, json::Value config) : opt_(opt) {
  rec_.full = opt_.full;
  rec_.provenance = provenance::collect();
  rec_.config = std::move(config);
  // Baseline the profiled alloc counters at construction: the registry is
  // process-scoped (Registry::current at Network construction), so without
  // a baseline the first round would charge every earlier run in the same
  // process and recordings would stop being a pure function of their own
  // run. Recorders are built under the same attachment as their network.
  metrics::Registry& reg = metrics::Registry::current();
  prev_net_alloc_count_ = reg.counter("net.alloc.count").value();
  prev_net_alloc_bytes_ = reg.counter("net.alloc.bytes").value();
  prev_vss_alloc_count_ = reg.counter("vss.alloc.count").value();
  prev_vss_alloc_bytes_ = reg.counter("vss.alloc.bytes").value();
}

void Recorder::on_round_end(const Network& net, const CostReport& delta) {
  if (rec_.n == 0) rec_.n = net.n();
  RecordedRound round;
  round.index = round_index_++;
  round.delta = delta;

  // Profile annotations. end_round() rolls child scopes up before observers
  // run, so the counter reads are barrier-exact; the first observed round
  // charges everything since the recorder attached. The wall is the
  // network's own round clock, read once in end_round().
  metrics::Registry& reg = net.registry();
  const std::uint64_t nac = reg.counter("net.alloc.count").value();
  const std::uint64_t nab = reg.counter("net.alloc.bytes").value();
  const std::uint64_t vac = reg.counter("vss.alloc.count").value();
  const std::uint64_t vab = reg.counter("vss.alloc.bytes").value();
  round.profile.wall_us = net.last_round_wall_us();
  round.profile.net_alloc_count = nac - prev_net_alloc_count_;
  round.profile.net_alloc_bytes = nab - prev_net_alloc_bytes_;
  round.profile.vss_alloc_count = vac - prev_vss_alloc_count_;
  round.profile.vss_alloc_bytes = vab - prev_vss_alloc_bytes_;
  round.profile.phase = trace::Tracer::current_path();
  prev_net_alloc_count_ = nac;
  prev_net_alloc_bytes_ = nab;
  prev_vss_alloc_count_ = vac;
  prev_vss_alloc_bytes_ = vab;

  const RoundTraffic& tr = net.delivered();
  // Full fidelity retains the round's delivered traffic itself: the
  // payload spans below point into it, so nothing is copied.
  if (opt_.full) round.owner = net.delivered_shared();
  const auto record = [&](bool broadcast, PartyId from, PartyId to,
                          std::size_t seq, const Payload& payload) {
    RecordedMessage msg;
    msg.broadcast = broadcast;
    msg.from = from;
    msg.to = broadcast ? 0 : to;
    msg.seq = seq;
    msg.elements = payload.size();
    if (opt_.full) {
      // The message digest is the recorder's only per-element work;
      // profile fidelity skips this whole block (msg.digest stays 0).
      const std::uint64_t h = message_digest(payload).to_u64();
      Digest64& ch =
          channels_
              .try_emplace(broadcast ? bcast_key(from) : p2p_key(from, to))
              .first->second;
      ch.absorb_u64(round.index);
      ch.absorb_u64(seq);
      ch.absorb_u64(payload.size());
      ch.absorb_u64(h);
      transcript_.absorb_u64(broadcast ? 1 : 0);
      transcript_.absorb_u64(from);
      transcript_.absorb_u64(msg.to);
      transcript_.absorb_u64(round.index);
      transcript_.absorb_u64(seq);
      transcript_.absorb_u64(payload.size());
      transcript_.absorb_u64(h);
      msg.digest = ch.value();
      msg.payload = payload;
    }
    round.messages.push_back(msg);
  };

  // Canonical (sender, receiver, sequence) order, p2p before broadcasts —
  // the same order the serial round engine issues sends in.
  for (PartyId from = 0; from < net.n(); ++from)
    for (PartyId to = 0; to < net.n(); ++to)
      for (std::size_t k = 0; k < tr.p2p[to][from].size(); ++k)
        record(false, from, to, k, tr.p2p[to][from][k]);
  for (PartyId from = 0; from < net.n(); ++from)
    for (std::size_t k = 0; k < tr.bcast[from].size(); ++k)
      record(true, from, 0, k, tr.bcast[from][k]);

  // Tail deltas of the append-only side logs.
  const auto& tampers = net.tamper_log();
  for (std::size_t i = tampers_seen_; i < tampers.size(); ++i)
    round.tampers.push_back(tampers[i]);
  tampers_seen_ = tampers.size();

  if (const FaultEngine* engine = net.fault_engine()) {
    const auto& events = engine->events();
    for (std::size_t i = faults_seen_; i < events.size(); ++i)
      round.faults.push_back(events[i]);
    faults_seen_ = events.size();
  }

  // Blame records are bucketed per accuser and append-only within each
  // bucket, so the per-round delta is each bucket's tail beyond the count
  // already recorded. The flattened order (ascending accuser, public last)
  // is deterministic at round boundaries.
  std::map<PartyId, std::vector<const BlameRecord*>> by_accuser;
  const auto blames = net.blames();
  for (const auto& b : blames) by_accuser[b.accuser].push_back(&b);
  // std::map orders kPublicBlame (== size_t max) last automatically.
  for (const auto& [accuser, records] : by_accuser) {
    std::size_t& seen = blames_seen_[accuser];
    for (std::size_t i = seen; i < records.size(); ++i)
      round.blames.push_back(*records[i]);
    seen = records.size();
  }

  rec_.final_digest = transcript_.value();
  rec_.rounds.push_back(std::move(round));
}

json::Value Recording::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("format", kFormat);
  doc.set("version", kVersion);
  doc.set("n", n);
  doc.set("fidelity", fidelity());
  doc.set("provenance", provenance);
  doc.set("config", config);
  json::Value rounds_json = json::Value::array();
  for (const auto& r : rounds) {
    json::Value ro = json::Value::object();
    ro.set("round", r.index);
    ro.set("costs", trace::cost_to_json(r.delta));
    {
      // Digest-excluded profiling annotations (see RoundProfile). Always
      // emitted so consumers need no per-round presence checks.
      json::Value po = json::Value::object();
      po.set("wall_us", r.profile.wall_us);
      po.set("net_alloc_count",
             static_cast<double>(r.profile.net_alloc_count));
      po.set("net_alloc_bytes",
             static_cast<double>(r.profile.net_alloc_bytes));
      po.set("vss_alloc_count",
             static_cast<double>(r.profile.vss_alloc_count));
      po.set("vss_alloc_bytes",
             static_cast<double>(r.profile.vss_alloc_bytes));
      po.set("phase", r.profile.phase);
      ro.set("profile", std::move(po));
    }
    json::Value msgs = json::Value::array();
    for (const auto& m : r.messages) {
      json::Value mo = json::Value::object();
      mo.set("ch", m.broadcast ? "bc" : "p2p");
      mo.set("from", m.from);
      if (!m.broadcast) mo.set("to", m.to);
      mo.set("seq", m.seq);
      mo.set("len", m.elements);
      mo.set("digest", hex_u64(m.digest));
      if (full) {
        json::Value elems = json::Value::array();
        for (Fld f : m.payload) elems.push_back(hex_u64(f.to_u64()));
        mo.set("payload", std::move(elems));
      }
      msgs.push_back(std::move(mo));
    }
    ro.set("messages", std::move(msgs));
    if (!r.tampers.empty()) {
      json::Value ts = json::Value::array();
      for (const auto& t : r.tampers) {
        json::Value to = json::Value::object();
        to.set("round", t.round);
        to.set("from", t.from);
        to.set("to", t.to);
        to.set("bc", t.broadcast);
        ts.push_back(std::move(to));
      }
      ro.set("tampers", std::move(ts));
    }
    if (!r.faults.empty()) {
      json::Value fs = json::Value::array();
      for (const auto& f : r.faults) {
        json::Value fo = json::Value::object();
        fo.set("kind", fault_kind_name(f.spec.kind));
        fo.set("spec_round", f.spec.round);
        fo.set("from", party_to_json(f.spec.from));
        fo.set("to", party_to_json(f.spec.to));
        fo.set("bc", f.spec.channel == FaultChannel::kBroadcast);
        fo.set("amount", f.spec.amount);
        fo.set("round", f.round);
        fo.set("messages_hit", f.messages_hit);
        fo.set("elements_delta", f.elements_delta);
        fs.push_back(std::move(fo));
      }
      ro.set("faults", std::move(fs));
    }
    if (!r.blames.empty()) {
      json::Value bs = json::Value::array();
      for (const auto& b : r.blames) {
        json::Value bo = json::Value::object();
        bo.set("accuser", party_to_json(b.accuser));
        bo.set("accused", party_to_json(b.accused));
        bo.set("reason", b.reason);
        bo.set("round", b.round);
        bs.push_back(std::move(bo));
      }
      ro.set("blames", std::move(bs));
    }
    rounds_json.push_back(std::move(ro));
  }
  doc.set("rounds", std::move(rounds_json));
  doc.set("digest", hex_u64(final_digest));
  return doc;
}

std::optional<Recording> Recording::from_json(const json::Value& v,
                                              std::string* error) {
  return recording_from_json(v, nullptr, error);
}

namespace {

std::optional<Recording> recording_from_json(const json::Value& v,
                                             const LoadedPayloads* loaded,
                                             std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Recording> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  if (!v.is_object()) return fail("recording is not a JSON object");
  const json::Value* format = v.find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != Recording::kFormat)
    return fail("missing or unknown 'format'");
  const json::Value* version = v.find("version");
  std::uint64_t version_value = 0;
  if (!count_from_json(version, version_value) || version_value != Recording::kVersion)
    return fail("unsupported recording version");

  Recording rec;
  const json::Value* n = v.find("n");
  if (n == nullptr) return fail("missing 'n'");
  if (!count_from_json(n, rec.n)) return fail("'n' is not a count");
  const json::Value* fidelity = v.find("fidelity");
  if (fidelity == nullptr || !fidelity->is_string())
    return fail("missing 'fidelity'");
  if (fidelity->as_string() == "full") rec.full = true;
  else if (fidelity->as_string() == "profile") rec.full = false;
  else return fail("unknown 'fidelity' value");
  if (const json::Value* prov = v.find("provenance")) rec.provenance = *prov;
  if (const json::Value* config = v.find("config")) rec.config = *config;

  const json::Value* rounds = v.find("rounds");
  if (rounds == nullptr || !rounds->is_array()) return fail("missing 'rounds'");
  std::size_t next_array = 0;  // into loaded->arrays
  for (const json::Value& ro : rounds->items()) {
    if (!ro.is_object()) return fail("round entry is not an object");
    RecordedRound round;
    const json::Value* index = ro.find("round");
    if (!count_from_json(index, round.index))
      return fail("round entry missing or malformed 'round'");
    const json::Value* costs = ro.find("costs");
    if (costs == nullptr || !cost_report_from_json(*costs, round.delta))
      return fail("round entry missing or malformed 'costs'");
    if (const json::Value* po = ro.find("profile")) {
      // Optional (recordings predating the profile block parse with an
      // all-zero one); fields that are present must be well-typed.
      if (!po->is_object()) return fail("'profile' is not an object");
      const auto num = [&](const char* key, double& dst) {
        const json::Value* f = po->find(key);
        if (f == nullptr) return true;
        if (!f->is_number()) return false;
        dst = f->as_double();
        return true;
      };
      const auto u64 = [&](const char* key, std::uint64_t& dst) {
        const json::Value* f = po->find(key);
        return f == nullptr || count_from_json(f, dst);
      };
      RoundProfile& p = round.profile;
      if (!num("wall_us", p.wall_us) ||
          !u64("net_alloc_count", p.net_alloc_count) ||
          !u64("net_alloc_bytes", p.net_alloc_bytes) ||
          !u64("vss_alloc_count", p.vss_alloc_count) ||
          !u64("vss_alloc_bytes", p.vss_alloc_bytes))
        return fail("malformed 'profile' field");
      if (const json::Value* phase = po->find("phase")) {
        if (!phase->is_string()) return fail("'profile.phase' is not a string");
        p.phase = phase->as_string();
      }
    }
    const json::Value* msgs = ro.find("messages");
    if (msgs == nullptr || !msgs->is_array())
      return fail("round entry missing 'messages'");
    // One flat word vector per round; the message spans are bound to it
    // once it has stopped growing.
    auto words = std::make_shared<std::vector<Fld>>();
    for (const json::Value& mo : msgs->items()) {
      if (!mo.is_object()) return fail("message entry is not an object");
      RecordedMessage msg;
      const json::Value* ch = mo.find("ch");
      if (ch == nullptr || !ch->is_string()) return fail("message missing 'ch'");
      if (ch->as_string() == "bc") msg.broadcast = true;
      else if (ch->as_string() == "p2p") msg.broadcast = false;
      else return fail("unknown message channel");
      if (!count_from_json(mo.find("from"), msg.from))
        return fail("message missing or malformed 'from'");
      if (!msg.broadcast && !count_from_json(mo.find("to"), msg.to))
        return fail("p2p message missing or malformed 'to'");
      const json::Value* seq = mo.find("seq");
      const json::Value* len = mo.find("len");
      const json::Value* digest = mo.find("digest");
      if (!count_from_json(seq, msg.seq) ||
          !count_from_json(len, msg.elements) || digest == nullptr ||
          !digest->is_string())
        return fail("message missing or malformed 'seq'/'len'/'digest'");
      const auto digest_value = parse_hex_u64(digest->as_string());
      if (!digest_value) return fail("malformed message digest");
      msg.digest = *digest_value;
      if (rec.full) {
        const json::Value* payload = mo.find("payload");
        if (payload == nullptr || !payload->is_array())
          return fail("full-fidelity message missing 'payload'");
        if (loaded != nullptr) {
          const LoadedPayloads::Array a =
              next_array < loaded->arrays.size()
                  ? loaded->arrays[next_array]
                  : LoadedPayloads::Array{};
          ++next_array;
          if (a.count != msg.elements)
            return fail("message payload length disagrees with 'len'");
          if (a.error != nullptr) return fail(a.error);
          msg.payload =
              std::span<const Fld>(*loaded->words).subspan(a.offset, a.count);
          round.messages.push_back(msg);
          continue;
        }
        if (payload->size() != msg.elements)
          return fail("message payload length disagrees with 'len'");
        for (const json::Value& e : payload->items()) {
          if (!e.is_string()) return fail("payload element is not a string");
          const auto word = parse_hex_u64(e.as_string());
          if (!word) return fail("malformed payload element");
          words->push_back(Fld::from_u64(*word));
        }
      }
      round.messages.push_back(msg);
    }
    if (rec.full && loaded != nullptr) {
      round.owner = loaded->words;
    } else if (rec.full) {
      std::size_t offset = 0;
      for (RecordedMessage& m : round.messages) {
        m.payload = std::span<const Fld>(*words).subspan(offset, m.elements);
        offset += m.elements;
      }
      round.owner = std::move(words);
    }
    if (const json::Value* ts = ro.find("tampers")) {
      if (!ts->is_array()) return fail("'tampers' is not an array");
      for (const json::Value& to : ts->items()) {
        TamperRecord t;
        const json::Value* round_field = to.find("round");
        const json::Value* from = to.find("from");
        const json::Value* target = to.find("to");
        const json::Value* bc = to.find("bc");
        if (!count_from_json(round_field, t.round) ||
            !count_from_json(from, t.from) ||
            !count_from_json(target, t.to) || bc == nullptr ||
            !bc->is_bool())
          return fail("malformed tamper record");
        t.broadcast = bc->as_bool();
        round.tampers.push_back(t);
      }
    }
    if (const json::Value* fs = ro.find("faults")) {
      if (!fs->is_array()) return fail("'faults' is not an array");
      for (const json::Value& fo : fs->items()) {
        FaultEvent f;
        const json::Value* kind = fo.find("kind");
        if (kind == nullptr || !kind->is_string())
          return fail("fault event missing 'kind'");
        const auto parsed_kind = fault_kind_from_name(kind->as_string());
        if (!parsed_kind) return fail("unknown fault kind");
        f.spec.kind = *parsed_kind;
        const json::Value* spec_round = fo.find("spec_round");
        const json::Value* from = fo.find("from");
        const json::Value* to = fo.find("to");
        const json::Value* bc = fo.find("bc");
        const json::Value* amount = fo.find("amount");
        const json::Value* round_field = fo.find("round");
        const json::Value* hit = fo.find("messages_hit");
        const json::Value* elems = fo.find("elements_delta");
        if (!party_from_json(from, f.spec.from) ||
            !party_from_json(to, f.spec.to) || bc == nullptr ||
            !bc->is_bool() ||
            !count_from_json(spec_round, f.spec.round) ||
            !count_from_json(amount, f.spec.amount) ||
            !count_from_json(round_field, f.round) ||
            !count_from_json(hit, f.messages_hit) ||
            !count_from_json(elems, f.elements_delta))
          return fail("malformed fault event");
        f.spec.channel =
            bc->as_bool() ? FaultChannel::kBroadcast : FaultChannel::kP2p;
        round.faults.push_back(f);
      }
    }
    if (const json::Value* bs = ro.find("blames")) {
      if (!bs->is_array()) return fail("'blames' is not an array");
      for (const json::Value& bo : bs->items()) {
        BlameRecord b;
        const json::Value* accuser = bo.find("accuser");
        const json::Value* accused = bo.find("accused");
        const json::Value* reason = bo.find("reason");
        const json::Value* round_field = bo.find("round");
        if (!party_from_json(accuser, b.accuser) ||
            !party_from_json(accused, b.accused) || reason == nullptr ||
            !reason->is_string() || !count_from_json(round_field, b.round))
          return fail("malformed blame record");
        b.reason = reason->as_string();
        round.blames.push_back(std::move(b));
      }
    }
    rec.rounds.push_back(std::move(round));
  }

  const json::Value* digest = v.find("digest");
  if (digest == nullptr || !digest->is_string())
    return fail("missing 'digest'");
  const auto final_value = parse_hex_u64(digest->as_string());
  if (!final_value) return fail("malformed final digest");
  rec.final_digest = *final_value;
  return rec;
}

}  // namespace

bool Recording::save(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json().dump(1) << '\n';
  return out.good();
}

std::optional<Recording> Recording::load(const std::string& path,
                                         std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  in.seekg(0, std::ios::end);
  std::string text(static_cast<std::size_t>(std::max<std::streamoff>(in.tellg(), 0)), '\0');
  in.seekg(0, std::ios::beg);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  // Payload words go straight into one flat vector instead of a JSON value
  // per word; everything else is the strict parse and from_json's checks.
  static constexpr std::string_view kPayloadPath[] = {"rounds", "*", "messages",
                                                      "*", "payload"};
  LoadedPayloads loaded;
  const auto doc = json::Value::parse(
      text, kPayloadPath,
      [&](std::size_t array, const std::string_view* word) {
        loaded.element(array, word);
      });
  if (!in || !doc) {
    if (error != nullptr) *error = path + " is not valid JSON";
    return std::nullopt;
  }
  return recording_from_json(*doc, &loaded, error);
}

}  // namespace gfor14::net
