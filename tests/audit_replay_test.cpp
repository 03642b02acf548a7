// Flight recorder + replay verifier + audit toolchain (DESIGN.md §10).
//
// Covers the full recording lifecycle: digest determinism and the message
// digest's algebraic properties, the versioned JSON format round-trip
// (in-memory and through a file), zero-copy payload lifetimes and the
// loaded-payload ledger, loader strictness, replay verification of a
// faulty adversarial run at 1 and 4 worker lanes, the first-divergence
// report for a deliberately perturbed recording (exact round/channel/byte
// coordinates), digest-only witnesses and mixed-fidelity diffs, the Chrome
// trace-event exporter, the BENCH_*.json regression
// diff, and the gfor14-audit report renderers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/bench_diff.hpp"
#include "audit/replay.hpp"
#include "audit/report.hpp"
#include "common/chrome_trace.hpp"
#include "common/digest.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "fault_hits.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

// --- digest + hex encoding -------------------------------------------------

TEST(Digest64, MatchesFnv1aReferenceValues) {
  // Empty digest is the FNV-1a/64 offset basis.
  EXPECT_EQ(Digest64().value(), 0xcbf29ce484222325ULL);
  // Absorbing is order-sensitive and deterministic.
  Digest64 a, b, c;
  a.absorb_u64(1);
  a.absorb_u64(2);
  b.absorb_u64(1);
  b.absorb_u64(2);
  c.absorb_u64(2);
  c.absorb_u64(1);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
}

/// sum_k words[k] * K^(k+1), one element at a time (no blocks, no span
/// kernel): the reference message_digest must agree with.
Fld naive_message_digest(const std::vector<Fld>& words) {
  const Fld key = Fld::from_u64(kMessageKey);
  Fld h = Fld::zero();
  Fld power = key;
  for (const Fld& w : words) {
    h += w * power;
    power *= key;
  }
  return h;
}

std::vector<Fld> random_words(std::size_t len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Fld> words(len);
  for (Fld& w : words) w = Fld::random(rng);
  return words;
}

TEST(MessageDigest, BlockedEvaluationEqualsNaiveSum) {
  EXPECT_EQ(message_digest({}), Fld::zero());
  for (std::size_t len : {1u, 2u, 1023u, 1024u, 1025u, 2048u, 5000u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    const std::vector<Fld> words = random_words(len, len);
    EXPECT_EQ(message_digest(words), naive_message_digest(words));
  }
}

TEST(MessageDigest, EverySingleWordChangeChangesTheDigest) {
  // h is linear in the words and every K^(k+1) is non-zero, so changing
  // word k by any non-zero delta moves h by delta * K^(k+1) != 0.
  for (std::size_t len : {0u, 1u, 1023u, 1024u, 1025u, 5000u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    std::vector<Fld> words = random_words(len, 17 + len);
    const Fld h = message_digest(words);
    for (std::size_t k = 0; k < len; ++k) {
      const Fld saved = words[k];
      words[k] = Fld::from_u64(saved.to_u64() ^ (1ULL << (k % 64)));
      ASSERT_NE(message_digest(words), h) << "word " << k;
      words[k] = saved;
    }
  }
}

TEST(MessageDigest, SwappingUnequalWordsChangesTheDigest) {
  for (std::size_t len : {2u, 1023u, 1024u, 1025u, 5000u}) {
    SCOPED_TRACE("len=" + std::to_string(len));
    std::vector<Fld> words = random_words(len, 99 + len);
    const Fld h = message_digest(words);
    std::vector<std::pair<std::size_t, std::size_t>> pairs = {{0, len - 1}};
    for (std::size_t i = 0; i + 1 < len; i += 7) pairs.push_back({i, i + 1});
    for (std::size_t i = 0; i + 1024 < len; i += 97)
      pairs.push_back({i, i + 1024});  // same offset in adjacent blocks
    for (const auto& [i, j] : pairs) {
      ASSERT_NE(words[i], words[j]);
      std::swap(words[i], words[j]);
      ASSERT_NE(message_digest(words), h) << i << " <-> " << j;
      std::swap(words[i], words[j]);
    }
  }
}

TEST(RecorderFormat, HexU64RoundTripsAndRejectsJunk) {
  for (std::uint64_t v : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
    const std::string s = net::hex_u64(v);
    EXPECT_EQ(s.size(), 16u);
    const auto back = net::parse_hex_u64(s);
    ASSERT_TRUE(back.has_value()) << s;
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(net::parse_hex_u64("").has_value());
  EXPECT_FALSE(net::parse_hex_u64("xyz").has_value());
  EXPECT_FALSE(net::parse_hex_u64("0123456789abcdef0").has_value());
  EXPECT_FALSE(net::parse_hex_u64("ABCD").has_value());  // lowercase only
}

// --- recording a run -------------------------------------------------------

/// Records the RB anonymous channel at n = 5 under a fault plan and a
/// rushing share-corrupting adversary — the richest configuration the
/// recorder has to capture (payloads + tampers + faults + blames).
net::Recording record_run(std::uint64_t seed, std::size_t threads,
                          net::Recorder::Options opt = {}) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  const net::FaultPlan plan = testutil::party0_faults();
  net.attach_faults(std::make_shared<net::FaultEngine>(plan, seed));
  auto recorder = std::make_shared<net::Recorder>(opt);
  net.attach_observer(recorder);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  net::Recording rec = recorder->take();
  EXPECT_TRUE(testutil::every_fault_hit(plan, rec));
  return rec;
}

/// Re-executes record_run's configuration with a ReplayVerifier attached.
std::optional<audit::Divergence> replay_run(const net::Recording& reference,
                                            std::uint64_t seed,
                                            std::size_t threads) {
  net::Network net(5, seed);
  net.set_threads(threads);
  net.corrupt_first(1);
  net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
  const net::FaultPlan plan = testutil::party0_faults();
  auto faults = std::make_shared<net::FaultEngine>(plan, seed);
  net.attach_faults(faults);
  auto verifier = std::make_shared<audit::ReplayVerifier>(reference);
  net.attach_observer(verifier);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i)
    inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
  chan.run(4, inputs);
  EXPECT_TRUE(testutil::every_fault_hit(plan, faults->events()));
  return verifier->finish();
}

TEST(Recorder, CapturesMessagesTampersAndFaults) {
  const net::Recording rec = record_run(2014, 1);
  ASSERT_FALSE(rec.rounds.empty());
  EXPECT_EQ(rec.n, 5u);
  EXPECT_TRUE(rec.full);
  EXPECT_NE(rec.final_digest, Digest64().value());
  std::size_t messages = 0, tampers = 0, faults = 0;
  for (const auto& r : rec.rounds) {
    messages += r.messages.size();
    tampers += r.tampers.size();
    faults += r.faults.size();
  }
  EXPECT_GT(messages, 0u);
  EXPECT_GT(tampers, 0u) << "rushing adversary rewrites were not recorded";
  EXPECT_GT(faults, 0u) << "fault events were not recorded";
  // Full fidelity: non-empty payloads are stored, lengths agree.
  for (const auto& r : rec.rounds)
    for (const auto& m : r.messages) EXPECT_EQ(m.payload.size(), m.elements);
}

TEST(Recorder, JsonRoundTripIsLossless) {
  const net::Recording rec = record_run(777, 1);
  std::string error;
  const auto back = net::Recording::from_json(rec.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->n, rec.n);
  EXPECT_EQ(back->final_digest, rec.final_digest);
  EXPECT_EQ(back->rounds.size(), rec.rounds.size());
  EXPECT_FALSE(audit::first_divergence(rec, *back).has_value());
}

TEST(Recorder, SaveLoadRoundTripsThroughAFile) {
  const net::Recording rec = record_run(31337, 1);
  const std::string path = ::testing::TempDir() + "gfor14_recording_test.json";
  ASSERT_TRUE(rec.save(path));
  std::string error;
  const auto back = net::Recording::load(path, &error);
  std::ifstream in(path);
  std::ostringstream saved;
  saved << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_FALSE(audit::first_divergence(rec, *back).has_value());
  // Loaded payloads live in flat per-round storage instead of the network's
  // traffic, which must not show in the serialized form: saving the loaded
  // recording would write the same bytes.
  EXPECT_EQ(back->to_json().dump(1) + "\n", saved.str());
}

TEST(Recorder, LoadRejectsNonRecordingJson) {
  const std::string path = ::testing::TempDir() + "gfor14_not_a_recording.json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"format\": \"something.else\", \"version\": 1}", f);
  std::fclose(f);
  std::string error;
  EXPECT_FALSE(net::Recording::load(path, &error).has_value());
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// Recording::load decodes payload words during the parse instead of through
// a JSON value per word; a bad payload must still fail with from_json's
// diagnostic, and a good one must load the same words.
TEST(Recorder, LoadKeepsPayloadDiagnostics) {
  net::Network net(3, 5);
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  net.begin_round();
  net.send(0, 1, {Fld::from_u64(9), Fld::from_u64(0xabc)});
  net.send(1, 2, {});
  net.end_round();
  const std::string good = recorder->recording().to_json().dump();
  const std::string path = ::testing::TempDir() + "gfor14_payload_test.json";
  const auto load_text = [&](const std::string& text, std::string& error) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
    auto rec = net::Recording::load(path, &error);
    std::remove(path.c_str());
    return rec;
  };
  const std::string word = "\"0000000000000abc\"";
  ASSERT_NE(good.find(word), std::string::npos);
  const auto edited = [&](const std::string& with) {
    return good.substr(0, good.find(word)) + with +
           good.substr(good.find(word) + word.size());
  };
  {
    std::string error;
    const auto rec = load_text(good, error);
    ASSERT_TRUE(rec.has_value()) << error;
    ASSERT_EQ(rec->rounds.size(), 1u);
    ASSERT_EQ(rec->rounds[0].messages.size(), 2u);
    const auto& first = rec->rounds[0].messages[0].payload;
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[1], Fld::from_u64(0xabc));
    EXPECT_TRUE(rec->rounds[0].messages[1].payload.empty());
  }
  const std::pair<std::string, std::string> cases[] = {
      {"\"0000000000000ABC\"", "malformed payload element"},
      {"\"00000000000000abc\"", "malformed payload element"},
      {"\"\"", "malformed payload element"},
      {"\"\\u0030\"", ""},  // an escaped "0" is a valid digit
      {"2748", "payload element is not a string"},
      {"[\"0\"]", "payload element is not a string"},
      {"\"0\", \"1\"", "message payload length disagrees with 'len'"},
  };
  for (const auto& [with, diagnostic] : cases) {
    SCOPED_TRACE(with);
    std::string error, dom_error;
    const auto rec = load_text(edited(with), error);
    const auto doc = json::Value::parse(edited(with));
    ASSERT_TRUE(doc.has_value());
    const auto dom = net::Recording::from_json(*doc, &dom_error);
    EXPECT_EQ(rec.has_value(), dom.has_value());
    EXPECT_EQ(error, diagnostic);
    EXPECT_EQ(dom_error, diagnostic);
  }
  std::string error;
  EXPECT_FALSE(load_text(edited("\"0\",]"), error).has_value());
  EXPECT_NE(error.find("is not valid JSON"), std::string::npos);
}

// Counts read from a recording go through json::Value::as_count: values
// no unchecked double -> integer cast can represent (huge, negative,
// fractional) fail the load with a diagnostic instead of invoking UB.
TEST(Recorder, LoadRejectsOutOfRangeCounts) {
  net::Network net(3, 5);
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  net.begin_round();
  net.send(0, 1, {Fld::from_u64(9)});
  net.end_round();
  const std::string good = recorder->recording().to_json().dump();
  const auto replaced = [&](const std::string& key, const std::string& value) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = good.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t end = good.find_first_of(",}", at);
    return good.substr(0, at + needle.size()) + value + good.substr(end);
  };
  {
    std::string error;
    const auto doc = json::Value::parse(good);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(net::Recording::from_json(*doc, &error).has_value()) << error;
  }
  for (const std::string key : {"n", "seq"})
    for (const std::string value : {"1e300", "-2", "2.5"}) {
      SCOPED_TRACE(key + " = " + value);
      const auto doc = json::Value::parse(replaced(key, value));
      ASSERT_TRUE(doc.has_value());
      std::string error;
      EXPECT_FALSE(net::Recording::from_json(*doc, &error).has_value());
      EXPECT_FALSE(error.empty());
    }
}

// --- zero-copy payload lifetimes ------------------------------------------

/// Deep-copies every delivered payload at record time, in the recorder's
/// canonical order — an oracle independent of the recorder's storage.
class CopyingObserver : public net::RoundObserver {
 public:
  void on_round_end(const net::Network& net, const net::CostReport&) override {
    std::vector<std::vector<Fld>> round;
    const net::RoundTraffic& tr = net.delivered();
    for (net::PartyId from = 0; from < net.n(); ++from)
      for (net::PartyId to = 0; to < net.n(); ++to)
        for (const auto& p : tr.p2p[to][from]) round.emplace_back(p);
    for (net::PartyId from = 0; from < net.n(); ++from)
      for (const auto& p : tr.bcast[from]) round.emplace_back(p);
    copies.push_back(std::move(round));
  }
  std::vector<std::vector<std::vector<Fld>>> copies;
};

TEST(RecorderLifetime, PayloadsOutliveTheNetworkAndTheRecorder) {
  net::Recording rec;
  std::vector<std::vector<std::vector<Fld>>> copies;
  {
    net::Network net(5, 8080);
    net.corrupt_first(1);
    net.attach_adversary(std::make_shared<net::ShareCorruptingAdversary>());
    auto recorder = std::make_shared<net::Recorder>();
    auto copier = std::make_shared<CopyingObserver>();
    net.attach_observer(recorder);
    net.attach_observer(copier);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 3));
    std::vector<Fld> inputs;
    for (std::size_t i = 0; i < 5; ++i)
      inputs.push_back(i + 1 < 5 ? Fld::from_u64(100 + i) : Fld::zero());
    chan.run(4, inputs);
    rec = recorder->recording();  // a copy; the recorder dies with the scope
    copies = std::move(copier->copies);
  }
  ASSERT_EQ(rec.rounds.size(), copies.size());
  std::size_t words = 0;
  for (std::size_t r = 0; r < rec.rounds.size(); ++r) {
    ASSERT_EQ(rec.rounds[r].messages.size(), copies[r].size()) << r;
    for (std::size_t i = 0; i < copies[r].size(); ++i) {
      const auto& span = rec.rounds[r].messages[i].payload;
      ASSERT_EQ(std::vector<Fld>(span.begin(), span.end()), copies[r][i])
          << "round " << r << " message " << i;
      words += span.size();
    }
  }
  EXPECT_GT(words, 0u);
}

TEST(RecorderLifetime, CopiedRecordingSharesItsStorage) {
  const net::Recording rec = record_run(2718, 1);
  const net::Recording copy = rec;
  ASSERT_EQ(copy.rounds.size(), rec.rounds.size());
  for (std::size_t r = 0; r < rec.rounds.size(); ++r) {
    EXPECT_EQ(copy.rounds[r].owner.get(), rec.rounds[r].owner.get());
    for (std::size_t i = 0; i < rec.rounds[r].messages.size(); ++i)
      EXPECT_EQ(copy.rounds[r].messages[i].payload.data(),
                rec.rounds[r].messages[i].payload.data());
  }
}

TEST(RecorderLifetime, LoadedRoundStorageLivesUntilLastSharingRecording) {
  const net::Recording live = record_run(4141, 1);
  std::size_t words = 0;
  for (const auto& r : live.rounds)
    for (const auto& m : r.messages) words += m.payload.size();
  ASSERT_GT(words, 0u);
  std::vector<std::weak_ptr<const void>> storage;
  {
    std::string error;
    auto loaded = net::Recording::from_json(live.to_json(), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    for (const auto& r : loaded->rounds)
      if (r.owner) storage.push_back(r.owner);
    ASSERT_FALSE(storage.empty());
    const net::Recording shared = *loaded;  // shares the rounds' storage
    loaded.reset();
    // `shared` still holds every loaded round's words.
    for (const auto& w : storage) EXPECT_FALSE(w.expired());
  }
  // The last sharing Recording is gone, and its storage with it.
  for (const auto& w : storage) EXPECT_TRUE(w.expired());
}

// --- loader strictness -----------------------------------------------------

TEST(RecorderFormat, FidelityNameRoundTripsThroughJson) {
  const net::Recording full = record_run(11, 1);
  const net::Recording profile =
      record_run(11, 1, net::Recorder::Options::profile());
  for (const auto& [rec, name] :
       {std::pair{&full, "full"}, std::pair{&profile, "profile"}}) {
    EXPECT_STREQ(rec->fidelity(), name);
    const json::Value doc = rec->to_json();
    ASSERT_TRUE(doc.find("fidelity") != nullptr);
    EXPECT_EQ(doc.find("fidelity")->as_string(), name);
    std::string error;
    const auto back = net::Recording::from_json(doc, &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_STREQ(back->fidelity(), name);
  }
  // There is no third tier.
  json::Value doc = profile.to_json();
  doc.set("fidelity", "headers");
  std::string error;
  EXPECT_FALSE(net::Recording::from_json(doc, &error).has_value());
  EXPECT_EQ(error, "unknown 'fidelity' value");
}

TEST(RecorderFormat, VersionOneIsRejected) {
  const net::Recording rec = record_run(11, 1);
  json::Value doc = rec.to_json();
  doc.set("version", 1);
  std::string error;
  EXPECT_FALSE(net::Recording::from_json(doc, &error).has_value());
  EXPECT_EQ(error, "unsupported recording version");
}

TEST(RecorderFormat, TamperAndFaultChannelFlagsMustBeBooleans) {
  // The side logs are the same at both tiers; a profile recording keeps
  // each of the many re-parses below small.
  const net::Recording rec =
      record_run(2014, 1, net::Recorder::Options::profile());
  const std::string good = rec.to_json().dump();
  {
    std::string error;
    ASSERT_TRUE(net::Recording::from_json(*json::Value::parse(good), &error)
                    .has_value())
        << error;
  }
  // Every "bc" field (tamper records and fault events; message channels
  // are spelled "ch":"bc") with its boolean swapped for another type.
  const std::string needle = "\"bc\":";
  std::size_t tampers = 0, faults = 0;
  for (std::size_t at = good.find(needle); at != std::string::npos;
       at = good.find(needle, at + 1)) {
    const std::size_t value = at + needle.size();
    const std::size_t end = good.find_first_of(",}", value);
    for (const std::string junk : {"0", "1", "\"true\"", "null"}) {
      SCOPED_TRACE(good.substr(value, end - value) + " -> " + junk);
      const auto doc = json::Value::parse(good.substr(0, value) + junk +
                                          good.substr(end));
      ASSERT_TRUE(doc.has_value());
      std::string error;
      EXPECT_FALSE(net::Recording::from_json(*doc, &error).has_value());
      tampers += error == "malformed tamper record";
      faults += error == "malformed fault event";
    }
  }
  EXPECT_GT(tampers, 0u);
  EXPECT_GT(faults, 0u);
}

// --- replay verification ---------------------------------------------------

TEST(ReplayVerifier, FaultyAdversarialRunVerifiesAtOneAndFourLanes) {
  const net::Recording rec = record_run(90210, 1);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto divergence = replay_run(rec, 90210, threads);
    EXPECT_FALSE(divergence.has_value())
        << (divergence ? divergence->format() : "");
  }
}

TEST(ReplayVerifier, DifferentSeedDiverges) {
  const net::Recording rec = record_run(1, 1);
  const auto divergence = replay_run(rec, 2, 1);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->round, 0u);
}

/// `doc` with word `elem` of message `msg` in round `round` replaced by
/// `word` — recorded payloads are read-only spans, so corruption goes
/// through the serialized form.
json::Value with_payload_word(const json::Value& doc, std::size_t round,
                              std::size_t msg, std::size_t elem,
                              std::uint64_t word) {
  json::Value rounds = json::Value::array();
  for (std::size_t r = 0; r < doc.find("rounds")->size(); ++r) {
    json::Value ro = doc.find("rounds")->at(r);
    if (r == round) {
      json::Value msgs = json::Value::array();
      for (std::size_t i = 0; i < ro.find("messages")->size(); ++i) {
        json::Value mo = ro.find("messages")->at(i);
        if (i == msg) {
          json::Value payload = json::Value::array();
          for (std::size_t k = 0; k < mo.find("payload")->size(); ++k)
            payload.push_back(k == elem ? json::Value(net::hex_u64(word))
                                        : mo.find("payload")->at(k));
          mo.set("payload", std::move(payload));
        }
        msgs.push_back(std::move(mo));
      }
      ro.set("messages", std::move(msgs));
    }
    rounds.push_back(std::move(ro));
  }
  json::Value out = doc;
  out.set("rounds", std::move(rounds));
  return out;
}

TEST(ReplayVerifier, PerturbedPayloadYieldsExactCoordinates) {
  const net::Recording original = record_run(555, 1);
  // Find the first message with a payload and flip byte 5 of element 3
  // (falling back to element 0 for short payloads).
  std::size_t round_pos = 0, msg_pos = 0;
  const net::RecordedMessage* found = nullptr;
  for (std::size_t r = 0; r < original.rounds.size() && !found; ++r)
    for (std::size_t i = 0; i < original.rounds[r].messages.size(); ++i)
      if (!original.rounds[r].messages[i].payload.empty()) {
        found = &original.rounds[r].messages[i];
        round_pos = r;
        msg_pos = i;
        break;
      }
  ASSERT_NE(found, nullptr);
  const std::size_t elem = found->payload.size() > 3 ? 3 : 0;
  std::string error;
  const auto loaded = net::Recording::from_json(
      with_payload_word(original.to_json(), round_pos, msg_pos, elem,
                        found->payload[elem].to_u64() ^ (1ULL << 40)),
      &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const net::Recording& rec = *loaded;
  const net::RecordedMessage* victim = &rec.rounds[round_pos].messages[msg_pos];
  const std::size_t victim_round = rec.rounds[round_pos].index;
  ASSERT_NE(victim->payload[elem], found->payload[elem]);
  const auto divergence = replay_run(rec, 555, 1);
  ASSERT_TRUE(divergence.has_value());
  EXPECT_EQ(divergence->round, victim_round);
  EXPECT_EQ(divergence->broadcast, victim->broadcast);
  EXPECT_EQ(divergence->from, victim->from);
  EXPECT_EQ(divergence->to, victim->to);
  EXPECT_EQ(divergence->seq, victim->seq);
  EXPECT_EQ(divergence->byte_offset, elem * 8 + 5);
  // The report names the exact coordinates.
  const std::string text = divergence->format();
  EXPECT_NE(text.find("round " + std::to_string(victim_round)),
            std::string::npos);
  EXPECT_NE(text.find("byte offset " + std::to_string(elem * 8 + 5)),
            std::string::npos);
}

TEST(ReplayVerifier, TruncatedRecordingIsReportedByFinish) {
  net::Recording rec = record_run(123, 1);
  ASSERT_GT(rec.rounds.size(), 1u);
  rec.rounds.push_back(rec.rounds.back());  // recording claims an extra round
  // A live run that never reaches the extra round leaves the reference
  // unexhausted; finish() must turn that into a divergence.
  audit::ReplayVerifier verifier(rec);
  const auto divergence = verifier.finish();
  ASSERT_TRUE(divergence.has_value());
  EXPECT_NE(divergence->description.find("rounds"), std::string::npos);
}

TEST(ReplayVerifier, DigestOnlyMismatchHasNoByteOffset) {
  // A message whose payload bytes agree but whose channel digest does not
  // is caught with the digest as witness (no byte offset to report).
  const net::Recording rec = record_run(606, 1);
  auto bad = rec;
  bool flipped = false;
  for (auto& r : bad.rounds) {
    for (auto& m : r.messages)
      if (m.elements > 0) {
        m.digest ^= 1;
        flipped = true;
        break;
      }
    if (flipped) break;
  }
  ASSERT_TRUE(flipped);
  const auto d = audit::first_divergence(rec, bad);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->byte_offset, audit::Divergence::kUnknownOffset);
  EXPECT_NE(d->description.find("channel digest differs"), std::string::npos)
      << d->format();
}

TEST(ReplayVerifier, MixedFidelityDiffReportsTheTiersNotAPayload) {
  // One run recorded at both tiers: the message streams agree, but a
  // profile recording holds no payload or digest, so the diff must name
  // the tier mismatch instead of a phantom payload difference.
  const net::Recording full = record_run(707, 1);
  const net::Recording profile =
      record_run(707, 1, net::Recorder::Options::profile());
  ASSERT_EQ(full.rounds.size(), profile.rounds.size());
  for (const auto& [a, b] : {std::pair{&full, &profile},
                             std::pair{&profile, &full}}) {
    const auto d = audit::first_divergence(*a, *b);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->round, 0u);
    EXPECT_EQ(d->byte_offset, audit::Divergence::kUnknownOffset);
    EXPECT_EQ(d->description, std::string("fidelity differs: ") +
                                  a->fidelity() + " vs " + b->fidelity());
  }
  EXPECT_FALSE(audit::first_divergence(profile, profile).has_value());
}

TEST(ReplayVerifier, RecordingsFromDifferentLaneCountsAreIdentical) {
  const net::Recording serial = record_run(4242, 1);
  const net::Recording parallel = record_run(4242, 4);
  const auto d = audit::first_divergence(serial, parallel);
  EXPECT_FALSE(d.has_value()) << (d ? d->format() : "");
}

// --- report renderers ------------------------------------------------------

TEST(AuditReports, RenderersCoverTheRecordedActivity) {
  const net::Recording rec = record_run(2020, 1);
  const std::string matrix = audit::render_matrix(rec);
  EXPECT_NE(matrix.find("communication matrix"), std::string::npos);
  EXPECT_NE(matrix.find("P0"), std::string::npos);
  EXPECT_NE(matrix.find("P4"), std::string::npos);
  const std::string timeline = audit::render_timeline(rec);
  EXPECT_NE(timeline.find("round timeline"), std::string::npos);
  EXPECT_NE(timeline.find("fault:"), std::string::npos);
  EXPECT_NE(timeline.find("tamper:"), std::string::npos);
  const std::string attribution = audit::render_attribution(rec);
  EXPECT_NE(attribution.find("blame attribution"), std::string::npos);
  EXPECT_NE(attribution.find("fault events"), std::string::npos);
}

// --- Chrome trace export ---------------------------------------------------

TEST(ChromeTrace, ExportsValidTraceEventJson) {
  auto& tracer = trace::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);
  tracer.reset();
  {
    trace::Span outer("outer");
    { trace::Span inner("inner"); }
    { trace::Span inner2("inner2"); }
  }
  const json::Value doc = trace::chrome_trace_document();
  tracer.reset();
  tracer.set_enabled(was_enabled);

  // Survives a dump/parse cycle and has the trace-event shape.
  const auto reparsed = json::Value::parse(doc.dump());
  ASSERT_TRUE(reparsed.has_value());
  const json::Value* events = reparsed->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // process_name + thread_name metadata, then the three spans.
  ASSERT_EQ(events->size(), 5u);
  std::size_t spans = 0, metadata = 0;
  bool saw_process_name = false, saw_thread_name = false;
  double outer_ts = 0, outer_end = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = events->at(i);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    if (e.find("ph")->as_string() == "M") {
      ++metadata;
      const json::Value* args = e.find("args");
      ASSERT_NE(args, nullptr);
      ASSERT_NE(args->find("name"), nullptr);
      if (e.find("name")->as_string() == "process_name")
        saw_process_name = true;
      if (e.find("name")->as_string() == "thread_name") {
        saw_thread_name = true;
        // Tracks are labelled by the root span that ran on them.
        EXPECT_EQ(args->find("name")->as_string(), "outer");
      }
      continue;
    }
    ++spans;
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (e.find("name")->as_string() == "outer") {
      outer_ts = e.find("ts")->as_double();
      outer_end = outer_ts + e.find("dur")->as_double();
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(metadata, 2u);
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_thread_name);
  // Children nest inside the parent on the synthetic timeline.
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = events->at(i);
    if (e.find("ph")->as_string() != "X") continue;
    if (e.find("name")->as_string() == "outer") continue;
    EXPECT_GE(e.find("ts")->as_double(), outer_ts);
    EXPECT_LE(e.find("ts")->as_double() + e.find("dur")->as_double(),
              outer_end);
  }
}

TEST(ChromeTrace, WriteFailsCleanlyWithoutSpans) {
  auto& tracer = trace::Tracer::instance();
  tracer.reset();
  const std::string path = ::testing::TempDir() + "gfor14_chrome_empty.json";
  EXPECT_FALSE(trace::write_chrome_trace(path));
}

// --- bench-diff ------------------------------------------------------------

json::Value make_artifact(double wall0, double wall1) {
  json::Value rows = json::Value::array();
  json::Value r0 = json::Value::object();
  r0.set("n", 5);
  r0.set("wall_ms", wall0);
  rows.push_back(std::move(r0));
  json::Value r1 = json::Value::object();
  r1.set("n", 7);
  r1.set("wall_ms", wall1);
  rows.push_back(std::move(r1));
  json::Value doc = json::Value::object();
  doc.set("experiment", "demo");
  doc.set("rows", std::move(rows));
  return doc;
}

TEST(BenchDiff, IdenticalArtifactsPassClean) {
  const json::Value a = make_artifact(100.0, 250.0);
  const auto result = audit::bench_diff(a, a, 0.2);
  EXPECT_TRUE(result.clean()) << result.format();
  EXPECT_FALSE(result.has_regression());
  EXPECT_EQ(result.fields_compared, 4u);
}

TEST(BenchDiff, FlagsATwentyPercentRegression) {
  const json::Value base = make_artifact(100.0, 250.0);
  const json::Value cand = make_artifact(100.0, 310.0);  // +24%
  const auto result = audit::bench_diff(base, cand, 0.2);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_TRUE(result.has_regression());
  EXPECT_EQ(result.deltas[0].row, 1u);
  EXPECT_EQ(result.deltas[0].key, "wall_ms");
  EXPECT_NEAR(result.deltas[0].rel, 0.24, 1e-9);
  EXPECT_NE(result.format().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiff, ImprovementIsFlaggedButNotARegression) {
  const json::Value base = make_artifact(100.0, 250.0);
  const json::Value cand = make_artifact(100.0, 150.0);  // -40%
  const auto result = audit::bench_diff(base, cand, 0.2);
  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_FALSE(result.has_regression());
}

TEST(BenchDiff, StructuralMismatchesBecomeNotes) {
  json::Value base = make_artifact(100.0, 250.0);
  json::Value cand = make_artifact(100.0, 250.0);
  cand.set("experiment", "other");
  json::Value extra = json::Value::object();
  extra.set("n", 9);
  extra.set("wall_ms", 400.0);
  // rows is returned by find as const; rebuild with an extra row instead.
  json::Value rows = json::Value::array();
  for (const auto& r : cand.find("rows")->items()) rows.push_back(r);
  rows.push_back(std::move(extra));
  cand.set("rows", std::move(rows));
  const auto result = audit::bench_diff(base, cand, 0.2);
  EXPECT_FALSE(result.clean());
  ASSERT_GE(result.notes.size(), 2u);  // experiment + row count
  EXPECT_FALSE(result.has_regression());
}

TEST(BenchDiff, SubThresholdChangesStayQuiet) {
  const json::Value base = make_artifact(100.0, 250.0);
  const json::Value cand = make_artifact(110.0, 260.0);  // +10%, +4%
  const auto result = audit::bench_diff(base, cand, 0.2);
  EXPECT_TRUE(result.clean()) << result.format();
}

}  // namespace
}  // namespace gfor14
