// Critical-path profiler suite (DESIGN.md §15).
//
// Pins the contracts the profiler adds on top of the §10 recorder:
//
//  1. Input integrity: analyze() turns a malformed recording (no rounds, no
//     parties, a message endpoint outside [0, n)) into a failure with a
//     diagnostic instead of a plausible-looking profile — the audit CLI's
//     nonzero-exit contract rests on exactly this.
//  2. Determinism: each round's critical chain is a pure function of the
//     recording (ties break to the smaller party id), so the default
//     critpath report — built from LOGICAL weights only — is byte-identical
//     for the same (seeds, fault plan) at 1 and 4 worker lanes, like the
//     recording it came from.
//  3. Reconciliation: wall-clock enters only via the waterfall distribution,
//     and there each round's segment walls sum bit-for-bit to the round's
//     recorded wall (the ISSUE acceptance criterion); the deterministic
//     phase attribution re-adds to the recording's own alloc/message totals.
//  4. Rendering: rows of any width come back whole and newline-terminated.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/critpath.hpp"
#include "fault_hits.hpp"
#include "net/adversary.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

/// Same rich configuration the recorder suite uses: RB anonymous channel at
/// n = 5 under a fault plan and a rushing share-corrupting adversary.
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

// --- analyze() on a recorded run -------------------------------------------

TEST(CritPath, AnalyzeNamesPerRoundDominantsMatchingAnIndependentOracle) {
  const net::Recording rec = record_run(2014, 1);
  std::string error;
  const auto report = audit::analyze(rec, &error);
  ASSERT_TRUE(report.has_value()) << error;
  ASSERT_EQ(report->rounds.size(), rec.rounds.size());

  std::uint64_t weight_sum = 0;
  for (const auto& rc : report->rounds) {
    SCOPED_TRACE("round " + std::to_string(rc.round));
    EXPECT_LT(rc.dominant, rec.n);
    // The chain weight is the sum of its segments, and the segment list
    // always ends at the merge barrier.
    std::uint64_t seg_sum = 0;
    for (const auto& s : rc.segments) seg_sum += s.weight;
    EXPECT_EQ(seg_sum, rc.weight);
    ASSERT_FALSE(rc.segments.empty());
    EXPECT_EQ(rc.segments.front().name, "compute");
    EXPECT_EQ(rc.segments.back().name, "merge");
    // Oracle: recompute every party's compute+send chain from the
    // recording's messages; dominance means none outweighs the dominant
    // party's, and the reported weight is that chain plus the merge unit.
    std::vector<std::uint64_t> chains(rec.n, 1);  // compute unit charge
    for (const auto& m : rec.rounds[rc.round].messages) {
      chains[m.from] += m.elements;           // compute share
      chains[m.from] += 1 + m.elements;       // send
    }
    for (std::size_t p = 0; p < rec.n; ++p)
      EXPECT_LE(chains[p], chains[rc.dominant]);
    EXPECT_EQ(rc.weight, chains[rc.dominant] + 1);
    weight_sum += rc.weight;
  }
  EXPECT_EQ(weight_sum, report->total_weight);
  EXPECT_GT(report->dominant_rounds, 0u);
}

TEST(CritPath, SegmentWallsReconcileWithTheRecordedRoundWall) {
  const net::Recording rec = record_run(2014, 1);
  std::string error;
  const auto report = audit::analyze(rec, &error);
  ASSERT_TRUE(report.has_value()) << error;
  std::size_t timed_rounds = 0;
  for (const auto& rc : report->rounds) {
    SCOPED_TRACE("round " + std::to_string(rc.round));
    EXPECT_EQ(rc.wall_us, rec.rounds[rc.round].profile.wall_us);
    double sum = 0.0;
    for (const auto& s : rc.segments) sum += s.wall_us;
    // Exact, not approximate: the last segment takes the remainder, so the
    // left-to-right sum reproduces the recorded wall bit-for-bit.
    EXPECT_EQ(sum, rc.wall_us);
    if (rc.wall_us > 0.0) ++timed_rounds;
  }
  EXPECT_GT(timed_rounds, 0u);  // a real run measures nonzero walls
}

TEST(CritPath, DeterministicReportIsByteIdenticalAcrossLaneCounts) {
  const net::Recording serial = record_run(2014, 1);
  const net::Recording parallel = record_run(2014, 4);
  std::string error;
  const auto a = audit::analyze(serial, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = audit::analyze(parallel, &error);
  ASSERT_TRUE(b.has_value()) << error;
  // The default critpath view and the wall-free JSON block carry logical
  // weights only — they must match the §8 byte-identity contract.
  EXPECT_EQ(audit::render_critpath(*a, false),
            audit::render_critpath(*b, false));
  EXPECT_EQ(a->to_json(false).dump(2), b->to_json(false).dump(2));
  EXPECT_EQ(a->total_weight, b->total_weight);
  EXPECT_EQ(a->dominant_party, b->dominant_party);
}

TEST(CritPath, ProfileFidelityRecordingsProfileIdenticallyToFullOnes) {
  // Profile fidelity (the <5%-overhead tier the bench gate measures) drops
  // payloads and digests but keeps everything the profiler consumes, so the
  // deterministic critpath report must be byte-for-byte the one a full
  // flight recording of the same run yields.
  const net::Recording full = record_run(2014, 1);
  const net::Recording profile =
      record_run(2014, 1, net::Recorder::Options::profile());

  EXPECT_TRUE(full.full);
  EXPECT_FALSE(profile.full);
  for (const auto& round : profile.rounds)
    for (const auto& m : round.messages) {
      EXPECT_EQ(m.digest, 0u);
      EXPECT_TRUE(m.payload.empty());
    }

  std::string error;
  const auto a = audit::analyze(full, &error);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = audit::analyze(profile, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(audit::render_critpath(*a, false),
            audit::render_critpath(*b, false));
  EXPECT_EQ(a->to_json(false).dump(2), b->to_json(false).dump(2));

  // The tier round-trips through JSON under the "profile" fidelity tag.
  const json::Value doc = profile.to_json();
  ASSERT_TRUE(doc.find("fidelity") != nullptr);
  EXPECT_EQ(doc.find("fidelity")->as_string(), "profile");
  const auto back = net::Recording::from_json(doc, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_FALSE(back->full);
  const auto c = audit::analyze(*back, &error);
  ASSERT_TRUE(c.has_value()) << error;
  EXPECT_EQ(b->to_json(false).dump(2), c->to_json(false).dump(2));
}

TEST(CritPath, PhaseAttributionReAddsToTheRecordingTotals) {
  const net::Recording rec = record_run(2014, 1);
  std::string error;
  const auto report = audit::analyze(rec, &error);
  ASSERT_TRUE(report.has_value()) << error;

  std::size_t rec_messages = 0, rec_elements = 0;
  std::uint64_t rec_net_bytes = 0, rec_vss_bytes = 0;
  for (const auto& round : rec.rounds) {
    rec_messages += round.messages.size();
    for (const auto& m : round.messages) rec_elements += m.elements;
    rec_net_bytes += round.profile.net_alloc_bytes;
    rec_vss_bytes += round.profile.vss_alloc_bytes;
  }
  std::size_t attr_rounds = 0, attr_messages = 0, attr_elements = 0;
  std::uint64_t attr_net_bytes = 0, attr_vss_bytes = 0;
  for (const auto& p : report->phases) {
    attr_rounds += p.rounds;
    attr_messages += p.messages;
    attr_elements += p.elements;
    attr_net_bytes += p.net_alloc_bytes;
    attr_vss_bytes += p.vss_alloc_bytes;
  }
  EXPECT_EQ(attr_rounds, rec.rounds.size());
  EXPECT_EQ(attr_messages, rec_messages);
  EXPECT_EQ(attr_elements, rec_elements);
  EXPECT_EQ(attr_net_bytes, rec_net_bytes);
  EXPECT_EQ(attr_vss_bytes, rec_vss_bytes);
  // record_run traces nothing, so every round lands in the untraced bucket.
  ASSERT_EQ(report->phases.size(), 1u);
  EXPECT_EQ(report->phases[0].phase, "(untraced)");
}

TEST(CritPath, MalformedRecordingsFailLoudly) {
  // No rounds at all.
  net::Recording empty;
  empty.n = 5;
  std::string error;
  EXPECT_FALSE(audit::analyze(empty, &error).has_value());
  EXPECT_NE(error.find("no rounds"), std::string::npos);

  // A sender outside [0, n) — the hand-edited-recording case the CLI must
  // exit nonzero on.
  net::Recording rec = record_run(2014, 1);
  ASSERT_FALSE(rec.rounds.empty());
  ASSERT_FALSE(rec.rounds[0].messages.empty());
  rec.rounds[0].messages[0].from = 99;
  error.clear();
  EXPECT_FALSE(audit::analyze(rec, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);

  // A p2p receiver outside [0, n).
  rec = record_run(2014, 1);
  net::RecordedMessage* p2p = nullptr;
  for (auto& round : rec.rounds)
    for (auto& m : round.messages)
      if (p2p == nullptr && !m.broadcast) p2p = &m;
  ASSERT_NE(p2p, nullptr);
  p2p->to = 99;
  error.clear();
  EXPECT_FALSE(audit::analyze(rec, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);

  // Rounds but no parties: nothing to name as a round's dominant.
  net::Recording partyless;
  partyless.rounds.emplace_back();
  error.clear();
  EXPECT_FALSE(audit::analyze(partyless, &error).has_value());
  EXPECT_NE(error.find("no parties"), std::string::npos);
}

// --- rendering -------------------------------------------------------------

TEST(CritPath, WideWaterfallKeepsOneWholeLinePerRound) {
  const net::Recording rec = record_run(2014, 1);
  std::string error;
  const auto report = audit::analyze(rec, &error);
  ASSERT_TRUE(report.has_value()) << error;
  // Width 300 pushes every bar row past 300 bytes.
  const std::string out = audit::render_waterfall(*report, 300);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back(), '\n');
  std::size_t lines = 0;
  for (char c : out)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, report->rounds.size() + 1);  // header + one per round
}

TEST(CritPath, LongPhaseKeepsItsWholeCritpathRow) {
  net::Recording rec = record_run(2014, 1);
  const std::string phase(300, 'p');
  rec.rounds[0].profile.phase = phase;
  std::string error;
  const auto report = audit::analyze(rec, &error);
  ASSERT_TRUE(report.has_value()) << error;
  for (bool with_wall : {false, true}) {
    SCOPED_TRACE(with_wall ? "with wall" : "logical");
    const std::string out = audit::render_critpath(*report, with_wall);
    // The round-0 row and the phase-attribution row both end in the full
    // phase followed by their newline.
    const std::size_t at = out.find(phase + "\n");
    ASSERT_NE(at, std::string::npos);
    EXPECT_NE(out.find(phase + "\n", at + 1), std::string::npos);
  }
}

}  // namespace
}  // namespace gfor14
