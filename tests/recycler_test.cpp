// The process-wide buffer recycler (common/recycler.hpp): its bound, and
// that recycled storage never shows through. Whole protocol runs must give
// the same outputs, blames and transcript digests with an empty recycler
// and with one full of other runs' buffers, and a warm repeat of an op must
// be served entirely from the pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "common/recycler.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

using vss::SchemeKind;

constexpr std::size_t kFloorWords = kRecycleFloorBytes / sizeof(Fld);

TEST(BufferRecycler, BestFitWithinTheHighWater) {
  BufferRecycler& r = BufferRecycler::instance();
  r.clear();
  const BufferRecycler::Tally t0 = r.tally();
  // Below the floor: fresh, untallied, and never pooled.
  std::vector<Fld> small = r.take(kFloorWords - 1);
  EXPECT_EQ(small.size(), kFloorWords - 1);
  r.give(std::move(small));
  EXPECT_EQ(r.tally().pooled_bytes, 0u);
  EXPECT_EQ(r.tally().misses, t0.misses);

  std::vector<Fld> a = r.take(2 * kFloorWords);
  std::vector<Fld> b = r.take(4 * kFloorWords);
  ASSERT_EQ(a.size(), 2 * kFloorWords);
  a[0] = Fld::from_u64(41);
  const Fld* a_data = a.data();
  const Fld* b_data = b.data();
  r.give(std::move(a));
  r.give(std::move(b));
  BufferRecycler::Tally t = r.tally();
  EXPECT_EQ(t.misses, t0.misses + 2);
  EXPECT_EQ(t.outstanding_bytes, t0.outstanding_bytes);
  EXPECT_EQ(t.pooled_bytes, 6 * kFloorWords * sizeof(Fld));
  EXPECT_LE(t.pooled_bytes + t.outstanding_bytes, t.high_water_bytes);

  // The smallest buffer with room is reused, at the requested size.
  std::vector<Fld> c = r.take(kFloorWords + 1);
  EXPECT_EQ(c.data(), a_data);
  EXPECT_EQ(c.size(), kFloorWords + 1);
  std::vector<Fld> d = r.take(3 * kFloorWords);
  EXPECT_EQ(d.data(), b_data);
  EXPECT_EQ(r.tally().hits, t.hits + 2);
  EXPECT_EQ(r.tally().pooled_bytes, 0u);

  // A miss frees pooled buffers first when the fresh one would otherwise
  // take pooled + outstanding past the high-water.
  r.give(std::move(c));
  const std::size_t high = r.tally().high_water_bytes;
  std::vector<Fld> e = r.take(high / sizeof(Fld));
  t = r.tally();
  EXPECT_EQ(t.pooled_bytes, 0u);
  EXPECT_LE(t.pooled_bytes + t.outstanding_bytes, t.high_water_bytes);
  r.give(std::move(d));
  r.give(std::move(e));
  t = r.tally();
  EXPECT_EQ(t.outstanding_bytes, 0u);
  EXPECT_EQ(t.pooled_bytes, t.high_water_bytes);
  // Storage the recycler did not lend is freed, not pooled.
  r.give(std::vector<Fld>(2 * kFloorWords));
  EXPECT_EQ(r.tally().pooled_bytes, t.pooled_bytes);
  r.clear();
  EXPECT_EQ(r.tally().pooled_bytes, 0u);
}

/// Everything a run's callers and auditors see.
struct Outcome {
  std::vector<std::uint64_t> y;
  std::vector<bool> bits, pass;
  std::vector<std::string> blames;
  std::uint64_t digest = 0;

  bool operator==(const Outcome&) const = default;
};

enum class Run { kChannel, kPublish, kResolvingDealer };

Outcome run(SchemeKind kind, std::size_t n, std::size_t lanes,
            Run what = Run::kChannel) {
  net::Network net(n, 90 + n);
  net.set_threads(lanes);
  auto recorder = std::make_shared<net::Recorder>();
  net.attach_observer(recorder);
  auto vss = vss::make_vss(kind, net);
  if (what == Run::kResolvingDealer) {
    net.set_corrupt(0, true);
    vss->set_dealer_behaviour(0, vss::DealerBehaviour::kInconsistentThenResolve);
  }
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
  std::vector<Fld> inputs(n);
  for (std::size_t i = 0; i < n; ++i)
    if (what == Run::kPublish || i + 1 < n) inputs[i] = Fld::from_u64(500 + i);
  const anonchan::Output out =
      what == Run::kPublish ? chan.publish(inputs) : chan.run(n - 1, inputs);
  Outcome o;
  for (Fld v : out.y) o.y.push_back(v.to_u64());
  o.bits = out.challenge_bits;
  o.pass = out.pass;
  for (const net::BlameRecord& b : net.blames())
    o.blames.push_back(std::to_string(b.accuser) + " " +
                       std::to_string(b.accused) + " " + b.reason + " " +
                       std::to_string(b.round));
  o.digest = recorder->recording().final_digest;
  return o;
}

std::vector<Outcome> run_all() {
  std::vector<Outcome> all;
  for (const std::size_t lanes : {1, 4})
    for (const SchemeKind kind :
         {SchemeKind::kRB, SchemeKind::kGGOR13, SchemeKind::kBGW})
      all.push_back(run(kind, 5, lanes));
  all.push_back(run(SchemeKind::kRB, 5, 1, Run::kPublish));
  all.push_back(run(SchemeKind::kRB, 5, 4, Run::kResolvingDealer));
  return all;
}

TEST(RecycledRuns, ColdAndWarmRunsAreIdentical) {
  BufferRecycler::instance().clear();
  const std::vector<Outcome> cold = run_all();
  // Recycle buffers of other sizes: a smaller and a larger shape.
  run(SchemeKind::kRB, 4, 1);
  run(SchemeKind::kRB, 6, 4);
  EXPECT_GT(BufferRecycler::instance().tally().pooled_bytes, 0u);
  const std::vector<Outcome> warm = run_all();
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_FALSE(cold[i].y.empty());
    EXPECT_EQ(cold[i].y, warm[i].y);
    EXPECT_EQ(cold[i].bits, warm[i].bits);
    EXPECT_EQ(cold[i].pass, warm[i].pass);
    EXPECT_EQ(cold[i].blames, warm[i].blames);
    EXPECT_EQ(cold[i].digest, warm[i].digest);
  }
  // The dealer that deals garbage and then resolves stays qualified.
  EXPECT_TRUE(cold.back().pass[0]);
}

TEST(RecycledRuns, WarmRepeatTakesNoFreshLargeBuffer) {
  const Outcome first = run(SchemeKind::kRB, 5, 1);
  const BufferRecycler::Tally before = BufferRecycler::instance().tally();
  const Outcome again = run(SchemeKind::kRB, 5, 1);
  const BufferRecycler::Tally after = BufferRecycler::instance().tally();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(first, again);
}

}  // namespace
}  // namespace gfor14
