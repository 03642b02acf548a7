// Receivers read R1 slices in place (vss/soa.hpp SliceView). Wire faults on
// one dealer's R1 messages must take the same paths as ever: a truncated
// message is malformed, a dropped one missing — both blamed, both read as
// the default zero slices — and a corrupted element is caught by the pair
// checks and settled by the complaint/opening rounds, whose adopted
// openings are views too. The outcome of each run is pinned.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "common/digest.hpp"
#include "fault_hits.hpp"
#include "net/faultplan.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

constexpr std::size_t kN = 5;

struct FaultyRun {
  std::vector<net::BlameRecord> blames;
  /// Digest of y, PASS and every blame record.
  std::uint64_t outcome = 0;
};

/// AnonChan over RB at n = 5 with `dealer` corrupt; its R1 message to the
/// next party is truncated by one word, the one to the party after that
/// has an element corrupted, and the one after that is dropped.
FaultyRun faulty_run(net::PartyId dealer, std::size_t lanes) {
  net::Network net(kN, 2718);
  net.set_threads(lanes);
  net.set_corrupt(dealer, true);
  net::FaultPlan plan;
  plan.truncate(0, dealer, (dealer + 1) % kN, 1)
      .corrupt_element(0, dealer, (dealer + 2) % kN, 1)
      .drop(0, dealer, (dealer + 3) % kN);
  auto engine = std::make_shared<net::FaultEngine>(plan, 99);
  net.attach_faults(engine);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(kN, 2));
  const net::PartyId receiver = dealer == kN - 1 ? 0 : kN - 1;
  std::vector<Fld> inputs(kN);
  for (std::size_t i = 0; i < kN; ++i)
    if (i != receiver) inputs[i] = Fld::from_u64(900 + i);
  const anonchan::Output out = chan.run(receiver, inputs);
  EXPECT_TRUE(testutil::every_fault_hit(plan, engine->events()));

  FaultyRun r;
  r.blames = net.blames();
  Digest64 d;
  for (Fld v : out.y) d.absorb_u64(v.to_u64());
  for (bool p : out.pass) d.absorb_u64(p);
  for (const net::BlameRecord& b : r.blames) {
    d.absorb_u64(b.accuser);
    d.absorb_u64(b.accused);
    d.absorb_u64(b.round);
    for (char c : b.reason) d.absorb_u64(static_cast<unsigned char>(c));
  }
  r.outcome = d.value();
  return r;
}

bool blamed(const FaultyRun& r, net::PartyId accuser, net::PartyId accused,
            const std::string& reason) {
  for (const net::BlameRecord& b : r.blames)
    if (b.accuser == accuser && b.accused == accused && b.reason == reason)
      return true;
  return false;
}

TEST(VssSliceFaults, FirstMiddleAndLastDealerAtOneAndFourLanes) {
  // Outcome digests of the coefficient-major receiver code this replaced.
  const struct {
    net::PartyId dealer;
    std::uint64_t outcome;
  } cases[] = {{0, 0xf6515e8a8da2f9a1},
               {2, 0x13fc346f6b3b3a40},
               {4, 0xec98db1cf1ec81ed}};
  for (const auto& c : cases) {
    for (const std::size_t lanes : {1, 4}) {
      SCOPED_TRACE("dealer " + std::to_string(c.dealer) + ", " +
                   std::to_string(lanes) + " lanes");
      const FaultyRun r = faulty_run(c.dealer, lanes);
      EXPECT_TRUE(blamed(r, (c.dealer + 1) % kN, c.dealer,
                         "vss.slices.malformed"));
      EXPECT_TRUE(
          blamed(r, (c.dealer + 3) % kN, c.dealer, "vss.slices.missing"));
      // The corrupted message has the right size: no slice blame for it.
      EXPECT_FALSE(blamed(r, (c.dealer + 2) % kN, c.dealer,
                          "vss.slices.malformed"));
      EXPECT_EQ(r.outcome, c.outcome) << "got 0x" << std::hex << r.outcome;
    }
  }
}

}  // namespace
}  // namespace gfor14
