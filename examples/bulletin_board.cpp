// Anonymous bulletin board: two flavors in one program.
//
//  1. Many-to-one, multi-session: contributors file reports to a moderator
//     across several topic sessions, all delivered in ONE constant-round
//     execution (AnonChan::run_many — the mode the pseudosignature setup
//     of Section 4 is built on).
//  2. Many-to-all publication: the group publishes statements so that
//     EVERYONE learns the multiset and nobody learns authorship
//     (AnonChan::publish — Chaum's original use case, one round cheaper).
//
//   $ ./examples/bulletin_board
#include <cstdio>

#include "anonchan/anonchan.hpp"
#include "vss/schemes.hpp"

using namespace gfor14;

int main() {
  const std::size_t n = 4;
  const net::PartyId moderator = 0;

  // --- Part 1: multi-session reports to a moderator -----------------------
  {
    net::Network net(n, 1001);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan board(net, *vss, anonchan::Params::practical(n, 4));

    // Three topic sessions; party i files report (topic*100 + i).
    std::vector<std::vector<Fld>> sessions(3, std::vector<Fld>(n));
    for (std::size_t topic = 0; topic < 3; ++topic)
      for (std::size_t i = 0; i < n; ++i)
        sessions[topic][i] = Fld::from_u64((topic + 1) * 100 + i);

    const auto out = board.run_many(moderator, sessions);
    std::printf("multi-session board: %zu sessions in %zu rounds "
                "(single-session cost: %zu rounds)\n",
                sessions.size(), out.costs.rounds, board.expected_rounds());
    for (std::size_t topic = 0; topic < 3; ++topic) {
      std::printf("  topic %zu reports:", topic + 1);
      for (Fld y : out.sessions[topic].y)
        std::printf(" %llu", static_cast<unsigned long long>(y.to_u64()));
      std::printf("\n");
    }
  }

  // --- Part 2: anonymous publication to everyone --------------------------
  {
    net::Network net(n, 1002);
    auto vss = vss::make_vss(vss::SchemeKind::kGGOR13, net);
    anonchan::AnonChan wall(net, *vss, anonchan::Params::practical(n, 4));
    std::vector<Fld> statements;
    for (std::size_t i = 0; i < n; ++i)
      statements.push_back(Fld::from_u64(9000 + i));
    const auto out = wall.publish(statements);
    std::printf("\npublication wall (everyone sees, nobody attributes):");
    for (Fld y : out.y)
      std::printf(" %llu", static_cast<unsigned long long>(y.to_u64()));
    std::printf("\n  %zu rounds, %zu physical-broadcast rounds "
                "(GGOR13 VSS: the 2-broadcast configuration)\n",
                out.costs.rounds, out.costs.broadcast_rounds);
  }
  return 0;
}
