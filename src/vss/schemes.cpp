#include "vss/schemes.hpp"

#include "common/expect.hpp"

namespace gfor14::vss {

const char* scheme_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kBGW:
      return "BGW";
    case SchemeKind::kRB:
      return "RB";
    case SchemeKind::kGGOR13:
      return "GGOR13";
  }
  return "?";
}

std::size_t scheme_max_t(SchemeKind kind, std::size_t n) {
  GFOR14_EXPECTS(n >= 2);
  if (kind == SchemeKind::kBGW) return (n - 1) / 3;
  return (n - 1) / 2;
}

std::unique_ptr<VssScheme> make_vss(SchemeKind kind, net::Network& net) {
  return make_vss(kind, net, scheme_max_t(kind, net.n()));
}

std::unique_ptr<VssScheme> make_vss(SchemeKind kind, net::Network& net,
                                    std::size_t t) {
  GFOR14_EXPECTS(t <= scheme_max_t(kind, net.n()));
  EngineProfile profile;
  profile.name = scheme_name(kind);
  profile.t = t;
  switch (kind) {
    case SchemeKind::kBGW:
      profile.recon = ReconMode::kErrorCorrection;
      profile.publish = PublishMode::kPhysicalBroadcast;
      profile.pad_rounds = 0;  // 9 rounds, 7 broadcast rounds
      break;
    case SchemeKind::kRB:
      profile.recon = ReconMode::kAuthenticated;
      profile.publish = PublishMode::kPhysicalBroadcast;
      profile.pad_rounds = 0;  // 9 rounds (the Rab94 figure), 7 bc rounds
      break;
    case SchemeKind::kGGOR13:
      profile.recon = ReconMode::kAuthenticated;
      profile.publish = PublishMode::kEcho;
      profile.pad_rounds = 5;  // 21 rounds (GGOR13 figure), 2 bc rounds
      break;
  }
  return std::make_unique<BivariateEngine>(net, profile);
}

}  // namespace gfor14::vss
