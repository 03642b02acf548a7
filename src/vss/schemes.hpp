// Scheme profiles: the three VSS instantiations the paper discusses.
//
// Round counts below are what the engine actually executes; see
// EXPERIMENTS.md (experiment E1) for how they relate to the figures the
// paper quotes (7 rounds for RB89, 9 for Rab94, 21 for GGOR13 — our
// statistical profile lands on the 9-round Rab94 figure of footnote 7).
#pragma once

#include <memory>

#include "vss/bivariate_engine.hpp"

namespace gfor14::vss {

enum class SchemeKind {
  kBGW,     ///< perfect, t < n/3, RS error-corrected reconstruction
  kRB,      ///< statistical, t < n/2, Rabin–Ben-Or / Rabin'94 style
  kGGOR13,  ///< statistical, t < n/2, 2 broadcast rounds in sharing
};

const char* scheme_name(SchemeKind kind);

/// Maximum tolerable t for the scheme on an n-party network.
std::size_t scheme_max_t(SchemeKind kind, std::size_t n);

/// Creates the scheme bound to `net` with its maximum threshold.
std::unique_ptr<VssScheme> make_vss(SchemeKind kind, net::Network& net);

/// As above with an explicit threshold t (must not exceed scheme_max_t).
std::unique_ptr<VssScheme> make_vss(SchemeKind kind, net::Network& net,
                                    std::size_t t);

}  // namespace gfor14::vss
