// Linear verifiable secret sharing — the paper's single black box.
//
// The paper (Section 2.2) requires an (n, t) VSS with:
//   COMMITMENT — after VSS-Share a fixed s* exists, defined by the honest
//     joint view, that VSS-Rec will output (s* = s for an honest dealer);
//   PRIVACY    — an honest dealer's secret is statistically hidden until
//     VSS-Rec;
//   LINEARITY  — public linear combinations of verifiably shared secrets
//     are verifiably shared without further interaction.
//
// Three instantiations are provided behind this interface (see schemes.hpp):
//   BGW      — perfectly secure, t < n/3, reconstruction by Reed–Solomon
//              error correction; fully concrete.
//   RB89     — statistically secure, t < n/2, the paper's headline
//              instantiation (our profile lands on the 9-round Rab94
//              figure of the paper's footnote 7); share authentication
//              at reconstruction uses an
//              information-checking layer (see bivariate_engine.hpp for the
//              concrete/idealized split, and icp.* for the standalone
//              concrete IC protocol).
//   GGOR13   — statistically secure, t < n/2, broadcast-efficient profile:
//              exactly 2 physical-broadcast rounds in sharing and 0 in
//              reconstruction, at the price of more point-to-point rounds
//              (21-round regime); statically secure, as the paper notes.
//
// All sharing is batched and simultaneous: every dealer shares its whole
// vector of secrets in the same synchronous rounds, which is what makes
// AnonChan's round complexity "essentially r_VSS-share".
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "ff/gf2e.hpp"
#include "net/network.hpp"
#include "vss/share_algebra.hpp"

namespace gfor14::vss {

/// Outcome of the (parallel, batched) sharing phase.
struct ShareResult {
  /// qualified[d] == false means dealer d was publicly disqualified during
  /// sharing; all its sharings then reconstruct to the default value 0.
  std::vector<bool> qualified;
};

/// Per-dealer misbehaviour inside the VSS sharing phase itself.
enum class DealerBehaviour {
  kHonest,
  /// Sends inconsistent (random) slices to half of the parties, then
  /// resolves complaints truthfully — must end qualified and committed.
  kInconsistentThenResolve,
  /// Sends inconsistent slices and refuses to resolve — must end
  /// disqualified.
  kInconsistentRefuse,
  /// Sends nothing at all — must end disqualified.
  kSilent,
  /// Deals consistently except for its first nonzero secret (none if all
  /// are zero): the lowest honest other party's slice of it is shifted by a
  /// polynomial vanishing at up to t further honest points, so with at most
  /// t + 2 honest parties exactly one honest pair disagrees. Resolves
  /// complaints truthfully — must end qualified and committed.
  kInconsistentOneSecret,
  /// Deals consistently, but every slice-opening round also "opens" a
  /// shifted slice for the lowest honest non-accuser. The opening is
  /// ignored and blamed (vss.open.unsolicited) — must end qualified and
  /// committed.
  kUnsolicitedOpening,
};

class VssScheme {
 public:
  virtual ~VssScheme() = default;

  virtual std::size_t n() const = 0;
  /// Corruption threshold this instantiation tolerates.
  virtual std::size_t t() const = 0;
  /// Scheme name for reports ("BGW", "RB89", "GGOR13").
  virtual const char* name() const = 0;

  /// Configures a dealer's behaviour for subsequent share_all calls.
  virtual void set_dealer_behaviour(net::PartyId dealer, DealerBehaviour b) = 0;
  /// Makes corrupt parties raise complaints against honest dealers.
  virtual void set_false_complaints(bool enabled) = 0;

  /// Runs the sharing phase for all dealers in parallel. batches[d] is the
  /// secret vector dealer d shares (may be empty). Sharing (d, k) afterwards
  /// refers to batches[d][k]. Appends to any previously shared batches:
  /// indices continue from the previous share_all.
  virtual ShareResult share_all(
      const std::vector<std::vector<Fld>>& batches) = 0;

  /// Number of sharings dealer d has performed so far.
  virtual std::size_t count(net::PartyId dealer) const = 0;

  /// Public reconstruction of linear combinations: one synchronous round of
  /// share revelation, after which every honest party outputs the same
  /// values (w.h.p. for the statistical schemes). Returns those values.
  virtual std::vector<Fld> reconstruct_public(
      const std::vector<LinComb>& values) = 0;

  /// Private reconstruction toward `receiver`: shares travel only on the
  /// private channels to the receiver, who reconstructs internally
  /// (AnonChan step 4). Returns the receiver's outputs.
  virtual std::vector<Fld> reconstruct_private(
      net::PartyId receiver, const std::vector<LinComb>& values) = 0;

  /// Batched multi-receiver private reconstruction: each request list is
  /// reconstructed toward its own receiver, ALL in the same single round
  /// (every party sends each receiver exactly the shares that receiver
  /// needs). This is what lets n parallel AnonChan instances with distinct
  /// receivers — the Section 4 pseudosignature setup — finish in constant
  /// rounds overall. Returns one output vector per request.
  struct PrivateRequest {
    net::PartyId receiver;
    std::vector<LinComb> values;
  };
  virtual std::vector<std::vector<Fld>> reconstruct_private_multi(
      const std::vector<PrivateRequest>& requests) = 0;

  /// Test oracle: the committed value of a linear combination as defined by
  /// the honest parties' joint view (the s* of the Commitment property).
  /// Not part of the protocol interface; used by tests and by ground-truth
  /// accounting in experiments.
  virtual Fld committed_value(const LinComb& v) const = 0;

  /// Round/broadcast profile of one (batched, parallel) sharing phase, used
  /// by the analytical round-complexity reports.
  virtual std::size_t share_rounds() const = 0;
  virtual std::size_t share_broadcast_rounds() const = 0;
};

}  // namespace gfor14::vss
