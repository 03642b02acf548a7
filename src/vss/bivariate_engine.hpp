// The concrete VSS engine behind all three scheme profiles.
//
// Sharing (batched, all dealers in parallel, constant rounds):
//   R1  dealer -> P_i : univariate slices f_i(x) = F(x, alpha_i) of a random
//       symmetric bivariate F with F(0,0) = secret, for every secret in the
//       dealer's batch (private channels). In the statistical profiles the
//       same message also carries the pair challenge: for every pair
//       {i, j}, i < j, P_i draws a private rho_ij and sends it to P_j;
//   R2  P_i -> P_j    : check words (private channels). Per-secret checks
//       (BGW) send the cross evaluations f_i(alpha_j) of every secret;
//       the statistical profiles send one word per dealer,
//       sum_k rho_ij^(k+1) f_{i,k}(alpha_j), which an honest dealer's
//       symmetry makes equal to P_j's own combination;
//   R3  complaints    : P_i publishes every (dealer, check word, pair)
//       whose received word conflicts with its own;
//   R4  resolution    : the dealer publishes F(alpha_i, alpha_j) for every
//       secret the complained check word covers (one for BGW, the whole
//       batch otherwise);
//   R5  accusations   : parties whose slices conflict with published
//       resolutions accuse the dealer;
//   R6  slice opening : the dealer publishes the accusers' full slices;
//       accusers adopt them, everyone cross-checks; an opening for a
//       non-accuser is ignored and blamed;
//   R7  votes         : every party publishes accept/reject per dealer; a
//       dealer with fewer than n - t accepts is disqualified (its sharings
//       default to 0).
//
// "Publishes" means the physical broadcast channel in the BGW and RB89
// profiles, and a two-round point-to-point echo (send, then echo + majority)
// in the broadcast-efficient GGOR13 profile, which spends its only two
// physical-broadcast rounds on the final votes and dealer confirmation.
// Profiles pad with empty synchronization rounds to land on the round
// counts the paper quotes (7 for RB89, 21 for GGOR13), so the cost
// accounting downstream experiments report matches the paper's comparison.
//
// Reconstruction (one round, no broadcast):
//   every party sends its combined share of each requested linear
//   combination to the receiver(s);
//   the receiver interpolates the first t + 1 present shares and checks
//   every other one against them; only values whose shares disagree go to
//   the profile's fallback:
//   * BGW profile (t < n/3): Reed–Solomon decoding (Berlekamp–Welch) with
//     up to t errors — fully concrete;
//   * RB89/GGOR13 profiles (t < n/2): verify each revealed share with the
//     information-checking layer and interpolate t + 1 accepted shares
//     (every value, when fewer than 2t + 1 shares are present).
//
// Information-checking layer: the engine accepts a revealed share iff it
// equals the committed share (the value determined by the honest joint
// view) — i.e., it *idealizes* the unforgeability that RB89's IC
// signatures provide with probability 1 - 2^-Omega(kappa), including their
// linearity across dealers. The
// concrete three-party check-vector protocol, with its real keys, tags,
// forgery probability and round cost, is implemented and validated
// standalone in icp.{hpp,cpp}; DESIGN.md discusses why the split preserves
// every property the paper consumes.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "math/poly.hpp"
#include "vss/soa.hpp"
#include "vss/vss.hpp"

namespace gfor14::vss {

enum class ReconMode {
  kErrorCorrection,  ///< Berlekamp–Welch, needs t < n/3.
  kAuthenticated,    ///< IC-filtered interpolation, works for t < n/2.
};

enum class PublishMode {
  kPhysicalBroadcast,  ///< Complaint rounds use the broadcast channel.
  kEcho,               ///< Complaint rounds use p2p send + echo + majority.
};

struct EngineProfile {
  const char* name;
  std::size_t t;
  ReconMode recon;
  PublishMode publish;
  /// Empty synchronization rounds appended to the sharing phase so the
  /// total matches the round count quoted in the paper for this scheme.
  std::size_t pad_rounds;
};

class BivariateEngine final : public VssScheme {
 public:
  BivariateEngine(net::Network& net, EngineProfile profile);

  std::size_t n() const override { return net_.n(); }
  std::size_t t() const override { return profile_.t; }
  const char* name() const override { return profile_.name; }

  void set_dealer_behaviour(net::PartyId dealer, DealerBehaviour b) override;
  void set_false_complaints(bool enabled) override { false_complaints_ = enabled; }

  ShareResult share_all(const std::vector<std::vector<Fld>>& batches) override;

  std::size_t count(net::PartyId dealer) const override;

  std::vector<Fld> reconstruct_public(const std::vector<LinComb>& values) override;
  std::vector<Fld> reconstruct_private(net::PartyId receiver,
                                       const std::vector<LinComb>& values) override;
  std::vector<std::vector<Fld>> reconstruct_private_multi(
      const std::vector<PrivateRequest>& requests) override;

  Fld committed_value(const LinComb& v) const override;

  std::size_t share_rounds() const override;
  std::size_t share_broadcast_rounds() const override;

  /// Whether dealer d is currently qualified (never disqualified so far).
  bool dealer_qualified(net::PartyId d) const { return qualified_[d]; }

 private:
  // --- sharing-phase helpers (see .cpp for the round-by-round logic) ------
  struct ShareCtx;
  /// Runs fn(a, b) for every ordered pair of parties on the round engine's
  /// lanes — n^2 tasks, so sharing work spreads past n on few lanes. Same
  /// slot discipline as Network::for_each_party, keyed by the pair.
  void for_each_pair(
      const std::function<void(net::PartyId, net::PartyId)>& fn) const;
  void round_distribute_slices(ShareCtx& ctx);
  /// Whether R2 checks every secret (the perfect BGW profile: a check with
  /// any error would break its claim) instead of one challenge combination
  /// per dealer (the statistical profiles, already resting on
  /// information checking).
  bool per_secret_checks() const {
    return profile_.recon == ReconMode::kErrorCorrection;
  }
  /// R2 check words per dealer batch of m secrets: m, or one combination.
  std::size_t check_width(std::size_t m) const {
    return per_secret_checks() ? m : 1;
  }
  void round_cross_checks(ShareCtx& ctx);
  void publish_round(const std::vector<net::Payload>& per_party,
                     std::vector<net::Payload>& received_by_all,
                     bool force_physical = false);
  void run_padding_rounds();

  /// Per value, the t + 1 coefficients (x^0 first) of its committed share
  /// polynomial, for every value of at least kFoldTerms terms; empty for
  /// shorter values, and no entries at all when no value is that long.
  std::vector<std::vector<Fld>> fold_long_values(
      const std::vector<LinComb>& values) const;
  /// out[j] = the party's committed share of values[vi], vi = which[j]
  /// (vi = j when `which` is empty): a Horner of folded[vi] when that is
  /// non-empty; otherwise per-dealer pool evaluations amortized across
  /// values through one span Horner sweep over each touched index range.
  /// `folded` is empty or parallel to `values`.
  void committed_shares_into(std::span<const LinComb> values,
                             std::span<const std::vector<Fld>> folded,
                             std::span<const std::size_t> which,
                             net::PartyId party, std::span<Fld> out) const;
  /// Decodes `values` from the share vectors one party holds after the
  /// reveal round: per_sender[i] views sender i's delivered vector (nullopt
  /// when missing or the wrong size); per_sender[self] is the decoding
  /// party's own committed shares, accepted without re-evaluation. One
  /// consistency sweep for both ReconModes; only the values it disputes go
  /// to the mode's fallback (Berlekamp–Welch, or the idealized-IC walk,
  /// which requires n <= 64: its accept sets are sender bitmasks), counted
  /// in `vss.recon.fallback_values`.
  std::vector<Fld> decode_received(
      const std::vector<LinComb>& values,
      std::span<const std::vector<Fld>> folded,
      std::span<const std::optional<std::span<const Fld>>> per_sender,
      net::PartyId self);

  /// Charges one `vss.alloc.count` / `elements * sizeof(Fld)` worth of
  /// `vss.alloc.bytes` into the network's metrics scope — called wherever a
  /// share vector is staged for the wire. Deterministic (one charge per
  /// logical buffer) and safe from worker lanes (relaxed atomic adds,
  /// totals exact at the round barrier).
  void charge_share_buffer(std::size_t elements) const {
    vss_alloc_count_->add(1);
    vss_alloc_bytes_->add(elements * sizeof(Fld));
  }

  net::Network& net_;
  metrics::Counter* vss_alloc_count_ = nullptr;
  metrics::Counter* vss_alloc_bytes_ = nullptr;
  metrics::Counter* recon_fallback_values_ = nullptr;
  EngineProfile profile_;
  std::vector<DealerBehaviour> behaviour_;
  bool false_complaints_ = false;

  std::vector<bool> qualified_;
  /// Committed share polynomials g(y) = F(0, y) per dealer, one pool column
  /// per sharing index, stored coefficient-major (vss/soa.hpp): party i's
  /// committed share is the column evaluated at alpha_i; the committed
  /// secret is the x^0 plane. Columns stay zero once disqualified.
  std::vector<SharePool> pools_;
};

}  // namespace gfor14::vss
