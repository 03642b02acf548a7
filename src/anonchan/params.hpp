// AnonChan parameters: vector length ell, sparsity d, cut-and-choose copy
// count kappa_cc, and the Claim 2 bookkeeping.
//
// The paper's proof (Section 3) fixes C = 1/(4 n^2), d = n^4 kappa and
// ell = 4 n^6 kappa so that the Claim 2 threshold n^2 (d^2/ell + C d)
// equals d/2 exactly and the failure bound n^2 exp(-C^2 d) is
// 2^-Omega(kappa). Those parameters are chosen for proof convenience and
// are astronomically larger than necessary (n = 10, kappa = 20 gives
// ell = 8 * 10^8); executing the protocol with them is infeasible anywhere.
//
// We therefore expose three profiles:
//   * kPaper     — the exact proof parameters (constructible and checked
//                  symbolically for any n; executable for tiny n);
//   * kPractical — d = Theta(kappa), ell = 4 n^2 d: the same threshold
//                  identity n^2 (d^2/ell + C_eff d) = d/2 holds with
//                  C_eff = 1/(4 n^2); the *bound* of Claim 2 is weak at
//                  this scale but the true hypergeometric concentration is
//                  far stronger — experiment E3 (bench_collisions) measures
//                  the empirical failure rate directly;
//   * kLight     — minimal sizes for round/broadcast accounting runs where
//                  the payload content is irrelevant (E1/E2).
#pragma once

#include <cstddef>
#include <string>

#include "math/index_codec.hpp"
#include "vss/batch.hpp"

namespace gfor14::anonchan {

enum class ParamProfile { kPaper, kPractical, kLight };

struct Params {
  std::size_t n = 0;         ///< number of parties
  std::size_t kappa_cc = 0;  ///< cut-and-choose copies == challenge bits
  std::size_t d = 0;         ///< sparsity (non-zero entries per vector)
  std::size_t ell = 0;       ///< vector length
  ParamProfile profile = ParamProfile::kPractical;

  // --- ablation switches (bench_ablation; defaults are the paper's
  // protocol) ---
  /// Append random non-zero tags to messages (Figure 1 step 0). Without
  /// them, equal messages from different senders collapse into one output
  /// — the multiset semantics is lost.
  bool use_tags = true;
  /// Delivery threshold as a fraction of d (paper: 1/2 — "appears >= d/2
  /// times"). Lower admits more collision garbage; higher drops honest
  /// inputs whose copies collided.
  double threshold_factor = 0.5;

  static Params paper(std::size_t n, std::size_t kappa);
  static Params practical(std::size_t n, std::size_t kappa);
  static Params light(std::size_t n);

  /// The C for which n^2 (d^2/ell + C d) == d/2 (the Claim 2 threshold
  /// identity); negative means the profile cannot satisfy the identity.
  double effective_c() const;
  /// Claim 2 union bound n^2 exp(-C_eff^2 d) on the collision overflow.
  double claim2_failure_bound() const;
  /// Expected total pairwise collisions n (n-1) d^2 / ell.
  double expected_total_collisions() const;

  /// The packed encoding of the opened-only slabs: pi_j, the index lists
  /// and g_1..g_n hold IndexCodec(ell) words.
  IndexCodec codec() const { return IndexCodec(ell); }
  /// Words of one packed permutation (pi_j or g_i): ceil(ell / k).
  std::size_t perm_words() const;
  /// Words of one packed index list: ceil(d / k).
  std::size_t index_list_words() const;

  /// Per-dealer sharing counts.
  std::size_t sender_batch_size() const;    // v, w's, perms, index lists, r
  std::size_t receiver_extra_size() const;  // the n permutations g_i

  std::string describe() const;
};

/// Offsets of each logical slab inside a dealer's VSS batch. The receiver's
/// g-permutation slabs are appended after its own sender slabs.
struct BatchLayout {
  vss::Slab v_x, v_a;             ///< the two components of v
  std::vector<vss::Slab> w_x, w_a;  ///< per copy j
  std::vector<vss::Slab> perm;      ///< packed pi_j images (perm_words)
  std::vector<vss::Slab> idx;       ///< packed non-zero index lists
  vss::Slab r;                      ///< challenge contribution
  std::vector<vss::Slab> g;         ///< receiver only: packed g_1..g_n

  static BatchLayout make(const Params& params, std::size_t dealer,
                          bool is_receiver);
};

}  // namespace gfor14::anonchan
