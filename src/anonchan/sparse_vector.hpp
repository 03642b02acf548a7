// Sender-side commitment material: the d-sparse vector v, its kappa
// re-randomized permuted copies w_j, the permutations pi_j and the non-zero
// index lists — everything a party VSS-shares in AnonChan step 1.
//
// Misbehaving senders are modelled as SenderStrategy implementations (see
// attacks.hpp); the protocol only fixes the batch *layout*, the strategy
// fills the *content*.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "anonchan/params.hpp"
#include "common/rng.hpp"
#include "ff/gf2e.hpp"
#include "math/permutation.hpp"

namespace gfor14::anonchan {

/// What a sender commits to, plus ground truth kept for tests/diagnostics
/// (the ground-truth fields never travel on the network).
struct SenderCommitment {
  std::vector<Fld> secrets;  ///< the dealer's VSS batch, laid out per BatchLayout
  // --- test/diagnostic oracles ---
  std::vector<std::size_t> v_indices;  ///< non-zero positions of v (sorted)
  Fld tag;                             ///< the appended tag a_i
};

class SenderStrategy {
 public:
  virtual ~SenderStrategy() = default;
  virtual SenderCommitment build(const Params& params,
                                 const BatchLayout& layout, Fld input,
                                 Rng& rng) = 0;
};

/// The honest sender of Figure 1 step 1.
class HonestSender final : public SenderStrategy {
 public:
  SenderCommitment build(const Params& params, const BatchLayout& layout,
                         Fld input, Rng& rng) override;
};

// --- shared helpers (used by the honest sender and by the attacks) --------

/// Writes a (x, a)-sparse vector with the given non-zero positions into the
/// v_x/v_a portions of `secrets`.
void write_sparse_vector(const Params& params, const vss::Slab& slab_x,
                         const vss::Slab& slab_a,
                         const std::vector<std::size_t>& indices, Fld x,
                         Fld a, std::vector<Fld>& secrets);

/// Packs `indices` — a permutation's images or a sorted index list — into
/// an opened-only slab (pi_j, an index list or g_i) with params.codec().
void write_indices(const Params& params, const vss::Slab& slab,
                   std::span<const std::size_t> indices,
                   std::vector<Fld>& secrets);

/// Sorted non-zero positions of w = pi(v): { k : pi(k) in v_indices }.
std::vector<std::size_t> permuted_indices(const Permutation& pi,
                                          const std::vector<std::size_t>& v_indices,
                                          std::size_t ell);

}  // namespace gfor14::anonchan
