#include "anonchan/sparse_vector.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace gfor14::anonchan {

void write_sparse_vector(const Params& params, const vss::Slab& slab_x,
                         const vss::Slab& slab_a,
                         const std::vector<std::size_t>& indices, Fld x,
                         Fld a, std::vector<Fld>& secrets) {
  GFOR14_EXPECTS(slab_x.size == params.ell && slab_a.size == params.ell);
  for (std::size_t idx : indices) {
    GFOR14_EXPECTS(idx < params.ell);
    secrets[slab_x.base + idx] = x;
    secrets[slab_a.base + idx] = a;
  }
}

void write_indices(const Params& params, const vss::Slab& slab,
                   std::span<const std::size_t> indices,
                   std::vector<Fld>& secrets) {
  GFOR14_EXPECTS(slab.base + slab.size <= secrets.size());
  params.codec().encode(
      indices, std::span<Fld>(secrets).subspan(slab.base, slab.size));
}

std::vector<std::size_t> permuted_indices(
    const Permutation& pi, const std::vector<std::size_t>& v_indices,
    std::size_t ell) {
  // w[k] = v[pi(k)] is non-zero iff pi(k) is a non-zero position of v.
  std::vector<bool> nonzero(ell, false);
  for (std::size_t idx : v_indices) nonzero[idx] = true;
  std::vector<std::size_t> out;
  out.reserve(v_indices.size());
  for (std::size_t k = 0; k < ell; ++k)
    if (nonzero[pi(k)]) out.push_back(k);
  return out;
}

SenderCommitment HonestSender::build(const Params& params,
                                     const BatchLayout& layout, Fld input,
                                     Rng& rng) {
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  // Random non-zero kappa-bit tag a_i; with Fld = GF(2^64) the tag is a
  // full 64-bit value (kappa >= 2n holds for every simulated n). The
  // tag-free variant exists only for the ablation study.
  c.tag = params.use_tags ? Fld::random_nonzero(rng) : Fld::zero();
  c.v_indices = sample_without_replacement(rng, params.d, params.ell);
  std::sort(c.v_indices.begin(), c.v_indices.end());
  write_sparse_vector(params, layout.v_x, layout.v_a, c.v_indices, input,
                      c.tag, c.secrets);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    const Permutation pi = Permutation::random(rng, params.ell);
    write_indices(params, layout.perm[j], pi.images(), c.secrets);
    const auto w_idx = permuted_indices(pi, c.v_indices, params.ell);
    write_sparse_vector(params, layout.w_x[j], layout.w_a[j], w_idx, input,
                        c.tag, c.secrets);
    write_indices(params, layout.idx[j], w_idx, c.secrets);
  }
  c.secrets[layout.r.base] = Fld::random(rng);
  return c;
}

}  // namespace gfor14::anonchan
