#include "anonchan/attacks.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace gfor14::anonchan {

namespace {

/// Sorted list of w-indices and writes for a consistent copy w_j = pi_j(v)
/// of an arbitrary (possibly improper) committed v. Copies VALUES, not just
/// the sparsity pattern, so improper vectors stay improper in their copies.
void write_consistent_copy(const Params& params, const BatchLayout& layout,
                           std::size_t j, const std::vector<Fld>& secrets_v_x,
                           const std::vector<Fld>& secrets_v_a,
                           const Permutation& pi, std::vector<Fld>& secrets) {
  for (std::size_t k = 0; k < params.ell; ++k) {
    secrets[layout.w_x[j].base + k] = secrets_v_x[pi(k)];
    secrets[layout.w_a[j].base + k] = secrets_v_a[pi(k)];
  }
}

/// Best-effort index list for a copy with possibly more than d non-zero
/// entries: the first d non-zero positions (sorted). For a proper copy this
/// is exactly the true list.
std::vector<std::size_t> first_d_nonzero(const Params& params,
                                         const std::vector<Fld>& w_x,
                                         const std::vector<Fld>& w_a) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < params.ell && out.size() < params.d; ++k)
    if (!w_x[k].is_zero() || !w_a[k].is_zero()) out.push_back(k);
  // Pad with unused zero positions if the vector has fewer than d non-zeros
  // (keeps the encoding well-formed; the checks will still fail where they
  // should).
  for (std::size_t k = params.ell; out.size() < params.d && k-- > 0;) {
    if (std::find(out.begin(), out.end(), k) == out.end()) out.push_back(k);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Fld> slab_values(const Params& params, const vss::Slab& slab,
                             const std::vector<Fld>& secrets) {
  return {secrets.begin() + slab.base,
          secrets.begin() + slab.base + params.ell};
}

}  // namespace

SenderCommitment DenseVectorAttack::build(const Params& params,
                                          const BatchLayout& layout,
                                          Fld input, Rng& rng) {
  (void)input;  // the attacker's "message" is garbage by construction
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  const std::size_t extra =
      std::min(extra_, params.ell - params.d);
  const std::size_t total = params.d + extra;
  auto positions = sample_without_replacement(rng, total, params.ell);
  std::sort(positions.begin(), positions.end());
  for (std::size_t idx : positions) {
    c.secrets[layout.v_x.base + idx] = Fld::random(rng);
    c.secrets[layout.v_a.base + idx] = Fld::random(rng);
  }
  const auto v_x = slab_values(params, layout.v_x, c.secrets);
  const auto v_a = slab_values(params, layout.v_a, c.secrets);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    const Permutation pi = Permutation::random(rng, params.ell);
    write_indices(params, layout.perm[j], pi.images(), c.secrets);
    write_consistent_copy(params, layout, j, v_x, v_a, pi, c.secrets);
    const auto w_x = slab_values(params, layout.w_x[j], c.secrets);
    const auto w_a = slab_values(params, layout.w_a[j], c.secrets);
    write_indices(params, layout.idx[j], first_d_nonzero(params, w_x, w_a),
                  c.secrets);
  }
  c.secrets[layout.r.base] = Fld::random(rng);
  // v_indices left empty: no meaningful ground truth for a garbage vector.
  return c;
}

SenderCommitment UnequalEntriesAttack::build(const Params& params,
                                             const BatchLayout& layout,
                                             Fld input, Rng& rng) {
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  c.tag = Fld::random_nonzero(rng);
  auto indices = sample_without_replacement(rng, params.d, params.ell);
  std::sort(indices.begin(), indices.end());
  // First half the honest pair, second half a different message under the
  // same tag: d-sparse, but entries unequal.
  const Fld other = input + Fld::one();
  for (std::size_t m = 0; m < indices.size(); ++m) {
    c.secrets[layout.v_x.base + indices[m]] =
        (m < indices.size() / 2) ? input : other;
    c.secrets[layout.v_a.base + indices[m]] = c.tag;
  }
  const auto v_x = slab_values(params, layout.v_x, c.secrets);
  const auto v_a = slab_values(params, layout.v_a, c.secrets);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    const Permutation pi = Permutation::random(rng, params.ell);
    write_indices(params, layout.perm[j], pi.images(), c.secrets);
    write_consistent_copy(params, layout, j, v_x, v_a, pi, c.secrets);
    write_indices(params, layout.idx[j],
                  permuted_indices(pi, indices, params.ell), c.secrets);
  }
  c.secrets[layout.r.base] = Fld::random(rng);
  return c;
}

SenderCommitment WrongCopyAttack::build(const Params& params,
                                        const BatchLayout& layout, Fld input,
                                        Rng& rng) {
  // Start from an honest commitment, then replace every copy w_j (and its
  // index list) with an independently positioned proper vector.
  HonestSender honest;
  SenderCommitment c = honest.build(params, layout, input, rng);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    for (std::size_t k = 0; k < params.ell; ++k) {
      c.secrets[layout.w_x[j].base + k] = Fld::zero();
      c.secrets[layout.w_a[j].base + k] = Fld::zero();
    }
    auto w_idx = sample_without_replacement(rng, params.d, params.ell);
    std::sort(w_idx.begin(), w_idx.end());
    write_sparse_vector(params, layout.w_x[j], layout.w_a[j], w_idx, input,
                        c.tag, c.secrets);
    write_indices(params, layout.idx[j], w_idx, c.secrets);
  }
  return c;
}

SenderCommitment GuessingAttack::build(const Params& params,
                                       const BatchLayout& layout, Fld input,
                                       Rng& rng) {
  (void)input;
  // Improper v: fully dense random garbage.
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  for (std::size_t k = 0; k < params.ell; ++k) {
    c.secrets[layout.v_x.base + k] = Fld::random(rng);
    c.secrets[layout.v_a.base + k] = Fld::random(rng);
  }
  const auto v_x = slab_values(params, layout.v_x, c.secrets);
  const auto v_a = slab_values(params, layout.v_a, c.secrets);
  const Fld fake_tag = Fld::random_nonzero(rng);
  const Fld fake_msg = Fld::random(rng);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    const Permutation pi = Permutation::random(rng, params.ell);
    write_indices(params, layout.perm[j], pi.images(), c.secrets);
    if (rng.next_bool()) {
      // Guess b_j = 1: commit a PROPER independent w_j with a truthful
      // index list — passes the sparseness branch, fails the permutation
      // branch.
      auto w_idx = sample_without_replacement(rng, params.d, params.ell);
      std::sort(w_idx.begin(), w_idx.end());
      write_sparse_vector(params, layout.w_x[j], layout.w_a[j], w_idx,
                          fake_msg, fake_tag, c.secrets);
      write_indices(params, layout.idx[j], w_idx, c.secrets);
    } else {
      // Guess b_j = 0: commit the consistent permuted copy — passes the
      // permutation branch, fails the sparseness branch.
      write_consistent_copy(params, layout, j, v_x, v_a, pi, c.secrets);
      const auto w_x = slab_values(params, layout.w_x[j], c.secrets);
      const auto w_a = slab_values(params, layout.w_a[j], c.secrets);
      write_indices(params, layout.idx[j], first_d_nonzero(params, w_x, w_a),
                    c.secrets);
    }
  }
  c.secrets[layout.r.base] = Fld::random(rng);
  return c;
}

SenderCommitment FixedPositionSender::build(const Params& params,
                                            const BatchLayout& layout,
                                            Fld input, Rng& rng) {
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  c.tag = params.use_tags ? Fld::random_nonzero(rng) : Fld::zero();
  c.v_indices.resize(params.d);
  for (std::size_t m = 0; m < params.d; ++m) c.v_indices[m] = m;
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

SenderCommitment ZeroVectorAttack::build(const Params& params,
                                         const BatchLayout& layout, Fld input,
                                         Rng& rng) {
  (void)layout;
  (void)input;
  (void)rng;
  SenderCommitment c;
  c.secrets.assign(params.sender_batch_size(), Fld::zero());
  return c;
}

}  // namespace gfor14::anonchan
