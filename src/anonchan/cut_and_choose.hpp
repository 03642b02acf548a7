// Builders and validators for the cut-and-choose sparseness proof
// (Figure 1, step 3) and the delivery step (step 4).
//
// Everything here is expressed as linear combinations over sharings, so
// each check is a VSS-Rec of a public LinComb — exactly what the Linearity
// property licenses. Step 3 needs two reconstruction rounds: the opened
// permutation / index list first (round A, decoded by Params::codec()),
// then one batched zero test per copy that depends on it (round B).
#pragma once

#include <span>
#include <variant>
#include <vector>

#include "anonchan/params.hpp"
#include "math/permutation.hpp"
#include "vss/share_algebra.hpp"

namespace gfor14::anonchan {

/// What round A opened for copy j: the permutation pi_j (challenge bit 0)
/// or the non-zero index list of w_j (challenge bit 1).
using Opening = std::variant<Permutation, std::vector<std::size_t>>;

/// Round B's single value for copy j: z = sum_k rho^k u_k over the entries
/// u_0, u_1, ... that must all be zero. For an opened permutation they are
/// u[k] = v[pi(k)] - w_j[k], x components then a components; for an opened
/// index list, the alleged zero entries of w_j (x, then a), then the
/// consecutive differences of its alleged non-zero entries (x, then a).
/// A non-zero u opens z = 0 with probability below 2 ell / |F| over a
/// uniform rho fixed after the commitments; honest copies open 0.
vss::LinComb zero_test(const Params& params, const BatchLayout& layout,
                       std::size_t j, const Opening& opened, Fld rho);

/// Step 4: the 2*ell linear combinations of the delivered vector
/// v = sum_{i in PASS} g_i(v^(i)) — x components first, then a components.
std::vector<vss::LinComb> delivery_values(
    const Params& params, const std::vector<BatchLayout>& layouts,
    const std::vector<bool>& pass, const std::vector<Permutation>& g);

/// Step 4 receiver logic: pairs appearing at least d/2 times among the
/// non-zero entries (the set T), and the output multiset Y (tags stripped).
struct Delivered {
  std::vector<std::pair<Fld, Fld>> t_pairs;  ///< the set T
  std::vector<Fld> y;                        ///< the multiset Y
};
Delivered extract_output(const Params& params, std::span<const Fld> v_x,
                         std::span<const Fld> v_a);

}  // namespace gfor14::anonchan
