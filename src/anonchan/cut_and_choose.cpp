#include "anonchan/cut_and_choose.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>

#include "common/expect.hpp"

namespace gfor14::anonchan {

vss::LinComb zero_test(const Params& params, const BatchLayout& layout,
                       std::size_t j, const Opening& opened, Fld rho) {
  GFOR14_EXPECTS(j < params.kappa_cc);
  vss::LinComb z;
  Fld power = Fld::one();
  // Adds rho^k * u_k for the next entry u_k = sum of `refs`.
  const auto next = [&](std::initializer_list<vss::SharingRef> refs) {
    for (const vss::SharingRef& ref : refs) z.add(ref, power);
    power *= rho;
  };
  if (const auto* pi = std::get_if<Permutation>(&opened)) {
    GFOR14_EXPECTS(pi->size() == params.ell);
    z.reserve(4 * params.ell);  // ell two-term entries per component
    for (std::size_t k = 0; k < params.ell; ++k)
      next({layout.v_x.ref((*pi)(k)), layout.w_x[j].ref(k)});
    for (std::size_t k = 0; k < params.ell; ++k)
      next({layout.v_a.ref((*pi)(k)), layout.w_a[j].ref(k)});
    return z;
  }
  const auto& w_indices = std::get<std::vector<std::size_t>>(opened);
  GFOR14_EXPECTS(w_indices.size() == params.d);
  std::vector<bool> nonzero(params.ell, false);
  for (std::size_t idx : w_indices) {
    GFOR14_EXPECTS(idx < params.ell);
    nonzero[idx] = true;
  }
  // Per component: at most ell one-term zero entries and d - 1 two-term
  // differences.
  z.reserve(2 * (params.ell + 2 * params.d));
  for (const vss::Slab* w : {&layout.w_x[j], &layout.w_a[j]})
    for (std::size_t k = 0; k < params.ell; ++k)
      if (!nonzero[k]) next({w->ref(k)});
  for (const vss::Slab* w : {&layout.w_x[j], &layout.w_a[j]})
    for (std::size_t m = 0; m + 1 < w_indices.size(); ++m)
      next({w->ref(w_indices[m + 1]), w->ref(w_indices[m])});
  return z;
}

std::vector<vss::LinComb> delivery_values(
    const Params& params, const std::vector<BatchLayout>& layouts,
    const std::vector<bool>& pass, const std::vector<Permutation>& g) {
  GFOR14_EXPECTS(layouts.size() == params.n && pass.size() == params.n &&
                 g.size() == params.n);
  std::vector<vss::LinComb> out(2 * params.ell);
  for (std::size_t i = 0; i < params.n; ++i) {
    if (!pass[i]) continue;
    GFOR14_EXPECTS(g[i].size() == params.ell);
    for (std::size_t k = 0; k < params.ell; ++k) {
      // Entry k of g_i(v^(i)) is v^(i)[g_i(k)].
      out[k].add(layouts[i].v_x.ref(g[i](k)), Fld::one());
      out[params.ell + k].add(layouts[i].v_a.ref(g[i](k)), Fld::one());
    }
  }
  return out;
}

Delivered extract_output(const Params& params, std::span<const Fld> v_x,
                         std::span<const Fld> v_a) {
  GFOR14_EXPECTS(v_x.size() == params.ell && v_a.size() == params.ell);
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::pair<Fld, Fld>, std::size_t>>
      counts;
  for (std::size_t k = 0; k < params.ell; ++k) {
    if (v_x[k].is_zero() && v_a[k].is_zero()) continue;
    auto key = std::make_pair(v_x[k].to_u64(), v_a[k].to_u64());
    auto [it, inserted] = counts.try_emplace(
        key, std::make_pair(std::make_pair(v_x[k], v_a[k]), std::size_t{0}));
    it->second.second += 1;
  }
  Delivered out;
  const double threshold =
      params.threshold_factor * static_cast<double>(params.d);
  for (const auto& [key, entry] : counts) {
    // "appears >= d/2 times" (threshold_factor = 1/2; ablatable).
    if (static_cast<double>(entry.second) >= threshold) {
      out.t_pairs.push_back(entry.first);
      out.y.push_back(entry.first.first);
    }
  }
  return out;
}

}  // namespace gfor14::anonchan
