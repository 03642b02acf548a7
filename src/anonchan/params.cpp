#include "anonchan/params.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/expect.hpp"
#include "math/hypergeom.hpp"

namespace gfor14::anonchan {

Params Params::paper(std::size_t n, std::size_t kappa) {
  GFOR14_EXPECTS(n >= 2 && kappa >= 1);
  const auto pc = paper_choice(n, kappa);
  Params p;
  p.n = n;
  p.kappa_cc = kappa;
  p.d = pc.d;
  p.ell = pc.ell;
  p.profile = ParamProfile::kPaper;
  return p;
}

Params Params::practical(std::size_t n, std::size_t kappa) {
  GFOR14_EXPECTS(n >= 2 && kappa >= 1);
  Params p;
  p.n = n;
  p.kappa_cc = kappa;
  // Even d so the >= d/2 threshold is integral; floor at 8 keeps the
  // per-vector signal comfortably above the collision noise.
  p.d = std::max<std::size_t>(8, 2 * kappa);
  if (p.d % 2 != 0) ++p.d;
  p.ell = 4 * n * n * p.d;
  p.profile = ParamProfile::kPractical;
  return p;
}

Params Params::light(std::size_t n) {
  GFOR14_EXPECTS(n >= 2);
  Params p;
  p.n = n;
  p.kappa_cc = 2;
  p.d = 2;
  p.ell = 8;
  p.profile = ParamProfile::kLight;
  return p;
}

double Params::effective_c() const {
  // Solve n^2 (d^2/ell + C d) = d/2 for C.
  const double nn = static_cast<double>(n) * static_cast<double>(n);
  return 1.0 / (2.0 * nn) - static_cast<double>(d) / static_cast<double>(ell);
}

double Params::claim2_failure_bound() const {
  const double c = effective_c();
  if (c <= 0.0) return 1.0;
  return claim2_bound(n, c, d);
}

double Params::expected_total_collisions() const {
  return static_cast<double>(n) * static_cast<double>(n - 1) *
         expected_pair_collisions(d, ell);
}

std::size_t Params::perm_words() const { return codec().words(ell); }

std::size_t Params::index_list_words() const { return codec().words(d); }

std::size_t Params::sender_batch_size() const {
  // v (2*ell) + kappa copies of w (2*ell) + kappa packed permutations +
  // kappa packed index lists + r (1).
  return 2 * ell + kappa_cc * (2 * ell + perm_words() + index_list_words()) +
         1;
}

std::size_t Params::receiver_extra_size() const { return n * perm_words(); }

std::string Params::describe() const {
  std::ostringstream os;
  const char* name = profile == ParamProfile::kPaper        ? "paper"
                     : profile == ParamProfile::kPractical ? "practical"
                                                            : "light";
  os << name << "{n=" << n << ", kappa=" << kappa_cc << ", d=" << d
     << ", ell=" << ell << "}";
  return os.str();
}

BatchLayout BatchLayout::make(const Params& params, std::size_t dealer,
                              bool is_receiver) {
  BatchLayout layout;
  vss::SlabAllocator alloc(dealer);
  layout.v_x = alloc.take(params.ell);
  layout.v_a = alloc.take(params.ell);
  layout.w_x.reserve(params.kappa_cc);
  layout.w_a.reserve(params.kappa_cc);
  layout.perm.reserve(params.kappa_cc);
  layout.idx.reserve(params.kappa_cc);
  for (std::size_t j = 0; j < params.kappa_cc; ++j) {
    layout.w_x.push_back(alloc.take(params.ell));
    layout.w_a.push_back(alloc.take(params.ell));
  }
  for (std::size_t j = 0; j < params.kappa_cc; ++j)
    layout.perm.push_back(alloc.take(params.perm_words()));
  for (std::size_t j = 0; j < params.kappa_cc; ++j)
    layout.idx.push_back(alloc.take(params.index_list_words()));
  layout.r = alloc.take(1);
  GFOR14_ENSURES(alloc.allocated() == params.sender_batch_size());
  if (is_receiver) {
    for (std::size_t i = 0; i < params.n; ++i)
      layout.g.push_back(alloc.take(params.perm_words()));
  }
  return layout;
}

}  // namespace gfor14::anonchan
