#include "math/lagrange_cache.hpp"

#include "common/metrics.hpp"
#include "math/poly.hpp"

namespace gfor14 {

LagrangeCache& LagrangeCache::instance() {
  static LagrangeCache cache;
  return cache;
}

const std::vector<Fld>& LagrangeCache::coefficients(std::span<const Fld> xs,
                                                    Fld at) {
  Key key;
  key.reserve(xs.size() + 1);
  key.push_back(at.to_u64());
  for (Fld x : xs) key.push_back(x.to_u64());

  static metrics::Counter* const kHit =
      &metrics::Registry::instance().counter("math.lagrange_cache.hit");
  static metrics::Counter* const kMiss =
      &metrics::Registry::instance().counter("math.lagrange_cache.miss");
  {
    std::shared_lock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      kHit->add();
      return it->second;
    }
  }
  // Miss: compute outside any lock (pure function, possibly duplicated by a
  // concurrent missing thread), then insert; try_emplace keeps the first
  // winner so the returned reference is stable either way.
  kMiss->add();
  auto coeffs = lagrange_coefficients(xs, at);
  std::unique_lock lock(mu_);
  return cache_.try_emplace(std::move(key), std::move(coeffs)).first->second;
}

}  // namespace gfor14
