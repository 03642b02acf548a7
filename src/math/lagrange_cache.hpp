// Process-wide cache of Lagrange coefficient vectors.
//
// VSS reconstruction evaluates interpolations at the SAME alpha-point sets
// thousands of times per run (every batch element, every round, reconstructs
// at eval_point(0..n)), so the coefficient vectors lambda(xs, at) are pure
// functions of a handful of distinct keys. Caching them turns the per-value
// reconstruction cost into one inner product.
//
// The parallel round engine reaches this cache from worker threads (the
// per-value halves of reconstruction decode run concurrently), so lookups
// take a shared lock and insertions an exclusive one; std::map's node-based
// storage keeps returned references stable until clear(), which must not
// race with readers (call it only between protocol executions). When two
// workers miss the same key at once, both compute the (identical, pure)
// vector and one insertion wins — the returned values are deterministic
// either way, only the math.lagrange_cache.{hit,miss} split can differ
// between thread counts. Hits and misses are counted in the metrics
// registry so bench artifacts can attribute reconstruction speed.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "ff/gf2e.hpp"

namespace gfor14 {

class LagrangeCache {
 public:
  static LagrangeCache& instance();

  /// lambda_i with f(at) = sum_i lambda_i * ys[i] for deg f < xs.size();
  /// computed via lagrange_coefficients on miss. The reference is stable
  /// until clear().
  const std::vector<Fld>& coefficients(std::span<const Fld> xs, Fld at);

  std::size_t size() const {
    std::shared_lock lock(mu_);
    return cache_.size();
  }
  void clear() {
    std::unique_lock lock(mu_);
    cache_.clear();
  }

 private:
  LagrangeCache() = default;
  // Key: the point multiset (order-sensitive — callers use ordered party
  // sets) plus the evaluation point, as raw representations.
  using Key = std::vector<std::uint64_t>;
  mutable std::shared_mutex mu_;
  std::map<Key, std::vector<Fld>> cache_;
};

}  // namespace gfor14
