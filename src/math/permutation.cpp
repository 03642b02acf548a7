#include "math/permutation.hpp"

#include <numeric>

namespace gfor14 {

Permutation Permutation::identity(std::size_t n) {
  Permutation p;
  p.images_.resize(n);
  std::iota(p.images_.begin(), p.images_.end(), std::size_t{0});
  return p;
}

Permutation Permutation::random(Rng& rng, std::size_t n) {
  Permutation p = identity(n);
  // Fisher–Yates with the unbiased bounded sampler.
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(p.images_[i - 1], p.images_[j]);
  }
  return p;
}

std::optional<Permutation> Permutation::from_images(
    std::vector<std::size_t> images) {
  const std::size_t n = images.size();
  std::vector<bool> seen(n, false);
  for (std::size_t v : images) {
    if (v >= n || seen[v]) return std::nullopt;
    seen[v] = true;
  }
  Permutation p;
  p.images_ = std::move(images);
  return p;
}

Permutation Permutation::inverse() const {
  Permutation p;
  p.images_.resize(images_.size());
  for (std::size_t k = 0; k < images_.size(); ++k) p.images_[images_[k]] = k;
  return p;
}

Permutation Permutation::compose(const Permutation& b) const {
  GFOR14_EXPECTS(size() == b.size());
  Permutation p;
  p.images_.resize(size());
  for (std::size_t k = 0; k < size(); ++k) p.images_[k] = images_[b.images_[k]];
  return p;
}

}  // namespace gfor14
