// Permutations of [0, n): uniform sampling (Fisher–Yates), composition,
// inversion and action on vectors. AnonChan VSS-shares a permutation's
// images packed by IndexCodec (math/index_codec.hpp); a reconstructed list
// that is not a valid permutation disqualifies its dealer (Figure 1,
// step 3).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace gfor14 {

class Permutation {
 public:
  Permutation() = default;

  /// Identity on [0, n).
  static Permutation identity(std::size_t n);

  /// Uniformly random permutation of [0, n).
  static Permutation random(Rng& rng, std::size_t n);

  /// Wraps an explicit image table; returns nullopt unless it is a bijection
  /// on [0, n). This is the validity check the protocol applies to
  /// reconstructed permutations.
  static std::optional<Permutation> from_images(std::vector<std::size_t> images);

  std::size_t size() const { return images_.size(); }
  /// The image table: images()[k] == (*this)(k).
  std::span<const std::size_t> images() const { return images_; }
  std::size_t operator()(std::size_t k) const {
    GFOR14_EXPECTS(k < images_.size());
    return images_[k];
  }

  Permutation inverse() const;

  /// Composition: (a.compose(b))(k) == a(b(k)).
  Permutation compose(const Permutation& b) const;

  /// Applies the paper's convention for permuting vector components:
  /// out[k] = in[pi(k)] (Figure 1: w[k] = v[pi(k)]).
  template <typename T>
  std::vector<T> apply(const std::vector<T>& in) const {
    GFOR14_EXPECTS(in.size() == images_.size());
    std::vector<T> out(in.size());
    for (std::size_t k = 0; k < in.size(); ++k) out[k] = in[images_[k]];
    return out;
  }

  friend bool operator==(const Permutation&, const Permutation&) = default;

 private:
  std::vector<std::size_t> images_;
};

}  // namespace gfor14
