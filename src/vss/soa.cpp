#include "vss/soa.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "ff/batch.hpp"

namespace gfor14::vss {

// --- SliceBlock ------------------------------------------------------------

void SliceBlock::assign(std::size_t m, std::size_t coeffs_per_poly) {
  m_ = m;
  stride_ = coeffs_per_poly;
  data_.assign(m * coeffs_per_poly, Fld::zero());
}

Fld SliceBlock::eval_at(std::size_t k, Fld x) const {
  GFOR14_EXPECTS(k < m_);
  Fld acc = Fld::zero();
  for (std::size_t c = stride_; c-- > 0;) acc = acc * x + data_[c * m_ + k];
  return acc;
}

void SliceBlock::eval_range(Fld x, std::size_t base,
                            std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= m_);
  if (out.empty()) return;
  if (stride_ == 0) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  std::copy_n(plane(stride_ - 1).begin() + base, out.size(), out.begin());
  for (std::size_t c = stride_ - 1; c-- > 0;)
    ff::batch::horner_fold<64>(x, out, plane(c).subspan(base, out.size()));
}

void SliceBlock::load_kmajor(std::size_t coeffs_per_poly,
                             std::span<const Fld> payload) {
  GFOR14_EXPECTS(coeffs_per_poly > 0 && payload.size() % coeffs_per_poly == 0);
  m_ = payload.size() / coeffs_per_poly;
  stride_ = coeffs_per_poly;
  data_.resize(payload.size());
  for (std::size_t c = 0; c < stride_; ++c) {
    Fld* dst = data_.data() + c * m_;
    for (std::size_t k = 0; k < m_; ++k) dst[k] = payload[k * stride_ + c];
  }
}

// --- BivariateBatch --------------------------------------------------------

void BivariateBatch::random_with_secrets(Rng& rng, std::size_t deg,
                                         std::span<const Fld> secrets) {
  m_ = secrets.size();
  dp1_ = deg + 1;
  data_.resize(dp1_ * dp1_ * m_);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t i = 0; i < dp1_; ++i)
      for (std::size_t j = i; j < dp1_; ++j) {
        const Fld c = Fld::random(rng);
        data_[(i * dp1_ + j) * m_ + k] = c;
        data_[(j * dp1_ + i) * m_ + k] = c;
      }
    data_[k] = secrets[k];  // plane (0, 0)
  }
}

Fld BivariateBatch::eval(std::size_t k, Fld x, Fld y) const {
  GFOR14_EXPECTS(k < m_);
  Fld acc = Fld::zero();
  for (std::size_t i = dp1_; i-- > 0;) {
    Fld row = Fld::zero();
    for (std::size_t j = dp1_; j-- > 0;) row = row * y + plane(i, j)[k];
    acc = acc * x + row;
  }
  return acc;
}

void BivariateBatch::slices_at(Fld y0, SliceBlock& out) const {
  out.assign(m_, dp1_);
  for (std::size_t i = 0; i < dp1_; ++i) {
    const std::span<Fld> row = out.plane(i);
    std::copy(plane(i, dp1_ - 1).begin(), plane(i, dp1_ - 1).end(),
              row.begin());
    for (std::size_t j = dp1_ - 1; j-- > 0;)
      ff::batch::horner_fold<64>(y0, row, plane(i, j));
  }
}

void BivariateBatch::slices_kmajor(Fld y0, std::span<Fld> payload) const {
  GFOR14_EXPECTS(payload.size() == m_ * dp1_);
  // 4 KiB of row values per chunk: one coefficient row is Horner-folded
  // into the buffer, then scattered at stride dp1_ into a payload window
  // that stays cache-resident while the chunk's other rows land in it.
  constexpr std::size_t kChunk = 512;
  Fld buf[kChunk];
  for (std::size_t k0 = 0; k0 < m_; k0 += kChunk) {
    const std::size_t len = std::min(kChunk, m_ - k0);
    const std::span<Fld> row(buf, len);
    for (std::size_t i = 0; i < dp1_; ++i) {
      std::copy_n(plane(i, dp1_ - 1).begin() + k0, len, row.begin());
      for (std::size_t j = dp1_ - 1; j-- > 0;)
        ff::batch::horner_fold<64>(y0, row, plane(i, j).subspan(k0, len));
      Fld* dst = payload.data() + k0 * dp1_ + i;
      for (std::size_t k = 0; k < len; ++k) dst[k * dp1_] = row[k];
    }
  }
}

// --- SharePool -------------------------------------------------------------

void SharePool::configure(std::size_t coeffs_per_poly) {
  if (planes_.empty()) planes_.resize(coeffs_per_poly);
  GFOR14_EXPECTS(planes_.size() == coeffs_per_poly);
}

std::size_t SharePool::append_zero(std::size_t m) {
  const std::size_t base = count_;
  count_ += m;
  for (auto& p : planes_) p.resize(count_, Fld::zero());
  return base;
}

void SharePool::set_column(std::size_t k, std::span<const Fld> coeffs) {
  GFOR14_EXPECTS(k < count_);
  for (std::size_t c = 0; c < planes_.size(); ++c)
    planes_[c][k] = c < coeffs.size() ? coeffs[c] : Fld::zero();
}

Fld SharePool::eval_one(std::size_t k, Fld alpha) const {
  GFOR14_EXPECTS(k < count_);
  Fld acc = Fld::zero();
  for (std::size_t c = planes_.size(); c-- > 0;)
    acc = acc * alpha + planes_[c][k];
  return acc;
}

void SharePool::eval_range(Fld alpha, std::size_t base,
                           std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= count_);
  if (out.empty()) return;
  if (planes_.empty()) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  const std::size_t top = planes_.size() - 1;
  std::copy_n(planes_[top].begin() + base, out.size(), out.begin());
  for (std::size_t c = top; c-- > 0;)
    ff::batch::horner_fold<64>(
        alpha, out,
        std::span<const Fld>(planes_[c].data() + base, out.size()));
}

}  // namespace gfor14::vss
