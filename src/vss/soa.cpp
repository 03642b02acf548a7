#include "vss/soa.hpp"

#include <algorithm>

#include "common/expect.hpp"
#include "ff/batch.hpp"

namespace gfor14::vss {

// --- SliceView -------------------------------------------------------------

SliceView::SliceView(std::span<const Fld> words, std::size_t coeffs_per_poly)
    : SliceView(words.data(), words.size() / coeffs_per_poly, coeffs_per_poly) {
  GFOR14_EXPECTS(coeffs_per_poly > 0 && words.size() % coeffs_per_poly == 0);
}

Fld SliceView::eval_at(std::size_t k, Fld x) const {
  GFOR14_EXPECTS(k < m_);
  Fld acc = Fld::zero();
  if (data_ == nullptr) return acc;
  for (std::size_t c = stride_; c-- > 0;) acc = acc * x + data_[k * stride_ + c];
  return acc;
}

void SliceView::eval_range(Fld x, std::size_t base, std::span<Fld> out) const {
  GFOR14_EXPECTS(base + out.size() <= m_);
  if (data_ == nullptr) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  // Top coefficients into `out`, then one Horner fold per lower
  // coefficient, its column gathered into a 4 KiB stack buffer.
  constexpr std::size_t kChunk = 512;
  Fld buf[kChunk];
  for (std::size_t k0 = 0; k0 < out.size(); k0 += kChunk) {
    const std::span<Fld> acc = out.subspan(k0, std::min(kChunk, out.size() - k0));
    const std::span<Fld> col(buf, acc.size());
    column(stride_ - 1, base + k0, acc);
    for (std::size_t c = stride_ - 1; c-- > 0;) {
      column(c, base + k0, col);
      ff::batch::horner_fold<64>(x, acc, std::span<const Fld>(col));
    }
  }
}

void SliceView::column(std::size_t c, std::size_t base,
                       std::span<Fld> out) const {
  GFOR14_EXPECTS(c < stride_ && base + out.size() <= m_);
  if (data_ == nullptr) {
    std::fill(out.begin(), out.end(), Fld::zero());
    return;
  }
  const Fld* src = data_ + base * stride_ + c;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = src[i * stride_];
}

// --- BivariateBatch --------------------------------------------------------

void BivariateBatch::random_with_secrets(Rng& rng, std::size_t deg,
                                         std::span<const Fld> secrets) {
  m_ = secrets.size();
  dp1_ = deg + 1;
  data_ = Recycled(dp1_ * dp1_ * m_);
  std::vector<Fld>& data = *data_;
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t i = 0; i < dp1_; ++i)
      for (std::size_t j = i; j < dp1_; ++j) {
        const Fld c = Fld::random(rng);
        data[(i * dp1_ + j) * m_ + k] = c;
        data[(j * dp1_ + i) * m_ + k] = c;
      }
    data[k] = secrets[k];  // plane (0, 0)
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
  for (Recycled& p : planes_) {
    if (p->capacity() < count_) {  // grow through the recycler
      Recycled grown(count_);
      std::copy(p->begin(), p->end(), grown->begin());
      p = std::move(grown);
    }
    p->resize(count_);
    std::fill(p->begin() + static_cast<std::ptrdiff_t>(base), p->end(),
              Fld::zero());
  }
  return base;
}

void SharePool::set_column(std::size_t k, std::span<const Fld> coeffs) {
  GFOR14_EXPECTS(k < count_);
  for (std::size_t c = 0; c < planes_.size(); ++c)
    (*planes_[c])[k] = c < coeffs.size() ? coeffs[c] : Fld::zero();
}

Fld SharePool::eval_one(std::size_t k, Fld alpha) const {
  GFOR14_EXPECTS(k < count_);
  Fld acc = Fld::zero();
  for (std::size_t c = planes_.size(); c-- > 0;)
    acc = acc * alpha + (*planes_[c])[k];
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
  std::copy_n(planes_[top]->begin() + base, out.size(), out.begin());
  for (std::size_t c = top; c-- > 0;)
    ff::batch::horner_fold<64>(
        alpha, out,
        std::span<const Fld>(planes_[c]->data() + base, out.size()));
}

}  // namespace gfor14::vss
