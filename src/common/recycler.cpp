#include "common/recycler.hpp"

#include <algorithm>
#include <iterator>

namespace gfor14 {

namespace {

std::size_t capacity_bytes(const std::vector<Fld>& v) {
  return v.capacity() * sizeof(Fld);
}

}  // namespace

BufferRecycler& BufferRecycler::instance() {
  // Never destroyed: buffers may still be given back during static
  // destruction (a published round outliving main's locals).
  static BufferRecycler* recycler = new BufferRecycler;
  return *recycler;
}

std::vector<Fld> BufferRecycler::take(std::size_t n, bool zero) {
  std::vector<Fld> v;
  const std::size_t bytes = n * sizeof(Fld);
  std::vector<std::vector<Fld>> freed;  // released after the lock
  if (bytes >= kRecycleFloorBytes) {
    std::lock_guard<std::mutex> lock(mu_);
    Tally& t = tally_;
    if (auto it = pool_.lower_bound(bytes); it != pool_.end()) {
      v = std::move(it->second);
      pool_.erase(it);
      t.pooled_bytes -= capacity_bytes(v);
      ++t.hits;
    } else {
      // Largest first: every pooled buffer is too small for this request.
      while (!pool_.empty() &&
             t.pooled_bytes + t.outstanding_bytes + bytes > t.high_water_bytes) {
        const auto last = std::prev(pool_.end());
        t.pooled_bytes -= last->first;
        freed.push_back(std::move(last->second));
        pool_.erase(last);
      }
      v.reserve(n);  // maps the buffer; its pages are touched below
      ++t.misses;
    }
    t.outstanding_bytes += capacity_bytes(v);
    t.high_water_bytes = std::max(t.high_water_bytes, t.outstanding_bytes);
    lent_.insert_or_assign(v.data(), capacity_bytes(v));
  }
  freed.clear();
  // resize value-initialises (zeroes) the entries past v's old size: all of
  // them for a fresh buffer, and all of them for a cleared pooled one.
  if (zero) v.clear();
  v.resize(n);
  return v;
}

void BufferRecycler::give(std::vector<Fld> v) {
  const std::size_t bytes = capacity_bytes(v);
  if (bytes < kRecycleFloorBytes) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto lent = lent_.find(v.data());
  // Storage that was not lent here (or was reallocated since) is freed.
  if (lent == lent_.end() || lent->second != bytes) return;
  lent_.erase(lent);
  Tally& t = tally_;
  t.outstanding_bytes -= bytes;
  t.pooled_bytes += bytes;
  pool_.emplace(bytes, std::move(v));
}

BufferRecycler::Tally BufferRecycler::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

void BufferRecycler::clear() {
  std::multimap<std::size_t, std::vector<Fld>> freed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    freed.swap(pool_);
    tally_.pooled_bytes = 0;
  }
}

}  // namespace gfor14
