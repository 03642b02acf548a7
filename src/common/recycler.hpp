// Process-wide recycler for large std::vector<Fld> storage.
//
// Every op builds a fresh Network and VSS engine (perfbench, every serve
// session), so the sharing phase's large buffers — R1 slice payloads, the
// dealt bivariate planes, the share pools — would otherwise be mapped fresh
// and unmapped again per op, paying their first-touch page faults each time.
// Buffers of at least kRecycleFloorBytes are handed back here instead, and
// handed out again by best fit. It sits next to ThreadPool::instance() for
// the same reason: its users come and go, the process stays.
//
// Self-bounding, with nothing to tune. "Outstanding" bytes are the capacity
// lent by take and not yet given back; their high-water is the program's
// own peak demand. Pooled plus outstanding bytes never exceed that
// high-water: giving a buffer back moves its bytes from one to the other,
// storage the recycler did not lend is freed instead of pooled, and a take
// that has to allocate first frees pooled buffers until the fresh one fits
// under the high-water (or the pool is empty, when the fresh one raises
// it). So the pool only ever holds what the program already needed at once.
//
// Thread safety: one mutex; take and give may run on any thread (engine
// lanes, serve strands, and whichever thread drops a published round's last
// reference — see Network's round deleter). Fresh pages are touched and
// buffers freed outside the lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ff/gf2e.hpp"

namespace gfor14 {

/// Smallest capacity the recycler keeps: glibc's default mmap threshold,
/// below which malloc serves buffers from its arenas without fresh pages.
inline constexpr std::size_t kRecycleFloorBytes = 128 * 1024;

class BufferRecycler {
 public:
  static BufferRecycler& instance();

  /// A buffer of size n: the smallest pooled buffer with room for n (a hit)
  /// or a fresh one (a miss). Its entries are zero if `zero` is set, and
  /// otherwise unspecified; either way they are written at most once here.
  /// Requests below the floor are always fresh and are not tallied.
  std::vector<Fld> take(std::size_t n, bool zero = false);
  /// Hands v's storage back; storage below the floor, or not lent by take,
  /// is simply freed.
  void give(std::vector<Fld> v);

  struct Tally {
    std::uint64_t hits = 0, misses = 0;
    std::size_t pooled_bytes = 0, outstanding_bytes = 0, high_water_bytes = 0;
  };
  Tally tally() const;
  /// Frees every pooled buffer (the bound and the hit/miss counts stay).
  void clear();

 private:
  BufferRecycler() = default;

  mutable std::mutex mu_;
  std::multimap<std::size_t, std::vector<Fld>> pool_;  ///< by capacity bytes
  std::unordered_map<const Fld*, std::size_t> lent_;   ///< data -> capacity
  Tally tally_;
};

/// A buffer taken from the recycler and given back when it dies: the owner
/// type of engine-side storage (dealt planes, share pools, scratch rows).
class Recycled {
 public:
  Recycled() = default;
  explicit Recycled(std::size_t n, bool zero = false)
      : v_(BufferRecycler::instance().take(n, zero)) {}
  Recycled(Recycled&& o) noexcept : v_(std::move(o.v_)) {}
  /// The old buffer goes back when `o` dies.
  Recycled& operator=(Recycled&& o) noexcept {
    v_.swap(o.v_);
    return *this;
  }
  ~Recycled() { BufferRecycler::instance().give(std::move(v_)); }

  std::vector<Fld>& operator*() { return v_; }
  const std::vector<Fld>& operator*() const { return v_; }
  std::vector<Fld>* operator->() { return &v_; }
  const std::vector<Fld>* operator->() const { return &v_; }

 private:
  std::vector<Fld> v_;
};

}  // namespace gfor14
