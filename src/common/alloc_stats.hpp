// Allocation accounting for the subsystems the zero-copy roadmap item
// (ROADMAP item 3) needs a before/after baseline for.
//
// Two complementary mechanisms:
//
//  * Domain statistics + TrackingAllocator — a std-compatible allocator
//    tagged with a Domain that charges every allocate/deallocate to a
//    process-global atomic ledger (live bytes, peak bytes, allocation
//    count). The Network's per-round pending/delivered queues, the VSS
//    engine's share staging and the payload storage of recordings loaded
//    from JSON run on it, so `gfor14-audit top` and the bench telemetry
//    block can show where buffer churn happens. A live recorder copies no
//    payload (it retains the network's delivered queues, which stay on
//    the kNetQueue ledger until the recording is destroyed), so kRecorder
//    is charged only by Recording::from_json and credited when the last
//    Recording sharing a loaded round goes away. Charges are relaxed
//    atomics: exact totals at round barriers, no ordering cost on the hot
//    path.
//
//  * RSS readers — VmRSS/VmHWM from /proc/self/status, for the peak-RSS
//    per-phase gauges. Environmental (OS-dependent), so they are reported
//    in the non-deterministic "environment" section of telemetry only and
//    never participate in the determinism contract (DESIGN.md §8, §11).
//
// Note the split with the `net.alloc.*` / `vss.alloc.*` metrics counters:
// those are *logical* message-buffer accounting (N payloads of B elements ⇒
// exactly N allocations of B*sizeof(Fld) bytes, deterministic and testable),
// charged explicitly by Network::send/broadcast and the VSS engine into the
// current metrics scope. The domain ledger below is *physical* container
// accounting (what the queue vectors actually malloc'd, including growth
// slack), which depends on libc/vector growth policy and therefore lives
// outside the deterministic section.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/json.hpp"

namespace gfor14::alloc {

enum class Domain : std::size_t {
  kNetQueue = 0,  ///< Network pending/delivered round-traffic queues
  kVss = 1,       ///< VSS engine share staging buffers
  kRecorder = 2,  ///< payload storage of recordings loaded from JSON
  kCount = 3,
};

const char* domain_name(Domain d);

struct DomainStats {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> deallocs{0};
  std::atomic<std::uint64_t> bytes_allocated{0};  ///< cumulative
  std::atomic<std::uint64_t> bytes_live{0};
  std::atomic<std::uint64_t> bytes_peak{0};

  void charge(std::uint64_t bytes) {
    allocs.fetch_add(1, std::memory_order_relaxed);
    bytes_allocated.fetch_add(bytes, std::memory_order_relaxed);
    const std::uint64_t live =
        bytes_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    // Monotone max via CAS; racing updates settle on the largest value.
    std::uint64_t peak = bytes_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !bytes_peak.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
    }
  }
  void credit(std::uint64_t bytes) {
    deallocs.fetch_add(1, std::memory_order_relaxed);
    bytes_live.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void reset() {
    allocs.store(0, std::memory_order_relaxed);
    deallocs.store(0, std::memory_order_relaxed);
    bytes_allocated.store(0, std::memory_order_relaxed);
    bytes_live.store(0, std::memory_order_relaxed);
    bytes_peak.store(0, std::memory_order_relaxed);
  }
};

/// The process-global ledger entry for a domain.
DomainStats& domain_stats(Domain d);

/// Zeroes every domain's ledger (test isolation; also called from
/// metrics::Registry::reset_for_test()).
void reset_domains();

/// {"net_queue": {"allocs": ..., "bytes_allocated": ..., "bytes_live": ...,
///  "bytes_peak": ...}, "vss": {...}, "recorder": {...}} — the environment
/// section of telemetry snapshots.
json::Value domains_json();

/// Std-allocator charging the given domain. Stateless: all instances
/// compare equal, so containers with different template arguments can swap
/// buffers freely and rebinding is free.
template <class T, Domain D>
class TrackingAllocator {
 public:
  using value_type = T;
  // The Domain non-type parameter defeats allocator_traits' automatic
  // rebind deduction, so spell the rebind out.
  template <class U>
  struct rebind {
    using other = TrackingAllocator<U, D>;
  };

  TrackingAllocator() noexcept = default;
  template <class U>
  TrackingAllocator(const TrackingAllocator<U, D>&) noexcept {}

  T* allocate(std::size_t n) {
    domain_stats(D).charge(static_cast<std::uint64_t>(n) * sizeof(T));
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    domain_stats(D).credit(static_cast<std::uint64_t>(n) * sizeof(T));
    std::allocator<T>{}.deallocate(p, n);
  }

  template <class U>
  bool operator==(const TrackingAllocator<U, D>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const TrackingAllocator<U, D>&) const noexcept {
    return false;
  }
};

/// Current resident-set size in bytes (VmRSS), or 0 where /proc is
/// unavailable. Environmental — see header comment.
std::uint64_t rss_bytes();
/// Peak resident-set size in bytes (VmHWM), or 0 where /proc is unavailable.
std::uint64_t peak_rss_bytes();

}  // namespace gfor14::alloc
