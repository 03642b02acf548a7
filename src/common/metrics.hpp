// Process-wide metrics registry: counters, gauges and Summary-backed
// histograms, addressable by dotted names ("net.rounds", "anonchan.runs"),
// with a JSON exporter.
//
// Where the trace layer (trace.hpp) answers "where did THIS run spend its
// rounds and elements", the registry answers "what has this process done in
// aggregate" — across networks, protocols and repetitions — which is what
// the bench harness and the CLI's --metrics flag report. Handles returned
// by the registry are stable for the process lifetime, so hot paths can
// cache them and pay one integer add per event.
//
// Scoped registries (DESIGN.md §11): Registry::scope("session/<id>") opens
// a child namespace with its own counter/gauge/histogram instances, so a
// multi-session server can attribute traffic per session while the root
// keeps process totals. Attribution is routed by construction time, not by
// name: a component resolves its metric handles from Registry::current()
// (the registry attached to the calling thread via RegistryAttachment, or
// the root) when it is built, and bumps only those. Scope totals flow back
// into the parent through roll_up(), which the Network calls at every round
// barrier — between barriers a parent total may lag its children, at a
// barrier it is exact. Histograms forward each observation to the parent at
// observe time instead (their decimating samples cannot be merged exactly);
// gauges stay scope-local.
//
// Thread safety (the parallel round engine may bump counters from worker
// threads): Counter and Gauge are relaxed atomics — increments from any
// thread, totals exact at round barriers; Histogram serializes its Welford
// update under a private mutex; the registry's name maps are mutex-guarded
// (std::map storage keeps returned references stable, so the lock is paid
// only on first lookup, never on the hot add path). Lock order is always
// child before parent (roll_up, eager parent-handle resolution), and
// to_json releases the parent lock before descending into children.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"

namespace gfor14::metrics {

class Counter {
 public:
  void add(std::uint64_t d = 1) {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution metric backed by the Welford Summary of stats.hpp, plus a
/// bounded decimating sample for quantile estimates: every stride-th
/// observation is kept; when the buffer fills, every second kept value is
/// dropped and the stride doubles. The sample therefore never exceeds
/// kMaxSamples values, stays an unbiased systematic subsample of the
/// stream, and is deterministic for a given observation order (no RNG).
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 2048;

  void observe(double v) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      summary_.add(v);
      if (seen_++ % stride_ == 0) {
        sample_.push_back(v);
        if (sample_.size() >= kMaxSamples) {
          for (std::size_t i = 1, j = 2; j < sample_.size(); ++i, j += 2)
            sample_[i] = sample_[j];
          sample_.resize((sample_.size() + 1) / 2);
          stride_ *= 2;
        }
      }
    }
    // Scope roll-up for distributions: forward every observation to the
    // enclosing scope's histogram of the same name (set once at creation by
    // the registry), outside our own lock — the chain locks parent-ward
    // only, so there is no ordering cycle.
    if (parent_ != nullptr) parent_->observe(v);
  }
  Summary summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    return summary_;
  }
  /// Empirical q-quantile (q in [0, 1]) of the kept sample, by linear
  /// interpolation between order statistics; 0 before any observation.
  double quantile(double q) const;
  /// Estimated cumulative observation counts at the given ascending upper
  /// bounds (Prometheus histogram semantics: count of observations <= le),
  /// scaled from the decimating sample to the true observation count. The
  /// estimates are monotone in the bounds; a final +infinity bound returns
  /// the exact total.
  std::vector<std::uint64_t> cumulative_counts(
      const std::vector<double>& bounds) const;
  void reset() {
    std::lock_guard<std::mutex> lock(mu_);
    summary_ = Summary{};
    sample_.clear();
    seen_ = 0;
    stride_ = 1;
  }

 private:
  friend class Registry;
  mutable std::mutex mu_;
  Summary summary_;
  std::vector<double> sample_;
  std::size_t seen_ = 0;
  std::size_t stride_ = 1;
  Histogram* parent_ = nullptr;  ///< same-name histogram one scope up
};

class Registry {
 public:
  static Registry& instance();

  /// The registry attached to the calling thread (RegistryAttachment), or
  /// the process root when none is attached. Components resolve their
  /// metric handles from here at construction time.
  static Registry& current();
  /// current() with shared ownership — holders survive reset_for_test()
  /// detaching the scope from its parent. The root is returned as a
  /// non-owning alias (it has static storage duration).
  static std::shared_ptr<Registry> current_shared();

  /// Lookup-or-create; the returned reference never moves.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Lookup-or-create a child scope ("session/3"). Repeated calls with the
  /// same name return the same child. Child metrics roll up into this
  /// registry: counters via roll_up(), histograms per observation.
  std::shared_ptr<Registry> scope(std::string_view name);
  /// "" for the root; the scope() name otherwise.
  const std::string& scope_name() const { return name_; }
  Registry* parent() const { return parent_; }

  /// Pushes every counter's delta since the last roll_up into the parent
  /// (children first, recursively), making parent totals exact. Called by
  /// the Network at every round barrier; cheap no-op on the root.
  void roll_up();

  /// Deterministic flat view of the counters (name-sorted), for samplers.
  std::vector<std::pair<std::string, std::uint64_t>> counters_snapshot() const;
  /// Names of the live child scopes, sorted.
  std::vector<std::string> scope_names() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: summary}},
  /// plus {"scopes": {name: ...}} when child scopes exist.
  json::Value to_json() const;
  /// Pretty-printed to_json(); false when the file cannot be written.
  bool write_json(const std::string& path) const;

  /// Zeroes everything registered so far (per-experiment scoping). Keeps
  /// entries (cached handles stay valid) and child scopes.
  void reset();

  /// Test isolation: zeroes the root registry and detaches all child
  /// scopes (live shared_ptr holders keep theirs alive, but they no longer
  /// roll up into future totals). Root entries are kept, so cached handles
  /// from previous tests stay valid and read zero.
  static void reset_for_test();

 private:
  Registry() = default;
  Registry(Registry* parent, std::string name)
      : name_(std::move(name)), parent_(parent) {}

  struct CounterSlot {
    Counter counter;
    std::uint64_t rolled = 0;      ///< value already pushed to the parent
    Counter* parent = nullptr;     ///< same-name counter one scope up
  };

  mutable std::mutex mu_;
  std::string name_;
  Registry* parent_ = nullptr;
  std::map<std::string, CounterSlot, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, std::shared_ptr<Registry>, std::less<>> children_;
};

/// RAII thread attachment: while alive, Registry::current() on this thread
/// resolves to the given scope; restores the previous attachment on
/// destruction. Attachment is thread-local and lock-free to read — the
/// intended pattern is to attach before constructing the Network/protocol
/// stack of a session, so every component binds its handles to the scope.
class RegistryAttachment {
 public:
  explicit RegistryAttachment(std::shared_ptr<Registry> scope);
  ~RegistryAttachment();

  RegistryAttachment(const RegistryAttachment&) = delete;
  RegistryAttachment& operator=(const RegistryAttachment&) = delete;

 private:
  std::shared_ptr<Registry> previous_;
};

}  // namespace gfor14::metrics
