// Time-series telemetry: periodic snapshots of a metrics scope, a bounded
// ring of them, and exposition as JSON (the `telemetry` block of BENCH_*
// schema 3 artifacts) and Prometheus text format (DESIGN.md §11).
//
// The TelemetrySampler is a RoundObserver: every N-th round barrier it
// snapshots the flattened counters of the registry scope it watches (plus
// child scopes, prefixed "scope/"). end_round() rolls scopes up before
// observers run, so every sampled value is barrier-exact.
//
// Determinism split — the heart of the design:
//  * The DETERMINISTIC section (deterministic_json(): sampling interval +
//    per-snapshot protocol counters) contains only event counts charged at
//    or before round barriers: net.*, vss.*, anonchan.*, pseudosig.*. For a
//    fixed seed these are byte-identical at any lane count (the §8
//    contract), which tests/telemetry_test.cpp locks in at 1 vs 4 lanes.
//  * The ENVIRONMENT section (wall-clock, VmRSS/VmHWM, round-wall p50/p95)
//    measures the machine, not the protocol, and is excluded from all
//    determinism claims. Process-wide cache
//    counters (math.*, ff.*) are scheduling-dependent and stay out of the
//    snapshots entirely — the --metrics dump still reports them.
//
// Ring bound: like the metrics Histogram, the ring decimates instead of
// growing — when kMaxSnapshots fills, every second snapshot is dropped and
// the sampling stride doubles. Kept rounds stay multiples of the effective
// stride, so a long run keeps an evenly spaced series, deterministically.
//
// Overhead: one flatten of the scope's counter map per sampled round —
// measured <5% on bench_scaling n=8 at interval 1 (budget in DESIGN.md §11).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "net/network.hpp"

namespace gfor14::telemetry {

/// One sampled point of the watched scope.
struct Snapshot {
  /// Rounds observed by the sampler when this snapshot was taken (1-based:
  /// the first observed round barrier is round 1).
  std::size_t round = 0;
  /// Deterministic protocol counters, flattened name-sorted per scope with
  /// child scopes prefixed "childname/" (see header comment for the
  /// allowlist).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Environment: microseconds since the sampler was constructed, and
  /// current VmRSS. Never compared across runs.
  double wall_us = 0.0;
  std::uint64_t rss_bytes = 0;
};

class TelemetrySampler : public net::RoundObserver {
 public:
  /// Ring bound before decimation.
  static constexpr std::size_t kMaxSnapshots = 512;

  /// Watches `scope` (typically Network::registry_shared()), sampling every
  /// `every`-th round barrier (0 reads as 1). Attach to the network with
  /// net.attach_observer(sampler).
  explicit TelemetrySampler(std::shared_ptr<metrics::Registry> scope,
                            std::size_t every = 1);

  void on_round_end(const net::Network& net,
                    const net::CostReport& round_delta) override;

  /// One sampling tick outside a Network round barrier — the supervised
  /// runtime soak (DESIGN.md §14) samples per scheduling wave instead of
  /// per round, with the same interval/decimation mechanics ("round" in
  /// the exported series then counts waves).
  void sample_wave();

  std::size_t rounds_seen() const { return rounds_seen_; }
  /// Current effective sampling interval (`every`, doubled per decimation).
  std::size_t stride() const { return stride_; }
  const std::vector<Snapshot>& snapshots() const { return ring_; }

  /// {"interval", "rounds", "snapshots": [{"round", "counters": {...}}]} —
  /// byte-identical for a fixed seed at any lane count.
  json::Value deterministic_json() const;
  /// deterministic_json() plus an "environment" object: wall/rss per
  /// snapshot, peak RSS, round-wall p50/p95 of the watched scope, the
  /// allocation-domain ledger, and any annotations set below.
  json::Value to_json() const;
  bool write_json(const std::string& path) const;

  /// Attaches (or replaces) a caller-supplied JSON block under the given
  /// key in the environment object — the serve soak uses this to embed the
  /// structured SLO status that `gfor14-audit top` renders.
  void set_annotation(const std::string& key, json::Value value);

  /// Point-in-time Prometheus text exposition of the watched scope (plus
  /// process RSS and the allocation domains). See prometheus_text().
  std::string prometheus() const;
  bool write_prometheus(const std::string& path) const;

 private:
  void take_snapshot();

  std::shared_ptr<metrics::Registry> scope_;
  std::size_t interval_;
  std::size_t stride_;
  std::size_t rounds_seen_ = 0;
  std::vector<Snapshot> ring_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, json::Value>> annotations_;
};

/// Renders a metrics document (Registry::to_json()) as Prometheus text
/// format version 0.0.4. Metric names are prefixed "gfor14_" and sanitized
/// (non-alphanumerics to '_'); child scopes appear as a {scope="..."}
/// label; histograms become summaries with quantile labels and _sum/_count
/// series. `extra_gauges` (name → value) are appended as plain gauges —
/// used for RSS and the allocation-domain ledger.
std::string prometheus_text(
    const json::Value& metrics_doc,
    const std::vector<std::pair<std::string, double>>& extra_gauges = {});

/// True when the counter name is in the deterministic allowlist (net.*,
/// vss.*, anonchan.*, pseudosig.*) — shared by the sampler and tests.
bool deterministic_counter(const std::string& name);

}  // namespace gfor14::telemetry
