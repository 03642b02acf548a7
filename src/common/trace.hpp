// Structured tracing for protocol executions.
//
// A Span is an RAII handle for a named, nestable protocol phase. While a
// span is open, every resource the bound network spends — rounds, broadcast
// rounds/invocations, p2p and broadcast field elements — is attributed to
// it; on close the span records the CostReport delta plus wall-clock time
// and attaches itself to the enclosing span, building an in-memory trace
// tree per top-level protocol run. Phases that tile a run therefore sum
// exactly to the run's total CostReport, which is what lets EXPERIMENTS.md
// claims be decomposed per phase (sharing vs cut-and-choose vs delivery)
// instead of reported as one opaque aggregate.
//
// Tracing is off by default and spans then cost one branch. Enable it
// programmatically (Tracer::instance().set_enabled(true)) or with the
// CLI's --trace flag; set_sink_path() adds a JSONL sink (one JSON line per
// closed span).
//
// Concurrency: the span stack is thread-local, so a span opened on a worker
// thread of the parallel round engine nests under that thread's own spans
// only and becomes its own trace tree. Completed trees and JSONL sink
// writes go through one mutex-guarded buffer; round handlers finish before
// the round barrier, so every worker-side span is flushed into the shared
// root list by the time the orchestrator's enclosing span closes. The
// orchestrator-level phase spans that tile a protocol run are all opened on
// the orchestrating thread and keep their exact serial semantics.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "net/network.hpp"

namespace gfor14::trace {

/// One completed phase: its cost delta, wall time, numeric annotations and
/// sub-phases.
struct SpanNode {
  std::string name;
  net::CostReport costs;  ///< resources spent while the span was open
  double wall_us = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::unique_ptr<SpanNode>> children;

  /// First direct child with the given name; nullptr when absent.
  const SpanNode* child(std::string_view child_name) const;
  /// Sum of the direct children's cost deltas (attribution checks).
  net::CostReport children_costs() const;
  json::Value to_json() const;
};

/// The one CostReport encoder: span JSON, Chrome traces, recordings and
/// bench artifacts all write costs through it.
json::Value cost_to_json(const net::CostReport& c);

class Span;

class Tracer {
 public:
  /// Process-wide tracer, disabled until set_enabled(true).
  static Tracer& instance();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// JSONL sink: one line per closed span. Empty path closes the sink
  /// (flushing it first). Returns false when the file cannot be opened.
  bool set_sink_path(const std::string& path);

  /// Flushes the JSONL sink to disk. Span close buffers its line in the
  /// sink's stream; callers that hand the file to another process or exit
  /// without running static destructors (the CLI's observability scope, the
  /// bench artifact writer) call this so a trace artifact can never end in
  /// a truncated line. No-op without a sink.
  void flush();

  /// Drops all finished trace trees (open spans are unaffected).
  void reset();

  /// Finished top-level trace trees, in completion order. Call from the
  /// orchestrating thread with no round in flight (worker spans flush at
  /// round barriers, so the list is stable between rounds).
  const std::vector<std::unique_ptr<SpanNode>>& roots() const { return roots_; }
  /// Most recently finished top-level tree; nullptr when none.
  const SpanNode* last_root() const {
    return roots_.empty() ? nullptr : roots_.back().get();
  }

  /// Names of the calling thread's open spans joined with '/', outermost
  /// first ("protocol/share/commit"). Empty when tracing is disabled or no
  /// span is open. The Recorder annotates each round with this path so the
  /// critical-path profiler can attribute rounds to phases; it reads only
  /// the calling thread's own stack, so it costs nothing across threads.
  static std::string current_path();

 private:
  friend class Span;
  Tracer();
  ~Tracer();

  /// Per-thread open-span state: stack plus the network bound as the cost
  /// source. Worker threads get their own, so concurrent handlers cannot
  /// interleave each other's stacks.
  struct ThreadState {
    const net::Network* current_net = nullptr;
    std::vector<SpanNode*> open;  ///< stack of open spans (owned below)
    std::vector<std::unique_ptr<SpanNode>> pending;  ///< open, stack order
  };
  static ThreadState& state();

  bool enabled_ = false;
  std::mutex mu_;  ///< guards roots_ and the sink
  std::vector<std::unique_ptr<SpanNode>> roots_;
  struct Sink;
  std::unique_ptr<Sink> sink_;
};

/// RAII phase marker. The two-argument form additionally binds `net` as the
/// cost source for this span and (by inheritance) its children — the root
/// span of a protocol run binds the network it executes on, and nested
/// phases just name themselves.
class Span {
 public:
  explicit Span(std::string_view name);
  Span(std::string_view name, const net::Network& net);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric annotation (parameters, outcome counts, ...).
  void metric(std::string_view key, double value);

 private:
  void open(std::string_view name, const net::Network* net);

  SpanNode* node_ = nullptr;  ///< null when tracing is disabled
  bool bound_net_ = false;
  const net::Network* prev_net_ = nullptr;
  net::CostReport start_costs_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace gfor14::trace
