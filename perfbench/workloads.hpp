// The benchmark's three closed-loop workloads. Each operation builds its
// inputs and protocol randomness from (workload seed, operation index), so a
// fixed seed replays the same work; the library only ever sees the
// generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "net/network.hpp"

namespace perfbench {

/// Deterministic work counts of one or more operations: the work
/// fingerprint. A change to protocol work shows up here, not as a speed-up.
struct Work {
  std::uint64_t rounds = 0;
  std::uint64_t expected_rounds = 0;  ///< analytic r_VSS-share + 5 per run
  std::uint64_t broadcast_rounds = 0;
  std::uint64_t expected_broadcast_rounds = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t broadcast_bytes = 0;
  std::uint64_t net_alloc_count = 0;
  std::uint64_t net_alloc_bytes = 0;
  std::uint64_t vss_alloc_count = 0;
  std::uint64_t vss_alloc_bytes = 0;
  std::uint64_t recorder_bytes = 0;  ///< payload bytes a recorder stored

  void add_costs(const gfor14::net::CostReport& c);
  /// Adds net.alloc.* / vss.alloc.* from a name-sorted counter snapshot.
  void add_counters(
      const std::vector<std::pair<std::string, std::uint64_t>>& counters);
  Work& operator+=(const Work& o);
  bool operator==(const Work&) const = default;
};

/// One channel session as the correctness check sees it: the honest
/// senders' inputs and the multiset Y the receiver output.
struct Delivery {
  std::vector<gfor14::Fld> inputs;
  gfor14::net::PartyId receiver = 0;
  std::vector<gfor14::Fld> y;  ///< empty for a session that never completed
};

/// Honest (non-receiver, non-zero) inputs across the sessions.
std::size_t honest_messages(std::span<const Delivery> sessions);
/// Honest inputs absent from their session's Y.
std::size_t missing_messages(std::span<const Delivery> sessions);

/// Supervisor timings of one traced serve operation.
struct ServerTimes {
  double submit_ms = 0.0;  ///< all try_submit calls, refused ones included
  std::vector<double> wave_ms;  ///< one per run_wave call
  double drain_ms = 0.0;
  std::vector<double> session_exec_ms;  ///< completed attempts
  double attempt_ms = 0.0;  ///< every attempt's wall, failed ones included
  std::size_t strands = 0;
  std::size_t waves = 0;
  double retry_rate = 0.0;
};

/// Everything one operation produced.
struct OpResult {
  double wall_ms = 0.0;  ///< the whole operation as the closed loop sees it
  /// Latency samples in the benchmark's sense: one per run or run_many, one
  /// per session (admission to completion) for the server.
  std::vector<double> latency_ms;
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::vector<Delivery> deliveries;
  std::vector<std::string> errors;  ///< failed protocol/server checks
  Work work;
  std::uint64_t digest = 0;  ///< transcript digests plus every Y, in order

  // Traced operations only.
  double run_ms = 0.0;  ///< inside AnonChan::run / run_many
  LayerTimes layers;
  ServerTimes server;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One closed-loop operation; `traced` wraps the layers in timers.
  virtual OpResult run(std::uint64_t index, bool traced) = 0;
  /// Lanes/strands and protocol shape, for the provenance line.
  virtual std::string describe() const = 0;
  /// Span length the VSS hot path works on (the ff probe's length).
  virtual std::size_t span_length() const = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
