// Experiment E12 — multi-session server throughput: sustained anonymous
// messages/sec and p50/p95 session latency vs. concurrent-session count,
// through the supervised session runtime (DESIGN.md §13/§14), each fleet
// admitted up front and drained in one wave.
//
// Expected shape: aggregate messages/sec grows with the session count until
// the strands saturate the hardware (on a 1-core container every K runs the
// sessions back-to-back, so messages/sec stays flat and speedup_vs_1 reads
// ~1.0 — the artifact records hardware_threads so such rows read as what
// they are). Every row also replay-verifies each session against a solo
// re-execution, so the throughput numbers are certified to come from
// byte-identical protocol work, not from sessions cross-contaminating.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "server/supervisor.hpp"
#include "vss/schemes.hpp"

using namespace gfor14;

namespace {

constexpr std::uint64_t kMasterSeed = 20140812;

/// The uniform fleet every throughput row runs: n=4, kappa=2, RB — the
/// smallest practical-profile session, so the engine (not the protocol
/// inner loops) dominates what the row measures.
server::SessionConfig uniform_config(std::size_t id) {
  server::SessionConfig cfg;
  cfg.id = id;
  cfg.n = 4;
  cfg.scheme = vss::SchemeKind::kRB;
  cfg.kappa = 2;
  return cfg;
}

/// The mixed fleet row: varied n/scheme/kappa/profile, modelling a server
/// carrying heterogeneous traffic.
server::SessionConfig mixed_config(std::size_t id) {
  server::SessionConfig cfg;
  cfg.id = id;
  cfg.n = 4 + (id % 3);
  cfg.scheme = id % 3 == 1 ? vss::SchemeKind::kGGOR13
             : id % 3 == 2 ? vss::SchemeKind::kBGW
                           : vss::SchemeKind::kRB;
  cfg.kappa = 2;
  cfg.light = (id % 4) == 3;
  return cfg;
}

/// Admits the whole fleet up front and drains it: one wave, one attempt per
/// session, no chaos. wall_ms spans runtime construction to drain.
server::RuntimeReport drain_fleet(std::size_t sessions, std::size_t threads,
                                  bool mixed) {
  server::SupervisorOptions sup;
  sup.master_seed = kMasterSeed;
  sup.threads = threads;
  sup.queue_capacity = sessions;
  sup.retry.max_attempts = 1;
  server::SupervisedRuntime runtime(sup);
  for (std::size_t i = 0; i < sessions; ++i)
    runtime.try_submit(mixed ? mixed_config(i) : uniform_config(i));
  return runtime.drain();
}

struct RowResult {
  server::RuntimeReport report;
  double p50_session_ms = 0.0;  ///< median session execution wall
  double p95_session_ms = 0.0;
  bool replay_identical = true;
};

RowResult run_fleet(std::size_t sessions, std::size_t threads, bool mixed) {
  RowResult r;
  r.report = drain_fleet(sessions, threads, mixed);
  std::vector<double> latencies;
  for (const auto& s : r.report.completed) latencies.push_back(s.wall_ms);
  std::sort(latencies.begin(), latencies.end());
  r.p50_session_ms = server::percentile_sorted(latencies, 0.50);
  r.p95_session_ms = server::percentile_sorted(latencies, 0.95);
  // Certification pass (untimed): every session's co-scheduled transcript
  // must be byte-identical to a solo re-execution of its configuration.
  if (r.report.completed_sessions != sessions) r.replay_identical = false;
  for (const auto& s : r.report.completed)
    if (server::replay_verify(s, kMasterSeed)) r.replay_identical = false;
  return r;
}

void fill_row(json::Value& row, const char* kind, std::size_t threads,
              const RowResult& r, double base_mps) {
  const auto& rep = r.report;
  row.set("case", kind);
  row.set("sessions", rep.admitted);
  row.set("engine_threads", threads);
  row.set("wall_ms", rep.wall_ms);
  row.set("messages", rep.messages_delivered);
  row.set("messages_per_sec", rep.messages_per_sec);
  row.set("p50_session_ms", r.p50_session_ms);
  row.set("p95_session_ms", r.p95_session_ms);
  row.set("speedup_vs_1_session",
          base_mps > 0.0 ? rep.messages_per_sec / base_mps : 1.0);
  row.set("replay_identical", r.replay_identical);
}

void print_tables() {
  benchjson::Artifact artifact(
      "E12_throughput",
      "Production scale: a session-multiplexing server sustains aggregate "
      "anonymous messages/sec growing with the concurrent-session count "
      "while every session's transcript stays byte-identical to a solo "
      "run");
  artifact.param("n", std::size_t{4});
  artifact.param("kappa", std::size_t{2});
  artifact.param("scheme", "RB");
  artifact.param("master_seed", std::size_t{kMasterSeed});
  artifact.set("hardware_threads", hardware_threads());

  const std::size_t hw = hardware_threads();
  std::vector<std::size_t> thread_counts = {1};
  if (hw > 1) thread_counts.push_back(hw);

  for (std::size_t threads : thread_counts) {
    std::printf("=== E12: session throughput (n=4, kappa=2, RB; "
                "%zu engine threads) ===\n", threads);
    std::printf("%10s %10s %12s %14s %10s %10s %8s %8s\n", "sessions",
                "messages", "wall ms", "msgs/sec", "p50 ms", "p95 ms",
                "speedup", "replay");
    double base_mps = 0.0;
    for (std::size_t sessions : {1u, 2u, 4u, 8u, 16u}) {
      const RowResult r = run_fleet(sessions, threads, /*mixed=*/false);
      if (sessions == 1) base_mps = r.report.messages_per_sec;
      std::printf("%10zu %10zu %12.2f %14.1f %10.2f %10.2f %8.2f %8s\n",
                  sessions, r.report.messages_delivered, r.report.wall_ms,
                  r.report.messages_per_sec, r.p50_session_ms,
                  r.p95_session_ms,
                  base_mps > 0.0 ? r.report.messages_per_sec / base_mps
                                 : 1.0,
                  r.replay_identical ? "ok" : "DIVERGED");
      fill_row(artifact.row(), "uniform", threads, r, base_mps);
    }
    std::printf("\n");
  }

  // One heterogeneous fleet at the widest setting: different n, schemes
  // and params profiles co-scheduled, still replay-certified.
  {
    const std::size_t threads = thread_counts.back();
    const RowResult r = run_fleet(8, threads, /*mixed=*/true);
    std::printf("--- mixed fleet (8 sessions, n in {4,5,6}, all schemes, "
                "%zu threads): %.1f msgs/sec, replay %s ---\n\n", threads,
                r.report.messages_per_sec,
                r.replay_identical ? "ok" : "DIVERGED");
    fill_row(artifact.row(), "mixed", threads, r, 0.0);
  }

  std::printf("expected shape: messages/sec grows with sessions until the\n"
              "strands saturate hardware_threads; on 1 core it stays flat.\n"
              "Every row is replay-certified byte-identical to solo runs.\n\n");
  artifact.write();
}

void BM_ServeUniformFleet(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        drain_fleet(sessions, hardware_threads(), /*mixed=*/false));
}
BENCHMARK(BM_ServeUniformFleet)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
