// Experiment E8 — feasibility/scalability: wall-clock, traffic and round
// scaling of full AnonChan executions on laptop-scale parameters, plus the
// multi-session amortization that Section 4's setup exploits.
//
// Expected shape: rounds flat in n (constant-round protocol); p2p traffic
// grows polynomially (the ell = 4 n^2 d vectors dominate); multi-session
// runs amortize the fixed round bill over S sessions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "anonchan/anonchan.hpp"
#include "audit/critpath.hpp"
#include "bench_json.hpp"
#include "common/metrics.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "net/recorder.hpp"
#include "vss/schemes.hpp"

using namespace gfor14;

namespace {

std::vector<Fld> inputs_for(std::size_t n) {
  std::vector<Fld> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = Fld::from_u64(100 + i);
  return x;
}

/// Schema-3 resource fields for one row measured inside its own metrics
/// scope: element throughput plus the logical message-buffer accounting
/// (nested so bench-diff sees the dotted keys "net.alloc.count" /
/// "net.alloc.bytes" — the ones the blocking CI gate pins).
void set_resource_fields(json::Value& row, metrics::Registry& scope,
                         double ms, std::size_t elements) {
  row.set("p2p_elements_per_sec",
          ms > 0.0 ? static_cast<double>(elements) * 1000.0 / ms : 0.0);
  json::Value alloc = json::Value::object();
  alloc.set("count", scope.counter("net.alloc.count").value());
  alloc.set("bytes", scope.counter("net.alloc.bytes").value());
  json::Value netobj = json::Value::object();
  netobj.set("alloc", std::move(alloc));
  row.set("net", std::move(netobj));
}

void print_tables() {
  benchjson::Artifact artifact(
      "E8_scaling",
      "Feasibility: rounds flat in n (constant-round), traffic polynomial; "
      "multi-session runs amortize the fixed round bill");
  artifact.param("scheme", "RB");
  artifact.param("params_profile", "practical");
  std::printf("=== E8: full-run scaling (practical profile, RB VSS) ===\n");
  std::printf("%4s %6s %6s %8s %8s %10s %14s %12s %12s\n", "n", "kappa", "d",
              "ell", "rounds", "p2p msgs", "field elems", "wall ms",
              "alloc MiB");
  for (std::size_t n : {4u, 5u, 6u}) {
    for (std::size_t kappa : {2u, 4u, 8u}) {
      // Each row runs inside its own metrics scope, so the logical
      // allocation counters below are exactly this configuration's.
      auto scope = metrics::Registry::instance().scope(
          "e8/single_n" + std::to_string(n) + "_k" + std::to_string(kappa));
      metrics::RegistryAttachment attach(scope);
      net::Network net(n, 11);
      std::shared_ptr<telemetry::TelemetrySampler> sampler;
      if (n == 4 && kappa == 2) {
        // Representative per-round series for the artifact's telemetry
        // block: deterministic counters only, sampled every round.
        sampler = std::make_shared<telemetry::TelemetrySampler>(
            net.registry_shared());
        net.attach_observer(sampler);
      }
      auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
      const auto params = anonchan::Params::practical(n, kappa);
      anonchan::AnonChan chan(net, *vss, params);
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = chan.run(0, inputs_for(n));
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      std::printf("%4zu %6zu %6zu %8zu %8zu %10zu %14zu %12.1f %12.1f\n", n,
                  kappa, params.d, params.ell, out.costs.rounds,
                  out.costs.p2p_messages, out.costs.p2p_elements, ms,
                  static_cast<double>(
                      scope->counter("net.alloc.bytes").value()) /
                      (1024.0 * 1024.0));
      json::Value& row = artifact.row();
      row.set("case", "single_run");
      row.set("n", n);
      row.set("kappa", kappa);
      row.set("d", params.d);
      row.set("ell", params.ell);
      row.set("rounds", out.costs.rounds);
      row.set("p2p_messages", out.costs.p2p_messages);
      row.set("p2p_elements", out.costs.p2p_elements);
      row.set("wall_ms", ms);
      set_resource_fields(row, *scope, ms, out.costs.p2p_elements);
      if (sampler) artifact.set("telemetry", sampler->deterministic_json());
    }
  }

  std::printf("\n--- multi-session amortization (n=4, kappa=2) ---\n");
  std::printf("%10s %8s %14s %12s\n", "sessions", "rounds", "field elems",
              "wall ms");
  for (std::size_t sessions : {1u, 2u, 4u, 8u}) {
    auto scope = metrics::Registry::instance().scope(
        "e8/multi_s" + std::to_string(sessions));
    metrics::RegistryAttachment attach(scope);
    net::Network net(4, 12);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(4, 2));
    std::vector<std::vector<Fld>> many(sessions, inputs_for(4));
    const auto t0 = std::chrono::steady_clock::now();
    const auto out = chan.run_many(0, many);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("%10zu %8zu %14zu %12.1f\n", sessions, out.costs.rounds,
                out.costs.p2p_elements, ms);
    json::Value& row = artifact.row();
    row.set("case", "multi_session");
    row.set("sessions", sessions);
    row.set("rounds", out.costs.rounds);
    row.set("p2p_elements", out.costs.p2p_elements);
    row.set("wall_ms", ms);
    set_resource_fields(row, *scope, ms, out.costs.p2p_elements);
  }
  std::printf("expected shape: rounds CONSTANT in the session count —\n"
              "the property the pseudosignature setup relies on.\n\n");

  // --- thread sweep: the deterministic parallel round engine. ---
  // Every row at the same n produces a byte-identical transcript (same
  // seed, same rounds/traffic); only wall-clock may change. Speedup is
  // relative to the 1-lane row at the same n and is only meaningful when
  // hardware_threads > 1 — the artifact records the hardware context so a
  // 1-core container's rows read as what they are.
  artifact.set("hardware_threads", hardware_threads());
  std::printf("--- thread sweep (kappa=2, RB VSS; hw threads = %zu) ---\n",
              hardware_threads());
  std::printf("%4s %8s %8s %14s %12s %8s\n", "n", "threads", "rounds",
              "field elems", "wall ms", "speedup");
  for (std::size_t n : {4u, 8u, 16u}) {
    std::vector<std::size_t> lanes = {1, 2, 4};
    if (const std::size_t hw = hardware_threads();
        std::find(lanes.begin(), lanes.end(), hw) == lanes.end())
      lanes.push_back(hw);
    double serial_ms = 0.0;
    for (std::size_t threads : lanes) {
      auto scope = metrics::Registry::instance().scope(
          "e8/threads_n" + std::to_string(n) + "_t" + std::to_string(threads));
      metrics::RegistryAttachment attach(scope);
      net::Network net(n, 13);
      net.set_threads(threads);
      auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
      anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
      const auto t0 = std::chrono::steady_clock::now();
      const auto out = chan.run(0, inputs_for(n));
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (threads == 1) serial_ms = ms;
      const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
      std::printf("%4zu %8zu %8zu %14zu %12.1f %7.2fx\n", n, threads,
                  out.costs.rounds, out.costs.p2p_elements, ms, speedup);
      json::Value& row = artifact.row();
      row.set("case", "thread_sweep");
      row.set("n", n);
      row.set("threads", threads);
      row.set("rounds", out.costs.rounds);
      row.set("p2p_elements", out.costs.p2p_elements);
      row.set("wall_ms", ms);
      row.set("speedup_vs_serial", speedup);
      set_resource_fields(row, *scope, ms, out.costs.p2p_elements);
    }
  }
  std::printf("\n");

  // --- telemetry overhead (acceptance budget: <5% on n=8, interval 1) ---
  // Best-of-3 with and without a sampler attached; the sampler's only hot
  // cost is one counter-map flatten per round barrier.
  {
    const std::size_t n = 8;
    double plain_ms = 1e300, telemetry_ms = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      {
        net::Network net(n, 14);
        auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
        anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
        const auto t0 = std::chrono::steady_clock::now();
        chan.run(0, inputs_for(n));
        const auto t1 = std::chrono::steady_clock::now();
        plain_ms = std::min(
            plain_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      {
        auto scope = metrics::Registry::instance().scope(
            "e8/overhead_rep" + std::to_string(rep));
        metrics::RegistryAttachment attach(scope);
        net::Network net(n, 14);
        auto sampler = std::make_shared<telemetry::TelemetrySampler>(
            net.registry_shared());
        net.attach_observer(sampler);
        auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
        anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
        const auto t0 = std::chrono::steady_clock::now();
        chan.run(0, inputs_for(n));
        const auto t1 = std::chrono::steady_clock::now();
        telemetry_ms = std::min(
            telemetry_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    }
    const double overhead_pct =
        plain_ms > 0.0 ? (telemetry_ms - plain_ms) / plain_ms * 100.0 : 0.0;
    std::printf("--- telemetry overhead (n=8, kappa=2, interval 1) ---\n"
                "plain %.1f ms, telemetry %.1f ms: %+.1f%% (budget <5%%)\n\n",
                plain_ms, telemetry_ms, overhead_pct);
    json::Value& row = artifact.row();
    row.set("case", "telemetry_overhead");
    row.set("n", n);
    row.set("wall_ms_plain", plain_ms);
    row.set("wall_ms_telemetry", telemetry_ms);
    row.set("overhead_pct", overhead_pct);
  }

  // --- profiling overhead (DESIGN.md §15 budget: <5% with the profiling
  // stack attached: profile-fidelity recorder + tracer + telemetry
  // sampler). Profile fidelity is the point: a full recording digests every
  // payload element — O(traffic) work — while the profiler only needs
  // message headers and round annotations, which cost O(messages).
  // Best-of-3 against the same plain run; the CI profiler job pins
  // "profiling.overhead_pct" with a bench-diff --max ceiling. The profiled
  // run's recording also feeds the artifact's critical-path `profile` block.
  {
    const std::size_t n = 8;
    double plain_ms = 1e300, profiled_ms = 1e300;
    net::Recording recording;
    for (int rep = 0; rep < 3; ++rep) {
      {
        net::Network net(n, 15);
        auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
        anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
        const auto t0 = std::chrono::steady_clock::now();
        chan.run(0, inputs_for(n));
        const auto t1 = std::chrono::steady_clock::now();
        plain_ms = std::min(
            plain_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      {
        auto scope = metrics::Registry::instance().scope(
            "e8/profiling_rep" + std::to_string(rep));
        metrics::RegistryAttachment attach(scope);
        trace::Tracer::instance().set_enabled(true);
        net::Network net(n, 15);
        auto recorder = std::make_shared<net::Recorder>(
            net::Recorder::Options::profile());
        net.attach_observer(recorder);
        auto sampler = std::make_shared<telemetry::TelemetrySampler>(
            net.registry_shared());
        net.attach_observer(sampler);
        auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
        anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(n, 2));
        const auto t0 = std::chrono::steady_clock::now();
        chan.run(0, inputs_for(n));
        const auto t1 = std::chrono::steady_clock::now();
        trace::Tracer::instance().set_enabled(false);
        profiled_ms = std::min(
            profiled_ms,
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        recording = recorder->recording();
      }
    }
    const double overhead_pct =
        plain_ms > 0.0 ? (profiled_ms - plain_ms) / plain_ms * 100.0 : 0.0;
    std::printf("--- profiling overhead (n=8: recorder+tracer+sampler) ---\n"
                "plain %.1f ms, profiled %.1f ms: %+.1f%% (budget <5%%)\n\n",
                plain_ms, profiled_ms, overhead_pct);
    json::Value& row = artifact.row();
    row.set("case", "profiling_overhead");
    row.set("n", n);
    row.set("wall_ms_plain", plain_ms);
    row.set("wall_ms_profiled", profiled_ms);
    json::Value prof = json::Value::object();
    prof.set("overhead_pct", overhead_pct);
    row.set("profiling", std::move(prof));

    // Machine-readable critical-path profile of the recorded run
    // (deterministic block only: logical weights, phase attribution).
    std::string error;
    if (const auto report = audit::analyze(recording, &error)) {
      artifact.set("profile", report->to_json(false));
    } else {
      std::printf("profile: analysis failed: %s\n", error.c_str());
    }
  }
  // Phase breakdown of the largest single run in the sweep: shows where
  // wall-clock and traffic go as n and kappa grow.
  artifact.set("phases", benchjson::traced_phases([] {
                 net::Network net(6, 11);
                 auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
                 anonchan::AnonChan chan(net, *vss,
                                         anonchan::Params::practical(6, 8));
                 chan.run(0, inputs_for(6));
               }));
  artifact.write();
}

void BM_AnonChanWallClock(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t kappa = static_cast<std::size_t>(state.range(1));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::Network net(n, seed++);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss,
                            anonchan::Params::practical(n, kappa));
    benchmark::DoNotOptimize(chan.run(0, inputs_for(n)));
  }
}
BENCHMARK(BM_AnonChanWallClock)
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({6, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_AnonChanMultiSession(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::Network net(4, seed++);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(4, 2));
    std::vector<std::vector<Fld>> many(sessions, inputs_for(4));
    benchmark::DoNotOptimize(chan.run_many(0, many));
  }
}
BENCHMARK(BM_AnonChanMultiSession)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
