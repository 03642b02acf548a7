// VSS microbenchmarks (supports E1/E2/E8): sharing and reconstruction
// timings per scheme, with the round/broadcast counters attached — the
// substrate cost that AnonChan's "essentially r_VSS" reduction inherits.
// BENCH_E8_vss.json holds the per-scheme round profile (`scheme_profile`
// rows) and the traced phases of one RB share + public reconstruction.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_json.hpp"
#include "ff/kernel.hpp"
#include "vss/schemes.hpp"

using namespace gfor14;
using vss::SchemeKind;

namespace {

void print_profiles() {
  benchjson::Artifact artifact(
      "E8_vss",
      "VSS substrate profiles: per-scheme sharing rounds and broadcast "
      "rounds (the r_VSS AnonChan inherits)");
  // Which clmul kernel produced these numbers (E8 dispatch column).
  artifact.param("ff_kernel", std::string(ff::active_kernel_name()));
  std::printf("=== VSS scheme profiles (sharing phase) ===\n");
  std::printf("%-8s %10s %12s %10s %10s\n", "scheme", "rounds", "bc-rounds",
              "max t", "recon");
  net::Network net(7, 1);
  for (auto kind :
       {SchemeKind::kBGW, SchemeKind::kRB, SchemeKind::kGGOR13}) {
    auto s = vss::make_vss(kind, net);
    std::printf("%-8s %10zu %12zu %10zu %10s\n", s->name(),
                s->share_rounds(), s->share_broadcast_rounds(), s->t(),
                kind == SchemeKind::kBGW ? "RS-decode" : "IC-filter");
    json::Value& row = artifact.row();
    row.set("case", "scheme_profile");
    row.set("scheme", std::string(s->name()));
    row.set("share_rounds", s->share_rounds());
    row.set("share_bc_rounds", s->share_broadcast_rounds());
    row.set("max_t", s->t());
  }
  std::printf("\n");

  // Phase breakdown of one share_all + public reconstruction on the RB
  // engine — the two vss.* spans the AnonChan trace decomposes into.
  artifact.set("phases", benchjson::traced_phases([] {
                 net::Network net(5, 7);
                 trace::Span root("vss.bench", net);
                 auto vss = vss::make_vss(SchemeKind::kRB, net);
                 std::vector<std::vector<Fld>> batches(5);
                 for (std::size_t k = 0; k < 16; ++k)
                   batches[0].push_back(Fld::from_u64(k + 1));
                 vss->share_all(batches);
                 std::vector<vss::LinComb> values;
                 for (std::size_t k = 0; k < 16; ++k)
                   values.push_back(vss::LinComb::of({0, k}));
                 vss->reconstruct_public(values);
               }));
  artifact.write();
}

void BM_ShareAll(benchmark::State& state) {
  const auto kind = static_cast<SchemeKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::size_t batch = static_cast<std::size_t>(state.range(2));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    net::Network net(n, seed++);
    auto vss = vss::make_vss(kind, net);
    std::vector<std::vector<Fld>> batches(n);
    for (std::size_t d = 0; d < n; ++d)
      for (std::size_t k = 0; k < batch; ++k)
        batches[d].push_back(Fld::from_u64(d * batch + k + 1));
    vss->share_all(batches);
    state.counters["rounds"] = static_cast<double>(vss->share_rounds());
    state.counters["secrets"] = static_cast<double>(n * batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * batch));
}
BENCHMARK(BM_ShareAll)
    ->Args({static_cast<long>(SchemeKind::kBGW), 4, 64})
    ->Args({static_cast<long>(SchemeKind::kRB), 5, 64})
    ->Args({static_cast<long>(SchemeKind::kGGOR13), 5, 64})
    ->Args({static_cast<long>(SchemeKind::kRB), 5, 512})
    ->Args({static_cast<long>(SchemeKind::kRB), 9, 64})
    ->Unit(benchmark::kMillisecond);

void BM_ReconstructPublic(benchmark::State& state) {
  const auto kind = static_cast<SchemeKind>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::size_t count = static_cast<std::size_t>(state.range(2));
  net::Network net(n, 7);
  auto vss = vss::make_vss(kind, net);
  std::vector<std::vector<Fld>> batches(n);
  for (std::size_t k = 0; k < count; ++k)
    batches[0].push_back(Fld::from_u64(k + 1));
  vss->share_all(batches);
  std::vector<vss::LinComb> values;
  for (std::size_t k = 0; k < count; ++k)
    values.push_back(vss::LinComb::of({0, k}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vss->reconstruct_public(values));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_ReconstructPublic)
    ->Args({static_cast<long>(SchemeKind::kBGW), 4, 256})
    ->Args({static_cast<long>(SchemeKind::kRB), 5, 256})
    ->Args({static_cast<long>(SchemeKind::kGGOR13), 5, 256})
    ->Unit(benchmark::kMillisecond);

void BM_ReconstructPrivate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  net::Network net(n, 8);
  auto vss = vss::make_vss(SchemeKind::kRB, net);
  std::vector<std::vector<Fld>> batches(n);
  for (std::size_t k = 0; k < 256; ++k)
    batches[0].push_back(Fld::from_u64(k + 1));
  vss->share_all(batches);
  std::vector<vss::LinComb> values;
  for (std::size_t k = 0; k < 256; ++k)
    values.push_back(vss::LinComb::of({0, k}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vss->reconstruct_private(1, values));
  }
}
BENCHMARK(BM_ReconstructPrivate)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

void BM_LinearCombinationLocal(benchmark::State& state) {
  // Linearity is free of interaction: combining shares is local work only.
  net::Network net(5, 9);
  auto vss = vss::make_vss(SchemeKind::kRB, net);
  std::vector<std::vector<Fld>> batches(5);
  for (std::size_t d = 0; d < 5; ++d)
    batches[d] = {Fld::from_u64(d + 1), Fld::from_u64(d + 2)};
  vss->share_all(batches);
  for (auto _ : state) {
    vss::LinComb v;
    for (std::size_t d = 0; d < 5; ++d) {
      v.add({d, 0}, Fld::from_u64(3));
      v.add({d, 1}, Fld::from_u64(5));
    }
    v.normalize();
    benchmark::DoNotOptimize(vss->committed_value(v));
  }
}
BENCHMARK(BM_LinearCombinationLocal);

}  // namespace

int main(int argc, char** argv) {
  print_profiles();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
