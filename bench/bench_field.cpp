// Microbenchmarks of the computational substrate (supports experiment E8):
// GF(2^32)/GF(2^64) arithmetic across carry-less-multiply kernels (bitloop
// oracle / PCLMUL-PMULL hardware),
// polynomial evaluation, Lagrange interpolation, Berlekamp–Welch decoding.
//
// The custom main first runs a kernel sweep: for each selectable kernel it
// differential-checks GF(2^64) and GF(2^32) products against the bit-loop
// oracle, times the GF(2^64) multiply, and emits one row per kernel into
// BENCH_E8_field.json — the kernel-dispatch columns E8 reports. A kernel
// that disagrees with the oracle fails the run (nonzero exit, after the
// artifact is written). The regular Google Benchmark suites then run on the
// dispatched (auto) kernel.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "ff/batch.hpp"
#include "ff/kernel.hpp"
#include "ff/ops.hpp"
#include "math/berlekamp_welch.hpp"
#include "math/bivariate.hpp"

namespace gfor14 {
namespace {

/// Median-of-3 timing of `fn` over `iters` iterations, ns per iteration.
template <typename Fn>
double time_ns_per_op(std::size_t iters, Fn&& fn) {
  double best = 0;
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const auto stop = std::chrono::steady_clock::now();
    runs.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(iters));
  }
  best = std::min({runs[0], runs[1], runs[2]});
  return best;
}

template <typename F>
double time_field_mul() {
  Rng rng(1);
  F a = F::random_nonzero(rng);
  const F b = F::random_nonzero(rng);
  const double ns = time_ns_per_op(2'000'000, [&] {
    a = a * b;
    benchmark::DoNotOptimize(a);
  });
  return ns;
}

/// Differential check: products under the active kernel must equal the
/// bit-loop oracle's raw carry-less product pipeline. Returns mismatches.
template <typename F>
std::size_t differential_mismatches(std::size_t trials) {
  Rng rng(42);
  std::size_t bad = 0;
  const ff::Kernel current = ff::active_kernel();
  for (std::size_t i = 0; i < trials; ++i) {
    const F a = F::random(rng);
    const F b = F::random(rng);
    const F got = a * b;
    ff::set_kernel(ff::Kernel::kBitloop);
    const F expect = a * b;
    ff::set_kernel(current);
    if (got != expect) ++bad;
  }
  return bad;
}

/// The kernel sweep: one table row + JSON row per kernel. Returns the total
/// differential mismatches across kernels.
std::size_t kernel_sweep(benchjson::Artifact& artifact) {
  std::vector<ff::Kernel> kernels = {ff::Kernel::kBitloop};
  if (ff::hardware_available()) {
    // Exactly one hardware kernel is valid per host; probe which.
    for (ff::Kernel hw : {ff::Kernel::kPclmul, ff::Kernel::kPmull})
      if (ff::set_kernel(hw)) kernels.push_back(hw);
    ff::reset_kernel();
  }

  std::printf("=== clmul kernel sweep (GF(2^64) multiply) ===\n");
  std::printf("%-8s %12s %12s %10s\n", "kernel", "f64 ns/mul", "f64 x",
              "diff-ok");
  double base64 = 0;
  std::size_t mismatches = 0;
  for (ff::Kernel k : kernels) {
    if (!ff::set_kernel(k)) continue;
    const std::size_t bad = differential_mismatches<F64>(10000) +
                            differential_mismatches<F32>(10000);
    ff::set_kernel(k);
    const double ns64 = time_field_mul<F64>();
    if (k == ff::Kernel::kBitloop) base64 = ns64;
    const double sp64 = base64 > 0 ? base64 / ns64 : 1.0;
    std::printf("%-8s %12.1f %11.1fx %10s\n", ff::kernel_name(k), ns64, sp64,
                bad == 0 ? "yes" : "NO");
    json::Value& row = artifact.row();
    row.set("case", "kernel_sweep");
    row.set("kernel", std::string(ff::kernel_name(k)));
    row.set("f64_mul_ns", ns64);
    row.set("f64_speedup_vs_bitloop", sp64);
    row.set("differential_mismatches", bad);
    if (bad != 0)
      std::fprintf(stderr, "FATAL: kernel %s disagrees with bitloop oracle\n",
                   ff::kernel_name(k));
    mismatches += bad;
  }
  ff::reset_kernel();
  std::printf("\n");
  return mismatches;
}

/// Fused span operations vs their scalar equivalents, on the auto kernel.
void span_ops_table(benchjson::Artifact& artifact) {
  Rng rng(3);
  constexpr std::size_t kLen = 256;
  std::vector<Fld> a(kLen), b(kLen);
  for (auto& x : a) x = Fld::random(rng);
  for (auto& x : b) x = Fld::random(rng);

  const double scalar_ns = time_ns_per_op(20000, [&] {
    Fld acc = Fld::zero();
    for (std::size_t i = 0; i < kLen; ++i) acc += a[i] * b[i];
    benchmark::DoNotOptimize(acc);
  });
  const double fused_ns = time_ns_per_op(20000, [&] {
    Fld acc = ff::dot(std::span<const Fld>(a), std::span<const Fld>(b));
    benchmark::DoNotOptimize(acc);
  });
  std::vector<Fld> inv_src(kLen);
  for (auto& x : inv_src) x = Fld::random_nonzero(rng);
  const double scalar_inv_ns = time_ns_per_op(200, [&] {
    Fld acc = Fld::zero();
    for (std::size_t i = 0; i < kLen; ++i) acc += inv_src[i].inverse();
    benchmark::DoNotOptimize(acc);
  });
  const double batch_inv_ns = time_ns_per_op(200, [&] {
    std::vector<Fld> xs = inv_src;
    ff::batch_inverse(std::span<Fld>(xs));
    benchmark::DoNotOptimize(xs.data());
  });

  std::printf("=== fused span kernels (len %zu, kernel %s) ===\n", kLen,
              ff::active_kernel_name());
  std::printf("%-18s %14s %14s %8s\n", "op", "scalar ns", "fused ns", "x");
  std::printf("%-18s %14.0f %14.0f %7.1fx\n", "dot", scalar_ns, fused_ns,
              scalar_ns / fused_ns);
  std::printf("%-18s %14.0f %14.0f %7.1fx\n", "batch_inverse", scalar_inv_ns,
              batch_inv_ns, scalar_inv_ns / batch_inv_ns);
  std::printf("\n");
  json::Value& row = artifact.row();
  row.set("case", "span_ops");
  row.set("kernel", std::string(ff::active_kernel_name()));
  row.set("len", kLen);
  row.set("dot_scalar_ns", scalar_ns);
  row.set("dot_fused_ns", fused_ns);
  row.set("batch_inverse_scalar_ns", scalar_inv_ns);
  row.set("batch_inverse_fused_ns", batch_inv_ns);
}

/// Bulk-data view of the kernel layer: MB/s moved through the raw multiply
/// and the fused span kernels, per selectable clmul kernel. ns/op numbers
/// compare ops; MB/s compares kernels against memory bandwidth — the
/// ceiling the zero-copy roadmap item is chasing.
void throughput_table(benchjson::Artifact& artifact) {
  std::vector<ff::Kernel> kernels = {ff::Kernel::kBitloop};
  if (ff::hardware_available()) {
    for (ff::Kernel hw : {ff::Kernel::kPclmul, ff::Kernel::kPmull})
      if (ff::set_kernel(hw)) kernels.push_back(hw);
    ff::reset_kernel();
  }

  constexpr std::size_t kLen = 256;
  Rng rng(8);
  std::vector<Fld> a(kLen), b(kLen), y(kLen);
  for (auto& x : a) x = Fld::random(rng);
  for (auto& x : b) x = Fld::random(rng);
  for (auto& x : y) x = Fld::random(rng);
  const Fld c = Fld::random_nonzero(rng);

  std::printf("=== kernel throughput (operand MB/s, span len %zu) ===\n",
              kLen);
  std::printf("%-8s %12s %12s %12s\n", "kernel", "clmul", "dot", "axpy");
  for (ff::Kernel k : kernels) {
    if (!ff::set_kernel(k)) continue;
    const double mul_ns = time_field_mul<Fld>();
    const double dot_ns = time_ns_per_op(20000, [&] {
      Fld acc = ff::dot(std::span<const Fld>(a), std::span<const Fld>(b));
      benchmark::DoNotOptimize(acc);
    });
    const double axpy_ns = time_ns_per_op(20000, [&] {
      ff::axpy(c, std::span<const Fld>(a), std::span<Fld>(y));
      benchmark::DoNotOptimize(y.data());
    });
    // MB/s = operand bytes per op * 1000 / (ns per op); each op reads two
    // element streams (axpy's accumulator read-modify-write counts as one).
    const double mul_mb_s = 2.0 * Fld::byte_size() * 1000.0 / mul_ns;
    const double dot_mb_s = 2.0 * kLen * Fld::byte_size() * 1000.0 / dot_ns;
    const double axpy_mb_s =
        2.0 * kLen * Fld::byte_size() * 1000.0 / axpy_ns;
    std::printf("%-8s %12.1f %12.1f %12.1f\n", ff::kernel_name(k), mul_mb_s,
                dot_mb_s, axpy_mb_s);
    json::Value& row = artifact.row();
    row.set("case", "throughput");
    row.set("kernel", std::string(ff::kernel_name(k)));
    row.set("len", kLen);
    row.set("clmul_mb_s", mul_mb_s);
    row.set("dot_mb_s", dot_mb_s);
    row.set("axpy_mb_s", axpy_mb_s);
    row.set("clmul_ns", mul_ns);
    row.set("dot_ns", dot_ns);
    row.set("axpy_ns", axpy_ns);
  }
  ff::reset_kernel();
  std::printf("\n");
}

/// Span-kernel batch layer (ff/batch.hpp): MB/s of the wide batch axpy/dot
/// over GF(2^64), on the dispatched kernels.
void batch_throughput_table(benchjson::Artifact& artifact) {
  std::printf(
      "=== batch span kernels (operand MB/s, len 4096, kernel %s/%s) ===\n",
      ff::active_kernel_name(), ff::active_span_kernel_name());
  std::printf("%-8s %12s %12s\n", "field", "batch_axpy", "batch_dot");
  constexpr std::size_t kLen = 4096;
  Rng rng(9);
  std::vector<F64> a(kLen), b(kLen), y(kLen);
  for (auto& x : a) x = F64::random(rng);
  for (auto& x : b) x = F64::random(rng);
  for (auto& x : y) x = F64::random(rng);
  const F64 c = F64::random_nonzero(rng);
  const double axpy_ns = time_ns_per_op(2000, [&] {
    ff::batch::axpy<64>(c, std::span<const F64>(a), std::span<F64>(y));
    benchmark::DoNotOptimize(y.data());
  });
  const double dot_ns = time_ns_per_op(2000, [&] {
    F64 acc =
        ff::batch::dot<64>(std::span<const F64>(a), std::span<const F64>(b));
    benchmark::DoNotOptimize(acc);
  });
  const double bytes = 2.0 * kLen * F64::byte_size();
  const double axpy_mb_s = bytes * 1000.0 / axpy_ns;
  const double dot_mb_s = bytes * 1000.0 / dot_ns;
  std::printf("%-8s %12.1f %12.1f\n\n", "F64", axpy_mb_s, dot_mb_s);
  json::Value& row = artifact.row();
  row.set("case", "batch_throughput");
  row.set("field", std::string("F64"));
  row.set("kernel", std::string(ff::active_kernel_name()));
  row.set("span_kernel", std::string(ff::active_span_kernel_name()));
  row.set("len", kLen);
  row.set("batch_axpy_mb_s", axpy_mb_s);
  row.set("batch_dot_mb_s", dot_mb_s);
  row.set("batch_axpy_ns", axpy_ns);
  row.set("batch_dot_ns", dot_ns);
}

template <typename F>
void BM_FieldMul(benchmark::State& state) {
  Rng rng(1);
  F a = F::random_nonzero(rng);
  const F b = F::random_nonzero(rng);
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(ff::active_kernel_name());
}
BENCHMARK(BM_FieldMul<F32>);
BENCHMARK(BM_FieldMul<F64>);

template <typename F>
void BM_FieldAdd(benchmark::State& state) {
  Rng rng(2);
  F a = F::random(rng);
  const F b = F::random(rng);
  for (auto _ : state) {
    a = a + b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldAdd<F64>);

template <typename F>
void BM_FieldInverse(benchmark::State& state) {
  Rng rng(3);
  F a = F::random_nonzero(rng);
  for (auto _ : state) {
    a = a.inverse();
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(ff::active_kernel_name());
}
BENCHMARK(BM_FieldInverse<F32>);
BENCHMARK(BM_FieldInverse<F64>);

void BM_PolyEval(benchmark::State& state) {
  Rng rng(4);
  const Poly p = Poly::random(rng, state.range(0));
  const Fld x = Fld::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval(x));
  }
}
BENCHMARK(BM_PolyEval)->Arg(2)->Arg(8)->Arg(32);

void BM_LagrangeInterpolate(benchmark::State& state) {
  Rng rng(5);
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  std::vector<Fld> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) {
    xs[i] = eval_point<64>(i);
    ys[i] = Fld::random(rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_interpolate(xs, ys));
  }
}
BENCHMARK(BM_LagrangeInterpolate)->Arg(3)->Arg(5)->Arg(9)->Arg(17)->Arg(33);

void BM_BerlekampWelch(benchmark::State& state) {
  Rng rng(6);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = (n - 1) / 3;
  const Poly p = Poly::random(rng, t);
  std::vector<Fld> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = eval_point<64>(i);
    ys[i] = p.eval(xs[i]);
  }
  for (std::size_t e = 0; e < t; ++e) ys[e] = Fld::random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(berlekamp_welch(xs, ys, t, t));
  }
}
BENCHMARK(BM_BerlekampWelch)->Arg(4)->Arg(7)->Arg(13);

void BM_BivariateShareGeneration(benchmark::State& state) {
  Rng rng(7);
  const std::size_t t = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto f =
        SymmetricBivariate::random_with_secret(rng, t, Fld::from_u64(5));
    benchmark::DoNotOptimize(f.slice(eval_point<64>(1)));
  }
}
BENCHMARK(BM_BivariateShareGeneration)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace gfor14

int main(int argc, char** argv) {
  using namespace gfor14;
  benchjson::Artifact artifact(
      "E8_field",
      "Field/polynomial kernel layer: hardware clmul is >= 5x the bit-loop "
      "GF(2^64) multiply, with identical outputs across kernels; fused span "
      "ops cut reductions and inversions");
  artifact.param("fields", std::string("F32 F64"));
  artifact.param("hardware_available", ff::hardware_available());
  const std::size_t mismatches = kernel_sweep(artifact);
  span_ops_table(artifact);
  throughput_table(artifact);
  batch_throughput_table(artifact);
  artifact.param("dispatched_kernel", std::string(ff::active_kernel_name()));
  artifact.param("span_kernel", std::string(ff::active_span_kernel_name()));
  artifact.set("metrics", benchjson::metrics_snapshot());
  artifact.write();
  if (mismatches != 0) return 1;
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
