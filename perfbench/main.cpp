// perfbench — the end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no timers in the stack:
// set-up (median of several from-scratch set-ups), then a closed loop of
// operations for --seconds. --trace 1 runs each operation index twice, once
// plain and once with every layer wrapped in timers (alternating which runs
// first), checks that both did identical work, and reports the per-layer
// ledger of the traced copies plus the tracing overhead. Human-readable
// lines go first; the last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/digest.hpp"
#include "common/metrics.hpp"
#include "common/provenance.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ff/batch.hpp"
#include "ff/kernel.hpp"
#include "math/lagrange_cache.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
using gfor14::Fld;

constexpr std::size_t kSetups = 7;           // set-ups per untraced run
constexpr std::uint64_t kFingerprintOps = 3;  // ops 0..2 form the fingerprint
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 40;
constexpr double kProbeMs = 40.0;
// Keeps the probed dot products observable to the optimizer.
volatile std::uint64_t g_probe_sink = 0;
// Each of these silently changes what is measured.
constexpr const char* kRefusedEnv[] = {"GFOR14_THREADS", "GFOR14_FF_KERNEL",
                                       "GFOR14_FF_BATCH"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
};

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  out = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return false;
    out = out * 10 + digit;
  }
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view value = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, v)) {
      a.seed = v;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, v) && v >= 1 &&
               v <= 600) {
      a.seconds = v;
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      a.trace = value == "1";
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return std::nullopt;
  return a;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Aggregate CPU time from /proc/stat: steal (time the hypervisor gave to
/// other guests while this one wanted a CPU) and the total.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTimes cpu_times() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

/// A busy neighbour on a shared host shows up here, not in the code.
void print_steal(const CpuTimes& before) {
  const CpuTimes after = cpu_times();
  if (after.total <= before.total) return;
  std::printf("host cpu steal during measurement: %.1f%%\n",
              100.0 * static_cast<double>(after.steal - before.steal) /
                  static_cast<double>(after.total - before.total));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints every metric by name, then the result object as the last line.
void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Correctness tally over every operation a run executes.
struct Tally {
  std::size_t ops = 0;
  std::size_t sessions_attempted = 0;
  std::size_t sessions_completed = 0;
  std::size_t failed_sessions = 0;
  std::size_t honest = 0;
  std::size_t missing = 0;
  double wall_ms = 0.0;
  std::vector<double> latency_ms;
  // Per-operation rates; their medians are the throughput metrics, which
  // keeps a stall of the shared host in one operation out of the figure.
  std::vector<double> bytes_per_s;
  std::vector<double> sessions_per_s;
  std::vector<std::string> errors;

  void add(const OpResult& r, std::uint64_t index) {
    ++ops;
    sessions_attempted += r.sessions_attempted;
    sessions_completed += r.sessions_completed;
    const std::size_t op_honest = honest_messages(r.deliveries);
    const std::size_t op_missing = missing_messages(r.deliveries);
    honest += op_honest;
    missing += op_missing;
    const double wall_s = r.wall_ms / 1000.0;
    bytes_per_s.push_back(
        ratio(static_cast<double>((op_honest - op_missing) * sizeof(Fld)),
              wall_s));
    sessions_per_s.push_back(
        ratio(static_cast<double>(r.sessions_completed), wall_s));
    std::size_t failed = 0;
    for (const auto& d : r.deliveries)
      if (missing_messages(std::span<const Delivery>(&d, 1)) != 0) ++failed;
    if (!r.errors.empty()) failed = r.sessions_attempted;
    failed_sessions += failed;
    wall_ms += r.wall_ms;
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                      r.latency_ms.end());
    for (const auto& e : r.errors)
      errors.push_back("op " + std::to_string(index) + ": " + e);
  }
};

/// Fingerprint over the first kFingerprintOps operations.
struct Fingerprint {
  Work work;
  gfor14::Digest64 digest;

  void add(const OpResult& r) {
    work += r.work;
    digest.absorb_u64(r.digest);
  }
  void print() const {
    std::printf(
        "fingerprint ops=0..%llu rounds=%llu expected_rounds=%llu "
        "broadcast_rounds=%llu expected_broadcast_rounds=%llu "
        "p2p_messages=%llu p2p_bytes=%llu broadcast_bytes=%llu "
        "net.alloc.count=%llu net.alloc.bytes=%llu vss.alloc.count=%llu "
        "vss.alloc.bytes=%llu recorder_bytes=%llu digest=%016llx\n",
        static_cast<unsigned long long>(kFingerprintOps - 1),
        static_cast<unsigned long long>(work.rounds),
        static_cast<unsigned long long>(work.expected_rounds),
        static_cast<unsigned long long>(work.broadcast_rounds),
        static_cast<unsigned long long>(work.expected_broadcast_rounds),
        static_cast<unsigned long long>(work.p2p_messages),
        static_cast<unsigned long long>(work.p2p_bytes),
        static_cast<unsigned long long>(work.broadcast_bytes),
        static_cast<unsigned long long>(work.net_alloc_count),
        static_cast<unsigned long long>(work.net_alloc_bytes),
        static_cast<unsigned long long>(work.vss_alloc_count),
        static_cast<unsigned long long>(work.vss_alloc_bytes),
        static_cast<unsigned long long>(work.recorder_bytes),
        static_cast<unsigned long long>(digest.value()));
  }
};

/// One from-scratch set-up: re-dispatch the field kernels, empty the
/// Lagrange/encode-plan caches, build the workload and run one warm-up
/// operation. Returns its wall time in seconds.
double set_up(const Args& args, std::size_t k, std::unique_ptr<Workload>& wl,
              OpResult& warm) {
  gfor14::ff::reset_kernel();
  gfor14::ff::reset_span_kernel();
  gfor14::LagrangeCache::instance().clear();
  const auto t0 = Clock::now();
  (void)gfor14::ff::active_kernel();
  (void)gfor14::ff::active_span_kernel();
  wl = make_workload(args.workload, args.seed);
  warm = wl->run(kWarmupIndex + k, false);
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// The check must notice one dropped message: remove an honest input from
/// the first session's Y and expect exactly one miss.
bool checker_self_test(const OpResult& warm) {
  std::vector<Delivery> d = warm.deliveries;
  if (d.empty() || missing_messages(d) != 0) return false;
  Delivery& s = d.front();
  for (std::size_t i = 0; i < s.inputs.size(); ++i) {
    if (i == s.receiver || s.inputs[i] == Fld::zero()) continue;
    std::erase(s.y, s.inputs[i]);
    return missing_messages(d) == 1;
  }
  return false;
}

/// MB/s of batch::axpy (or dot) over two spans of `len` elements.
double span_probe_mb_s(std::size_t len, bool dot, std::uint64_t seed) {
  gfor14::Rng rng(seed);
  std::vector<Fld> x(len), y(len);
  for (auto& v : x) v = Fld::random(rng);
  for (auto& v : y) v = Fld::random(rng);
  const Fld c = Fld::random_nonzero(rng);
  std::uint64_t sink = 0;
  std::size_t calls = 0;
  double elapsed = 0.0;
  const auto t0 = Clock::now();
  do {
    for (int k = 0; k < 8; ++k) {
      if (dot)
        sink ^= gfor14::ff::batch::dot<64>(x, y).to_u64();
      else
        gfor14::ff::batch::axpy<64>(c, x, y);
    }
    calls += 8;
    elapsed = ms_between(t0, Clock::now());
  } while (elapsed < kProbeMs);
  g_probe_sink = sink;
  const double bytes = static_cast<double>(calls * len * 2 * sizeof(Fld));
  return bytes / (elapsed / 1000.0) / 1e6;
}

std::uint64_t root_counter(const char* name) {
  return gfor14::metrics::Registry::instance().counter(name).value();
}

/// Layer ledger rows summed over the traced operations.
struct Ledger {
  std::size_t ops = 0;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  bool reconciles = true;

  void add(const std::vector<std::pair<std::string, double>>& op_rows,
           double op_wall_ms) {
    if (rows.empty())
      for (const auto& [name, ms] : op_rows) rows.emplace_back(name, 0.0);
    double sum = 0.0;
    for (std::size_t i = 0; i < op_rows.size(); ++i) {
      rows[i].second += op_rows[i].second;
      sum += op_rows[i].second;
    }
    // The remainder is what no wrapped layer covered; a negative one means
    // two layers claimed the same interval.
    const double unattributed = op_wall_ms - sum;
    if (unattributed < -1e-6 * op_wall_ms) reconciles = false;
    rows.back().second += unattributed;  // the unattributed row
    ++ops;
    wall_ms += op_wall_ms;
  }
  double per_op(const std::string& name) const {
    for (const auto& [n, ms] : rows)
      if (n == name) return ms / static_cast<double>(ops);
    return 0.0;
  }
  void print() const {
    double sum = 0.0;
    std::printf("ledger (ms per traced op, %zu ops):\n", ops);
    for (const auto& [name, ms] : rows) {
      const double m = ms / static_cast<double>(ops);
      sum += m;
      std::printf("  %-28s %10.3f  %5.1f%%\n", name.c_str(), m,
                  100.0 * ratio(ms, wall_ms));
    }
    std::printf("  %-28s %10.3f  (wall %.3f)\n", "sum", sum,
                wall_ms / static_cast<double>(ops));
  }
};

/// Per-op layer rows; the last row is filled in by Ledger::add.
std::vector<std::pair<std::string, double>> ledger_rows(const OpResult& r) {
  if (!r.server.wave_ms.empty()) {
    double waves = 0.0;
    for (double w : r.server.wave_ms) waves += w;
    return {{"server.submit", r.server.submit_ms},
            {"server.run_wave", waves},
            {"server.drain", r.server.drain_ms},
            {"unattributed", 0.0}};
  }
  const LayerTimes& l = r.layers;
  return {{"vss.share_all", l.share_all_ms},
          {"vss.reconstruct_public", l.reconstruct_public_ms},
          {"vss.reconstruct_private", l.reconstruct_private_ms},
          {"recorder", l.recorder_ms},
          {"anonchan.self", r.run_ms - l.vss_ms() - l.recorder_ms},
          {"unattributed", 0.0}};
}

std::size_t print_errors(const Tally& t) {
  for (const auto& e : t.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  if (t.missing != 0)
    std::printf("CHECK FAILED: %zu of %zu honest messages missing from Y\n",
                t.missing, t.honest);
  return t.errors.size() + t.missing;
}

int run_untraced(const Args& args, Workload& wl,
                 const std::vector<double>& setup_s, bool correct) {
  Tally t;
  Fingerprint fp;
  const CpuTimes cpu0 = cpu_times();
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  for (std::uint64_t i = 0; i < kFingerprintOps || Clock::now() < deadline;
       ++i) {
    const OpResult r = wl.run(i, false);
    if (i < kFingerprintOps) fp.add(r);
    t.add(r, i);
  }
  print_steal(cpu0);
  fp.print();
  correct = correct && print_errors(t) == 0;

  const double delivered = static_cast<double>(t.honest - t.missing);
  std::printf("ops=%zu sessions=%zu latency_samples=%zu wall_s=%.3f\n", t.ops,
              t.sessions_completed, t.latency_ms.size(), t.wall_ms / 1000.0);
  print_result(
      correct, t.sessions_attempted, t.failed_sessions,
      {{"payload_bytes_per_s", quantile(t.bytes_per_s, 0.5), "B/s"},
       {"sessions_per_s", quantile(t.sessions_per_s, 0.5), "1/s"},
       {"latency_ms_p50", quantile(t.latency_ms, 0.50), "ms"},
       {"latency_ms_p90", quantile(t.latency_ms, 0.90), "ms"},
       {"delivered_share", ratio(delivered, static_cast<double>(t.honest)),
        "ratio"},
       {"setup_s", quantile(setup_s, 0.5), "s"},
       {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(const Args& args, Workload& wl, bool correct) {
  Tally t;
  Fingerprint fp;
  Ledger ledger;
  Work traced_work;
  std::vector<double> plain_ms, traced_ms, round_ms, wave_ms, exec_ms;
  double attempt_ms = 0.0, strand_wave_ms = 0.0, retry_rate = 0.0;
  double waves = 0.0;
  std::size_t rp_calls = 0, rp_values = 0;
  bool identical = true;
  const std::uint64_t hits0 = root_counter("math.lagrange_cache.hit");
  const std::uint64_t miss0 = root_counter("math.lagrange_cache.miss");

  const CpuTimes cpu0 = cpu_times();
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  for (std::uint64_t i = 0; i < kFingerprintOps || Clock::now() < deadline;
       ++i) {
    const bool traced_first = i % 2 == 1;
    OpResult first = wl.run(i, traced_first);
    OpResult second = wl.run(i, !traced_first);
    const OpResult& traced = traced_first ? first : second;
    const OpResult& plain = traced_first ? second : first;
    if (traced.work != plain.work || traced.digest != plain.digest) {
      identical = false;
      t.errors.push_back("op " + std::to_string(i) +
                         ": traced work differs from the untraced run");
    }
    if (i < kFingerprintOps) fp.add(traced);
    t.add(plain, i);
    t.add(traced, i);
    plain_ms.push_back(plain.wall_ms);
    traced_ms.push_back(traced.wall_ms);

    ledger.add(ledger_rows(traced), traced.wall_ms);
    traced_work += traced.work;
    rp_calls += traced.layers.reconstruct_public_calls;
    rp_values += traced.layers.reconstruct_public_values;
    const auto& l = traced.layers.round_wall_ms;
    round_ms.insert(round_ms.end(), l.begin(), l.end());
    const ServerTimes& s = traced.server;
    wave_ms.insert(wave_ms.end(), s.wave_ms.begin(), s.wave_ms.end());
    exec_ms.insert(exec_ms.end(), s.session_exec_ms.begin(),
                   s.session_exec_ms.end());
    attempt_ms += s.attempt_ms;
    for (double w : s.wave_ms) strand_wave_ms += w * s.strands;
    retry_rate += s.retry_rate;
    waves += static_cast<double>(s.waves);
  }
  const std::uint64_t hits = root_counter("math.lagrange_cache.hit") - hits0;
  const std::uint64_t misses =
      root_counter("math.lagrange_cache.miss") - miss0;

  print_steal(cpu0);
  fp.print();
  std::printf("traced and untraced work identical: %s\n",
              identical ? "yes" : "NO");
  ledger.print();
  if (!ledger.reconciles) {
    t.errors.push_back("ledger: layer self-times exceed the operation wall");
  }
  const double ops = static_cast<double>(ledger.ops);
  const double op_wall = ledger.wall_ms / ops;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / ops;
  };
  std::printf(
      "rounds per op: measured %.1f expected %.1f (broadcast %.1f / %.1f); "
      "%.3f ms per round\n",
      per_op(traced_work.rounds), per_op(traced_work.expected_rounds),
      per_op(traced_work.broadcast_rounds),
      per_op(traced_work.expected_broadcast_rounds),
      ratio(op_wall, per_op(traced_work.rounds)));
  correct = correct && print_errors(t) == 0;

  const std::size_t span = wl.span_length();
  const double axpy = span_probe_mb_s(span, false, args.seed);
  const double dot = span_probe_mb_s(span, true, args.seed);
  std::printf("ff probe: span=%zu kernel=%s span_kernel=%s axpy=%.1f MB/s "
              "dot=%.1f MB/s\n",
              span, gfor14::ff::active_kernel_name(),
              gfor14::ff::active_span_kernel_name(), axpy, dot);

  const double plain_p50 = quantile(plain_ms, 0.5);
  print_result(
      correct, t.sessions_attempted, t.failed_sessions,
      {{"ledger.op_wall_ms", op_wall, "ms"},
       {"vss.share_all.ms", ledger.per_op("vss.share_all"), "ms"},
       {"vss.share_all.frac", ratio(ledger.per_op("vss.share_all"), op_wall),
        "ratio"},
       {"vss.reconstruct_public.ms", ledger.per_op("vss.reconstruct_public"),
        "ms"},
       {"vss.reconstruct_public.calls", per_op(rp_calls), "count"},
       {"vss.reconstruct_public.values", per_op(rp_values), "count"},
       {"vss.reconstruct_private.ms", ledger.per_op("vss.reconstruct_private"),
        "ms"},
       {"vss.alloc.count", per_op(traced_work.vss_alloc_count), "count"},
       {"vss.alloc.bytes", per_op(traced_work.vss_alloc_bytes), "B"},
       {"ff.batch_axpy_mb_s", axpy, "MB/s"},
       {"ff.batch_dot_mb_s", dot, "MB/s"},
       {"math.lagrange_cache.hit_ratio",
        ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
        "ratio"},
       {"anonchan.self_ms", ledger.per_op("anonchan.self"), "ms"},
       {"anonchan.self_frac", ratio(ledger.per_op("anonchan.self"), op_wall),
        "ratio"},
       {"net.rounds", per_op(traced_work.rounds), "count"},
       {"net.expected_rounds", per_op(traced_work.expected_rounds), "count"},
       {"net.broadcast_rounds", per_op(traced_work.broadcast_rounds), "count"},
       {"net.p2p_messages", per_op(traced_work.p2p_messages), "count"},
       {"net.p2p_bytes", per_op(traced_work.p2p_bytes), "B"},
       {"net.broadcast_bytes", per_op(traced_work.broadcast_bytes), "B"},
       {"net.alloc.count", per_op(traced_work.net_alloc_count), "count"},
       {"net.alloc.bytes", per_op(traced_work.net_alloc_bytes), "B"},
       {"net.round_wall_ms_p50", quantile(round_ms, 0.5), "ms"},
       {"recorder.ms", ledger.per_op("recorder"), "ms"},
       {"recorder.frac", ratio(ledger.per_op("recorder"), op_wall), "ratio"},
       {"recorder.bytes", per_op(traced_work.recorder_bytes), "B"},
       {"server.submit_ms", ledger.per_op("server.submit"), "ms"},
       {"server.wave_ms_p50", quantile(wave_ms, 0.5), "ms"},
       {"server.wave_ms_p90", quantile(wave_ms, 0.9), "ms"},
       {"server.session_exec_ms_p50", quantile(exec_ms, 0.5), "ms"},
       {"server.drain_ms", ledger.per_op("server.drain"), "ms"},
       {"server.strand_busy_frac", ratio(attempt_ms, strand_wave_ms), "ratio"},
       {"server.retry_rate", retry_rate / ops, "ratio"},
       {"server.waves", waves / ops, "count"},
       {"unattributed_ms", ledger.per_op("unattributed"), "ms"},
       {"trace_overhead_pct",
        100.0 * ratio(quantile(traced_ms, 0.5) - plain_p50, plain_p50),
        "%"}});
  return 0;
}

int run_benchmark(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%llu trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seconds),
              args.trace ? 1 : 0);

  std::unique_ptr<Workload> wl;
  OpResult warm;
  std::vector<double> setup_s;
  for (std::size_t k = 0; k < (args.trace ? 1 : kSetups); ++k)
    setup_s.push_back(set_up(args, k, wl, warm));

  const std::size_t nproc = gfor14::hardware_threads();
  std::printf(
      "provenance build_type=%s git_sha=%s compiler=\"%s\" nproc=%zu "
      "ff_kernel=%s span_kernel=%s %s\n",
      PERFBENCH_BUILD_TYPE, gfor14::provenance::git_sha(),
      gfor14::provenance::compiler(), nproc, gfor14::ff::active_kernel_name(),
      gfor14::ff::active_span_kernel_name(), wl->describe().c_str());
  if (nproc < 4)
    std::printf("note: nproc=%zu < 4, so lane/strand counts measure "
                "scheduling, not parallelism\n",
                nproc);
  std::printf("setup_s runs=%zu median=%.4f\n", setup_s.size(),
              quantile(setup_s, 0.5));

  bool correct = warm.errors.empty() && missing_messages(warm.deliveries) == 0;
  const bool self_test = checker_self_test(warm);
  std::printf("checker self-test (one message dropped from Y is caught): %s\n",
              self_test ? "ok" : "FAILED");
  correct = correct && self_test;

  return args.trace ? run_traced(args, *wl, correct)
                    : run_untraced(args, *wl, setup_s, correct);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <1-600> [--trace 0|1]\n");
    return 2;
  }
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes what "
                   "is measured\n",
                   name);
      return 2;
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args->workload.c_str());
    return 2;
  }

  try {
    return run_benchmark(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
