// Resource telemetry layer (DESIGN.md §11): scoped registries roll up
// exactly at round barriers; logical allocation accounting is exact and
// predictable; the TelemetrySampler's deterministic section is
// byte-identical across worker-lane counts; the Prometheus exposition is
// well-formed text format 0.0.4; and the bench-diff gates block on gated
// regressions (including higher-is-better throughput keys) while
// tolerating mismatched artifact schema versions.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "anonchan/anonchan.hpp"
#include "audit/bench_diff.hpp"
#include "audit/report.hpp"
#include "common/metrics.hpp"
#include "common/telemetry.hpp"
#include "net/network.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  // Process-global counters accumulate across tests in one binary; reset so
  // every test computes deltas from zero and scope names don't collide.
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

net::Payload pay(std::size_t elements) {
  net::Payload p(elements, Fld::from_u64(7));
  return p;
}

// --- allocation accounting -------------------------------------------------

TEST_F(TelemetryTest, LogicalAllocAccountingIsExact) {
  // N messages of B elements each => net.alloc.count += N and
  // net.alloc.bytes += N * B * sizeof(Fld), exactly — the deterministic
  // contract the ISSUE's acceptance criteria pin.
  auto scope = metrics::Registry::instance().scope("t/alloc_exact");
  metrics::RegistryAttachment attach(scope);
  net::Network net(4, 1);
  constexpr std::size_t kMessages = 6;
  constexpr std::size_t kElements = 17;
  net.begin_round();
  for (std::size_t i = 0; i < kMessages; ++i)
    net.send(0, 1 + (i % 3), pay(kElements));
  net.end_round();
  EXPECT_EQ(scope->counter("net.alloc.count").value(), kMessages);
  EXPECT_EQ(scope->counter("net.alloc.bytes").value(),
            kMessages * kElements * sizeof(Fld));

  // A broadcast stages one buffer regardless of receiver count.
  net.begin_round();
  net.broadcast(2, pay(5));
  net.end_round();
  EXPECT_EQ(scope->counter("net.alloc.count").value(), kMessages + 1);
  EXPECT_EQ(scope->counter("net.alloc.bytes").value(),
            (kMessages * kElements + 5) * sizeof(Fld));
}

TEST_F(TelemetryTest, ScopeRollsUpExactlyIntoRootAtRoundBarriers) {
  auto scope = metrics::Registry::instance().scope("t/rollup");
  const std::uint64_t root_before =
      metrics::Registry::instance().counter("net.alloc.bytes").value();
  {
    metrics::RegistryAttachment attach(scope);
    net::Network net(4, 2);
    net.begin_round();
    net.send(0, 1, pay(10));
    net.send(1, 2, pay(20));
    net.end_round();
  }
  const std::uint64_t expect = 30 * sizeof(Fld);
  EXPECT_EQ(scope->counter("net.alloc.bytes").value(), expect);
  // end_round() rolled the scope's delta into the root exactly once.
  EXPECT_EQ(metrics::Registry::instance().counter("net.alloc.bytes").value(),
            root_before + expect);
}

// --- deterministic sampler -------------------------------------------------

std::string sampled_run(std::size_t threads, const std::string& scope_name) {
  auto scope = metrics::Registry::instance().scope(scope_name);
  metrics::RegistryAttachment attach(scope);
  net::Network net(5, 20140806);
  net.set_threads(threads);
  auto sampler = std::make_shared<telemetry::TelemetrySampler>(
      net.registry_shared());
  net.attach_observer(sampler);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::practical(5, 2));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 5; ++i) inputs.push_back(Fld::from_u64(50 + i));
  chan.run(4, inputs);
  return sampler->deterministic_json().dump(2);
}

TEST_F(TelemetryTest, DeterministicSectionIsByteIdenticalAcrossLaneCounts) {
  const std::string serial = sampled_run(1, "t/lanes1");
  const std::string parallel = sampled_run(4, "t/lanes4");
  EXPECT_EQ(serial, parallel);
  // Sanity: the series is non-trivial and carries the alloc counters.
  EXPECT_NE(serial.find("net.alloc.bytes"), std::string::npos);
  EXPECT_NE(serial.find("vss.alloc.bytes"), std::string::npos);
  EXPECT_NE(serial.find("\"snapshots\""), std::string::npos);
}

TEST_F(TelemetryTest, SamplerExcludesEnvironmentFromDeterministicSection) {
  auto scope = metrics::Registry::instance().scope("t/split");
  metrics::RegistryAttachment attach(scope);
  net::Network net(4, 4);
  auto sampler = std::make_shared<telemetry::TelemetrySampler>(
      net.registry_shared());
  net.attach_observer(sampler);
  net.begin_round();
  net.send(0, 1, pay(3));
  net.end_round();
  const std::string det = sampler->deterministic_json().dump();
  EXPECT_EQ(det.find("wall_us"), std::string::npos);
  EXPECT_EQ(det.find("rss"), std::string::npos);
  const json::Value full = sampler->to_json();
  ASSERT_NE(full.find("environment"), nullptr);
  EXPECT_NE(full.find("environment")->find("round_wall"), nullptr);
}

TEST_F(TelemetryTest, RingDecimationDoublesStrideAndKeepsAlignment) {
  auto scope = metrics::Registry::instance().scope("t/decimate");
  metrics::RegistryAttachment attach(scope);
  net::Network net(4, 5);
  auto sampler =
      std::make_shared<telemetry::TelemetrySampler>(net.registry_shared());
  net.attach_observer(sampler);
  // Twice past the ring bound: decimations at rounds 512 and 1024.
  for (std::size_t r = 0; r < 1200; ++r) {
    net.begin_round();
    net.send(0, 1, pay(1));
    net.end_round();
  }
  EXPECT_EQ(sampler->rounds_seen(), 1200u);
  EXPECT_EQ(sampler->stride(), 4u);
  EXPECT_LE(sampler->snapshots().size(),
            telemetry::TelemetrySampler::kMaxSnapshots);
  for (const auto& s : sampler->snapshots())
    EXPECT_EQ(s.round % sampler->stride(), 0u)
        << "round " << s.round << " stride " << sampler->stride();
}

TEST_F(TelemetryTest, RingSurvivesThousandsOfWavesWithExactAlignment) {
  // Long-haul decimation, driven through the wave entry point the serve
  // runtime uses: 65,600 waves through the 512-slot ring must double the
  // stride at waves 512, 1024, ..., 65536 — eight doublings to 256 — and
  // end with exactly the 256 aligned survivors {256, 512, ..., 65536},
  // every slot j holding wave (j+1)*stride. All of it a pure function of
  // the wave count.
  auto scope = metrics::Registry::instance().scope("t/longring");
  metrics::RegistryAttachment attach(scope);
  telemetry::TelemetrySampler sampler(scope);
  constexpr std::size_t kWaves = 65600;
  for (std::size_t w = 0; w < kWaves; ++w) {
    scope->counter("server.waves").add();
    sampler.sample_wave();
    // The bound holds at every wave, not just at the end.
    ASSERT_LT(sampler.snapshots().size(),
              telemetry::TelemetrySampler::kMaxSnapshots);
  }
  EXPECT_EQ(sampler.rounds_seen(), kWaves);
  EXPECT_EQ(sampler.stride(), 256u);
  ASSERT_EQ(sampler.snapshots().size(), 256u);
  for (std::size_t j = 0; j < sampler.snapshots().size(); ++j) {
    const auto& s = sampler.snapshots()[j];
    EXPECT_EQ(s.round, (j + 1) * sampler.stride());
    // Decimation dropped rounds, never counter history: slot j's counter
    // value is exactly its round count.
    std::uint64_t waves_at_snapshot = 0;
    for (const auto& [name, value] : s.counters)
      if (name == "server.waves") waves_at_snapshot = value;
    EXPECT_EQ(waves_at_snapshot, s.round);
  }
  // The exported series carries the effective stride for consumers.
  const json::Value doc = sampler.deterministic_json();
  ASSERT_NE(doc.find("stride"), nullptr);
  EXPECT_EQ(doc.find("stride")->as_double(), 256.0);
}

TEST_F(TelemetryTest, DeterministicCounterAllowlist) {
  EXPECT_TRUE(telemetry::deterministic_counter("net.alloc.bytes"));
  EXPECT_TRUE(telemetry::deterministic_counter("vss.alloc.count"));
  EXPECT_TRUE(telemetry::deterministic_counter("anonchan.runs"));
  EXPECT_TRUE(telemetry::deterministic_counter("pseudosig.broadcasts"));
  // Scheduling-dependent process caches stay out.
  EXPECT_FALSE(telemetry::deterministic_counter("math.lagrange_cache.hit"));
  EXPECT_FALSE(telemetry::deterministic_counter("ff.kernel.pclmul"));
}

// --- Prometheus exposition -------------------------------------------------

TEST_F(TelemetryTest, PrometheusExpositionParsesAsTextFormat) {
  auto scope = metrics::Registry::instance().scope("t/prom");
  metrics::RegistryAttachment attach(scope);
  net::Network net(4, 6);
  auto sampler = std::make_shared<telemetry::TelemetrySampler>(
      net.registry_shared());
  net.attach_observer(sampler);
  net.begin_round();
  net.send(0, 1, pay(9));
  net.broadcast(1, pay(2));
  net.end_round();
  const std::string text = sampler->prometheus();
  ASSERT_FALSE(text.empty());

  // Golden-format walk: every line is "# HELP <name> <text>",
  // "# TYPE <name> <kind>", or "<name>[{labels}] <value>"; names are
  // gfor14_-prefixed and sanitized; every # TYPE is preceded by its # HELP
  // and every sample line's metric was typed beforehand.
  std::vector<std::string> typed;
  std::vector<std::string> helped;
  std::size_t samples = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ASSERT_FALSE(line.empty());
    if (line.rfind("# HELP ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      helped.push_back(line.substr(7, sp - 7));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t sp = line.find(' ', 7);
      ASSERT_NE(sp, std::string::npos) << line;
      const std::string name = line.substr(7, sp - 7);
      const std::string kind = line.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "summary" ||
                  kind == "histogram")
          << line;
      EXPECT_NE(std::find(helped.begin(), helped.end(), name), helped.end())
          << "# TYPE before # HELP: " << line;
      typed.push_back(name);
      continue;
    }
    // Sample line: name up to '{' or ' '.
    const std::size_t brk = line.find_first_of("{ ");
    ASSERT_NE(brk, std::string::npos) << line;
    std::string name = line.substr(0, brk);
    EXPECT_EQ(name.rfind("gfor14_", 0), 0u) << line;
    for (char c : name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
          << line;
    // Histogram/summary series append _sum/_count/_bucket to a typed name.
    for (const char* suffix : {"_sum", "_count", "_bucket"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string base = name.substr(0, name.size() - s.size());
        if (std::find(typed.begin(), typed.end(), base) != typed.end())
          name = base;
      }
    }
    EXPECT_NE(std::find(typed.begin(), typed.end(), name), typed.end())
        << "sample before # TYPE: " << line;
    // Value parses as a double.
    const std::size_t vsp = line.rfind(' ');
    char* end = nullptr;
    std::strtod(line.c_str() + vsp + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
  EXPECT_NE(text.find("# HELP gfor14_net_alloc_bytes"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gfor14_net_alloc_bytes counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gfor14_process_rss_bytes gauge"),
            std::string::npos);
  // The round-wall distribution renders as a true histogram with cumulative
  // buckets and a closing +Inf bucket.
  EXPECT_NE(text.find("# TYPE gfor14_net_round_wall_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("gfor14_net_round_wall_us_bucket{le=\"+Inf\""),
            std::string::npos);
}

// --- audit top rendering ---------------------------------------------------

TEST_F(TelemetryTest, RenderTopShowsCountersAndRates) {
  auto scope = metrics::Registry::instance().scope("t/top");
  metrics::RegistryAttachment attach(scope);
  net::Network net(4, 7);
  auto sampler = std::make_shared<telemetry::TelemetrySampler>(
      net.registry_shared());
  net.attach_observer(sampler);
  for (int r = 0; r < 3; ++r) {
    net.begin_round();
    net.send(0, 1, pay(4));
    net.end_round();
  }
  const std::string view = audit::render_top(sampler->to_json());
  EXPECT_NE(view.find("3 snapshots"), std::string::npos) << view;
  EXPECT_NE(view.find("net.alloc.bytes"), std::string::npos);
  EXPECT_NE(view.find("per-round"), std::string::npos);
  EXPECT_NE(view.find("peak rss"), std::string::npos);
}

// --- bench-diff gates and schema tolerance ---------------------------------

json::Value artifact_with(double schema, double per_sec, double alloc_bytes,
                          double wall_ms, bool extra_field = false) {
  json::Value row = json::Value::object();
  row.set("p2p_elements_per_sec", per_sec);
  json::Value alloc = json::Value::object();
  alloc.set("bytes", alloc_bytes);
  json::Value netobj = json::Value::object();
  netobj.set("alloc", std::move(alloc));
  row.set("net", std::move(netobj));
  row.set("wall_ms", wall_ms);
  if (extra_field) row.set("schema3_only_field", 1.0);
  json::Value doc = json::Value::object();
  doc.set("experiment", "E8_scaling");
  doc.set("schema", schema);
  json::Value rows = json::Value::array();
  rows.push_back(std::move(row));
  doc.set("rows", std::move(rows));
  return doc;
}

TEST_F(TelemetryTest, GateBlocksOnThroughputDropBeyondThreshold) {
  const json::Value base = artifact_with(3, 1000.0, 5000.0, 10.0);
  // 20% throughput drop: higher-is-better, so this is a regression.
  const json::Value cand = artifact_with(3, 800.0, 5000.0, 10.0);
  const std::vector<audit::GateSpec> gates = {
      {"p2p_elements_per_sec", 0.15}, {"net.alloc.bytes", 0.25}};
  const auto r = audit::bench_diff(base, cand, 0.5, gates);
  EXPECT_TRUE(r.has_regression());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_TRUE(r.deltas[0].gated);
  EXPECT_TRUE(r.deltas[0].higher_is_better);
  EXPECT_TRUE(r.deltas[0].regression());
  EXPECT_NE(r.format().find("GATE REGRESSION"), std::string::npos);
}

TEST_F(TelemetryTest, ThroughputIncreaseIsAnImprovementNotARegression) {
  const json::Value base = artifact_with(3, 1000.0, 5000.0, 10.0);
  const json::Value cand = artifact_with(3, 1300.0, 5000.0, 10.0);
  const std::vector<audit::GateSpec> gates = {{"p2p_elements_per_sec", 0.15}};
  const auto r = audit::bench_diff(base, cand, 0.5, gates);
  EXPECT_FALSE(r.has_regression());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_FALSE(r.deltas[0].regression());
}

TEST_F(TelemetryTest, GateMatchesDottedSuffixAndBlocksAllocGrowth) {
  const json::Value base = artifact_with(3, 1000.0, 5000.0, 10.0);
  // +30% logical alloc bytes: over the 25% gate ("net.alloc.bytes" matches
  // the nested dotted key), while the 50% default would have let it pass.
  const json::Value cand = artifact_with(3, 1000.0, 6500.0, 10.0);
  const std::vector<audit::GateSpec> gates = {{"net.alloc.bytes", 0.25}};
  const auto r = audit::bench_diff(base, cand, 0.5, gates);
  EXPECT_TRUE(r.has_regression());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].key, "net.alloc.bytes");
}

TEST_F(TelemetryTest, UngatedNoiseDoesNotBlockWhenGatesAreActive) {
  const json::Value base = artifact_with(3, 1000.0, 5000.0, 10.0);
  // Wall-clock doubled (noisy machine), gated keys unchanged: the delta is
  // reported but the exit-code signal stays clean.
  const json::Value cand = artifact_with(3, 1000.0, 5000.0, 20.0);
  const std::vector<audit::GateSpec> gates = {
      {"p2p_elements_per_sec", 0.15}, {"net.alloc.bytes", 0.25}};
  const auto r = audit::bench_diff(base, cand, 0.2, gates);
  EXPECT_FALSE(r.has_regression());
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_FALSE(r.deltas[0].gated);
  // Without gates the same delta would block.
  const auto ungated = audit::bench_diff(base, cand, 0.2);
  EXPECT_TRUE(ungated.has_regression());
}

TEST_F(TelemetryTest, MismatchedSchemasDiffIntersectionWithOneNote) {
  const json::Value base = artifact_with(2, 1000.0, 5000.0, 10.0);
  const json::Value cand = artifact_with(3, 1000.0, 5000.0, 10.0, true);
  const auto r = audit::bench_diff(base, cand, 0.2);
  EXPECT_FALSE(r.has_regression());
  ASSERT_EQ(r.notes.size(), 1u) << r.format();
  EXPECT_NE(r.notes[0].find("schema versions differ"), std::string::npos);
  EXPECT_NE(r.notes[0].find("schema3_only_field"), std::string::npos);
  EXPECT_GT(r.fields_compared, 0u);
  // Same schema on both sides: the missing field is a loud per-row note.
  const json::Value cand_same = artifact_with(2, 1000.0, 5000.0, 10.0, true);
  const auto strict = audit::bench_diff(base, cand_same, 0.2);
  ASSERT_EQ(strict.notes.size(), 1u);
  EXPECT_NE(strict.notes[0].find("missing from baseline"), std::string::npos);
}

TEST_F(TelemetryTest, ResetForTestKeepsCachedHandlesValid) {
  metrics::Counter& c = metrics::Registry::instance().counter("t.reset.keep");
  c.add(41);
  metrics::Registry::reset_for_test();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed — cached handles survive
  c.add(1);
  EXPECT_EQ(metrics::Registry::instance().counter("t.reset.keep").value(), 1u);
}

}  // namespace
}  // namespace gfor14
