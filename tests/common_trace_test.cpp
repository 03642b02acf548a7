// The observability layer: JSON model, span tracer (nesting, cost-delta
// attribution, JSONL sink) and the metrics registry.
//
// The load-bearing test here is AnonChanPhaseDeltasSumToRunTotal: the phase
// spans AnonChan::run and AnonChan::publish open must tile the execution, so
// their CostReport deltas sum exactly to the run's total — that is what
// makes per-phase breakdowns in the BENCH_*.json artifacts trustworthy.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "anonchan/anonchan.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "vss/schemes.hpp"

namespace gfor14 {
namespace {

/// Enables tracing for one test and restores the previous state.
class ScopedTracing {
 public:
  ScopedTracing() : was_(trace::Tracer::instance().enabled()) {
    trace::Tracer::instance().set_enabled(true);
    trace::Tracer::instance().reset();
  }
  ~ScopedTracing() {
    trace::Tracer::instance().set_sink_path("");
    trace::Tracer::instance().set_enabled(was_);
    trace::Tracer::instance().reset();
  }

 private:
  bool was_;
};

void expect_cost_eq(const net::CostReport& a, const net::CostReport& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.broadcast_rounds, b.broadcast_rounds);
  EXPECT_EQ(a.broadcast_invocations, b.broadcast_invocations);
  EXPECT_EQ(a.p2p_messages, b.p2p_messages);
  EXPECT_EQ(a.p2p_elements, b.p2p_elements);
  EXPECT_EQ(a.broadcast_elements, b.broadcast_elements);
}

TEST(Json, DumpParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc.set("name", "anonchan.run");
  doc.set("count", std::size_t{42});
  doc.set("ratio", 0.125);
  doc.set("flag", true);
  doc.set("nothing", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(std::size_t{1});
  arr.push_back("two");
  json::Value nested = json::Value::object();
  nested.set("k", std::size_t{3});
  arr.push_back(std::move(nested));
  doc.set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    auto parsed = json::Value::parse(doc.dump(indent));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == doc);
  }
}

TEST(Json, StringEscaping) {
  json::Value doc = json::Value::object();
  doc.set("s", std::string("quote\" backslash\\ newline\n tab\t ctrl\x01"));
  auto parsed = json::Value::parse(doc.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(*parsed == doc);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(json::Value::parse("{").has_value());
  EXPECT_FALSE(json::Value::parse("[1,]").has_value());
  EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::Value::parse("nul").has_value());
  EXPECT_FALSE(json::Value::parse("\"unterminated").has_value());
  EXPECT_TRUE(json::Value::parse("  [1, 2.5, -3e2]  ").has_value());
}

TEST(Json, AsCountAcceptsOnlyExactNonNegativeIntegers) {
  EXPECT_EQ(json::Value(0).as_count(), 0u);
  EXPECT_EQ(json::Value(std::size_t{42}).as_count(), 42u);
  EXPECT_EQ(json::Value(0x1p53).as_count(), std::uint64_t{1} << 53);
  for (const double bad : {-1.0, -0.5, 2.5, 0x1p53 + 2, 1e300, -1e300})
    EXPECT_FALSE(json::Value(bad).as_count().has_value()) << bad;
  EXPECT_FALSE(json::Value("7").as_count().has_value());
  EXPECT_FALSE(json::Value().as_count().has_value());
}

TEST(Json, DeepNestingFailsCleanly) {
  // ~100k unclosed (or closed) brackets used to recurse once per level and
  // overflow the stack; past the depth limit parse returns nullopt.
  const std::size_t deep = 100000;
  EXPECT_FALSE(json::Value::parse(std::string(deep, '[')).has_value());
  EXPECT_FALSE(json::Value::parse(std::string(deep, '[') +
                                  std::string(deep, ']'))
                   .has_value());
  std::string objects;
  for (std::size_t i = 0; i < deep; ++i) objects += "{\"a\":";
  EXPECT_FALSE(json::Value::parse(objects).has_value());
  // Nesting within the limit still parses.
  const auto ok =
      json::Value::parse(std::string(200, '[') + std::string(200, ']'));
  EXPECT_TRUE(ok.has_value());
}

TEST(Json, DuplicateKeysAreRejected) {
  EXPECT_FALSE(json::Value::parse("{\"a\":1,\"a\":2}").has_value());
  EXPECT_FALSE(
      json::Value::parse("{\"a\":1,\"b\":{\"c\":true,\"c\":false}}")
          .has_value());
  EXPECT_FALSE(
      json::Value::parse("[{\"x\":[],\"y\":0,\"x\":[]}]").has_value());
  // The same key in sibling objects is fine.
  EXPECT_TRUE(
      json::Value::parse("[{\"a\":1},{\"a\":2},{\"b\":{\"a\":3}}]")
          .has_value());
}

TEST(Json, CommittedBenchBaselinesParse) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(GFOR14_BASELINES_DIR)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().string());
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(json::Value::parse(text.str()).has_value());
    ++files;
  }
  EXPECT_GT(files, 0u);
}

TEST(Trace, SpanNestingBuildsTree) {
  ScopedTracing tracing;
  {
    trace::Span outer("outer");
    { trace::Span first("first"); }
    {
      trace::Span second("second");
      { trace::Span inner("inner"); }
    }
  }
  const trace::SpanNode* root = trace::Tracer::instance().last_root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "outer");
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "first");
  EXPECT_EQ(root->children[1]->name, "second");
  ASSERT_NE(root->child("second"), nullptr);
  EXPECT_NE(root->child("second")->child("inner"), nullptr);
  EXPECT_EQ(root->child("absent"), nullptr);
}

TEST(Trace, DisabledSpansRecordNothing) {
  trace::Tracer::instance().set_enabled(false);
  trace::Tracer::instance().reset();
  {
    trace::Span span("ghost");
    span.metric("x", 1.0);
  }
  EXPECT_EQ(trace::Tracer::instance().last_root(), nullptr);
}

TEST(Trace, CostDeltasAttributeToOpenSpans) {
  ScopedTracing tracing;
  net::Network net(3, 7);
  auto one_round = [&](std::size_t elements) {
    net.begin_round();
    net.send(0, 1, net::Payload(elements, Fld::from_u64(9)));
    net.end_round();
  };
  {
    trace::Span root("root", net);
    { trace::Span a("a"); one_round(3); }
    { trace::Span b("b"); one_round(5); net.begin_round(); net.broadcast(2, {Fld::one()}); net.end_round(); }
  }
  const trace::SpanNode* root = trace::Tracer::instance().last_root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->costs.rounds, 3u);
  EXPECT_EQ(root->costs.p2p_elements, 8u);
  EXPECT_EQ(root->costs.broadcast_rounds, 1u);
  EXPECT_EQ(root->child("a")->costs.p2p_elements, 3u);
  EXPECT_EQ(root->child("b")->costs.p2p_elements, 5u);
  EXPECT_EQ(root->child("b")->costs.broadcast_invocations, 1u);
  expect_cost_eq(root->children_costs(), root->costs);
}

/// The last finished root span is `name`, its children are exactly
/// `phases` in order, and their cost deltas sum to the root's, which equals
/// the run's own differential report `costs`.
const trace::SpanNode* expect_phases_tile(
    const std::string& name, const std::vector<std::string>& phases,
    const net::CostReport& costs) {
  const trace::SpanNode* root = trace::Tracer::instance().last_root();
  EXPECT_NE(root, nullptr);
  if (root == nullptr) return nullptr;
  EXPECT_EQ(root->name, name);
  expect_cost_eq(root->costs, costs);
  EXPECT_EQ(root->children.size(), phases.size());
  for (std::size_t i = 0; i < phases.size() && i < root->children.size(); ++i)
    EXPECT_EQ(root->children[i]->name, phases[i]);
  expect_cost_eq(root->children_costs(), root->costs);
  return root;
}

// Acceptance criterion of the observability layer: AnonChan's phase spans
// tile the run, so per-phase deltas sum EXACTLY to the run's CostReport —
// for the private channel and for publication, which share steps 1-3.
TEST(Trace, AnonChanPhaseDeltasSumToRunTotal) {
  ScopedTracing tracing;
  net::Network net(4, 2014);
  auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
  anonchan::AnonChan chan(net, *vss, anonchan::Params::light(4));
  std::vector<Fld> inputs;
  for (std::size_t i = 0; i < 4; ++i) inputs.push_back(Fld::from_u64(50 + i));

  const auto out = chan.run(1, inputs);
  const trace::SpanNode* root = expect_phases_tile(
      "anonchan.run",
      {"commit", "challenge", "cut_and_choose.open", "cut_and_choose.check",
       "deliver.permutations", "deliver.private"},
      out.costs);
  ASSERT_NE(root, nullptr);
  // The sharing phase carries the VSS sharing; delivery carries the private
  // reconstruction round.
  EXPECT_NE(root->child("commit")->child("vss.share_all"), nullptr);
  EXPECT_NE(root->child("deliver.private")->child("vss.reconstruct_private"),
            nullptr);
  EXPECT_EQ(root->child("deliver.private")->costs.broadcast_rounds, 0u);

  const auto published = chan.publish(inputs);
  root = expect_phases_tile(
      "anonchan.publish",
      {"commit", "challenge", "cut_and_choose.open", "cut_and_choose.check",
       "deliver.public"},
      published.costs);
  ASSERT_NE(root, nullptr);
  EXPECT_NE(root->child("commit")->child("vss.share_all"), nullptr);
  EXPECT_EQ(root->child("deliver.public")->costs.rounds, 1u);
  EXPECT_EQ(published.costs.rounds, vss->share_rounds() + 4);
}

TEST(Trace, JsonlSinkEmitsOneParsableLinePerSpan) {
  ScopedTracing tracing;
  const std::string path = ::testing::TempDir() + "gfor14_trace_test.jsonl";
  ASSERT_TRUE(trace::Tracer::instance().set_sink_path(path));
  net::Network net(2, 3);
  {
    trace::Span root("root", net);
    trace::Span child("child");
    net.begin_round();
    net.send(0, 1, {Fld::one()});
    net.end_round();
  }
  trace::Tracer::instance().set_sink_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<json::Value> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = json::Value::parse(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    lines.push_back(std::move(*parsed));
  }
  ASSERT_EQ(lines.size(), 2u);  // children close first
  EXPECT_EQ(lines[0].find("span")->as_string(), "root/child");
  EXPECT_EQ(lines[1].find("span")->as_string(), "root");
  EXPECT_EQ(lines[1].find("costs")->find("rounds")->as_count(), 1u);
  std::remove(path.c_str());
}

TEST(Trace, FlushMakesBufferedSinkLinesVisibleWhileSinkStaysOpen) {
  // Span lines are buffered in the sink stream and only hit the file at the
  // explicit flush points (flush(), set_sink_path swap/teardown). A process
  // that exits abnormally between flushes may lose buffered lines — which
  // is why the CLI and the bench harness call flush() before reporting.
  ScopedTracing tracing;
  const std::string path = ::testing::TempDir() + "gfor14_trace_flush.jsonl";
  ASSERT_TRUE(trace::Tracer::instance().set_sink_path(path));
  { trace::Span span("flushed"); }
  trace::Tracer::instance().flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const auto parsed = json::Value::parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->find("span")->as_string(), "flushed");

  // The sink is still attached and usable after the flush.
  { trace::Span span("after"); }
  trace::Tracer::instance().set_sink_path("");
  std::ifstream again(path);
  std::vector<std::string> lines;
  while (std::getline(again, line))
    if (!line.empty()) lines.push_back(line);
  EXPECT_EQ(lines.size(), 2u);
  std::remove(path.c_str());
}

TEST(Trace, SpanToJsonCarriesCostsAndMetrics) {
  ScopedTracing tracing;
  {
    trace::Span span("phase");
    span.metric("n", 4.0);
  }
  const trace::SpanNode* root = trace::Tracer::instance().last_root();
  ASSERT_NE(root, nullptr);
  const json::Value doc = root->to_json();
  EXPECT_EQ(doc.find("name")->as_string(), "phase");
  EXPECT_EQ(doc.find("metrics")->find("n")->as_double(), 4.0);
  EXPECT_EQ(doc.find("costs")->find("rounds")->as_count(), 0u);
}

TEST(Metrics, RegistryHandlesAreStableAndAccumulate) {
  auto& reg = metrics::Registry::instance();
  auto& c = reg.counter("test.counter");
  const auto base = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("test.counter").value(), base + 5);
  EXPECT_EQ(&reg.counter("test.counter"), &c);

  reg.gauge("test.gauge").set(2.5);
  EXPECT_EQ(reg.gauge("test.gauge").value(), 2.5);

  auto& h = reg.histogram("test.histogram");
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_EQ(h.summary().count(), 2u);
  EXPECT_DOUBLE_EQ(h.summary().mean(), 2.0);
}

TEST(Metrics, JsonExportRoundTrips) {
  auto& reg = metrics::Registry::instance();
  reg.counter("test.export.counter").add(7);
  reg.gauge("test.export.gauge").set(0.75);
  auto& h = reg.histogram("test.export.hist");
  h.observe(10.0);
  h.observe(20.0);

  const std::string text = reg.to_json().dump(2);
  auto parsed = json::Value::parse(text);
  ASSERT_TRUE(parsed.has_value());
  const json::Value* counters = parsed->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->find("test.export.counter")->as_count(), 7u);
  EXPECT_EQ(parsed->find("gauges")->find("test.export.gauge")->as_double(),
            0.75);
  const json::Value* hist = parsed->find("histograms")->find("test.export.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_count(), 2u);
  EXPECT_DOUBLE_EQ(hist->find("mean")->as_double(), 15.0);
  EXPECT_EQ(hist->find("min")->as_double(), 10.0);
  EXPECT_EQ(hist->find("max")->as_double(), 20.0);

  // write_json produces the same parsable document on disk.
  const std::string path = ::testing::TempDir() + "gfor14_metrics_test.json";
  ASSERT_TRUE(reg.write_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto reparsed = json::Value::parse(buf.str());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(*reparsed == *parsed);
  std::remove(path.c_str());
}

TEST(Metrics, NetworkFeedsProcessWideCounters) {
  auto& reg = metrics::Registry::instance();
  const auto rounds_before = reg.counter("net.rounds").value();
  const auto elements_before = reg.counter("net.p2p_elements").value();
  net::Network net(2, 5);
  net.begin_round();
  net.send(0, 1, {Fld::one(), Fld::one()});
  net.end_round();
  EXPECT_EQ(reg.counter("net.rounds").value(), rounds_before + 1);
  EXPECT_EQ(reg.counter("net.p2p_elements").value(), elements_before + 2);
}

}  // namespace
}  // namespace gfor14
