// Histogram quantile estimation and registry export (common/metrics.hpp).
//
// The Histogram keeps a bounded decimating sample next to its Welford
// summary so the JSON export can report p50/p95 without unbounded memory.
// These tests pin the quantile math on known distributions, the export
// schema, the decimation bound, thread safety of observe() from worker
// lanes, and the net.round_wall_us histogram the network feeds from its
// one round clock in end_round.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "net/network.hpp"
#include "net/recorder.hpp"

namespace gfor14 {
namespace {

TEST(Histogram, QuantilesOnKnownDistribution) {
  metrics::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  // All 1000 observations fit in the sample buffer: quantiles are exact
  // (up to interpolation) order statistics of 1..1000.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  EXPECT_NEAR(h.quantile(0.5), 500.5, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 1.5);
  EXPECT_EQ(h.summary().count(), 1000u);
}

TEST(Histogram, QuantileBeforeAnyObservationIsZero) {
  metrics::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, DecimationBoundsMemoryButKeepsAccuracy) {
  // 100k observations decimate several times; the systematic subsample
  // still estimates quantiles of the uniform stream closely.
  metrics::Histogram h;
  const std::size_t kN = 100000;
  for (std::size_t i = 1; i <= kN; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.summary().count(), kN);
  EXPECT_NEAR(h.quantile(0.5), 50000.0, 2500.0);
  EXPECT_NEAR(h.quantile(0.95), 95000.0, 2500.0);
}

TEST(Histogram, ResetClearsSampleState) {
  metrics::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1000.0);
  h.reset();
  EXPECT_EQ(h.summary().count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.observe(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.0);
}

// Tests below touch the process-wide registry; start each from a zeroed
// state (values reset, cached handles stay valid, scopes detached).
class MetricsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics::Registry::reset_for_test(); }
};

TEST_F(MetricsRegistryTest, RegistryJsonExportCarriesQuantiles) {
  auto& h = metrics::Registry::instance().histogram("test.export_hist");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const json::Value doc = metrics::Registry::instance().to_json();
  const json::Value* hists = doc.find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* entry = hists->find("test.export_hist");
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->find("count"), nullptr);
  EXPECT_DOUBLE_EQ(entry->find("count")->as_double(), 100.0);
  ASSERT_NE(entry->find("p50"), nullptr);
  ASSERT_NE(entry->find("p95"), nullptr);
  EXPECT_NEAR(entry->find("p50")->as_double(), 50.5, 1.0);
  EXPECT_NEAR(entry->find("p95")->as_double(), 95.0, 1.5);
  EXPECT_DOUBLE_EQ(entry->find("min")->as_double(), 1.0);
  EXPECT_DOUBLE_EQ(entry->find("max")->as_double(), 100.0);
  h.reset();
}

TEST(Histogram, ConcurrentObserveFromWorkerLanes) {
  // observe() serializes under the histogram mutex; hammer it from the
  // same pool the round engine uses and check nothing is lost.
  metrics::Histogram h;
  constexpr std::size_t kPerLane = 5000;
  constexpr std::size_t kLanes = 8;
  ThreadPool::instance().parallel_for(0, kLanes, kLanes, [&](std::size_t lane) {
    for (std::size_t i = 0; i < kPerLane; ++i)
      h.observe(static_cast<double>(lane * kPerLane + i));
  });
  EXPECT_EQ(h.summary().count(), kLanes * kPerLane);
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, static_cast<double>(kLanes * kPerLane));
}

/// Captures the network's round-clock reading at every barrier.
struct WallProbe : net::RoundObserver {
  std::vector<double> walls;
  void on_round_end(const net::Network& net, const net::CostReport&) override {
    walls.push_back(net.last_round_wall_us());
  }
};

TEST_F(MetricsRegistryTest, NetworkRunRoundFeedsRoundWallHistogram) {
  auto& h = metrics::Registry::instance().histogram("net.round_wall_us");
  const std::uint64_t before = h.summary().count();
  ASSERT_EQ(before, 0u);  // SetUp reset the registry
  net::Network net(4, 2014);
  auto recorder =
      std::make_shared<net::Recorder>(net::Recorder::Options::profile());
  auto probe = std::make_shared<WallProbe>();
  net.attach_observer(recorder);
  net.attach_observer(probe);
  net.run_round([](net::PartyId p, net::RoundLane& lane) {
    lane.send((p + 1) % 4, {Fld::from_u64(p)});
  });
  net.run_round([](net::PartyId p, net::RoundLane& lane) {
    lane.broadcast({Fld::from_u64(p)});
  });
  // A round driven by hand rather than through run_round is timed too.
  net.begin_round();
  net.send(0, 1, {Fld::from_u64(7)});
  net.end_round();
  EXPECT_EQ(h.summary().count() - before, net.costs().rounds);
  // Wall times are nonnegative microseconds.
  EXPECT_GE(h.summary().min(), 0.0);

  // The recorder carries the network's samples, not a clock of its own:
  // every RoundProfile::wall_us is the reading end_round observed into the
  // histogram for that round.
  const net::Recording& rec = recorder->recording();
  ASSERT_EQ(rec.rounds.size(), net.costs().rounds);
  ASSERT_EQ(probe->walls.size(), rec.rounds.size());
  for (std::size_t r = 0; r < rec.rounds.size(); ++r)
    EXPECT_EQ(rec.rounds[r].profile.wall_us, probe->walls[r]) << "round " << r;
  EXPECT_EQ(h.summary().min(),
            *std::min_element(probe->walls.begin(), probe->walls.end()));
  EXPECT_EQ(h.summary().max(),
            *std::max_element(probe->walls.begin(), probe->walls.end()));
  const double sum =
      std::accumulate(probe->walls.begin(), probe->walls.end(), 0.0);
  EXPECT_NEAR(h.summary().mean() * static_cast<double>(probe->walls.size()),
              sum, 1e-9 * (1.0 + sum));
}

}  // namespace
}  // namespace gfor14
