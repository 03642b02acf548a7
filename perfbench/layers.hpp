// Outside-in layer timing for the end-to-end benchmark.
//
// Every layer is timed through a public interface the benchmark wraps
// itself, so the library under test is measured exactly as shipped:
//   * TimedVss      — a forwarding vss::VssScheme handed to AnonChan;
//   * TimedObserver — a forwarding net::RoundObserver around the Recorder;
//   * BarrierClock  — a net::RoundObserver that reads the clock at every
//                     round barrier (per-round wall times).
// The recorder runs inside the VSS calls (end_round fires during share_all
// and the reconstructions), so VSS self time excludes the recorder time that
// accrued while it was open. All wrappers run on the orchestrating thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "vss/vss.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Layer self times and call counts of one traced operation.
struct LayerTimes {
  double share_all_ms = 0.0;
  double reconstruct_public_ms = 0.0;
  double reconstruct_private_ms = 0.0;
  double recorder_ms = 0.0;
  std::size_t reconstruct_public_calls = 0;
  std::size_t reconstruct_public_values = 0;
  std::vector<double> round_wall_ms;

  double vss_ms() const {
    return share_all_ms + reconstruct_public_ms + reconstruct_private_ms;
  }
};

class TimedVss final : public gfor14::vss::VssScheme {
 public:
  TimedVss(std::unique_ptr<gfor14::vss::VssScheme> inner, LayerTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  std::size_t n() const override { return inner_->n(); }
  std::size_t t() const override { return inner_->t(); }
  const char* name() const override { return inner_->name(); }
  void set_dealer_behaviour(gfor14::net::PartyId dealer,
                            gfor14::vss::DealerBehaviour b) override {
    inner_->set_dealer_behaviour(dealer, b);
  }
  void set_false_complaints(bool enabled) override {
    inner_->set_false_complaints(enabled);
  }
  std::size_t count(gfor14::net::PartyId dealer) const override {
    return inner_->count(dealer);
  }
  gfor14::Fld committed_value(const gfor14::vss::LinComb& v) const override {
    return inner_->committed_value(v);
  }
  std::size_t share_rounds() const override { return inner_->share_rounds(); }
  std::size_t share_broadcast_rounds() const override {
    return inner_->share_broadcast_rounds();
  }

  gfor14::vss::ShareResult share_all(
      const std::vector<std::vector<gfor14::Fld>>& batches) override {
    return timed(times_.share_all_ms,
                 [&] { return inner_->share_all(batches); });
  }
  std::vector<gfor14::Fld> reconstruct_public(
      const std::vector<gfor14::vss::LinComb>& values) override {
    ++times_.reconstruct_public_calls;
    times_.reconstruct_public_values += values.size();
    return timed(times_.reconstruct_public_ms,
                 [&] { return inner_->reconstruct_public(values); });
  }
  std::vector<gfor14::Fld> reconstruct_private(
      gfor14::net::PartyId receiver,
      const std::vector<gfor14::vss::LinComb>& values) override {
    return timed(times_.reconstruct_private_ms, [&] {
      return inner_->reconstruct_private(receiver, values);
    });
  }
  std::vector<std::vector<gfor14::Fld>> reconstruct_private_multi(
      const std::vector<PrivateRequest>& requests) override {
    return timed(times_.reconstruct_private_ms, [&] {
      return inner_->reconstruct_private_multi(requests);
    });
  }

 private:
  /// Runs f, charging its wall time minus nested recorder time to `slot`.
  template <class F>
  std::invoke_result_t<F&> timed(double& slot, F&& f) {
    const double recorder_before = times_.recorder_ms;
    const auto t0 = Clock::now();
    auto result = f();
    slot += ms_between(t0, Clock::now()) -
            (times_.recorder_ms - recorder_before);
    return result;
  }

  std::unique_ptr<gfor14::vss::VssScheme> inner_;
  LayerTimes& times_;
};

/// Forwards every barrier to `inner`, charging the time it takes to `ms`.
class TimedObserver final : public gfor14::net::RoundObserver {
 public:
  TimedObserver(std::shared_ptr<gfor14::net::RoundObserver> inner, double& ms)
      : inner_(std::move(inner)), ms_(ms) {}

  void on_round_end(const gfor14::net::Network& net,
                    const gfor14::net::CostReport& delta) override {
    const auto t0 = Clock::now();
    inner_->on_round_end(net, delta);
    ms_ += ms_between(t0, Clock::now());
  }

 private:
  std::shared_ptr<gfor14::net::RoundObserver> inner_;
  double& ms_;
};

/// Appends the wall time since the previous barrier (or since construction)
/// at every round barrier.
class BarrierClock final : public gfor14::net::RoundObserver {
 public:
  explicit BarrierClock(std::vector<double>& round_ms)
      : round_ms_(round_ms), last_(Clock::now()) {}

  void on_round_end(const gfor14::net::Network&,
                    const gfor14::net::CostReport&) override {
    const auto now = Clock::now();
    round_ms_.push_back(ms_between(last_, now));
    last_ = now;
  }

 private:
  std::vector<double>& round_ms_;
  Clock::time_point last_;
};

}  // namespace perfbench
