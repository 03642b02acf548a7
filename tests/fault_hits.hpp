// A faulty-run test is vacuous when its fault plan injects nothing: a spec
// aimed at a round in which the targeted party sends nothing is logged
// with messages_hit == 0 and leaves the transcript untouched. Every test
// that claims a faulty run checks its plan with every_fault_hit(), so a
// protocol change that empties a targeted round fails loudly instead.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/faultplan.hpp"
#include "net/recorder.hpp"

namespace gfor14::testutil {

/// Passes iff every spec of `plan` was logged and every logged event hit at
/// least one message. A crash spec is matched by party (its events carry
/// the round they silenced); any other spec by its exact coordinates.
inline ::testing::AssertionResult every_fault_hit(
    const net::FaultPlan& plan, const std::vector<net::FaultEvent>& events) {
  for (const net::FaultEvent& e : events)
    if (e.messages_hit == 0)
      return ::testing::AssertionFailure()
             << net::fault_kind_name(e.spec.kind) << " from P" << e.spec.from
             << " at round " << e.round << " hit no message";
  for (const net::FaultSpec& spec : plan.specs) {
    bool logged = false;
    for (const net::FaultEvent& e : events)
      logged = logged || (spec.kind == net::FaultKind::kCrash
                              ? e.spec.kind == spec.kind &&
                                    e.spec.from == spec.from
                              : e.spec == spec);
    if (!logged)
      return ::testing::AssertionFailure()
             << net::fault_kind_name(spec.kind) << " from P" << spec.from
             << " at round " << spec.round << " never fired";
  }
  return ::testing::AssertionSuccess();
}

/// The same check over the fault log of a recording.
inline ::testing::AssertionResult every_fault_hit(const net::FaultPlan& plan,
                                                  const net::Recording& rec) {
  std::vector<net::FaultEvent> events;
  for (const auto& round : rec.rounds)
    events.insert(events.end(), round.faults.begin(), round.faults.end());
  return every_fault_hit(plan, events);
}

/// The faulty-run plan of the recorder, profiler and session suites, for
/// any scheme at n >= 4 with party 0 corrupt: corrupted and truncated R1
/// slices and a dropped R2 check word, all in rounds that carry party 0's
/// traffic.
inline net::FaultPlan party0_faults() {
  net::FaultPlan plan;
  plan.corrupt_element(0, 0, net::kAllReceivers, 2)
      .truncate(0, 0, 2, 1)
      .drop(1, 0, 3);
  return plan;
}

}  // namespace gfor14::testutil
