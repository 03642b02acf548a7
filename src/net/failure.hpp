// Failure taxonomy for supervised protocol execution (DESIGN.md §14).
//
// A long-lived server must turn every way a session can die into data: the
// supervisor (server/supervisor.hpp) catches whatever a protocol execution
// throws — the round watchdog's RoundLimitExceeded, protocol-layer
// ProtocolError, API-misuse ContractViolation, chaos-injected strand
// crashes — and classifies it into a FailureKind so retry policy, metrics
// and operators all speak one vocabulary. One further kind covers a failure
// that is not an exception at all: a completed run that delivered fewer
// honest messages than the policy requires.
//
// The taxonomy lives in net/ (not server/) because the network layer is
// where the throwing contracts are defined (network.hpp declares
// RoundLimitExceeded; common/expect.hpp declares ProtocolError and
// ContractViolation).
#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "common/expect.hpp"
#include "net/network.hpp"

namespace gfor14::net {

enum class FailureKind : std::uint8_t {
  kRoundLimit,         ///< RoundLimitExceeded: watchdog/round-budget overrun
  kInjectedCrash,      ///< InjectedCrash: chaos-injected strand crash
  kProtocolError,      ///< any other ProtocolError from the protocol layer
  kContractViolation,  ///< ContractViolation: API misuse / poisoned view
  kDeliveryShortfall,  ///< completed, but delivered < policy minimum
  kUnknownException,   ///< anything else derived from std::exception
};

/// Stable lower-case name ("round_limit", "injected_crash", ...).
const char* failure_kind_name(FailureKind kind);

/// Thrown by chaos injection (server::CrashInjector) to simulate a session
/// strand dying mid-run — the supervised runtime's containment story must
/// treat it exactly like any other mid-protocol death. A ProtocolError
/// subclass so un-supervised callers that already handle protocol failures
/// keep working.
class InjectedCrash : public ProtocolError {
 public:
  explicit InjectedCrash(const std::string& what) : ProtocolError(what) {}
};

/// Maps a caught exception to its taxonomy kind. Order matters: the most
/// derived network types are tested before their ProtocolError base.
FailureKind classify_failure(const std::exception& e);

}  // namespace gfor14::net
