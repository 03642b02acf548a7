#include "net/failure.hpp"

namespace gfor14::net {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kRoundLimit: return "round_limit";
    case FailureKind::kInjectedCrash: return "injected_crash";
    case FailureKind::kProtocolError: return "protocol_error";
    case FailureKind::kContractViolation: return "contract_violation";
    case FailureKind::kDeliveryShortfall: return "delivery_shortfall";
    case FailureKind::kUnknownException: return "unknown_exception";
  }
  return "unknown_exception";
}

FailureKind classify_failure(const std::exception& e) {
  if (dynamic_cast<const RoundLimitExceeded*>(&e) != nullptr)
    return FailureKind::kRoundLimit;
  if (dynamic_cast<const InjectedCrash*>(&e) != nullptr)
    return FailureKind::kInjectedCrash;
  if (dynamic_cast<const ProtocolError*>(&e) != nullptr)
    return FailureKind::kProtocolError;
  if (dynamic_cast<const ContractViolation*>(&e) != nullptr)
    return FailureKind::kContractViolation;
  return FailureKind::kUnknownException;
}

}  // namespace gfor14::net
