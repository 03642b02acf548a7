#include "server/session.hpp"

#include <algorithm>
#include <chrono>

#include "common/expect.hpp"

namespace gfor14::server {

anonchan::Params SessionConfig::params() const {
  return light ? anonchan::Params::light(n)
               : anonchan::Params::practical(n, kappa);
}

std::vector<Fld> SessionConfig::effective_inputs() const {
  if (!inputs.empty()) {
    GFOR14_EXPECTS(inputs.size() == n);
    return inputs;
  }
  // Canonical pattern: a distinct non-zero message per sender, keyed by the
  // session id so no two sessions of one engine run inject equal messages;
  // the receiver contributes the zero (non-)message.
  std::vector<Fld> x(n, Fld::zero());
  const net::PartyId recv = effective_receiver();
  for (std::size_t i = 0; i < n; ++i)
    if (i != recv) x[i] = Fld::from_u64(0xE12000 + 251 * id + i);
  return x;
}

std::string SessionConfig::effective_scope_label() const {
  return scope_label.empty() ? "session/" + std::to_string(id) : scope_label;
}

SessionSeeds derive_seeds(std::uint64_t master_seed, std::uint64_t session_id,
                          std::size_t attempt) {
  // A FRESH master stream per call: forking from a long-lived master would
  // make the lineage depend on how many sessions were derived before this
  // one. Rng::fork derives the child from the full 256-bit parent state, so
  // distinct ids give pairwise-independent streams (common/rng.hpp).
  // Retries re-fork the session root by the attempt number, giving every
  // attempt an independent stream while attempt 0 stays byte-identical to
  // the original two-argument lineage.
  Rng session_root = Rng(master_seed).fork(session_id);
  if (attempt != 0) session_root = session_root.fork(attempt);
  SessionSeeds s;
  s.net_seed = session_root.next_u64();
  s.fault_seed = session_root.next_u64();
  return s;
}

std::string FailureRecord::describe() const {
  std::string s = "session " + std::to_string(session_id) + " attempt " +
                  std::to_string(attempt) + ": " +
                  net::failure_kind_name(kind) + " at round " +
                  std::to_string(failing_round);
  if (!blamed.empty()) {
    s += ", blamed {";
    for (std::size_t i = 0; i < blamed.size(); ++i)
      s += (i ? "," : "") + std::string("P") + std::to_string(blamed[i]);
    s += "}";
  }
  if (!what.empty()) s += " (" + what + ")";
  return s;
}

namespace {

json::Value recording_config(const SessionConfig& cfg,
                             const SessionSeeds& seeds, std::size_t attempt) {
  json::Value c = json::Value::object();
  c.set("command", std::string("session"));
  c.set("session_id", cfg.id);
  c.set("attempt", attempt);
  c.set("n", cfg.n);
  c.set("scheme", std::string(vss::scheme_name(cfg.scheme)));
  c.set("kappa", cfg.kappa);
  c.set("profile", std::string(cfg.light ? "light" : "practical"));
  c.set("receiver", cfg.effective_receiver());
  c.set("seed", net::hex_u64(seeds.net_seed));
  c.set("fault_seed",
        net::hex_u64(cfg.fault_seed.value_or(seeds.fault_seed)));
  c.set("fault_specs", cfg.faults.specs.size());
  return c;
}

std::size_t count_delivered(const anonchan::Output& out,
                            const std::vector<Fld>& inputs,
                            net::PartyId receiver) {
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (i != receiver && inputs[i] != Fld::zero() && out.delivered(inputs[i]))
      ++delivered;
  return delivered;
}

/// Chaos injection (DESIGN.md §14): throws net::InjectedCrash out of the
/// target round's barrier, after the recorder observed the round — so the
/// recording holds everything delivered before the strand "died".
class CrashInjector : public net::RoundObserver {
 public:
  explicit CrashInjector(std::size_t crash_round)
      : crash_round_(crash_round) {}

  void on_round_end(const net::Network&, const net::CostReport&) override {
    if (++rounds_ >= crash_round_)
      throw net::InjectedCrash("injected strand crash at round barrier " +
                               std::to_string(rounds_));
  }

 private:
  std::size_t crash_round_;
  std::size_t rounds_ = 0;
};

/// The shared execution core of run_attempt and replay_verify: builds the
/// whole per-session stack inside the given metrics attachment and runs
/// one channel invocation with `observers` attached (in order).
anonchan::Output execute(
    const SessionConfig& cfg, const SessionSeeds& seeds,
    const std::vector<std::shared_ptr<net::RoundObserver>>& observers,
    net::Network& net, std::shared_ptr<net::FaultEngine>* engine_out) {
  net.set_threads(cfg.lanes);
  if (!cfg.faults.empty()) {
    for (net::PartyId p : cfg.faults.senders())
      if (p < cfg.n) net.set_corrupt(p, true);
    auto engine = std::make_shared<net::FaultEngine>(
        cfg.faults, cfg.fault_seed.value_or(seeds.fault_seed));
    net.attach_faults(engine);
    if (engine_out != nullptr) *engine_out = std::move(engine);
  }
  for (const auto& obs : observers) net.attach_observer(obs);
  auto vss = vss::make_vss(cfg.scheme, net);
  anonchan::AnonChan chan(net, *vss, cfg.params());
  return chan.run(cfg.effective_receiver(), cfg.effective_inputs());
}

/// Collects the deterministic payload of a finished execution into a
/// SessionResult (everything except wall_ms and counters, which the caller
/// fills).
SessionResult collect_result(const SessionConfig& cfg,
                             const SessionSeeds& seeds, std::size_t attempt,
                             anonchan::Output output, net::Network& net,
                             net::Recorder& recorder,
                             const net::FaultEngine* faults) {
  SessionResult r;
  r.config = cfg;
  r.seeds = seeds;
  r.attempt = attempt;
  r.scope_name = cfg.effective_scope_label();
  r.output = std::move(output);
  r.costs = net.costs();
  r.recording = recorder.take();
  r.transcript_digest = r.recording.final_digest;
  r.blames = net.blames();
  if (faults != nullptr) r.fault_events = faults->events();
  r.messages_delivered = count_delivered(r.output, cfg.effective_inputs(),
                                         cfg.effective_receiver());
  return r;
}

/// Distinct accused parties, ascending, public blames folded in.
std::vector<net::PartyId> blame_set(const net::Network& net) {
  std::vector<net::PartyId> accused;
  for (const auto& b : net.blames()) accused.push_back(b.accused);
  std::sort(accused.begin(), accused.end());
  accused.erase(std::unique(accused.begin(), accused.end()), accused.end());
  return accused;
}

}  // namespace

SessionOutcome run_attempt(const SessionConfig& config,
                           std::uint64_t master_seed,
                           const AttemptSpec& spec) {
  GFOR14_EXPECTS(config.n >= 3);
  GFOR14_EXPECTS(config.effective_receiver() < config.n);

  // The EXECUTED config: retries run with the fault plan cleared (the
  // crashed member was replaced); the result echoes this effective config
  // so replay_verify re-executes what actually ran.
  SessionConfig cfg = config;
  if (spec.attempt > 0) {
    cfg.faults = net::FaultPlan{};
    cfg.fault_seed.reset();
  }
  const SessionSeeds seeds = derive_seeds(master_seed, cfg.id, spec.attempt);

  // The scope is looked up (or created) under the process root, reset so a
  // relaunched label starts from zero, and attached to THIS thread for the
  // whole execution: every component constructed below binds its metric
  // handles to it (metrics.hpp attribution-by-construction).
  auto scope =
      metrics::Registry::instance().scope(cfg.effective_scope_label());
  scope->reset();
  metrics::RegistryAttachment attach(scope);

  auto recorder = std::make_shared<net::Recorder>(
      net::Recorder::Options{}, recording_config(cfg, seeds, spec.attempt));
  std::vector<std::shared_ptr<net::RoundObserver>> observers = {recorder};
  if (spec.crash_at_round.has_value())
    observers.push_back(std::make_shared<CrashInjector>(*spec.crash_at_round));
  std::shared_ptr<net::FaultEngine> faults;

  SessionOutcome outcome;
  FailureRecord failure;
  failure.session_id = cfg.id;
  failure.attempt = spec.attempt;
  net::Network net(cfg.n, seeds.net_seed);
  if (spec.round_budget != 0) net.set_max_rounds(spec.round_budget);
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  try {
    auto output = execute(cfg, seeds, observers, net, &faults);
    const double wall_ms = elapsed_ms();
    SessionResult r = collect_result(cfg, seeds, spec.attempt,
                                     std::move(output), net, *recorder,
                                     faults.get());
    r.wall_ms = wall_ms;
    if (r.messages_delivered >= spec.min_delivered) {
      outcome.result = std::move(r);
    } else {
      failure.kind = net::FailureKind::kDeliveryShortfall;
      failure.what = "delivered " + std::to_string(r.messages_delivered) +
                     " < " + std::to_string(spec.min_delivered) + " required";
    }
  } catch (const std::exception& e) {
    // Containment point: the Network is still alive here, so the record
    // can carry the failing round and the blame set the session had
    // accumulated before dying.
    failure.kind = net::classify_failure(e);
    failure.what = e.what();
  }
  if (!outcome.ok()) {
    failure.failing_round = net.costs().rounds;
    failure.blamed = blame_set(net);
    failure.wall_ms = elapsed_ms();
    outcome.failure = std::move(failure);
  }

  // Roll up on BOTH paths: a failed attempt's partial traffic still belongs
  // in the process totals (it happened), and the scope must be settled
  // before a retry resets it. On success this also pushes anything charged
  // after the last round barrier, so parent totals are exact the moment the
  // session finishes.
  scope->roll_up();
  if (outcome.ok()) outcome.result->counters = scope->counters_snapshot();
  return outcome;
}

std::optional<audit::Divergence> replay_verify(const SessionResult& result,
                                               std::uint64_t master_seed) {
  // Solo re-execution under a throwaway scope: the verifier compares the
  // live transcript against the co-scheduled recording round by round, so
  // any influence another session had on this one surfaces as a precise
  // (round, channel, byte) divergence. Retried results replay under their
  // (id, attempt) lineage against the effective (executed) config.
  auto scope = metrics::Registry::instance().scope(
      "replay/" + result.config.effective_scope_label());
  scope->reset();
  metrics::RegistryAttachment attach(scope);

  const SessionSeeds seeds =
      derive_seeds(master_seed, result.config.id, result.attempt);
  auto verifier = std::make_shared<audit::ReplayVerifier>(result.recording);
  SessionConfig solo = result.config;
  solo.lanes = 1;
  net::Network net(solo.n, seeds.net_seed);
  (void)execute(solo, seeds, {verifier}, net, nullptr);
  scope->roll_up();
  return verifier->finish();
}

}  // namespace gfor14::server
