// gfor14_cli — command-line driver for the library.
//
//   gfor14_cli channel   [--n N] [--scheme rb|bgw|ggor] [--kappa K]
//                        [--receiver R] [--attack NAME] [--seed S]
//   gfor14_cli publish   [--n N] [--scheme ...] [--kappa K]
//                        [--attack NAME] [--seed S]
//   gfor14_cli pseudosig [--n N] [--scheme ...] [--seed S]
//   gfor14_cli compare   [--n N] [--seed S]
//   gfor14_cli serve     [--sessions K] [--threads N|hw] [--lanes L]
//                        [--n N] [--scheme ...] [--kappa K] [--seed S]
//                        [--faulty F] [--verify]
//                        [--churn] [--retries R] [--queue-cap Q]
//                        [--round-budget B] [--crash-every E]
//                        [--record-dir DIR] [SLO flags]
//   gfor14_cli replay    RECORDING [--threads N|hw] [telemetry flags]
//
// Observability (any command):
//   --trace PATH    stream one JSON line per closed protocol phase to PATH
//                   ("-" prints the finished span trees to stdout instead)
//   --metrics PATH  write the process-wide metrics registry as JSON to PATH
//                   on exit ("-" prints to stdout)
//   --chrome-trace PATH  write the finished span trees as a Chrome
//                   trace-event JSON file (load in chrome://tracing or
//                   Perfetto); implies tracing is enabled
//   --record PATH   flight-record every delivered message (full payloads)
//                   plus tamper/fault/blame logs into a replayable
//                   recording file (channel, publish, pseudosig)
//
// Telemetry (channel, publish, pseudosig; also accepted by replay):
//   --telemetry PATH  attach a TelemetrySampler to the run's network and
//                   write its time-series document (deterministic protocol
//                   counters per sampled round + environment block) to PATH
//                   on completion ("-" prints to stdout)
//   --prom PATH     write a point-in-time Prometheus text exposition of the
//                   run's metrics scope to PATH on completion
//   --sample-every N  sample every N-th round barrier (default 1; the ring
//                   decimates and doubles the stride on long runs)
//   --top           print the `gfor14-audit top` resource view (counter
//                   totals and rates, RSS, round-wall p50/p95, allocation
//                   domains) when the run completes
//
// `replay` re-executes a recording's configuration with a verifier attached
// and reports the first divergence, or certifies byte identity. The
// recorded transcript is lane-count independent, so --threads may differ
// from the recording run.
//   --threads N|hw  run party round handlers on N worker lanes ("hw" = one
//                   per hardware thread); output is byte-identical to the
//                   serial default for the same seed. Overrides the
//                   GFOR14_THREADS environment variable.
//
// Fault injection (channel, publish, pseudosig):
//   --faults SPEC   deterministic wire faults, e.g.
//                   "drop@3:0->2,corrupt@5:1->*:2,crash@7:0" (see
//                   net/faultplan.hpp for the grammar). Every party the
//                   spec targets is marked corrupt.
//   --fault-seed S  seed for the fault randomness (default: the
//                   GFOR14_FAULT_SEED environment variable, else --seed)
//
// Multi-session server (`serve`, DESIGN.md §13/§14): streams K independent
// AnonChan sessions through the SupervisedRuntime, each with its own Rng
// lineage forked from --seed by session id, its own recorder and a
// "session/<id>" metrics scope. A feeder thread admits sessions against a
// bounded queue (--queue-cap Q, blocking backpressure) while the main
// thread drives execution waves over the shared thread pool. --faulty F
// gives the first F sessions a randomized in-model FaultPlan (seed-derived,
// replayable); --lanes L sets each session's own worker-lane request
// (inline when sessions are co-scheduled). Failures are contained into
// FailureRecords and retried up to --retries R attempts with capped logical
// exponential backoff; --round-budget B arms the per-attempt round
// watchdog; --churn enables deterministic chaos injection (every
// --crash-every E-th session's strand crashes mid-protocol on its first
// attempt, then retries clean). --verify re-executes every completed
// session solo against its recording and fails on the first byte of
// divergence. Exit status is non-zero when any session permanently failed
// or --verify found a divergence. --record-dir DIR writes every completed
// session's flight recording to DIR/session-<id>.recording (DIR must
// exist) — the profiler CI job feeds these to `gfor14-audit critpath`.
//
// SLO targets (`serve`, DESIGN.md §15) — each flag arms one
// declarative target; the supervisor evaluates them at every wave barrier
// and the summary (plus `gfor14-audit top` via the telemetry annotation)
// reports structured DEGRADED reasons with since-wave anchors:
//   --slo-round-wall-p95 US   environmental: p95 round wall <= US microsec
//   --slo-min-mps X           environmental: >= X delivered messages/sec
//   --slo-max-retry-rate X    deterministic: retries/admitted <= X
//   --slo-min-honest X        deterministic: completed/terminal >= X
//
// Attacks: dense, unequal, wrongcopy, guessing, zero, fixed (mounted by
// party 0, which is marked corrupt).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include "anonchan/anonchan.hpp"
#include "anonchan/attacks.hpp"
#include "audit/replay.hpp"
#include "audit/report.hpp"
#include "baselines/pw96.hpp"
#include "baselines/zhang11.hpp"
#include "common/chrome_trace.hpp"
#include "common/metrics.hpp"
#include "common/telemetry.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "net/faultplan.hpp"
#include "net/recorder.hpp"
#include "pseudosig/broadcast_sim.hpp"
#include "server/supervisor.hpp"
#include "strict_number.hpp"
#include "vss/schemes.hpp"

using namespace gfor14;

namespace {

struct Options {
  std::string command;
  std::size_t n = 5;
  std::size_t kappa = 6;
  std::size_t receiver = SIZE_MAX;  // default: n - 1
  vss::SchemeKind scheme = vss::SchemeKind::kRB;
  std::string attack;
  std::uint64_t seed = 2014;
  std::string trace_path;    // "-" = stdout, "" = off
  std::string metrics_path;  // "-" = stdout, "" = off
  std::size_t threads = 0;   // 0 = keep the GFOR14_THREADS / serial default
  std::string faults;        // fault plan spec, "" = no fault injection
  net::FaultPlan fault_plan;  // `faults`, parsed
  // --fault-seed, else GFOR14_FAULT_SEED, else --seed (resolved by parse).
  std::uint64_t fault_seed = 0;
  bool fault_seed_set = false;
  std::string record_path;        // flight-record into this file, "" = off
  std::string chrome_trace_path;  // Chrome trace-event export, "" = off
  std::string telemetry_path;     // "-" = stdout, "" = off
  std::string prom_path;          // Prometheus text exposition, "" = off
  std::size_t sample_every = 1;   // telemetry sampling interval (rounds)
  bool top = false;               // print the resource view on completion
  std::size_t sessions = 8;       // serve: concurrent session count
  std::size_t lanes = 1;          // serve: per-session worker-lane request
  std::size_t faulty = 0;         // serve: sessions given random FaultPlans
  bool verify = false;            // serve: replay-verify every session
  bool churn = false;             // serve: chaos crash injection
  std::size_t retries = 3;        // serve: attempts per session
  std::size_t queue_cap = 8;      // serve: admission queue bound
  std::size_t round_budget = 0;   // serve: per-attempt round budget
  std::size_t crash_every = 3;    // serve --churn: crash id % E == 0
  std::string record_dir;         // serve: per-session recordings, "" = off
  server::SloTargets slo;         // serve: declarative SLO targets
  std::shared_ptr<net::Recording> replay_reference;  // set by `replay`
};

int usage() {
  std::fprintf(stderr,
               "usage: gfor14_cli <channel|publish|pseudosig|compare>\n"
               "  [--n N] [--scheme rb|bgw|ggor] [--kappa K]\n"
               "  [--receiver R] [--attack dense|unequal|wrongcopy|guessing"
               "|zero|fixed]\n"
               "  [--seed S] [--trace PATH|-] [--metrics PATH|-]"
               " [--threads N|hw]\n"
               "  [--faults SPEC] [--fault-seed S] [--record PATH]"
               " [--chrome-trace PATH]\n"
               "  [--telemetry PATH|-] [--prom PATH] [--sample-every N]"
               " [--top]\n"
               "   or: gfor14_cli serve [--sessions K] [--threads N|hw]\n"
               "        [--lanes L] [--n N] [--scheme rb|bgw|ggor]"
               " [--kappa K]\n"
               "        [--seed S] [--faulty F] [--verify]\n"
               "        [--churn] [--retries R] [--queue-cap Q]\n"
               "        [--round-budget B] [--crash-every E]"
               " [--record-dir DIR]\n"
               "        [--slo-round-wall-p95 US] [--slo-min-mps X]\n"
               "        [--slo-max-retry-rate X] [--slo-min-honest X]\n"
               "        [--telemetry PATH|-] [--prom PATH]"
               " [--sample-every N] [--top]\n"
               "   or: gfor14_cli replay RECORDING [--threads N|hw]\n"
               "        [--telemetry PATH|-] [--prom PATH] [--sample-every N]"
               " [--top]\n");
  return 2;
}

/// The run-shape bounds shared by the live parser and replay: n in [3, 32],
/// kappa in [1, 32], receiver < n (an unset receiver defaults to n - 1).
/// `prefix` names where the values came from ("--" flags or "config."
/// fields of a recording) in the diagnostic.
bool check_shape(Options& opt, const char* prefix) {
  if (opt.n < 3 || opt.n > 32)
    return complain("%sn must be in [3, 32] (got %zu)", prefix, opt.n);
  if (opt.kappa < 1 || opt.kappa > 32)
    return complain("%skappa must be in [1, 32] (got %zu)", prefix,
                    opt.kappa);
  if (opt.receiver == SIZE_MAX) opt.receiver = opt.n - 1;
  if (opt.receiver >= opt.n)
    return complain("%sreceiver %zu is out of range for %sn %zu", prefix,
                    opt.receiver, prefix, opt.n);
  return true;
}

/// The --scheme names.
constexpr std::pair<const char*, vss::SchemeKind> kSchemes[] = {
    {"rb", vss::SchemeKind::kRB},
    {"bgw", vss::SchemeKind::kBGW},
    {"ggor", vss::SchemeKind::kGGOR13},
};

const char* scheme_str(vss::SchemeKind kind) {
  for (const auto& [name, k] : kSchemes)
    if (k == kind) return name;
  return "rb";
}

std::shared_ptr<anonchan::SenderStrategy> make_attack(const std::string& name) {
  if (name == "dense") return std::make_shared<anonchan::DenseVectorAttack>();
  if (name == "unequal")
    return std::make_shared<anonchan::UnequalEntriesAttack>();
  if (name == "wrongcopy") return std::make_shared<anonchan::WrongCopyAttack>();
  if (name == "guessing") return std::make_shared<anonchan::GuessingAttack>();
  if (name == "zero") return std::make_shared<anonchan::ZeroVectorAttack>();
  if (name == "fixed") return std::make_shared<anonchan::FixedPositionSender>();
  return nullptr;
}

/// Every flag, bound to the fields of `opt` it sets. The live parser,
/// `replay`'s flags and the recorded config fields replay reads all go
/// through this one table, so each option's checks are written once.
FlagTable value_flags(Options& opt) {
  // N >= 1, or "hw" for one per hardware thread.
  const auto workers = [](std::size_t& field) -> FlagHandler {
    return [&field](const std::string& key, const std::string& v) {
      if (v == "hw") {
        field = hardware_threads();
      } else if (!parse_size_strict(v, field)) {
        return complain("invalid value '%s' for %s (expected an unsigned "
                        "integer or 'hw')",
                        v.c_str(), key.c_str());
      }
      if (field == 0)
        return complain("%s must be at least 1 (got '%s')", key.c_str(),
                        v.c_str());
      return true;
    };
  };
  return {
      {"--n", count_flag(opt.n, 0)},
      {"--kappa", count_flag(opt.kappa, 0)},
      {"--receiver", count_flag(opt.receiver, 0)},
      {"--seed", seed_flag(opt.seed)},
      {"--scheme",
       [&opt](const std::string& key, const std::string& v) {
         for (const auto& [name, kind] : kSchemes)
           if (v == name) {
             opt.scheme = kind;
             return true;
           }
         return complain("unknown %s '%s' (expected rb|bgw|ggor)",
                         key.c_str(), v.c_str());
       }},
      {"--attack",
       [&opt](const std::string& key, const std::string& v) {
         if (!v.empty() && !make_attack(v))
           return complain("unknown %s '%s' (expected dense|unequal|"
                           "wrongcopy|guessing|zero|fixed)",
                           key.c_str(), v.c_str());
         opt.attack = v;
         return true;
       }},
      {"--trace", text_flag(opt.trace_path)},
      {"--metrics", text_flag(opt.metrics_path)},
      {"--threads", workers(opt.threads)},
      {"--faults",
       [&opt](const std::string& key, const std::string& v) {
         std::string error;
         auto plan = net::FaultPlan::parse(v, &error);
         if (!plan)
           return complain("invalid value for %s: %s", key.c_str(),
                           error.c_str());
         opt.faults = v;
         opt.fault_plan = std::move(*plan);
         return true;
       }},
      {"--fault-seed",
       [&opt, parse = seed_flag(opt.fault_seed)](const std::string& key,
                                                 const std::string& v) {
         opt.fault_seed_set = true;
         return parse(key, v);
       }},
      {"--record", text_flag(opt.record_path)},
      {"--chrome-trace", text_flag(opt.chrome_trace_path)},
      {"--telemetry", text_flag(opt.telemetry_path)},
      {"--prom", text_flag(opt.prom_path)},
      {"--sample-every", count_flag(opt.sample_every, 1)},
      {"--top", switch_flag(opt.top)},
      {"--sessions", count_flag(opt.sessions, 1)},
      {"--lanes", workers(opt.lanes)},
      {"--faulty", count_flag(opt.faulty, 0)},
      {"--verify", switch_flag(opt.verify)},
      {"--churn", switch_flag(opt.churn)},
      {"--retries", count_flag(opt.retries, 1)},
      {"--queue-cap", count_flag(opt.queue_cap, 1)},
      {"--round-budget", count_flag(opt.round_budget, 0)},
      {"--crash-every", count_flag(opt.crash_every, 1)},
      {"--record-dir", text_flag(opt.record_dir)},
      {"--slo-round-wall-p95", real_flag(opt.slo.round_wall_p95_us, true)},
      {"--slo-min-mps", real_flag(opt.slo.min_messages_per_sec, true)},
      {"--slo-max-retry-rate", real_flag(opt.slo.max_retry_rate, false)},
      {"--slo-min-honest", real_flag(opt.slo.min_honest_delivery, false, 1.0)},
  };
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return complain("missing command");
  opt.command = argv[1];
  if (!parse_flags(value_flags(opt), argc, argv, 2)) return false;
  if (!opt.fault_seed_set) {
    std::string bad;
    const auto seed = net::seed_from_env("GFOR14_FAULT_SEED", opt.seed, &bad);
    if (!seed)
      return complain("invalid value '%s' for GFOR14_FAULT_SEED (expected "
                      "an unsigned integer)",
                      bad.c_str());
    opt.fault_seed = *seed;
  }
  if (opt.threads != 0) set_default_threads(opt.threads);
  if (!check_shape(opt, "--")) return false;
  if (opt.faulty > opt.sessions)
    return complain("--faulty (%zu) exceeds --sessions (%zu)", opt.faulty,
                    opt.sessions);
  return true;
}

void print_costs(const net::CostReport& c) {
  std::printf("costs: %zu rounds | %zu broadcast rounds | %zu broadcast "
              "invocations | %zu p2p messages | %zu field elements\n",
              c.rounds, c.broadcast_rounds, c.broadcast_invocations,
              c.p2p_messages, c.p2p_elements);
}

/// Marks every sender the --faults plan targets corrupt and attaches a
/// FaultEngine seeded per --fault-seed / GFOR14_FAULT_SEED / --seed.
/// Returns the engine, or null when no faults were requested.
std::shared_ptr<net::FaultEngine> attach_faults(net::Network& net,
                                                const Options& opt) {
  if (opt.fault_plan.empty()) return nullptr;
  for (net::PartyId p : opt.fault_plan.senders()) {
    if (p < net.n()) net.set_corrupt(p, true);
  }
  auto engine =
      std::make_shared<net::FaultEngine>(opt.fault_plan, opt.fault_seed);
  net.attach_faults(engine);
  std::printf("fault plan: %zu specs, GFOR14_FAULT_SEED=%llu\n",
              opt.fault_plan.specs.size(),
              static_cast<unsigned long long>(opt.fault_seed));
  return engine;
}

/// Everything needed to re-execute this run, embedded in the recording.
json::Value record_config(const Options& opt) {
  json::Value c = json::Value::object();
  c.set("command", opt.command);
  c.set("n", opt.n);
  c.set("kappa", opt.kappa);
  c.set("receiver", opt.receiver);
  c.set("scheme", scheme_str(opt.scheme));
  c.set("attack", opt.attack);
  c.set("seed", net::hex_u64(opt.seed));
  c.set("faults", opt.faults);
  c.set("fault_seed", net::hex_u64(opt.fault_seed));
  return c;
}

/// Flushes a sampler per --telemetry (path, or "-" for stdout), --prom and
/// --top. Returns false when a requested file cannot be written.
bool write_telemetry(const Options& opt,
                     const telemetry::TelemetrySampler& sampler) {
  bool ok = true;
  if (opt.telemetry_path == "-") {
    std::printf("%s\n", sampler.to_json().dump(2).c_str());
  } else if (!opt.telemetry_path.empty()) {
    if (sampler.write_json(opt.telemetry_path)) {
      std::printf("telemetry: %s (%zu snapshots, stride %zu)\n",
                  opt.telemetry_path.c_str(), sampler.snapshots().size(),
                  sampler.stride());
    } else {
      std::fprintf(stderr, "error: cannot write telemetry '%s'\n",
                   opt.telemetry_path.c_str());
      ok = false;
    }
  }
  if (!opt.prom_path.empty()) {
    if (sampler.write_prometheus(opt.prom_path)) {
      std::printf("prometheus: %s\n", opt.prom_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write prometheus '%s'\n",
                   opt.prom_path.c_str());
      ok = false;
    }
  }
  if (opt.top) std::printf("%s", audit::render_top(sampler.to_json()).c_str());
  return ok;
}

/// Attaches the flight recorder, replay verifier and/or telemetry sampler
/// requested by the options; finish() saves the recording / reports the
/// replay verdict / flushes telemetry and yields the process exit code
/// contribution.
class FlightScope {
 public:
  FlightScope(net::Network& net, const Options& opt) : opt_(opt) {
    if (!opt.record_path.empty()) {
      recorder_ = std::make_shared<net::Recorder>(net::Recorder::Options{},
                                                  record_config(opt));
      net.attach_observer(recorder_);
    }
    if (opt.replay_reference) {
      verifier_ =
          std::make_shared<audit::ReplayVerifier>(*opt.replay_reference);
      net.attach_observer(verifier_);
    }
    if (!opt.telemetry_path.empty() || !opt.prom_path.empty() || opt.top) {
      sampler_ = std::make_shared<telemetry::TelemetrySampler>(
          net.registry_shared(), opt.sample_every);
      net.attach_observer(sampler_);
    }
  }

  int finish() {
    int rc = 0;
    if (recorder_) {
      if (recorder_->recording().save(opt_.record_path)) {
        std::printf("recording: %s (%zu rounds, final digest %s)\n",
                    opt_.record_path.c_str(),
                    recorder_->recording().rounds.size(),
                    net::hex_u64(recorder_->recording().final_digest).c_str());
      } else {
        std::fprintf(stderr, "error: cannot write recording '%s'\n",
                     opt_.record_path.c_str());
        rc = 1;
      }
    }
    if (verifier_) {
      if (const auto& d = verifier_->finish()) {
        std::printf("replay DIVERGED: %s\n", d->format().c_str());
        rc = 1;
      } else {
        std::printf("replay verified: %zu rounds byte-identical\n",
                    verifier_->rounds_checked());
      }
    }
    if (sampler_ && !write_telemetry(opt_, *sampler_)) rc = 1;
    return rc;
  }

 private:
  const Options& opt_;
  std::shared_ptr<net::Recorder> recorder_;
  std::shared_ptr<audit::ReplayVerifier> verifier_;
  std::shared_ptr<telemetry::TelemetrySampler> sampler_;
};

void print_fault_outcome(const net::Network& net,
                         const net::FaultEngine* engine) {
  if (engine == nullptr) return;
  std::printf("faults applied: %zu events over %zu rounds, %zu blame "
              "records\n",
              engine->events().size(), engine->rounds_seen(),
              net.blame_count());
  for (const auto& b : net.blames()) {
    if (b.accuser == net::kPublicBlame)
      std::printf("  blame: public -> P%u (%s, round %zu)\n",
                  static_cast<unsigned>(b.accused), b.reason.c_str(), b.round);
    else
      std::printf("  blame: P%u -> P%u (%s, round %zu)\n",
                  static_cast<unsigned>(b.accuser),
                  static_cast<unsigned>(b.accused), b.reason.c_str(), b.round);
  }
}

std::vector<Fld> default_inputs(std::size_t n) {
  std::vector<Fld> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = Fld::from_u64(0xA0000 + i);
  return x;
}

/// Corrupts party 0 and mounts the --attack strategy on it, if one was
/// named (the flag handler has checked the name).
void mount_attack(net::Network& net, anonchan::AnonChan& chan,
                  const Options& opt) {
  if (opt.attack.empty()) return;
  net.set_corrupt(0, true);
  chan.set_strategy(0, make_attack(opt.attack));
  std::printf("party 0 is corrupt, mounting '%s'\n", opt.attack.c_str());
}

/// Prints the PASS set, then the output multiset Y under `label`.
void print_outcome(const anonchan::Output& out, const char* label) {
  std::printf("PASS:");
  for (std::size_t i = 0; i < out.pass.size(); ++i)
    std::printf(" P%zu=%s", i, out.pass[i] ? "ok" : "OUT");
  std::printf("\n%s (%zu):", label, out.y.size());
  for (Fld y : out.y)
    std::printf(" %llx", static_cast<unsigned long long>(y.to_u64()));
  std::printf("\n");
}

int run_channel(const Options& opt) {
  net::Network net(opt.n, opt.seed);
  const auto faults = attach_faults(net, opt);
  FlightScope flight(net, opt);
  auto vss = vss::make_vss(opt.scheme, net);
  anonchan::AnonChan chan(net, *vss,
                          anonchan::Params::practical(opt.n, opt.kappa));
  std::printf("AnonChan over %s VSS, %s, receiver P%zu\n", vss->name(),
              chan.params().describe().c_str(), opt.receiver);
  mount_attack(net, chan, opt);
  const auto inputs = default_inputs(opt.n);
  const auto out = chan.run(opt.receiver, inputs);
  print_outcome(out, "Y");
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < opt.n; ++i)
    if (out.delivered(inputs[i])) ++delivered;
  std::printf("inputs delivered: %zu/%zu\n", delivered, opt.n);
  print_costs(out.costs);
  print_fault_outcome(net, faults.get());
  return flight.finish();
}

int run_publish(const Options& opt) {
  net::Network net(opt.n, opt.seed);
  const auto faults = attach_faults(net, opt);
  FlightScope flight(net, opt);
  auto vss = vss::make_vss(opt.scheme, net);
  anonchan::AnonChan chan(net, *vss,
                          anonchan::Params::practical(opt.n, opt.kappa));
  std::printf("anonymous publication over %s VSS, %s\n", vss->name(),
              chan.params().describe().c_str());
  mount_attack(net, chan, opt);
  const auto out = chan.publish(default_inputs(opt.n));
  print_outcome(out, "published");
  print_costs(out.costs);
  print_fault_outcome(net, faults.get());
  return flight.finish();
}

int run_pseudosig(const Options& opt) {
  net::Network net(opt.n, opt.seed);
  const auto faults = attach_faults(net, opt);
  FlightScope flight(net, opt);
  pseudosig::BroadcastSimulator sim(
      net, opt.scheme, anonchan::Params::practical(opt.n, 2),
      pseudosig::PsParams{4, 2, 3});
  sim.setup();
  std::printf("pseudosignature setup (all %zu signers in parallel):\n",
              opt.n);
  print_costs(sim.setup_costs());
  auto result = sim.broadcast(0, pseudosig::Msg::from_u64(0xFACE));
  std::printf("Dolev-Strong broadcast: agreement=%s validity=%s, "
              "%zu p2p rounds, %zu physical broadcasts in main phase\n",
              result.agreement ? "yes" : "NO",
              result.validity ? "yes" : "NO", result.costs.rounds,
              sim.main_phase_broadcasts());
  print_fault_outcome(net, faults.get());
  return flight.finish();
}

int run_compare(const Options& opt) {
  if (!opt.record_path.empty())
    std::fprintf(stderr,
                 "warning: --record is ignored by 'compare' (it runs "
                 "several networks)\n");
  const auto inputs = default_inputs(opt.n);
  std::printf("%-24s %8s %10s\n", "protocol", "rounds", "bc-rounds");
  for (auto kind : {vss::SchemeKind::kBGW, vss::SchemeKind::kRB,
                    vss::SchemeKind::kGGOR13}) {
    net::Network net(opt.n, opt.seed);
    if (kind == vss::SchemeKind::kBGW && net.max_t_third() == 0) continue;
    auto vss = vss::make_vss(kind, net);
    anonchan::AnonChan chan(net, *vss, anonchan::Params::light(opt.n));
    const auto out = chan.run(0, inputs);
    std::printf("AnonChan/%-15s %8zu %10zu\n", vss->name(),
                out.costs.rounds, out.costs.broadcast_rounds);
  }
  {
    net::Network net(opt.n, opt.seed);
    net.corrupt_first(net.max_t_half());
    const auto out = baselines::run_pw96(net, inputs,
                                         baselines::Pw96Adversary::kMaximal);
    std::printf("%-24s %8zu %10zu\n", "PW96 (attack)", out.costs.rounds,
                out.costs.broadcast_rounds);
  }
  {
    net::Network net(opt.n, opt.seed);
    auto vss = vss::make_vss(vss::SchemeKind::kRB, net);
    const auto out = baselines::run_zhang11(net, *vss, 0, inputs);
    std::printf("%-24s %8zu %10zu\n", "Zhang'11 (model)", out.costs.rounds,
                out.costs.broadcast_rounds);
  }
  return 0;
}

/// A randomized in-model FaultPlan for one serve session: three faults on
/// party 0's point-to-point traffic (the session marks it corrupt), each in
/// a round and on a channel where P0 sends: the VSS R1 slices and R2 checks
/// (rounds 0 and 1), the challenge, cut-and-choose rounds A and B and the
/// public g reconstruction (the four rounds after sharing), all to every
/// other party, then the private delivery to the receiver P(n-1) only.
/// The channels are distinct, so no fault lands on a queue an earlier one
/// emptied, and replays come after round 0, when there is traffic to
/// replay. Drawn from an Rng forked off the master seed by session id, so
/// the plan is a pure function of (seed, id) — independent of scheduling
/// and of the other sessions.
net::FaultPlan serve_fault_plan(std::uint64_t master_seed, std::uint64_t id,
                                std::size_t n, std::size_t share_rounds) {
  const std::size_t s = share_rounds;
  const std::size_t rounds[] = {0, 1, s, s + 1, s + 2, s + 3, s + 4};
  constexpr net::FaultKind kKinds[] = {
      net::FaultKind::kDrop,           net::FaultKind::kTruncate,
      net::FaultKind::kExtend,         net::FaultKind::kCorruptElement,
      net::FaultKind::kCorruptBit,     net::FaultKind::kReplayStale,
  };
  Rng rng = Rng(master_seed).fork(0x5E55104E5ULL ^ id);
  net::FaultPlan plan;
  while (plan.specs.size() < 3) {
    net::FaultSpec f;
    f.round = rounds[rng.next_below(std::size(rounds))];
    f.from = 0;
    f.to = f.round == s + 4 ? n - 1 : 1 + rng.next_below(n - 1);
    f.kind = kKinds[rng.next_below(std::size(kKinds) - (f.round == 0))];
    f.amount = 1 + rng.next_below(4);
    const bool taken = std::any_of(
        plan.specs.begin(), plan.specs.end(), [&](const net::FaultSpec& g) {
          return g.round == f.round && g.to == f.to;
        });
    if (!taken) plan.specs.push_back(f);
  }
  return plan;
}

server::SessionConfig serve_session_config(const Options& opt,
                                           std::size_t share_rounds,
                                           std::size_t i) {
  server::SessionConfig cfg;
  cfg.id = i;
  cfg.n = opt.n;
  cfg.scheme = opt.scheme;
  cfg.kappa = opt.kappa;
  cfg.lanes = opt.lanes;
  if (i < opt.faulty)
    cfg.faults = serve_fault_plan(opt.seed, i, opt.n, share_rounds);
  return cfg;
}

/// `serve`: streaming admission through the supervised runtime. A feeder
/// thread submits all K sessions against the bounded queue (blocking on
/// backpressure) while this thread drives execution waves; the drain
/// guarantees every admitted session reaches a terminal state.
int run_serve(const Options& opt) {
  server::SupervisorOptions sup;
  sup.master_seed = opt.seed;
  sup.threads = opt.threads;
  sup.queue_capacity = opt.queue_cap;
  sup.retry.max_attempts = opt.retries;
  sup.retry.round_budget = opt.round_budget;
  sup.chaos.enabled = opt.churn;
  sup.chaos.every = opt.crash_every;
  sup.slo = opt.slo;
  server::SupervisedRuntime runtime(sup);
  // The faulty sessions' plans are laid out around the sharing phase.
  std::size_t share_rounds = 0;
  if (opt.faulty > 0) {
    net::Network probe(opt.n, 0);
    share_rounds = vss::make_vss(opt.scheme, probe)->share_rounds();
  }

  // The §11 telemetry surface, sampled per scheduling wave instead of per
  // round barrier: the root scope carries the server.* health counters, so
  // the exported series (and `gfor14-audit top`) shows the engine line.
  std::shared_ptr<telemetry::TelemetrySampler> sampler;
  if (!opt.telemetry_path.empty() || !opt.prom_path.empty() || opt.top)
    sampler = std::make_shared<telemetry::TelemetrySampler>(
        metrics::Registry::current_shared(), opt.sample_every);

  std::printf("serving %zu sessions (%zu faulty%s) through a queue of %zu "
              "over %zu strands, %zu attempts each: n=%zu, %s VSS, kappa=%zu, "
              "lanes=%zu, seed %s\n",
              opt.sessions, opt.faulty, opt.churn ? ", churn chaos on" : "",
              opt.queue_cap, runtime.threads(), opt.retries, opt.n,
              scheme_str(opt.scheme), opt.kappa, opt.lanes,
              net::hex_u64(opt.seed).c_str());

  std::atomic<bool> feeder_done{false};
  std::thread feeder([&] {
    for (std::size_t i = 0; i < opt.sessions; ++i)
      if (!runtime.submit(serve_session_config(opt, share_rounds, i))) break;
    feeder_done.store(true);
  });
  while (!feeder_done.load() || !runtime.idle()) {
    if (runtime.run_wave() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    } else if (sampler) {
      sampler->sample_wave();
    }
  }
  feeder.join();
  const server::RuntimeReport report = runtime.drain();
  if (sampler) sampler->sample_wave();  // final post-drain health point

  for (const auto& f : report.failures)
    std::printf("  contained: %s\n", f.describe().c_str());

  int rc = 0;
  if (opt.verify) {
    for (const auto& s : report.completed) {
      if (const auto d = server::replay_verify(s, opt.seed)) {
        std::printf("  session %llu attempt %zu replay DIVERGED: %s\n",
                    static_cast<unsigned long long>(s.config.id), s.attempt,
                    d->format().c_str());
        rc = 1;
      }
    }
    if (rc == 0)
      std::printf("replay verified: all %zu completed sessions "
                  "byte-identical to solo re-execution\n",
                  report.completed.size());
  }

  std::printf("served: %zu/%zu sessions completed in %zu waves | "
              "%zu contained failures, %zu retries (retry rate %.2f), "
              "%zu gave up\n",
              report.completed_sessions, report.admitted, report.waves,
              report.failed_attempts, report.retries, report.retry_rate,
              report.failed_sessions);
  std::printf("queue: cap %zu, high water %zu | admit-to-complete "
              "p50 %.2f ms, p95 %.2f ms\n",
              opt.queue_cap, report.queue_high_water,
              report.p50_admit_to_complete_ms,
              report.p95_admit_to_complete_ms);
  std::printf("throughput: %zu messages in %.2f ms = %.1f messages/sec\n",
              report.messages_delivered, report.wall_ms,
              report.messages_per_sec);
  // Structured health (DESIGN.md §15): WHICH expectation broke, by how
  // much and since which wave — not just a boolean.
  const bool degraded = report.failed_sessions > 0 || report.slo.degraded();
  std::printf("engine state: %s\n", degraded ? "DEGRADED" : "healthy");
  if (report.slo.degraded())
    for (const auto& b : report.slo.breaches)
      std::printf("  slo breach: %s\n", b.describe().c_str());
  else if (report.failed_sessions > 0)
    std::printf("  %zu sessions permanently failed\n", report.failed_sessions);
  if (report.failed_sessions > 0) rc = 1;

  if (!opt.record_dir.empty()) {
    std::size_t written = 0;
    for (const auto& s : report.completed) {
      const std::string path =
          opt.record_dir + "/session-" + std::to_string(s.config.id) +
          ".recording";
      if (s.recording.save(path)) {
        ++written;
      } else {
        std::fprintf(stderr, "error: cannot write recording '%s'\n",
                     path.c_str());
        rc = 1;
      }
    }
    std::printf("recordings: %zu sessions into %s/\n", written,
                opt.record_dir.c_str());
  }

  if (sampler) {
    // Embed the structured SLO status so `gfor14-audit top` renders the
    // breach reasons from the exported document.
    sampler->set_annotation("slo", report.slo.to_json());
    if (!write_telemetry(opt, *sampler)) rc = 1;
  }
  return rc;
}

// Enables tracing per --trace and, at scope exit, flushes the requested
// observability outputs (in-memory trace trees to stdout for "-", metrics
// JSON to the requested sink).
class ObservabilityScope {
 public:
  explicit ObservabilityScope(const Options& opt) : opt_(opt) {
    if (opt_.trace_path.empty() && opt_.chrome_trace_path.empty()) return;
    auto& tracer = trace::Tracer::instance();
    tracer.set_enabled(true);
    if (!opt_.trace_path.empty() && opt_.trace_path != "-" &&
        !tracer.set_sink_path(opt_.trace_path))
      std::fprintf(stderr, "warning: cannot open trace sink '%s'\n",
                   opt_.trace_path.c_str());
  }
  ~ObservabilityScope() {
    // Span lines are buffered in the sink stream; flushing here (not per
    // line) is the sink contract — see Tracer::flush().
    trace::Tracer::instance().flush();
    if (opt_.trace_path == "-") {
      for (const auto& root : trace::Tracer::instance().roots())
        std::printf("%s\n", root->to_json().dump(2).c_str());
    }
    if (!opt_.chrome_trace_path.empty()) {
      if (trace::write_chrome_trace(opt_.chrome_trace_path))
        std::printf("chrome trace: %s (load in chrome://tracing)\n",
                    opt_.chrome_trace_path.c_str());
      else
        std::fprintf(stderr, "warning: cannot write chrome trace '%s'\n",
                     opt_.chrome_trace_path.c_str());
    }
    if (!opt_.metrics_path.empty()) {
      auto& reg = metrics::Registry::instance();
      if (opt_.metrics_path == "-")
        std::printf("%s\n", reg.to_json().dump(2).c_str());
      else if (!reg.write_json(opt_.metrics_path))
        std::fprintf(stderr, "warning: cannot write metrics to '%s'\n",
                     opt_.metrics_path.c_str());
    }
  }

 private:
  const Options& opt_;
};

/// Reconstructs the Options a recording was made with from its config
/// block (record_config above). The text fields go through the live flags'
/// handlers. The fault seed is pinned explicitly so the replaying
/// environment's GFOR14_FAULT_SEED cannot skew the re-execution.
bool options_from_config(const json::Value& c, Options& opt,
                         std::string* error) {
  const auto fail = [&](const char* key) {
    *error = std::string("config.") + key;
    return false;
  };
  const auto str = [&](const char* key) -> const std::string* {
    const json::Value* v = c.find(key);
    return v && v->is_string() ? &v->as_string() : nullptr;
  };
  // Counts must be non-negative integers; anything else (negative,
  // fractional, beyond 2^53) is rejected before the bounds check.
  const auto count = [&](const char* key, std::size_t& out) {
    const json::Value* v = c.find(key);
    if (!v) return true;
    const double d = v->is_number() ? v->as_double() : -1.0;
    if (!(d >= 0.0 && d <= 9007199254740992.0) || d != std::floor(d))
      return false;
    out = static_cast<std::size_t>(d);
    return true;
  };
  const auto hex = [&](const char* key, std::uint64_t& out) {
    const auto* s = str(key);
    const auto v = s ? net::parse_hex_u64(*s) : std::nullopt;
    if (v) out = *v;
    return v.has_value();
  };
  // An absent text field is a flag the run was not given.
  const auto flags = value_flags(opt);
  const auto text = [&](const char* key, const char* flag) {
    const json::Value* v = c.find(key);
    return !v || (v->is_string() &&
                  flags.at(flag).handle(std::string("config.") + key,
                                        v->as_string()));
  };
  if (const auto* s = str("command")) opt.command = *s;
  else return fail("command");
  if (!c.find("n") || !count("n", opt.n)) return fail("n");
  if (!count("kappa", opt.kappa)) return fail("kappa");
  if (!count("receiver", opt.receiver)) return fail("receiver");
  if (!text("scheme", "--scheme")) return fail("scheme");
  if (!text("attack", "--attack")) return fail("attack");
  if (!hex("seed", opt.seed)) return fail("seed");
  if (!text("faults", "--faults")) return fail("faults");
  opt.fault_seed = opt.seed;
  if (c.find("fault_seed") && !hex("fault_seed", opt.fault_seed))
    return fail("fault_seed");
  if (!check_shape(opt, "config.")) {
    *error = "run shape (n, kappa, receiver)";
    return false;
  }
  return true;
}

int run_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string path = argv[2];
  std::string error;
  auto rec = net::Recording::load(path, &error);
  if (!rec) {
    std::fprintf(stderr, "cannot load recording '%s': %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  Options opt;
  if (!options_from_config(rec->config, opt, &error)) {
    std::fprintf(stderr, "recording '%s' has no replayable %s\n",
                 path.c_str(), error.c_str());
    return 1;
  }
  // The run shape comes from the recording; only the execution and
  // telemetry flags may be given, parsed by the live parser's rules.
  auto flags = value_flags(opt);
  std::erase_if(flags, [](const auto& flag) {
    return flag.first != "--threads" && flag.first != "--telemetry" &&
           flag.first != "--prom" && flag.first != "--sample-every" &&
           flag.first != "--top";
  });
  if (!parse_flags(flags, argc, argv, 3)) return usage();
  if (opt.threads != 0) set_default_threads(opt.threads);
  std::printf("replaying %s: command '%s', n=%zu, seed %s, %zu rounds\n",
              path.c_str(), opt.command.c_str(), opt.n,
              net::hex_u64(opt.seed).c_str(), rec->rounds.size());
  opt.replay_reference = std::make_shared<net::Recording>(std::move(*rec));
  if (opt.command == "channel") return run_channel(opt);
  if (opt.command == "publish") return run_publish(opt);
  if (opt.command == "pseudosig") return run_pseudosig(opt);
  std::fprintf(stderr, "recording command '%s' is not replayable\n",
               opt.command.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "replay") == 0) {
    try {
      return run_replay(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  Options opt;
  if (!parse(argc, argv, opt)) return usage();
  ObservabilityScope observability(opt);
  try {
    if (opt.command == "channel") return run_channel(opt);
    if (opt.command == "publish") return run_publish(opt);
    if (opt.command == "pseudosig") return run_pseudosig(opt);
    if (opt.command == "compare") return run_compare(opt);
    if (opt.command == "serve") return run_serve(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
