#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <string_view>

#include "anonchan/anonchan.hpp"
#include "anonchan/params.hpp"
#include "common/digest.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "net/recorder.hpp"
#include "server/supervisor.hpp"
#include "vss/schemes.hpp"

namespace perfbench {

namespace ac = gfor14::anonchan;
namespace net = gfor14::net;
namespace server = gfor14::server;
namespace vss = gfor14::vss;
using gfor14::Fld;

void Work::add_costs(const net::CostReport& c) {
  rounds += c.rounds;
  broadcast_rounds += c.broadcast_rounds;
  p2p_messages += c.p2p_messages;
  p2p_bytes += c.p2p_elements * sizeof(std::uint64_t);
  broadcast_bytes += c.broadcast_elements * sizeof(std::uint64_t);
}

void Work::add_counters(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  for (const auto& [name, value] : counters) {
    if (name == "net.alloc.count") net_alloc_count += value;
    if (name == "net.alloc.bytes") net_alloc_bytes += value;
    if (name == "vss.alloc.count") vss_alloc_count += value;
    if (name == "vss.alloc.bytes") vss_alloc_bytes += value;
  }
}

Work& Work::operator+=(const Work& o) {
  rounds += o.rounds;
  expected_rounds += o.expected_rounds;
  broadcast_rounds += o.broadcast_rounds;
  expected_broadcast_rounds += o.expected_broadcast_rounds;
  p2p_messages += o.p2p_messages;
  p2p_bytes += o.p2p_bytes;
  broadcast_bytes += o.broadcast_bytes;
  net_alloc_count += o.net_alloc_count;
  net_alloc_bytes += o.net_alloc_bytes;
  vss_alloc_count += o.vss_alloc_count;
  vss_alloc_bytes += o.vss_alloc_bytes;
  recorder_bytes += o.recorder_bytes;
  return *this;
}

namespace {

bool is_honest_input(const Delivery& d, std::size_t i) {
  return i != d.receiver && d.inputs[i] != Fld::zero();
}

}  // namespace

std::size_t honest_messages(std::span<const Delivery> sessions) {
  std::size_t count = 0;
  for (const auto& d : sessions)
    for (std::size_t i = 0; i < d.inputs.size(); ++i)
      if (is_honest_input(d, i)) ++count;
  return count;
}

std::size_t missing_messages(std::span<const Delivery> sessions) {
  std::size_t missing = 0;
  for (const auto& d : sessions)
    for (std::size_t i = 0; i < d.inputs.size(); ++i)
      if (is_honest_input(d, i) &&
          std::find(d.y.begin(), d.y.end(), d.inputs[i]) == d.y.end())
        ++missing;
  return missing;
}

namespace {

// Stream tags separating the independent draws made from one seed.
constexpr std::uint64_t kInputTag = 0x1a97u;
constexpr std::uint64_t kNetTag = 0x2e75eedu;
constexpr std::uint64_t kMasterTag = 0x5e77e5u;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag,
                     std::uint64_t index) {
  return gfor14::Rng(seed ^ tag).fork(index).next_u64();
}

/// Params::practical with the sparsity d raised to 16 (ell = 4 n^2 d, as the
/// profile keeps it). At the profile's d = 8 an honest message loses enough
/// copies to collisions to miss Y about once per 2e4 messages, which a
/// benchmark run reaches; at d = 16 that loss is negligible.
ac::Params channel_params(std::size_t n, std::size_t kappa) {
  ac::Params p = ac::Params::practical(n, kappa);
  p.d = std::max<std::size_t>(p.d, 16);
  p.ell = 4 * n * n * p.d;
  return p;
}

/// Distinct non-zero messages for every sender; zero for the receiver.
std::vector<Fld> draw_inputs(gfor14::Rng& rng, std::size_t n,
                             net::PartyId receiver) {
  std::vector<Fld> x(n, Fld::zero());
  for (std::size_t i = 0; i < n; ++i) {
    if (i == receiver) continue;
    do {
      x[i] = Fld::random_nonzero(rng);
    } while (std::count(x.begin(), x.end(), x[i]) > 1);
  }
  return x;
}

void absorb_y(gfor14::Digest64& d, const std::vector<Fld>& y) {
  d.absorb_u64(y.size());
  for (const Fld& v : y) d.absorb_u64(v.to_u64());
}

std::uint64_t stored_payload_bytes(const net::Recording& rec) {
  std::uint64_t elements = 0;
  for (const auto& round : rec.rounds)
    for (const auto& m : round.messages) elements += m.payload.size();
  return elements * sizeof(std::uint64_t);
}

/// Back-to-back AnonChan invocations over a fresh Network each: chan_n6_rb
/// (one session per run) and batch_n4_ggor_recorded (run_many with a
/// full-fidelity recorder attached).
class ChannelWorkload final : public Workload {
 public:
  struct Shape {
    std::size_t n;
    vss::SchemeKind scheme;
    std::size_t kappa;
    std::size_t sessions;  ///< 1 = AnonChan::run, more = run_many
    std::size_t lanes;
    bool record;
  };

  ChannelWorkload(Shape shape, std::uint64_t seed)
      : shape_(shape),
        seed_(seed),
        params_(channel_params(shape.n, shape.kappa)),
        receiver_(shape.n - 1) {}

  std::string describe() const override {
    return "n=" + std::to_string(shape_.n) + " scheme=" +
           vss::scheme_name(shape_.scheme) + " kappa=" +
           std::to_string(shape_.kappa) + " d=" + std::to_string(params_.d) +
           " sessions_per_op=" +
           std::to_string(shape_.sessions) + " lanes=" +
           std::to_string(shape_.lanes) + " recorder=" +
           (shape_.record ? "full" : "none");
  }

  std::size_t span_length() const override {
    return params_.sender_batch_size();
  }

  OpResult run(std::uint64_t index, bool traced) override {
    gfor14::Rng rng(derive(seed_, kInputTag, index));
    std::vector<std::vector<Fld>> inputs(shape_.sessions);
    for (auto& x : inputs) x = draw_inputs(rng, shape_.n, receiver_);
    const std::uint64_t net_seed = derive(seed_, kNetTag, index);

    // Every counter the stack charges lands in this scope, reset per op.
    auto scope = gfor14::metrics::Registry::instance().scope("perfbench");
    scope->reset();

    OpResult r;
    std::shared_ptr<net::Recorder> recorder;
    ac::ManyOutput out;
    net::CostReport costs;
    const auto t0 = Clock::now();
    {
      gfor14::metrics::RegistryAttachment attach(scope);
      net::Network network(shape_.n, net_seed);
      network.set_threads(shape_.lanes);
      if (shape_.record) {
        recorder = std::make_shared<net::Recorder>();
        if (traced)
          network.attach_observer(
              std::make_shared<TimedObserver>(recorder, r.layers.recorder_ms));
        else
          network.attach_observer(recorder);
      }
      if (traced)
        network.attach_observer(
            std::make_shared<BarrierClock>(r.layers.round_wall_ms));
      std::unique_ptr<vss::VssScheme> scheme =
          vss::make_vss(shape_.scheme, network);
      if (traced)
        scheme = std::make_unique<TimedVss>(std::move(scheme), r.layers);
      ac::AnonChan chan(network, *scheme, params_);

      const auto run0 = Clock::now();
      if (shape_.sessions == 1)
        out.sessions.push_back(chan.run(receiver_, inputs[0]));
      else
        out = chan.run_many(receiver_, inputs);
      r.run_ms = ms_between(run0, Clock::now());

      costs = network.costs();
      r.work.expected_rounds = chan.expected_rounds();
      r.work.expected_broadcast_rounds = chan.expected_broadcast_rounds();
    }
    r.wall_ms = ms_between(t0, Clock::now());
    r.latency_ms.push_back(r.wall_ms);

    r.work.add_costs(costs);
    r.work.add_counters(scope->counters_snapshot());
    if (r.work.rounds != r.work.expected_rounds)
      r.errors.push_back("rounds " + std::to_string(r.work.rounds) +
                         " != expected " +
                         std::to_string(r.work.expected_rounds));
    if (r.work.broadcast_rounds != r.work.expected_broadcast_rounds)
      r.errors.push_back("broadcast rounds " +
                         std::to_string(r.work.broadcast_rounds) +
                         " != expected " +
                         std::to_string(r.work.expected_broadcast_rounds));

    gfor14::Digest64 digest;
    if (recorder) {
      const net::Recording& rec = recorder->recording();
      r.work.recorder_bytes = stored_payload_bytes(rec);
      digest.absorb_u64(rec.final_digest);
    }
    r.sessions_attempted = shape_.sessions;
    r.sessions_completed = out.sessions.size();
    for (std::size_t s = 0; s < out.sessions.size(); ++s) {
      absorb_y(digest, out.sessions[s].y);
      r.deliveries.push_back(
          {inputs[s], receiver_, std::move(out.sessions[s].y)});
    }
    r.digest = digest.value();
    return r;
  }

 private:
  Shape shape_;
  std::uint64_t seed_;
  ac::Params params_;
  net::PartyId receiver_;
};

/// serve_n4_churn: one client thread admits sessions with try_submit until
/// the bounded queue refuses, runs a wave, and repeats until kSessions have
/// been admitted and finished; the operation ends with drain(). Chaos
/// crashes every 4th session on its first attempt, so exactly a quarter of
/// the sessions retry for chaos. Sessions run the practical profile (d = 8),
/// so the policy's min_delivered retries the rare session whose Y lost an
/// honest message to collisions.
class ServeWorkload final : public Workload {
 public:
  static constexpr std::size_t kN = 4;
  static constexpr std::size_t kKappa = 2;
  static constexpr std::size_t kSessions = 32;
  static constexpr std::size_t kStrands = 4;
  static constexpr std::size_t kQueueCapacity = 8;
  static constexpr std::size_t kChaosEvery = 4;

  explicit ServeWorkload(std::uint64_t seed) : seed_(seed) {
    // The analytic round bill of one session, from a throwaway stack.
    net::Network network(kN, 0);
    auto scheme = vss::make_vss(vss::SchemeKind::kRB, network);
    ac::AnonChan chan(network, *scheme, ac::Params::practical(kN, kKappa));
    expected_rounds_ = chan.expected_rounds();
    expected_broadcast_rounds_ = chan.expected_broadcast_rounds();
    span_length_ = chan.params().sender_batch_size();
  }

  std::string describe() const override {
    return "n=" + std::to_string(kN) + " scheme=" +
           vss::scheme_name(vss::SchemeKind::kRB) + " kappa=" +
           std::to_string(kKappa) + " sessions_per_op=" +
           std::to_string(kSessions) + " strands=" + std::to_string(kStrands) +
           " queue_capacity=" + std::to_string(kQueueCapacity) +
           " chaos_every=" + std::to_string(kChaosEvery) +
           " min_delivered=" + std::to_string(kN - 1) +
           " recorder=full lanes=1";
  }

  std::size_t span_length() const override { return span_length_; }

  OpResult run(std::uint64_t index, bool traced) override {
    server::SupervisorOptions opt;
    opt.master_seed = derive(seed_, kMasterTag, index);
    opt.threads = kStrands;
    opt.queue_capacity = kQueueCapacity;
    opt.retry.max_attempts = 3;
    opt.retry.min_delivered = kN - 1;
    opt.chaos.enabled = true;
    opt.chaos.every = kChaosEvery;
    opt.chaos.crash_attempts = 1;

    std::vector<server::SessionConfig> configs(kSessions);
    gfor14::Rng rng(derive(seed_, kInputTag, index));
    for (std::size_t k = 0; k < kSessions; ++k) {
      configs[k].id = k + 1;
      configs[k].n = kN;
      configs[k].scheme = vss::SchemeKind::kRB;
      configs[k].kappa = kKappa;
      configs[k].inputs =
          draw_inputs(rng, kN, configs[k].effective_receiver());
    }

    OpResult r;
    ServerTimes& st = r.server;
    std::map<std::uint64_t, Clock::time_point> open;  // id -> admitted at
    server::RuntimeReport report;
    const auto t0 = Clock::now();
    {
      server::SupervisedRuntime runtime(opt);
      std::size_t next = 0;
      while (next < kSessions || !runtime.idle()) {
        for (; next < kSessions; ++next) {
          const auto ts = Clock::now();
          const bool admitted = runtime.try_submit(configs[next]);
          const auto te = Clock::now();
          if (traced) st.submit_ms += ms_between(ts, te);
          if (!admitted) break;
          open.emplace(configs[next].id, te);
        }
        const auto tw = Clock::now();
        const std::size_t ran = runtime.run_wave();
        const auto wave_end = Clock::now();
        if (traced) st.wave_ms.push_back(ms_between(tw, wave_end));
        if (ran == 0) {
          r.errors.push_back("run_wave made no progress");
          break;
        }
        for (auto it = open.begin(); it != open.end();) {
          const auto state = runtime.state_of(it->first);
          if (state == server::SessionState::kCompleted)
            r.latency_ms.push_back(ms_between(it->second, wave_end));
          if (state == server::SessionState::kCompleted ||
              state == server::SessionState::kFailed)
            it = open.erase(it);
          else
            ++it;
        }
      }
      const auto td = Clock::now();
      report = runtime.drain();
      if (traced) st.drain_ms = ms_between(td, Clock::now());
    }
    r.wall_ms = ms_between(t0, Clock::now());

    if (report.admitted != kSessions)
      r.errors.push_back("admitted " + std::to_string(report.admitted));
    if (report.failed_sessions != 0)
      r.errors.push_back("gave up on " +
                         std::to_string(report.failed_sessions) + " sessions");
    std::size_t crashes = 0;
    for (const auto& e : report.schedule) {
      if (e.kind != server::ScheduleEvent::Kind::kFail) continue;
      if (e.failure == net::FailureKind::kInjectedCrash)
        ++crashes;
      else if (e.failure != net::FailureKind::kDeliveryShortfall)
        r.errors.push_back(std::string("attempt failed: ") +
                           net::failure_kind_name(e.failure));
    }
    if (crashes != kSessions / kChaosEvery)
      r.errors.push_back("chaos crashed " + std::to_string(crashes) +
                         " attempts, expected " +
                         std::to_string(kSessions / kChaosEvery));

    gfor14::Digest64 digest;
    const std::string schedule = server::format_schedule(report.schedule);
    for (char c : schedule) digest.absorb_u64(static_cast<unsigned char>(c));
    std::map<std::uint64_t, const server::SessionResult*> by_id;
    for (const auto& res : report.completed) {
      by_id[res.config.id] = &res;
      digest.absorb_u64(res.transcript_digest);
      absorb_y(digest, res.output.y);
      r.work.add_costs(res.costs);
      r.work.add_counters(res.counters);
      r.work.recorder_bytes += stored_payload_bytes(res.recording);
      r.work.expected_rounds += expected_rounds_;
      r.work.expected_broadcast_rounds += expected_broadcast_rounds_;
      if (traced) {
        st.session_exec_ms.push_back(res.wall_ms);
        st.attempt_ms += res.wall_ms;
        // Barrier-to-barrier round walls as each session's recorder saw
        // them (the session stack is built inside the runtime).
        for (const auto& round : res.recording.rounds)
          r.layers.round_wall_ms.push_back(round.profile.wall_us / 1000.0);
      }
    }
    if (r.work.rounds != r.work.expected_rounds)
      r.errors.push_back("rounds " + std::to_string(r.work.rounds) +
                         " != expected " +
                         std::to_string(r.work.expected_rounds));
    r.digest = digest.value();

    // A session that never completed delivers nothing: its honest inputs
    // all count as missing.
    r.sessions_attempted = kSessions;
    r.sessions_completed = report.completed.size();
    for (const auto& cfg : configs) {
      auto it = by_id.find(cfg.id);
      r.deliveries.push_back({cfg.inputs, cfg.effective_receiver(),
                              it == by_id.end() ? std::vector<Fld>{}
                                                : it->second->output.y});
    }
    if (traced) {
      for (const auto& f : report.failures) st.attempt_ms += f.wall_ms;
      st.strands = report.threads;
      st.waves = report.waves;
      st.retry_rate = report.retry_rate;
    }
    return r;
  }

 private:
  std::uint64_t seed_;
  std::size_t expected_rounds_ = 0;
  std::size_t expected_broadcast_rounds_ = 0;
  std::size_t span_length_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "chan_n6_rb", "batch_n4_ggor_recorded", "serve_n4_churn"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "chan_n6_rb")
    return std::make_unique<ChannelWorkload>(
        ChannelWorkload::Shape{6, vss::SchemeKind::kRB, 2, 1, 4, false},
        seed);
  if (name == "batch_n4_ggor_recorded")
    return std::make_unique<ChannelWorkload>(
        ChannelWorkload::Shape{4, vss::SchemeKind::kGGOR13, 2, 8, 1, true},
        seed);
  if (name == "serve_n4_churn") return std::make_unique<ServeWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
