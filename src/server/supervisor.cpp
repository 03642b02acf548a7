#include "server/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace gfor14::server {

const char* session_state_name(SessionState state) {
  switch (state) {
    case SessionState::kAdmitted: return "admitted";
    case SessionState::kRunning: return "running";
    case SessionState::kCompleted: return "completed";
    case SessionState::kFailed: return "failed";
  }
  return "failed";
}

std::size_t RetryPolicy::backoff_waves(std::size_t attempt) const {
  GFOR14_EXPECTS(attempt >= 1);
  // min(1 << (attempt - 1), cap): 1 << 3 already is the cap, so no larger
  // shift is ever taken.
  static_assert(kBackoffCap == std::size_t{1} << 3);
  const std::size_t shift = attempt - 1;
  return shift >= 3 ? kBackoffCap : std::size_t{1} << shift;
}

std::optional<std::size_t> chaos_crash_round(const ChaosOptions& chaos,
                                             std::uint64_t master_seed,
                                             std::uint64_t session_id,
                                             std::size_t attempt) {
  if (!chaos.enabled) return std::nullopt;
  const std::size_t every = chaos.every == 0 ? 1 : chaos.every;
  if (session_id % every != 0) return std::nullopt;
  if (attempt >= chaos.crash_attempts) return std::nullopt;
  constexpr std::size_t lo = ChaosOptions::kMinRound;
  constexpr std::size_t hi = ChaosOptions::kMaxRound;
  // A chaos-private lineage (master xor a fixed tag) so injecting crashes
  // never perturbs any session's own Rng stream; forked by (id, attempt + 1)
  // the round is a pure function of the schedule coordinates.
  Rng r = Rng(master_seed ^ 0xC7A05FA117ULL).fork(session_id).fork(attempt + 1);
  return lo + static_cast<std::size_t>(r.next_below(hi - lo));
}

const char* schedule_event_name(ScheduleEvent::Kind kind) {
  switch (kind) {
    case ScheduleEvent::Kind::kAdmit: return "admit";
    case ScheduleEvent::Kind::kComplete: return "complete";
    case ScheduleEvent::Kind::kFail: return "fail";
    case ScheduleEvent::Kind::kRetry: return "retry";
    case ScheduleEvent::Kind::kGiveUp: return "give_up";
  }
  return "admit";
}

std::string format_schedule(const std::vector<ScheduleEvent>& events) {
  std::string out;
  for (const auto& e : events) {
    out += "w" + std::to_string(e.wave) + " " + schedule_event_name(e.kind) +
           " id=" + std::to_string(e.session_id) +
           " attempt=" + std::to_string(e.attempt);
    if (e.kind == ScheduleEvent::Kind::kRetry)
      out += " eligible=w" + std::to_string(e.eligible_wave);
    if (e.kind == ScheduleEvent::Kind::kFail ||
        e.kind == ScheduleEvent::Kind::kGiveUp)
      out += " cause=" + std::string(net::failure_kind_name(e.failure));
    out += "\n";
  }
  return out;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t idx =
      std::min(sorted.size() - 1, static_cast<std::size_t>(pos + 0.5));
  return sorted[idx];
}

SupervisedRuntime::SupervisedRuntime(SupervisorOptions options)
    : options_(options),
      started_(std::chrono::steady_clock::now()),
      slo_(options.slo) {
  GFOR14_EXPECTS(options_.queue_capacity >= 1);
  GFOR14_EXPECTS(options_.retry.max_attempts >= 1);
  auto& root = metrics::Registry::instance();
  meters_.admitted = &root.counter("server.admitted");
  meters_.completed = &root.counter("server.completed");
  meters_.failed = &root.counter("server.failed");
  meters_.retried = &root.counter("server.retried");
  meters_.failed_sessions = &root.counter("server.failed_sessions");
  meters_.queue_depth = &root.gauge("server.queue_depth");
  meters_.degraded = &root.gauge("server.degraded");
  meters_.slo_breaches = &root.gauge("server.slo_breaches");
}

SupervisedRuntime::~SupervisedRuntime() { close(); }

std::size_t SupervisedRuntime::threads() const {
  return options_.threads == 0 ? default_threads() : options_.threads;
}

std::size_t SupervisedRuntime::pending_locked() const {
  std::size_t pending = 0;
  for (const auto& [id, entry] : entries_)
    if (entry.state == SessionState::kAdmitted ||
        entry.state == SessionState::kRunning)
      ++pending;
  return pending;
}

void SupervisedRuntime::set_queue_gauges_locked() {
  const std::size_t depth = pending_locked();
  high_water_ = std::max(high_water_, depth);
  meters_.queue_depth->set(static_cast<double>(depth));
  // Degraded while any session has permanently failed or a crashed session
  // is still waiting out its retry backoff; healthy again once the retry
  // backlog clears with no give-ups.
  bool degraded = false;
  for (const auto& [id, entry] : entries_) {
    if (entry.state == SessionState::kFailed) degraded = true;
    if (entry.state == SessionState::kAdmitted && entry.attempt > 0)
      degraded = true;
  }
  // The gauge keeps its legacy meaning and additionally trips while any
  // declared SLO is breached; the WHICH/by-how-much/since-when story lives
  // in the structured SloStatus (slo_status(), RuntimeReport.slo).
  meters_.degraded->set(degraded || slo_.status().degraded() ? 1.0 : 0.0);
}

void SupervisedRuntime::evaluate_slo_locked(std::size_t wave) {
  SloInputs in;
  in.retry_rate = entries_.empty()
                      ? 0.0
                      : static_cast<double>(retries_) /
                            static_cast<double>(entries_.size());
  const std::size_t terminal = completed_.size() + failed_sessions_;
  in.honest_delivery =
      terminal == 0 ? 1.0
                    : static_cast<double>(completed_.size()) /
                          static_cast<double>(terminal);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  in.messages_per_sec =
      elapsed_s > 0.0 ? static_cast<double>(messages_delivered_) / elapsed_s
                      : 0.0;
  // Sessions observe their round walls into their own scope, which forwards
  // to the root at observe time — the root histogram sees every co-scheduled
  // session's rounds.
  in.round_wall_p95_us =
      metrics::Registry::instance().histogram("net.round_wall_us").quantile(
          0.95);
  const SloStatus& status = slo_.evaluate(in, wave);
  meters_.slo_breaches->set(static_cast<double>(status.breaches.size()));
}

bool SupervisedRuntime::admit_locked(SessionConfig&& config,
                                     std::unique_lock<std::mutex>&) {
  if (closed_) return false;
  GFOR14_EXPECTS(entries_.find(config.id) == entries_.end());
  Entry entry;
  entry.state = SessionState::kAdmitted;
  entry.attempt = 0;
  entry.eligible_wave = wave_;
  entry.admission_index = admission_counter_++;
  entry.admitted_at = std::chrono::steady_clock::now();
  const std::uint64_t id = config.id;
  entry.config = std::move(config);
  entries_.emplace(id, std::move(entry));
  ScheduleEvent e;
  e.kind = ScheduleEvent::Kind::kAdmit;
  e.wave = wave_;
  e.session_id = id;
  e.attempt = 0;
  schedule_.push_back(e);
  meters_.admitted->add();
  set_queue_gauges_locked();
  return true;
}

bool SupervisedRuntime::submit(SessionConfig config) {
  std::unique_lock<std::mutex> lock(mu_);
  space_.wait(lock, [&] {
    return closed_ || pending_locked() < options_.queue_capacity;
  });
  return admit_locked(std::move(config), lock);
}

bool SupervisedRuntime::try_submit(SessionConfig config) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_ || pending_locked() >= options_.queue_capacity) return false;
  return admit_locked(std::move(config), lock);
}

void SupervisedRuntime::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  space_.notify_all();
}

std::size_t SupervisedRuntime::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_locked();
}

std::size_t SupervisedRuntime::queue_high_water() const {
  std::lock_guard<std::mutex> lock(mu_);
  return high_water_;
}

SessionState SupervisedRuntime::state_of(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  GFOR14_EXPECTS(it != entries_.end());
  return it->second.state;
}

bool SupervisedRuntime::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_locked() == 0;
}

AttemptSpec SupervisedRuntime::make_attempt_spec(const Entry& entry) const {
  AttemptSpec spec;
  spec.attempt = entry.attempt;
  spec.round_budget = options_.retry.round_budget;
  spec.min_delivered = options_.retry.min_delivered;
  spec.crash_at_round = chaos_crash_round(options_.chaos, options_.master_seed,
                                          entry.config.id, entry.attempt);
  return spec;
}

std::size_t SupervisedRuntime::run_wave() {
  // Snapshot this wave's work under the lock, in admission order.
  struct Work {
    std::uint64_t id = 0;
    SessionConfig config;
    AttemptSpec spec;
    std::chrono::steady_clock::time_point admitted_at;
  };
  std::vector<Work> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    GFOR14_EXPECTS(!draining_wave_);  // one wave-driving thread at a time
    // Fast-forward over empty waves: when everything admitted is a retry
    // waiting out its backoff, jump straight to the earliest eligible wave
    // instead of burning wave numbers (keeps the schedule canonical).
    std::size_t earliest = static_cast<std::size_t>(-1);
    for (const auto& [id, entry] : entries_)
      if (entry.state == SessionState::kAdmitted)
        earliest = std::min(earliest, entry.eligible_wave);
    if (earliest == static_cast<std::size_t>(-1)) return 0;
    wave_ = std::max(wave_, earliest);
    for (auto& [id, entry] : entries_) {
      if (entry.state != SessionState::kAdmitted) continue;
      if (entry.eligible_wave > wave_) continue;
      entry.state = SessionState::kRunning;
      Work w;
      w.id = id;
      w.config = entry.config;
      w.spec = make_attempt_spec(entry);
      w.admitted_at = entry.admitted_at;
      work.push_back(std::move(w));
    }
    GFOR14_EXPECTS(!work.empty());
    std::sort(work.begin(), work.end(), [&](const Work& a, const Work& b) {
      return entries_.at(a.id).admission_index <
             entries_.at(b.id).admission_index;
    });
    draining_wave_ = true;
  }

  // Execute the wave: one barrier across the pool, failures contained
  // per-strand inside run_attempt — nothing escapes the parallel_for.
  std::vector<SessionOutcome> outcomes(work.size());
  ThreadPool::instance().parallel_for(
      0, work.size(), threads(), [&](std::size_t i) {
        try {
          outcomes[i] = run_attempt(work[i].config, options_.master_seed,
                                    work[i].spec);
        } catch (const std::exception& e) {
          // run_attempt contains everything thrown mid-protocol; this
          // backstop catches precondition failures raised before the
          // session's Network even exists (e.g. an invalid config), so a
          // supervised strand can NEVER leak an exception.
          FailureRecord f;
          f.session_id = work[i].id;
          f.attempt = work[i].spec.attempt;
          f.kind = net::classify_failure(e);
          f.what = e.what();
          outcomes[i].failure = std::move(f);
        }
      });
  const auto wave_end = std::chrono::steady_clock::now();

  // Record outcomes and schedule retries, in admission order — so the
  // schedule log and the completed/failures vectors are identical at every
  // thread count.
  std::lock_guard<std::mutex> lock(mu_);
  draining_wave_ = false;
  const std::size_t this_wave = wave_;
  for (std::size_t i = 0; i < work.size(); ++i) {
    Entry& entry = entries_.at(work[i].id);
    ScheduleEvent e;
    e.wave = this_wave;
    e.session_id = work[i].id;
    e.attempt = work[i].spec.attempt;
    if (outcomes[i].ok()) {
      entry.state = SessionState::kCompleted;
      e.kind = ScheduleEvent::Kind::kComplete;
      schedule_.push_back(e);
      admit_to_complete_ms_.push_back(
          std::chrono::duration<double, std::milli>(wave_end -
                                                    work[i].admitted_at)
              .count());
      messages_delivered_ += outcomes[i].result->messages_delivered;
      completed_.push_back(std::move(*outcomes[i].result));
      meters_.completed->add();
    } else {
      const FailureRecord& f = *outcomes[i].failure;
      e.kind = ScheduleEvent::Kind::kFail;
      e.failure = f.kind;
      schedule_.push_back(e);
      failures_.push_back(f);
      meters_.failed->add();
      const std::size_t next_attempt = entry.attempt + 1;
      if (next_attempt < options_.retry.max_attempts) {
        entry.attempt = next_attempt;
        entry.state = SessionState::kAdmitted;
        entry.eligible_wave =
            this_wave + 1 + options_.retry.backoff_waves(next_attempt);
        ++retries_;
        meters_.retried->add();
        ScheduleEvent r = e;
        r.kind = ScheduleEvent::Kind::kRetry;
        r.attempt = next_attempt;
        r.eligible_wave = entry.eligible_wave;
        schedule_.push_back(r);
      } else {
        entry.state = SessionState::kFailed;
        ScheduleEvent g = e;
        g.kind = ScheduleEvent::Kind::kGiveUp;
        schedule_.push_back(g);
        ++failed_sessions_;
        meters_.failed_sessions->add();
      }
    }
  }
  wave_ = this_wave + 1;
  ++waves_run_;
  evaluate_slo_locked(this_wave);
  set_queue_gauges_locked();
  space_.notify_all();
  return work.size();
}

RuntimeReport SupervisedRuntime::drain() {
  close();
  while (run_wave() != 0) {
  }
  const auto ended = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(mu_);
  // No leaked sessions: every admitted entry must be terminal.
  for (const auto& [id, entry] : entries_)
    GFOR14_EXPECTS(entry.state == SessionState::kCompleted ||
                   entry.state == SessionState::kFailed);

  RuntimeReport report;
  report.completed = completed_;
  report.failures = failures_;
  report.schedule = schedule_;
  report.admitted = entries_.size();
  report.completed_sessions = completed_.size();
  report.failed_attempts = failures_.size();
  report.retries = retries_;
  report.waves = waves_run_;
  report.threads = threads();
  report.queue_high_water = high_water_;
  for (const auto& [id, entry] : entries_)
    if (entry.state == SessionState::kFailed) ++report.failed_sessions;
  for (const auto& r : completed_)
    report.messages_delivered += r.messages_delivered;
  if (report.admitted > 0)
    report.retry_rate = static_cast<double>(report.retries) /
                        static_cast<double>(report.admitted);
  report.wall_ms =
      std::chrono::duration<double, std::milli>(ended - started_).count();
  if (report.wall_ms > 0.0)
    report.messages_per_sec =
        static_cast<double>(report.messages_delivered) /
        (report.wall_ms / 1000.0);
  std::vector<double> lat = admit_to_complete_ms_;
  std::sort(lat.begin(), lat.end());
  report.p50_admit_to_complete_ms = percentile_sorted(lat, 0.50);
  report.p95_admit_to_complete_ms = percentile_sorted(lat, 0.95);
  report.slo = slo_.status();
  return report;
}

SloStatus SupervisedRuntime::slo_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slo_.status();
}

}  // namespace gfor14::server
