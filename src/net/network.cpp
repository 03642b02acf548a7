#include "net/network.hpp"

#include <algorithm>
#include <chrono>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "net/faultplan.hpp"

namespace gfor14::net {

const Payload& PendingView::payload() const {
  // A stale stamp means the queue this view pointed into was rewritten
  // (replace_pending / fault injection) or the round ended; reading through
  // it would be use-after-free, so fail loudly instead.
  GFOR14_EXPECTS(net_ != nullptr);
  GFOR14_EXPECTS(stamp_ == net_->channel_stamp(from_, to_));
  const auto& slot = net_->pending_.p2p[to_][from_];
  GFOR14_EXPECTS(index_ < slot.size());
  return slot[index_];
}

CostReport CostReport::operator-(const CostReport& o) const {
  // Counters are monotone at round boundaries, so a snapshot delta can
  // never be negative; an underflowing subtraction means the operands were
  // swapped or taken from different networks. Guard every field rather than
  // silently wrapping to ~2^64.
  GFOR14_EXPECTS(rounds >= o.rounds);
  GFOR14_EXPECTS(broadcast_rounds >= o.broadcast_rounds);
  GFOR14_EXPECTS(broadcast_invocations >= o.broadcast_invocations);
  GFOR14_EXPECTS(p2p_messages >= o.p2p_messages);
  GFOR14_EXPECTS(p2p_elements >= o.p2p_elements);
  GFOR14_EXPECTS(broadcast_elements >= o.broadcast_elements);
  CostReport r;
  r.rounds = rounds - o.rounds;
  r.broadcast_rounds = broadcast_rounds - o.broadcast_rounds;
  r.broadcast_invocations = broadcast_invocations - o.broadcast_invocations;
  r.p2p_messages = p2p_messages - o.p2p_messages;
  r.p2p_elements = p2p_elements - o.p2p_elements;
  r.broadcast_elements = broadcast_elements - o.broadcast_elements;
  return r;
}

void RoundTraffic::reset(std::size_t n) {
  p2p.assign(n, std::vector<PayloadQueue>(n));
  bcast.assign(n, PayloadQueue{});
}

Network::Network(std::size_t n, std::uint64_t seed)
    : n_(n),
      threads_(default_threads()),
      registry_(metrics::Registry::current_shared()),
      corrupt_(n, false),
      adv_rng_(seed ^ 0xADE5A11ULL),
      prev_barrier_(std::chrono::steady_clock::now()),
      channel_stamp_(n * n, 0),
      blame_(n + 1) {
  GFOR14_EXPECTS(n >= 2);
  meters_.rounds = &registry_->counter("net.rounds");
  meters_.broadcast_rounds = &registry_->counter("net.broadcast_rounds");
  meters_.broadcast_invocations =
      &registry_->counter("net.broadcast_invocations");
  meters_.p2p_messages = &registry_->counter("net.p2p_messages");
  meters_.p2p_elements = &registry_->counter("net.p2p_elements");
  meters_.broadcast_elements = &registry_->counter("net.broadcast_elements");
  meters_.alloc_count = &registry_->counter("net.alloc.count");
  meters_.alloc_bytes = &registry_->counter("net.alloc.bytes");
  meters_.round_wall = &registry_->histogram("net.round_wall_us");
  Rng root(seed);
  party_rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) party_rng_.push_back(root.fork(i));
  pending_.reset(n);
  delivered_ = std::make_shared<const RoundTraffic>(pending_);  // empty
}

void Network::set_corrupt(PartyId p, bool corrupt) {
  GFOR14_EXPECTS(p < n_);
  corrupt_[p] = corrupt;
}

bool Network::is_corrupt(PartyId p) const {
  GFOR14_EXPECTS(p < n_);
  return corrupt_[p];
}

std::size_t Network::num_corrupt() const {
  std::size_t t = 0;
  for (bool c : corrupt_)
    if (c) ++t;
  return t;
}

void Network::corrupt_first(std::size_t t) {
  GFOR14_EXPECTS(t <= n_);
  for (std::size_t i = 0; i < n_; ++i) corrupt_[i] = i < t;
}

Rng& Network::rng_of(PartyId p) {
  GFOR14_EXPECTS(p < n_);
  return party_rng_[p];
}

void Network::set_threads(std::size_t threads) {
  threads_ = threads == 0 ? hardware_threads() : threads;
}

void Network::detach_observer(const RoundObserver* obs) {
  observers_.erase(
      std::remove_if(observers_.begin(), observers_.end(),
                     [obs](const std::shared_ptr<RoundObserver>& o) {
                       return o.get() == obs;
                     }),
      observers_.end());
}

void Network::run_round(const PartyHandler& handler) {
  begin_round();
  // Handlers only touch their own lane, their own party slots and their own
  // forked rng_of(p) stream, so they can run on any number of workers; the
  // lanes are then replayed below in ascending sender order, which is
  // exactly the order the serial engine issues sends in. All cost
  // accounting happens in the replay, on this thread.
  std::vector<RoundLane> lanes(n_);
  if (threads_ <= 1) {
    for (PartyId p = 0; p < n_; ++p) handler(p, lanes[p]);
  } else {
    ThreadPool::instance().parallel_for(
        0, n_, threads_, [&](std::size_t p) { handler(p, lanes[p]); });
  }
  for (PartyId p = 0; p < n_; ++p) {
    for (auto& item : lanes[p].items_) {
      if (item.is_broadcast)
        broadcast(p, std::move(item.payload));
      else
        send(p, item.to, std::move(item.payload));
    }
  }
  end_round();
}

void Network::for_each_party(const std::function<void(PartyId)>& fn) const {
  if (threads_ <= 1) {
    for (PartyId p = 0; p < n_; ++p) fn(p);
  } else {
    ThreadPool::instance().parallel_for(0, n_, threads_, fn);
  }
}

void Network::begin_round() {
  GFOR14_EXPECTS(!in_round_);
  if (max_rounds_ != 0 && costs_.rounds >= max_rounds_) {
    throw RoundLimitExceeded(
        "round watchdog: " + std::to_string(costs_.rounds) +
        " rounds elapsed, limit " + std::to_string(max_rounds_) +
        " (protocol wedged or budget too tight)");
  }
  in_round_ = true;
  in_adversary_turn_ = false;
  round_used_broadcast_ = false;
  round_start_costs_ = costs_;
  pending_.reset(n_);
  // Fresh validity stamp for every channel: views from earlier rounds die.
  std::fill(channel_stamp_.begin(), channel_stamp_.end(), ++stamp_counter_);
}

void Network::send(PartyId from, PartyId to, Payload payload) {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(from < n_ && to < n_);
  costs_.p2p_messages += 1;
  costs_.p2p_elements += payload.size();
  // Logical message-buffer accounting (ROADMAP item 3's success metric):
  // one buffer per queued message, payload.size() field elements deep.
  // Deterministic — a protocol sending N messages of B elements produces
  // exactly count += N, bytes += N * B * sizeof(Fld).
  meters_.alloc_count->add(1);
  meters_.alloc_bytes->add(payload.size() * sizeof(Fld));
  pending_.p2p[to][from].push_back(std::move(payload));
}

void Network::broadcast(PartyId from, Payload payload) {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(from < n_);
  costs_.broadcast_invocations += 1;
  costs_.broadcast_elements += payload.size();
  round_used_broadcast_ = true;
  // One buffer per broadcast invocation: the simulation stores a broadcast
  // payload once, however many parties read it.
  meters_.alloc_count->add(1);
  meters_.alloc_bytes->add(payload.size() * sizeof(Fld));
  pending_.bcast[from].push_back(std::move(payload));
}

void Network::end_round() {
  GFOR14_EXPECTS(in_round_);
  if (adversary_) {
    in_adversary_turn_ = true;
    adversary_->on_round(*this);
    in_adversary_turn_ = false;
  }
  if (fault_engine_) {
    // Wire faults hit whatever the rushing adversary left on the channels.
    fault_engine_->apply(*this);
    if (round_used_broadcast_) {
      // Faults may have retracted every broadcast; the physical channel then
      // went unused this round after all.
      bool any = false;
      for (const auto& q : pending_.bcast) any = any || !q.empty();
      round_used_broadcast_ = any;
    }
  }
  in_round_ = false;
  costs_.rounds += 1;
  if (round_used_broadcast_) costs_.broadcast_rounds += 1;
  delivered_ = std::make_shared<const RoundTraffic>(std::move(pending_));
  pending_.reset(n_);

  const CostReport round_delta = costs_ - round_start_costs_;
  // Scope aggregates; one map-free pointer add per field per round.
  meters_.rounds->add(round_delta.rounds);
  meters_.broadcast_rounds->add(round_delta.broadcast_rounds);
  meters_.broadcast_invocations->add(round_delta.broadcast_invocations);
  meters_.p2p_messages->add(round_delta.p2p_messages);
  meters_.p2p_elements->add(round_delta.p2p_elements);
  meters_.broadcast_elements->add(round_delta.broadcast_elements);
  // The round clock: one read per round, barrier to barrier.
  const auto now = std::chrono::steady_clock::now();
  last_round_wall_us_ =
      std::chrono::duration<double, std::micro>(now - prev_barrier_).count();
  prev_barrier_ = now;
  meters_.round_wall->observe(last_round_wall_us_);
  // Round barrier: push this scope's counter deltas into its parent, so
  // parent totals (and anything the observers — e.g. the telemetry
  // sampler — read) are exact here regardless of lane count.
  if (registry_->parent() != nullptr) registry_->roll_up();

  // Observers last: they see the fully settled round (delivered traffic,
  // costs, metrics, blame/tamper/fault logs) on the orchestrating thread.
  for (const auto& obs : observers_) obs->on_round_end(*this, round_delta);
}

std::vector<PendingView> Network::pending_to_corrupt(PartyId to) const {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(is_corrupt(to));
  std::vector<PendingView> out;
  for (PartyId from = 0; from < n_; ++from)
    for (std::size_t k = 0; k < pending_.p2p[to][from].size(); ++k)
      out.push_back(
          PendingView(from, this, from, to, k, channel_stamp(from, to)));
  return out;
}

const std::vector<PayloadQueue>& Network::pending_broadcasts() const {
  GFOR14_EXPECTS(in_round_);
  return pending_.bcast;
}

std::vector<PendingView> Network::pending_from_corrupt(PartyId from) const {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(is_corrupt(from));
  std::vector<PendingView> out;
  for (PartyId to = 0; to < n_; ++to)
    for (std::size_t k = 0; k < pending_.p2p[to][from].size(); ++k)
      out.push_back(
          PendingView(to, this, from, to, k, channel_stamp(from, to)));
  return out;
}

void Network::replace_pending(PartyId from, PartyId to,
                              std::vector<Payload> payloads) {
  GFOR14_EXPECTS(is_corrupt(from));
  substitute_p2p(from, to, std::move(payloads));
}

void Network::substitute_p2p(PartyId from, PartyId to,
                             std::vector<Payload> payloads) {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(from < n_ && to < n_);
  auto& slot = pending_.p2p[to][from];
  // Adjust accounting to reflect the substituted traffic symmetrically:
  // the replaced messages and elements come off the books, the substitutes
  // go on. In particular a drop (empty substitute list) DECREASES the
  // message count — the withheld messages never hit the wire. The counters
  // stay monotone at round boundaries because a slot only ever holds
  // messages submitted earlier in the same round.
  costs_.p2p_messages -= slot.size();
  for (const auto& p : slot) costs_.p2p_elements -= p.size();
  costs_.p2p_messages += payloads.size();
  for (const auto& p : payloads) {
    costs_.p2p_elements += p.size();
    meters_.alloc_bytes->add(p.size() * sizeof(Fld));
  }
  // The substituted payloads are freshly built buffers, so the allocation
  // counters only ever grow — a drop frees memory but allocates none.
  meters_.alloc_count->add(payloads.size());
  slot = std::move(payloads);
  // Poison outstanding views of this queue (debug-checked use-after-free).
  channel_stamp_[to * n_ + from] = ++stamp_counter_;
  // Rewrites during the adversary turn are adversarial tampering; rewrites
  // by the fault engine (after the turn) are logged as FaultEvents instead.
  if (in_adversary_turn_)
    tamper_log_.push_back({costs_.rounds, from, to, false});
}

void Network::substitute_broadcast(PartyId from,
                                   std::vector<Payload> payloads) {
  GFOR14_EXPECTS(in_round_);
  GFOR14_EXPECTS(from < n_);
  auto& slot = pending_.bcast[from];
  costs_.broadcast_invocations -= slot.size();
  for (const auto& p : slot) costs_.broadcast_elements -= p.size();
  costs_.broadcast_invocations += payloads.size();
  for (const auto& p : payloads) {
    costs_.broadcast_elements += p.size();
    meters_.alloc_bytes->add(p.size() * sizeof(Fld));
  }
  meters_.alloc_count->add(payloads.size());
  slot = std::move(payloads);
  if (in_adversary_turn_)
    tamper_log_.push_back({costs_.rounds, from, 0, true});
}

void Network::blame(PartyId accuser, PartyId accused,
                    std::string_view reason) {
  GFOR14_EXPECTS(accuser < n_ || accuser == kPublicBlame);
  const std::size_t bucket = accuser == kPublicBlame ? n_ : accuser;
  blame_[bucket].push_back(
      {accuser, accused, std::string(reason), costs_.rounds});
  // Lazily created so clean executions leave no trace in the registry.
  registry_->counter("net.blame_records").add(1);
}

std::vector<BlameRecord> Network::blames() const {
  std::vector<BlameRecord> out;
  for (const auto& bucket : blame_)
    out.insert(out.end(), bucket.begin(), bucket.end());
  return out;
}

std::size_t Network::blame_count() const {
  std::size_t total = 0;
  for (const auto& bucket : blame_) total += bucket.size();
  return total;
}

}  // namespace gfor14::net
