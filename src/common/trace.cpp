#include "common/trace.hpp"

#include <fstream>

#include "common/expect.hpp"

namespace gfor14::trace {

const SpanNode* SpanNode::child(std::string_view child_name) const {
  for (const auto& c : children)
    if (c->name == child_name) return c.get();
  return nullptr;
}

net::CostReport SpanNode::children_costs() const {
  net::CostReport sum;
  for (const auto& c : children) {
    sum.rounds += c->costs.rounds;
    sum.broadcast_rounds += c->costs.broadcast_rounds;
    sum.broadcast_invocations += c->costs.broadcast_invocations;
    sum.p2p_messages += c->costs.p2p_messages;
    sum.p2p_elements += c->costs.p2p_elements;
    sum.broadcast_elements += c->costs.broadcast_elements;
  }
  return sum;
}

json::Value cost_to_json(const net::CostReport& c) {
  json::Value o = json::Value::object();
  o.set("rounds", c.rounds);
  o.set("broadcast_rounds", c.broadcast_rounds);
  o.set("broadcast_invocations", c.broadcast_invocations);
  o.set("p2p_messages", c.p2p_messages);
  o.set("p2p_elements", c.p2p_elements);
  o.set("broadcast_elements", c.broadcast_elements);
  return o;
}

json::Value SpanNode::to_json() const {
  json::Value o = json::Value::object();
  o.set("name", name);
  o.set("wall_us", wall_us);
  o.set("costs", cost_to_json(costs));
  if (!metrics.empty()) {
    json::Value m = json::Value::object();
    for (const auto& [k, v] : metrics) m.set(k, v);
    o.set("metrics", std::move(m));
  }
  if (!children.empty()) {
    json::Value kids = json::Value::array();
    for (const auto& c : children) kids.push_back(c->to_json());
    o.set("children", std::move(kids));
  }
  return o;
}

struct Tracer::Sink {
  std::ofstream out;
};

Tracer::Tracer() = default;

Tracer::~Tracer() = default;

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadState& Tracer::state() {
  static thread_local ThreadState ts;
  return ts;
}

bool Tracer::set_sink_path(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_) sink_->out.flush();
  if (path.empty()) {
    sink_.reset();
    return true;
  }
  auto sink = std::make_unique<Sink>();
  sink->out.open(path, std::ios::out | std::ios::trunc);
  if (!sink->out.is_open()) return false;
  sink_ = std::move(sink);
  return true;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  roots_.clear();
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_) sink_->out.flush();
}

std::string Tracer::current_path() {
  if (!instance().enabled()) return {};
  std::string path;
  for (const SpanNode* s : state().open) {
    if (!path.empty()) path.push_back('/');
    path += s->name;
  }
  return path;
}

void Span::open(std::string_view name, const net::Network* net) {
  Tracer& tr = Tracer::instance();
  if (!tr.enabled()) return;
  Tracer::ThreadState& ts = Tracer::state();
  auto node = std::make_unique<SpanNode>();
  node->name = std::string(name);
  node_ = node.get();
  ts.pending.push_back(std::move(node));
  ts.open.push_back(node_);
  if (net) {
    bound_net_ = true;
    prev_net_ = ts.current_net;
    ts.current_net = net;
  }
  if (ts.current_net) start_costs_ = ts.current_net->costs();
  start_ = std::chrono::steady_clock::now();
}

Span::Span(std::string_view name) { open(name, nullptr); }

Span::Span(std::string_view name, const net::Network& net) {
  open(name, &net);
}

void Span::metric(std::string_view key, double value) {
  if (node_) node_->metrics.emplace_back(std::string(key), value);
}

Span::~Span() {
  if (!node_) return;
  Tracer& tr = Tracer::instance();
  Tracer::ThreadState& ts = Tracer::state();
  // Spans close in strict LIFO order per thread (they are scoped objects).
  GFOR14_EXPECTS(!ts.open.empty() && ts.open.back() == node_);
  node_->wall_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start_)
          .count();
  if (ts.current_net) node_->costs = ts.current_net->costs() - start_costs_;

  {
    std::lock_guard<std::mutex> lock(tr.mu_);
    if (tr.sink_) {
      // Streamed JSONL record: path from this thread's open stack.
      std::string path;
      for (const SpanNode* s : ts.open) {
        if (!path.empty()) path.push_back('/');
        path += s->name;
      }
      json::Value line = json::Value::object();
      line.set("span", std::move(path));
      line.set("wall_us", node_->wall_us);
      line.set("costs", cost_to_json(node_->costs));
      if (!node_->metrics.empty()) {
        json::Value m = json::Value::object();
        for (const auto& [k, v] : node_->metrics) m.set(k, v);
        line.set("metrics", std::move(m));
      }
      // Buffered: lines hit the stream here and the disk on Tracer::flush()
      // (or sink close). A per-line flush() would serialize worker-lane
      // spans on disk I/O for no durability gain — the flush points below
      // are what the "no truncated last line" contract rests on.
      tr.sink_->out << line.dump() << '\n';
    }
  }

  ts.open.pop_back();
  auto owned = std::move(ts.pending.back());
  ts.pending.pop_back();
  if (ts.open.empty()) {
    std::lock_guard<std::mutex> lock(tr.mu_);
    tr.roots_.push_back(std::move(owned));
  } else {
    ts.open.back()->children.push_back(std::move(owned));
  }

  if (bound_net_) ts.current_net = prev_net_;
}

}  // namespace gfor14::trace
