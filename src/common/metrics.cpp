#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

namespace gfor14::metrics {

namespace {
// Thread-local attachment for Registry::current(). A raw shared_ptr here is
// fine: attachments are strictly scoped (RegistryAttachment restores the
// previous value), so the slot is empty again before thread exit in normal
// use, and an abandoned attachment merely keeps one scope alive.
thread_local std::shared_ptr<Registry> t_attached;
}  // namespace

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sample_.empty()) return 0.0;
  std::vector<double> sorted = sample_;
  std::sort(sorted.begin(), sorted.end());
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

std::vector<std::uint64_t> Histogram::cumulative_counts(
    const std::vector<double>& bounds) const {
  std::vector<double> sorted;
  std::size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sorted = sample_;
    total = summary_.count();
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint64_t> out;
  out.reserve(bounds.size());
  for (double le : bounds) {
    if (sorted.empty() || total == 0) {
      out.push_back(0);
      continue;
    }
    const std::size_t kept = static_cast<std::size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), le) - sorted.begin());
    if (kept == sorted.size()) {
      out.push_back(total);  // bound past the sample max: exact total
      continue;
    }
    // Scale the systematic subsample back to the stream: monotone in `le`
    // because kept is and the scale factor is shared.
    out.push_back(static_cast<std::uint64_t>(
        static_cast<double>(total) * static_cast<double>(kept) /
        static_cast<double>(sorted.size())));
  }
  return out;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry& Registry::current() {
  return t_attached ? *t_attached : instance();
}

std::shared_ptr<Registry> Registry::current_shared() {
  if (t_attached) return t_attached;
  return std::shared_ptr<Registry>(&instance(), [](Registry*) {});
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
    // Resolve the roll-up target eagerly so roll_up() never allocates.
    // Takes the parent's lock while holding ours: child-before-parent, the
    // registry-wide lock order.
    if (parent_ != nullptr) it->second.parent = &parent_->counter(name);
  }
  return it->second.counter;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) it = gauges_.try_emplace(std::string(name)).first;
  return it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
    if (parent_ != nullptr) it->second.parent_ = &parent_->histogram(name);
  }
  return it->second;
}

std::shared_ptr<Registry> Registry::scope(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = children_.find(name);
  if (it == children_.end()) {
    auto child = std::shared_ptr<Registry>(
        new Registry(this, std::string(name)));
    it = children_.emplace(std::string(name), std::move(child)).first;
  }
  return it->second;
}

void Registry::roll_up() {
  // Children first (recursively), so a grandchild's events reach this scope
  // before this scope pushes to its own parent.
  std::vector<std::shared_ptr<Registry>> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    children.reserve(children_.size());
    for (const auto& [name, child] : children_) children.push_back(child);
  }
  for (const auto& child : children) child->roll_up();

  if (parent_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, slot] : counters_) {
    const std::uint64_t v = slot.counter.value();
    if (v != slot.rolled && slot.parent != nullptr) {
      slot.parent->add(v - slot.rolled);
      slot.rolled = v;
    }
  }
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, slot] : counters_)
    out.emplace_back(name, slot.counter.value());
  return out;
}

std::vector<std::string> Registry::scope_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(children_.size());
  for (const auto& [name, child] : children_) out.push_back(name);
  return out;
}

json::Value Registry::to_json() const {
  json::Value root = json::Value::object();
  std::vector<std::shared_ptr<Registry>> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    json::Value counters = json::Value::object();
    for (const auto& [name, slot] : counters_)
      counters.set(name, static_cast<double>(slot.counter.value()));
    root.set("counters", std::move(counters));

    json::Value gauges = json::Value::object();
    for (const auto& [name, g] : gauges_) gauges.set(name, g.value());
    root.set("gauges", std::move(gauges));

    json::Value histograms = json::Value::object();
    for (const auto& [name, h] : histograms_) {
      const Summary s = h.summary();
      json::Value o = json::Value::object();
      o.set("count", s.count());
      o.set("mean", s.mean());
      o.set("stddev", s.stddev());
      o.set("min", s.min());
      o.set("max", s.max());
      o.set("p50", h.quantile(0.5));
      o.set("p95", h.quantile(0.95));
      if (name == "net.round_wall_us") {
        // Fixed microsecond ladder for the round-wall distribution so the
        // Prometheus exposition can render true histogram buckets (the
        // other histograms stay summary-only). Cumulative counts estimated
        // from the decimating sample; the +Inf bucket is the exact count.
        static const std::vector<double> kRoundWallBoundsUs = {
            100.0,    250.0,    500.0,    1000.0,    2500.0,   5000.0,
            10000.0,  25000.0,  50000.0,  100000.0,  250000.0, 500000.0,
            1000000.0};
        const auto counts = h.cumulative_counts(kRoundWallBoundsUs);
        json::Value buckets = json::Value::array();
        for (std::size_t i = 0; i < kRoundWallBoundsUs.size(); ++i) {
          json::Value b = json::Value::object();
          b.set("le", kRoundWallBoundsUs[i]);
          b.set("count", static_cast<double>(counts[i]));
          buckets.push_back(std::move(b));
        }
        o.set("buckets", std::move(buckets));
      }
      histograms.set(name, std::move(o));
    }
    root.set("histograms", std::move(histograms));

    children.reserve(children_.size());
    for (const auto& [name, child] : children_) children.push_back(child);
  }
  // Descend with our lock released: child->to_json takes the child lock,
  // and holding parent-then-child would invert the child-before-parent
  // order used everywhere else.
  if (!children.empty()) {
    json::Value scopes = json::Value::object();
    for (const auto& child : children)
      scopes.set(child->scope_name(), child->to_json());
    root.set("scopes", std::move(scopes));
  }
  return root;
}

bool Registry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json().dump(2);
  return out.good();
}

void Registry::reset() {
  std::vector<std::shared_ptr<Registry>> children;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, slot] : counters_) {
      slot.counter.reset();
      slot.rolled = 0;
    }
    for (auto& [name, g] : gauges_) g.reset();
    for (auto& [name, h] : histograms_) h.reset();
    children.reserve(children_.size());
    for (const auto& [name, child] : children_) children.push_back(child);
  }
  for (const auto& child : children) child->reset();
}

void Registry::reset_for_test() {
  Registry& root = instance();
  std::vector<std::shared_ptr<Registry>> orphans;
  {
    std::lock_guard<std::mutex> lock(root.mu_);
    for (auto& [name, slot] : root.counters_) {
      slot.counter.reset();
      slot.rolled = 0;
    }
    for (auto& [name, g] : root.gauges_) g.reset();
    for (auto& [name, h] : root.histograms_) h.reset();
    orphans.reserve(root.children_.size());
    for (auto& [name, child] : root.children_) orphans.push_back(child);
    root.children_.clear();
  }
  // Sever the detached scopes' links into the root so a holder that keeps
  // one alive across tests can no longer push into future root totals.
  for (const auto& child : orphans) {
    std::lock_guard<std::mutex> lock(child->mu_);
    child->parent_ = nullptr;
    for (auto& [name, slot] : child->counters_) slot.parent = nullptr;
    for (auto& [name, h] : child->histograms_) h.parent_ = nullptr;
  }
}

RegistryAttachment::RegistryAttachment(std::shared_ptr<Registry> scope)
    : previous_(std::move(t_attached)) {
  t_attached = std::move(scope);
}

RegistryAttachment::~RegistryAttachment() { t_attached = std::move(previous_); }

}  // namespace gfor14::metrics
