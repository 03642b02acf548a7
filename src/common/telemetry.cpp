#include "common/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

namespace gfor14::telemetry {

namespace {

/// Flattens the deterministic counters of `reg` and its child scopes into
/// `out`, name-sorted per scope, children after own counters with a
/// "childname/" prefix. Scope traversal is name-ordered (scope_names is
/// sorted), so the flattened order is canonical.
void flatten_counters(metrics::Registry& reg, const std::string& prefix,
                      std::vector<std::pair<std::string, std::uint64_t>>& out) {
  for (auto& [name, value] : reg.counters_snapshot())
    if (deterministic_counter(name)) out.emplace_back(prefix + name, value);
  for (const auto& child : reg.scope_names())
    flatten_counters(*reg.scope(child), prefix + child + "/", out);
}

/// Reads one "Vm...: <kB> kB" line from /proc/self/status in bytes; 0 when
/// absent. Environmental: reported outside the deterministic section only.
std::uint64_t proc_status_bytes(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status.is_open()) return 0;
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::size_t pos = prefix.size();
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    std::uint64_t kb = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9')
      kb = kb * 10 + static_cast<std::uint64_t>(line[pos++] - '0');
    return kb * 1024;
  }
  return 0;
}

std::uint64_t rss_bytes() { return proc_status_bytes("VmRSS"); }
std::uint64_t peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

std::string sanitize(const std::string& name) {
  std::string out = "gfor14_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One registry level of the metrics document; scope == "" for the root.
void expose_level(const json::Value& doc, const std::string& scope,
                  std::string& out, std::vector<std::string>& typed) {
  const std::string label =
      scope.empty() ? std::string() : "{scope=\"" + scope + "\"}";
  const auto header = [&](const std::string& metric, const char* type,
                          const std::string& source) {
    // Emit each # HELP/# TYPE header pair once, before the metric's first
    // sample.
    if (std::find(typed.begin(), typed.end(), metric) != typed.end()) return;
    typed.push_back(metric);
    out += "# HELP " + metric + " gfor14 " + type + " " + source + "\n";
    out += "# TYPE " + metric + " " + type + "\n";
  };
  if (const json::Value* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->members()) {
      const std::string metric = sanitize(name);
      header(metric, "counter", name);
      out += metric + label + " " + fmt_double(v.as_double()) + "\n";
    }
  }
  if (const json::Value* gauges = doc.find("gauges")) {
    for (const auto& [name, v] : gauges->members()) {
      const std::string metric = sanitize(name);
      header(metric, "gauge", name);
      out += metric + label + " " + fmt_double(v.as_double()) + "\n";
    }
  }
  if (const json::Value* hists = doc.find("histograms")) {
    for (const auto& [name, h] : hists->members()) {
      const std::string metric = sanitize(name);
      const auto field = [&](const char* key) {
        const json::Value* v = h.find(key);
        return v ? v->as_double() : 0.0;
      };
      const std::string scope_attr =
          scope.empty() ? std::string() : ",scope=\"" + scope + "\"";
      if (const json::Value* buckets = h.find("buckets")) {
        // True histogram exposition (currently net.round_wall_us, whose
        // registry document carries a fixed bucket ladder).
        header(metric, "histogram", name);
        for (const json::Value& b : buckets->items()) {
          const json::Value* le = b.find("le");
          const json::Value* count = b.find("count");
          if (le == nullptr || count == nullptr) continue;
          out += metric + "_bucket{le=\"" + fmt_double(le->as_double()) +
                 "\"" + scope_attr + "} " + fmt_double(count->as_double()) +
                 "\n";
        }
        out += metric + "_bucket{le=\"+Inf\"" + scope_attr + "} " +
               fmt_double(field("count")) + "\n";
        out += metric + "_sum" + label + " " +
               fmt_double(field("mean") * field("count")) + "\n";
        out += metric + "_count" + label + " " + fmt_double(field("count")) +
               "\n";
        continue;
      }
      header(metric, "summary", name);
      out += metric + "{quantile=\"0.5\"" + scope_attr + "} " +
             fmt_double(field("p50")) + "\n";
      out += metric + "{quantile=\"0.95\"" + scope_attr + "} " +
             fmt_double(field("p95")) + "\n";
      out += metric + "_sum" + label + " " +
             fmt_double(field("mean") * field("count")) + "\n";
      out += metric + "_count" + label + " " + fmt_double(field("count")) +
             "\n";
    }
  }
  if (const json::Value* scopes = doc.find("scopes")) {
    for (const auto& [child, sub] : scopes->members()) {
      const std::string path = scope.empty() ? child : scope + "/" + child;
      expose_level(sub, path, out, typed);
    }
  }
}

}  // namespace

bool deterministic_counter(const std::string& name) {
  static constexpr const char* kPrefixes[] = {"net.", "vss.", "anonchan.",
                                              "pseudosig.", "server."};
  for (const char* p : kPrefixes)
    if (name.rfind(p, 0) == 0) return true;
  return false;
}

TelemetrySampler::TelemetrySampler(std::shared_ptr<metrics::Registry> scope,
                                   std::size_t every)
    : scope_(std::move(scope)),
      interval_(every == 0 ? 1 : every),
      stride_(interval_),
      start_(std::chrono::steady_clock::now()) {
  GFOR14_EXPECTS(scope_ != nullptr);
}

void TelemetrySampler::on_round_end(const net::Network& /*net*/,
                                    const net::CostReport& /*round_delta*/) {
  sample_wave();
}

void TelemetrySampler::sample_wave() {
  ++rounds_seen_;
  if (rounds_seen_ % stride_ != 0) return;
  take_snapshot();
}

void TelemetrySampler::take_snapshot() {
  Snapshot s;
  s.round = rounds_seen_;
  flatten_counters(*scope_, "", s.counters);
  s.wall_us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  s.rss_bytes = rss_bytes();
  ring_.push_back(std::move(s));
  if (ring_.size() >= kMaxSnapshots) {
    // Same decimation as metrics::Histogram: keep every second snapshot and
    // double the stride. Ring slot j holds round (j+1)*stride, so keeping the
    // odd slots keeps the even multiples of the old stride — exactly the
    // multiples of the doubled stride, so future samples stay aligned.
    for (std::size_t i = 0, j = 1; j < ring_.size(); ++i, j += 2)
      ring_[i] = std::move(ring_[j]);
    ring_.resize(ring_.size() / 2);
    stride_ *= 2;
  }
}

json::Value TelemetrySampler::deterministic_json() const {
  json::Value doc = json::Value::object();
  doc.set("interval", static_cast<double>(interval_));
  doc.set("stride", static_cast<double>(stride_));
  doc.set("rounds", static_cast<double>(rounds_seen_));
  json::Value snaps = json::Value::array();
  for (const Snapshot& s : ring_) {
    json::Value o = json::Value::object();
    o.set("round", static_cast<double>(s.round));
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : s.counters)
      counters.set(name, static_cast<double>(value));
    o.set("counters", std::move(counters));
    snaps.push_back(std::move(o));
  }
  doc.set("snapshots", std::move(snaps));
  return doc;
}

json::Value TelemetrySampler::to_json() const {
  json::Value doc = deterministic_json();
  json::Value env = json::Value::object();
  json::Value wall = json::Value::array();
  json::Value rss = json::Value::array();
  for (const Snapshot& s : ring_) {
    wall.push_back(json::Value(s.wall_us));
    rss.push_back(json::Value(static_cast<double>(s.rss_bytes)));
  }
  env.set("wall_us", std::move(wall));
  env.set("rss_bytes", std::move(rss));
  env.set("peak_rss_bytes", static_cast<double>(peak_rss_bytes()));
  {
    // Round-wall distribution of the watched scope (observations forward to
    // parents, so a session scope sees its own rounds only).
    metrics::Histogram& h = scope_->histogram("net.round_wall_us");
    json::Value o = json::Value::object();
    o.set("count", h.summary().count());
    o.set("p50_us", h.quantile(0.5));
    o.set("p95_us", h.quantile(0.95));
    env.set("round_wall", std::move(o));
  }
  for (const auto& [key, value] : annotations_) env.set(key, value);
  doc.set("environment", std::move(env));
  return doc;
}

void TelemetrySampler::set_annotation(const std::string& key,
                                      json::Value value) {
  for (auto& [k, v] : annotations_)
    if (k == key) {
      v = std::move(value);
      return;
    }
  annotations_.emplace_back(key, std::move(value));
}

bool TelemetrySampler::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << to_json().dump(2) << "\n";
  return out.good();
}

std::string TelemetrySampler::prometheus() const {
  std::vector<std::pair<std::string, double>> extra;
  extra.emplace_back("process.rss_bytes",
                     static_cast<double>(rss_bytes()));
  extra.emplace_back("process.peak_rss_bytes",
                     static_cast<double>(peak_rss_bytes()));
  return prometheus_text(scope_->to_json(), extra);
}

bool TelemetrySampler::write_prometheus(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << prometheus();
  return out.good();
}

std::string prometheus_text(
    const json::Value& metrics_doc,
    const std::vector<std::pair<std::string, double>>& extra_gauges) {
  std::string out;
  std::vector<std::string> typed;
  expose_level(metrics_doc, "", out, typed);
  for (const auto& [name, value] : extra_gauges) {
    const std::string metric = sanitize(name);
    if (std::find(typed.begin(), typed.end(), metric) == typed.end()) {
      typed.push_back(metric);
      out += "# HELP " + metric + " gfor14 gauge " + name + "\n";
      out += "# TYPE " + metric + " gauge\n";
    }
    out += metric + " " + fmt_double(value) + "\n";
  }
  return out;
}

}  // namespace gfor14::telemetry
