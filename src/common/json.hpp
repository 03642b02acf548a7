// Minimal JSON document model with a writer and a strict parser.
//
// The observability layer (trace JSONL sinks, the metrics exporter, the
// BENCH_*.json experiment artifacts) needs structured, machine-readable
// output without external dependencies; this is the smallest value type
// that covers it. Objects preserve insertion order so emitted documents
// are deterministic and diffable across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gfor14::json {

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Value(std::size_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}

  static Value array() { Value v; v.kind_ = Kind::kArray; return v; }
  static Value object() { Value v; v.kind_ = Kind::kObject; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }

  bool as_bool() const { return bool_; }
  double as_double() const { return num_; }
  /// Checked count accessor for values read from files: the number when it
  /// is a non-negative integer no larger than 2^53 (every such double is
  /// exact), nullopt for any other value or kind.
  std::optional<std::uint64_t> as_count() const {
    if (kind_ != Kind::kNumber || !(num_ >= 0.0 && num_ <= 0x1p53) ||
        num_ != static_cast<double>(static_cast<std::uint64_t>(num_)))
      return std::nullopt;
    return static_cast<std::uint64_t>(num_);
  }
  const std::string& as_string() const { return str_; }

  /// Array element count / object member count.
  std::size_t size() const {
    return kind_ == Kind::kArray ? items_.size() : members_.size();
  }

  // --- array ---------------------------------------------------------------
  Value& push_back(Value v) {
    items_.push_back(std::move(v));
    return items_.back();
  }
  const Value& at(std::size_t i) const { return items_[i]; }
  const std::vector<Value>& items() const { return items_; }

  // --- object (insertion-ordered) ------------------------------------------
  Value& set(std::string key, Value v) {
    for (auto& [k, existing] : members_)
      if (k == key) {
        existing = std::move(v);
        return existing;
      }
    members_.emplace_back(std::move(key), std::move(v));
    return members_.back().second;
  }
  /// nullptr when the key is absent.
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : members_)
      if (k == key) return &v;
    return nullptr;
  }
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Serializes; indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Strict parse of a complete document; nullopt on any syntax error,
  /// trailing garbage, a key repeated within one object, or array/object
  /// nesting deeper than 256 levels.
  static std::optional<Value> parse(std::string_view text);

  /// Receives the elements of diverted arrays (see below): `array` numbers
  /// the diverted arrays in document order from 0, and `text` is the
  /// element's string value, or nullptr when the element is not a string.
  using ElementSink =
      std::function<void(std::size_t array, const std::string_view* text)>;
  /// The same strict parse, except that arrays found at `path` — member
  /// names from the root, "*" for any array element — are diverted: each
  /// parses to an empty array and hands its elements to `element` instead
  /// of building a Value per element (a recording's payload words).
  static std::optional<Value> parse(std::string_view text,
                                    std::span<const std::string_view> path,
                                    const ElementSink& element);

  bool operator==(const Value& o) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

}  // namespace gfor14::json
