#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace gfor14::json {

namespace {

void escape_into(const std::string& s, std::string& out) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void number_into(double d, std::string& out) {
  // Integral values print without a fractional part (the cost counters and
  // round numbers the artifacts carry are exact integers).
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
    return;
  }
  if (!std::isfinite(d)) {  // JSON has no inf/nan; emit null.
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

void dump_into(const Value& v, int indent, int depth, std::string& out) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull: out += "null"; break;
    case Value::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Value::Kind::kNumber: number_into(v.as_double(), out); break;
    case Value::Kind::kString: escape_into(v.as_string(), out); break;
    case Value::Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        dump_into(v.items()[i], indent, depth + 1, out);
      }
      if (!v.items().empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        if (i) out.push_back(',');
        newline(depth + 1);
        escape_into(v.members()[i].first, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_into(v.members()[i].second, indent, depth + 1, out);
      }
      if (!v.members().empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  /// Deepest array/object nesting accepted (every document the tools
  /// write nests a handful of levels).
  static constexpr std::size_t kMaxDepth = 256;

  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run() {
    auto v = parse_value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::strlen(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  std::optional<std::string> parse_string_body() {
    // Called with pos_ just past the opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // UTF-8 encode (surrogate pairs are not recombined; the emitter
          // never produces them for the ASCII identifiers we use).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> parse_array_body() {
    Value arr = Value::array();
    skip_ws();
    if (eat(']')) return arr;
    for (;;) {
      auto v = parse_value();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      if (eat(']')) return arr;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Value> parse_object_body() {
    Value obj = Value::object();
    skip_ws();
    if (eat('}')) return obj;
    for (;;) {
      if (!eat('"')) return std::nullopt;
      auto key = parse_string_body();
      if (!key) return std::nullopt;
      if (!eat(':')) return std::nullopt;
      auto v = parse_value();
      if (!v) return std::nullopt;
      // A repeated key has no single meaning (set() would keep the last
      // one silently), so the document is rejected.
      if (obj.find(*key) != nullptr) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      if (eat('}')) return obj;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Value> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == 'n') return literal("null") ? std::optional<Value>(Value()) : std::nullopt;
    if (c == 't') return literal("true") ? std::optional<Value>(Value(true)) : std::nullopt;
    if (c == 'f') return literal("false") ? std::optional<Value>(Value(false)) : std::nullopt;
    if (c == '"') {
      ++pos_;
      auto s = parse_string_body();
      if (!s) return std::nullopt;
      return Value(std::move(*s));
    }
    if (c == '[' || c == '{') {
      // Containers recurse; past kMaxDepth the document is rejected
      // instead of exhausting the stack.
      if (depth_ == kMaxDepth) return std::nullopt;
      ++pos_;
      ++depth_;
      auto v = c == '[' ? parse_array_body() : parse_object_body();
      --depth_;
      return v;
    }
    // number
    const std::size_t start = pos_;
    if (c == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return std::nullopt;
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return std::nullopt;
    return Value(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_into(*this, indent, 0, out);
  if (indent >= 0) out.push_back('\n');
  return out;
}

std::optional<Value> Value::parse(std::string_view text) {
  return Parser(text).run();
}

bool Value::operator==(const Value& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == o.bool_;
    case Kind::kNumber: return num_ == o.num_;
    case Kind::kString: return str_ == o.str_;
    case Kind::kArray: return items_ == o.items_;
    case Kind::kObject: return members_ == o.members_;
  }
  return false;
}

}  // namespace gfor14::json
